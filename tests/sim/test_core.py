"""Unit tests for the DES kernel: clock, events, combinators."""

import pytest

from repro.gpu import A100_40GB, Kernel, MpsControlDaemon, SimulatedGPU
from repro.gpu import TransferEngine
from repro.sim import (Environment, FluidPool, FluidTask, SimulationError,
                       WakeupSlot)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.5)
    env.run()
    assert env.now == 3.5


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


# A NaN delay used to be accepted and fire out of order with the clock
# unmoved: every delay and time check must reject it.
NAN = float("nan")


def test_timeout_nan_delay_rejected():
    with pytest.raises(ValueError):
        Environment().timeout(NAN)


def test_timeout_pooled_nan_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout_pooled(NAN)  # a fresh pooled timeout
    env.timeout_pooled(0.0)
    env.run()
    assert env._tpool
    with pytest.raises(ValueError):
        env.timeout_pooled(NAN)  # a recycled one


def test_arm_nan_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.arm(WakeupSlot(env, lambda ev: None), NAN)
    assert env._tnext is None


def test_schedule_batch_nan_time_rejected():
    env = Environment()
    with pytest.raises(SimulationError, match="non-decreasing"):
        env.schedule_batch([1.0, NAN])
    assert not env._queue


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1.0, value="payload")
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_events_fire_in_time_order():
    env = Environment()
    order = []
    for delay in (5.0, 1.0, 3.0):
        ev = env.timeout(delay)
        ev.callbacks.append(lambda e, d=delay: order.append(d))
    env.run()
    assert order == [1.0, 3.0, 5.0]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    order = []
    for i in range(10):
        ev = env.timeout(1.0)
        ev.callbacks.append(lambda e, i=i: order.append(i))
    env.run()
    assert order == list(range(10))


def test_event_succeed_once_only():
    env = Environment()
    ev = env.event()
    ev.succeed(42)
    with pytest.raises(SimulationError):
        ev.succeed(43)


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_run_until_time_stops_exactly():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0
    env.run()
    assert env.now == 10.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert env.now == 2.0


def test_run_until_event_that_never_fires():
    env = Environment()
    orphan = env.event()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_all_of_collects_all_values():
    env = Environment()
    evs = [env.timeout(d, value=d) for d in (1.0, 2.0, 3.0)]
    result = env.run(until=env.all_of(evs))
    assert sorted(result.values()) == [1.0, 2.0, 3.0]
    assert env.now == 3.0


def test_any_of_fires_on_first():
    env = Environment()
    evs = [env.timeout(d, value=d) for d in (5.0, 1.0)]
    result = env.run(until=env.any_of(evs))
    assert list(result.values()) == [1.0]
    assert env.now == 1.0


def test_all_of_empty_fires_immediately():
    env = Environment()
    cond = env.all_of([])
    assert cond.triggered


def test_all_of_mixed_processed_and_pending():
    """Regression: processed constituents must not fire an AllOf early."""
    env = Environment()
    early = [env.timeout(1.0, value=i) for i in range(3)]
    env.run(until=2.0)  # the three early events are processed now
    late = env.timeout(5.0, value="late")
    cond = env.all_of(early + [late])
    assert not cond.triggered
    result = env.run(until=cond)
    assert env.now == pytest.approx(7.0)
    assert sorted(map(str, result.values())) == ["0", "1", "2", "late"]


def test_all_of_processed_failure_decides_immediately():
    env = Environment()
    bad = env.event()
    bad.fail(RuntimeError("early failure"))
    bad._defused = True
    env.run(until=0.5)
    pending = env.timeout(5.0)
    cond = env.all_of([bad, pending])
    cond._defused = True
    assert cond.triggered and not cond.ok


def test_any_of_with_processed_event_fires_immediately():
    env = Environment()
    done = env.timeout(1.0, value="first")
    env.run(until=2.0)
    pending = env.timeout(100.0)
    cond = env.any_of([done, pending])
    assert cond.triggered and cond.ok
    assert list(cond.value.values()) == ["first"]


def test_unhandled_failed_event_raises_from_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_mixing_environments_rejected():
    env1, env2 = Environment(), Environment()
    ev2 = env2.event()
    with pytest.raises(SimulationError):
        env1.all_of([ev2])


def test_schedule_callback():
    env = Environment()
    hits = []
    env.schedule_callback(2.0, lambda: hits.append(env.now))
    env.run()
    assert hits == [2.0]


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_sees_an_armed_wakeup_slot():
    env = Environment()
    slot = WakeupSlot(env, lambda ev: None)
    env.arm(slot, 4.0)
    assert not env._queue  # the slot lives outside the heap
    assert env.peek() == 4.0
    env.timeout(6.0)
    assert env.peek() == 4.0
    env.disarm(slot)
    assert env.peek() == 6.0


def test_wakeup_slot_fires_in_its_timeouts_place():
    # Arming takes the (time, NORMAL, seq) key a timeout created at that
    # moment would have; re-arming overwrites the pending firing.
    env = Environment()
    order = []
    slot = WakeupSlot(env, lambda ev: order.append(("slot", env.now)))
    env.timeout(1.0).callbacks.append(lambda ev: order.append(("a", env.now)))
    env.arm(slot, 5.0)
    env.arm(slot, 1.0)
    env.timeout(1.0).callbacks.append(lambda ev: order.append(("b", env.now)))
    seq = env._seq
    env.run()
    assert seq == 4  # both armings consumed a sequence number
    assert order == [("a", 1.0), ("slot", 1.0), ("b", 1.0)]
    assert env.events_processed == 3  # the superseded firing never pops
    assert env.now == 1.0


def test_wakeup_slots_track_the_earliest_armed():
    env = Environment()
    order = []
    slots = [WakeupSlot(env, lambda ev, i=i: order.append((i, env.now)))
             for i in range(3)]
    env.arm(slots[0], 3.0)
    env.arm(slots[1], 1.0)
    env.arm(slots[2], 2.0)
    env.arm(slots[1], 5.0)   # the earliest moves later
    env.disarm(slots[2])     # and the next one is cancelled
    env.disarm(slots[2])     # disarming a disarmed slot is a no-op
    env.run()
    assert order == [(0, 3.0), (1, 5.0)]
    # A fired slot stays disarmed until re-armed, and can fire again.
    env.arm(slots[0], 1.0)
    env.run()
    assert order[-1] == (0, 6.0)
    with pytest.raises(ValueError):
        env.arm(slots[0], -1.0)


def test_step_rejects_an_empty_schedule():
    env = Environment()
    with pytest.raises(SimulationError, match="no scheduled events"):
        env.step()


def test_advance_leaves_the_stop_callbacks_as_found():
    env = Environment()
    for t in range(1, 30):
        env.timeout(float(t))
    stop = env.timeout(25.0)
    stop.callbacks.append(lambda ev: None)
    n0 = len(stop.callbacks)
    for epoch in range(1, 25):
        assert env.advance(float(epoch), stop=stop) is False
        assert len(stop.callbacks) == n0
    assert env.advance(100.0, stop=stop) is True
    assert env.now == 25.0
    assert env.advance(200.0, stop=stop) is True  # already processed


def test_run_until_event_detaches_when_the_queue_drains():
    env = Environment()
    never = env.event()
    env.timeout(1.0)
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=never)
    assert never.callbacks == []


def test_run_ends_at_the_last_live_event():
    # A superseded pool wakeup no longer pops, so it cannot move the
    # clock past the last event that did something.
    env = Environment()
    pool = FluidPool(env, lambda tasks: [setattr(t, "rate", 1.0)
                                        for t in tasks])
    long = pool.add(FluidTask(env, work=10.0))
    env.timeout(1.0).callbacks.append(lambda ev: pool.cancel(long))
    env.run()
    assert env.now == 1.0
    assert env.events_processed == 1


def _fluid_scenario(env):
    """Two pools with staggered admissions, cancellations and pokes."""
    gpu = SimulatedGPU(env, A100_40GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    clients = [daemon.client(f"c{i}", active_thread_percentage=50)
               for i in range(2)]
    pcie = TransferEngine(env)
    tasks = []

    def operate():
        for i in range(6):
            yield env.timeout(0.002 * (i % 3))
            kernel = Kernel(flops=2e11 * (i + 1), bytes_moved=4e9,
                            max_sms=40 + 10 * i, name=f"k{i}")
            clients[i % 2].launch(kernel)
            pcie.copy(0.003 * (i + 1))
            if i == 3:
                victim = gpu.pool.tasks[0]
                gpu.pool.cancel(victim)
                tasks.append(victim)
            gpu.pool.poke()
        tasks.extend(gpu.pool.tasks + pcie.pool.tasks)

    env.process(operate())
    return tasks


def test_step_driven_fluid_run_matches_run():
    ran = Environment()
    ran_tasks = _fluid_scenario(ran)
    ran.run()
    stepped = Environment()
    stepped_tasks = _fluid_scenario(stepped)
    peeks = []
    slot_first = 0
    while stepped.peek() != float("inf"):
        peeks.append(stepped.peek())
        slot_first += (not stepped._queue
                       or stepped._queue[0][0] > peeks[-1])
        stepped.step()
        assert stepped.now == peeks[-1]
    assert slot_first > 0  # some steps fired an armed slot
    assert stepped.events_processed == ran.events_processed
    assert stepped.now == ran.now
    assert len(ran_tasks) == len(stepped_tasks) > 6
    assert ([t.work for t in stepped_tasks]
            == [t.work for t in ran_tasks])
    assert ([t.done.triggered for t in stepped_tasks]
            == [t.done.triggered for t in ran_tasks])
