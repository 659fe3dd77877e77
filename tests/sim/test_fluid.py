"""Unit tests for the fluid task pool."""

import math

import pytest

from repro.sim import Environment, FluidPool, FluidTask, SimulationError
from tests.regimes import REGIMES, regime_checks


def equal_share_allocator(capacity):
    """Divide ``capacity`` units/s equally among resident tasks."""

    def allocate(tasks):
        share = capacity / len(tasks)
        for t in tasks:
            t.rate = share

    return allocate


def test_single_task_duration():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    task = FluidTask(env, work=50.0)
    pool.add(task)
    env.run(until=task.done)
    assert env.now == pytest.approx(5.0)


def test_two_tasks_share_equally():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    a = FluidTask(env, work=50.0)
    b = FluidTask(env, work=50.0)
    pool.add(a)
    pool.add(b)
    env.run()
    # Each progresses at 5 units/s throughout.
    assert env.now == pytest.approx(10.0)


def test_late_arrival_slows_first_task():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    a = FluidTask(env, work=100.0)
    pool.add(a)
    finish_times = {}
    a.done.callbacks.append(lambda ev: finish_times.__setitem__("a", env.now))

    def late(env):
        yield env.timeout(5.0)  # a has drained 50 units alone
        b = FluidTask(env, work=25.0)
        pool.add(b)
        yield b.done
        finish_times["b"] = env.now

    env.process(late(env))
    env.run()
    # From t=5: both at 5 units/s. b (25 units) finishes at t=10;
    # a has 50-25=25 left, then runs alone at 10/s -> t=12.5.
    assert finish_times["b"] == pytest.approx(10.0)
    assert finish_times["a"] == pytest.approx(12.5)


def test_early_finisher_speeds_up_survivor():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    short = FluidTask(env, work=10.0)
    long = FluidTask(env, work=100.0)
    pool.add(short)
    pool.add(long)
    env.run(until=long.done)
    # Shared until t=2 (short drains 10 at 5/s; long drains 10),
    # then long runs alone: 90 left at 10/s -> t=11.
    assert env.now == pytest.approx(11.0)


def test_cancel_returns_remaining_work():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    task = FluidTask(env, work=100.0)
    pool.add(task)
    env.run(until=3.0)
    remaining = pool.cancel(task)
    assert remaining == pytest.approx(70.0)
    assert len(pool) == 0


def test_cancel_non_resident_rejected():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(1.0))
    task = FluidTask(env, work=1.0)
    with pytest.raises(SimulationError):
        pool.cancel(task)


def test_double_add_rejected():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(1.0))
    task = FluidTask(env, work=1.0)
    pool.add(task)
    with pytest.raises(SimulationError):
        pool.add(task)


def test_zero_work_task_completes_immediately():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(1.0))
    task = FluidTask(env, work=0.0)
    pool.add(task)
    assert task.done.triggered


def test_negative_work_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        FluidTask(env, work=-1.0)


def test_non_finite_work_rejected():
    # NaN work would re-arm its wakeup at the same instant forever, and
    # infinite work would drain at admission (its threshold is inf).
    env = Environment()
    for work in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            FluidTask(env, work=work)


def test_drain_threshold_is_relative_above_one_unit():
    env = Environment()
    for work in (0.0, 0.5, 1.0, 1.5, 3e7):
        task = FluidTask(env, work=work)
        assert task._thresh == 1e-9 * max(work, 1.0)


def test_starved_task_waits_for_poke():
    env = Environment()
    capacity = {"value": 0.0}

    def allocate(tasks):
        for t in tasks:
            t.rate = capacity["value"] / len(tasks)

    pool = FluidPool(env, allocate)
    task = FluidTask(env, work=10.0)
    pool.add(task)
    env.run(until=5.0)
    assert not task.done.triggered

    capacity["value"] = 10.0
    pool.poke()
    env.run(until=task.done)
    assert env.now == pytest.approx(6.0)


def test_work_conservation():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(7.0))
    total = 0.0
    for w in (5.0, 13.0, 2.5, 40.0):
        pool.add(FluidTask(env, work=w))
        total += w
    env.run()
    assert pool.work_drained == pytest.approx(total)


def test_progress_property():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    task = FluidTask(env, work=100.0)
    pool.add(task)
    env.run(until=4.0)
    pool.poke()  # force progress accounting
    assert task.progress == pytest.approx(0.4)


class CountingAllocator:
    """Equal-share allocator that records every invocation."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.calls = 0

    def __call__(self, tasks):
        self.calls += 1
        share = self.capacity / len(tasks)
        for t in tasks:
            t.rate = share


def test_poke_on_empty_pool_skips_allocator():
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    pool.poke()
    pool.poke()
    assert alloc.calls == 0


def test_zero_work_add_skips_allocator():
    # An instant-finish task never becomes resident, so the allocator
    # must not run for it (empty -> empty membership).
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    task = FluidTask(env, work=0.0)
    pool.add(task)
    assert task.done.triggered
    assert alloc.calls == 0
    assert len(pool) == 0


def test_zero_work_add_does_not_disturb_resident_tasks():
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    resident = FluidTask(env, work=50.0)
    pool.add(resident)
    calls_before = alloc.calls
    flash = FluidTask(env, work=0.0)
    pool.add(flash)
    assert flash.done.triggered
    assert alloc.calls == calls_before  # membership unchanged: no realloc
    env.run(until=resident.done)
    assert env.now == pytest.approx(5.0)


def test_instant_finish_task_succeeds_exactly_once():
    # Regression: an instant-finish task used to stay resident and be
    # finished a second time by the next advance (double succeed).
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    flash = FluidTask(env, work=0.0)
    slow = FluidTask(env, work=20.0)
    pool.add(flash)
    pool.add(slow)
    env.run(until=slow.done)  # would raise SimulationError before the fix
    assert env.now == pytest.approx(2.0)


def test_unchanged_membership_skips_reallocation():
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    pool.add(FluidTask(env, work=30.0))
    pool.add(FluidTask(env, work=30.0))
    calls_after_adds = alloc.calls
    env.run(until=2.0)
    # No membership change between t=0 and t=2: the wakeup machinery may
    # advance the pool but must not re-invoke the allocator.
    assert alloc.calls == calls_after_adds
    env.run()
    assert pool.work_drained == pytest.approx(60.0)


def test_poke_forces_reallocation_when_capacity_changes():
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    task = FluidTask(env, work=100.0)
    pool.add(task)
    env.run(until=5.0)
    alloc.capacity = 20.0
    pool.poke()  # same membership, but poke signals external change
    env.run(until=task.done)
    # 50 units drained by t=5, the rest at 20/s -> t=7.5.
    assert env.now == pytest.approx(7.5)


def test_allocator_negative_rate_rejected():
    env = Environment()

    def bad(tasks):
        for t in tasks:
            t.rate = -1.0

    pool = FluidPool(env, bad)
    with pytest.raises(SimulationError):
        pool.add(FluidTask(env, work=1.0))


def test_work_conservation_at_scale_with_tiny_tasks():
    """Compensated accumulation: many tiny drains into a large total.

    A naive running sum loses increments once the total outgrows them;
    the pool's Kahan accumulator keeps conservation tight however many
    tasks drain (the regression this guards appeared first in
    million-request trace-serving runs).
    """
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(1e9))

    def churn(env):
        # One huge task to grow the total, then a stream of tiny ones.
        big = FluidTask(env, work=1e9)
        pool.add(big)
        yield big.done
        for _ in range(20_000):
            t = FluidTask(env, work=1e-3)
            pool.add(t)
            yield t.done

    env.run(until=env.process(churn(env)))
    expected = 1e9 + 20_000 * 1e-3
    assert pool.work_drained == pytest.approx(expected, rel=1e-12)


def test_on_change_hook_sees_every_mutation():
    env = Environment()
    seen = []
    pool = FluidPool(env, equal_share_allocator(10.0),
                     on_change=lambda t, added: seen.append((t.tid, added)))
    a = FluidTask(env, work=5.0)
    b = FluidTask(env, work=50.0)
    pool.add(a)
    pool.add(b)
    env.run(until=a.done)          # a drains -> removal via _advance
    pool.cancel(b)                 # explicit eviction
    assert seen == [(a.tid, True), (b.tid, True),
                    (a.tid, False), (b.tid, False)]


def test_rates_live_in_pool_slots():
    """The slot columns hold the residents in admission order.  A
    removal deletes its entry in place: after the first of three tasks
    is cancelled, the other two keep their order and their work and
    rate entries."""
    env = Environment()
    rates = [1.0, 2.0, 4.0]
    pool = FluidPool(env, lambda tasks: [setattr(t, "rate", rates[t.meta])
                                         for t in tasks])
    tasks = [pool.add(FluidTask(env, work=10.0, meta=i)) for i in range(3)]
    d = pool.domain()
    assert d._slot_task == tasks and d._r == [1.0, 2.0, 4.0]
    # The rate is the column entry: writing one writes the other.
    tasks[1].rate = 7.0
    assert d._r == [1.0, 7.0, 4.0] and tasks[1].rate == 7.0
    env.run(until=1.0)
    assert pool.cancel(tasks[0]) == 9.0
    assert d._slot_task == tasks[1:]
    assert d._w == [3.0, 6.0] and d._r == [2.0, 4.0]
    assert [t.rate for t in tasks] == [0.0, 2.0, 4.0]
    assert [t.work for t in tasks] == [9.0, 3.0, 6.0]


def test_completion_below_clock_resolution_terminates():
    """At t = 1.5 (ulp 2.2e-16) a ~1e-7 s task's first wakeup leaves
    1.07e-9 of its work — above the drain threshold, yet draining in
    under half an ulp, so its next wakeup rounds to now and would fire
    without progress forever.  The pool wakes one ulp later instead."""
    env = Environment()
    rate = 9722361.180590294
    pool = FluidPool(env, lambda tasks: [setattr(t, "rate", rate)
                                         for t in tasks])
    env.run(until=1.5)
    task = pool.add(FluidTask(env, work=1.0))
    for _ in range(10):
        if task.done.processed:
            break
        env.step()
    assert task.done.processed and task.work == 0.0
    assert env.now - (1.5 + 1.0 / rate) <= 2 * math.ulp(1.5)


def _rated_pool(env, rates):
    """A pool whose allocator gives each task ``rates[task.meta]``;
    admits three tasks and arms the wakeup once."""
    pool = FluidPool(env, lambda tasks: [setattr(t, "rate", rates[t.meta])
                                         for t in tasks])
    tasks = [pool.add(FluidTask(env, work=10.0, meta=i)) for i in range(3)]
    d = pool.domain()
    assert d._wake is not None and d._wakeup_pending
    return pool, tasks


def test_rate_turning_negative_after_arming_rejected():
    env = Environment()
    rates = [1.0, 2.0, 4.0]
    pool, _ = _rated_pool(env, rates)
    env.run(until=1.0)
    rates[1] = -1.0
    with pytest.raises(SimulationError, match="negative rate"):
        pool.poke()


def test_rate_turning_zero_starves_only_that_task():
    env = Environment()
    rates = [1.0, 2.0, 4.0]
    pool, (a, b, c) = _rated_pool(env, rates)
    env.run(until=1.0)
    rates[1] = 0.0
    pool.poke()
    env.run()
    # a and c drain (c at t=2.5, a at t=10); b keeps its t=1 work.
    assert a.done.processed and c.done.processed
    assert env.now == 10.0
    assert not b.done.triggered and b.work == 8.0 and b.rate == 0.0
    assert not pool.domain()._wakeup_pending
    assert pool.work_drained == 22.0


def test_all_zero_rates_disarm_the_wakeup():
    env = Environment()
    rates = [1.0, 2.0, 4.0]
    pool, tasks = _rated_pool(env, rates)
    env.run(until=1.0)
    rates[:] = [0.0, 0.0, 0.0]
    pool.poke()
    d = pool.domain()
    assert not d._wakeup_pending
    assert d._wake not in env._timers
    env.run()
    assert env.now == 1.0
    assert [t.work for t in tasks] == [9.0, 8.0, 6.0]


#: Every pool test above, re-run under both regimes' checks.
POOL_TESTS = [f for name, f in sorted(globals().items())
              if name.startswith("test_") and callable(f)]


@pytest.mark.parametrize("regime", [t for _, t in REGIMES],
                         ids=[i for i, _ in REGIMES])
@pytest.mark.parametrize("case", POOL_TESTS, ids=lambda f: f.__name__)
def test_pool_in_both_regimes(case, regime):
    """The slot layout and the armed horizon hold after every
    reallocation and eviction; in the ``vector`` regime every advance
    and horizon also equals its numpy computation (tests/regimes.py)."""
    with regime_checks(regime):
        case()
