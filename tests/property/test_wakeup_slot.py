"""Property tests: a pool's wakeup slot behaves like the heap timeouts
it replaced.

``FluidPool`` keeps its completion wakeup in one re-armable slot outside
the event heap.  The reference below is the scheme the slot replaced:
every arming pushes a pooled timeout carrying a generation number, and a
superseded timeout still pops as an event whose callback only returns.
A live timeout runs the pool's wakeup body (the slot's ``_on_wakeup``
closure), so both schemes deliver a wakeup's completions inline.
Random schedules of admissions, cancellations, pokes and starvation
toggles, over three pools in one environment (a GPU, its PCIe transfer
engine and a plain pool whose allocator can starve every task), run
twice — once with the slot, once with the reference — and must agree on
every live event, every final work and rate, and on the event count up
to the reference's superseded wakeups.  ``FluidPool._arm`` is the only
arming seam: the slot run's ``Environment.arm`` calls must equal the
reference's ``_arm`` calls, so a pool that arms its slot directly (which
the reference would not see) fails loudly.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import A100_40GB, Kernel, MpsControlDaemon, SimulatedGPU
from repro.gpu import device as gpu_device
from repro.gpu import transfer as gpu_transfer
from repro.gpu.transfer import TransferEngine
from repro.profile import EventLoopProfiler, site_name
from repro.sim import Environment, FluidPool, FluidTask


class HeapWakeupPool(FluidPool):
    """The pre-slot wakeup scheme: one pooled heap timeout per arming."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Arming generation per domain.
        self._gen: dict = {}
        #: Wakeups that popped after a later arming superseded them.
        self.superseded = 0
        #: Calls of the arming seam.
        self.arms = 0

    def _arm(self, d, delay: float) -> None:
        self.arms += 1
        gen = self._gen[d] = self._gen.get(d, 0) + 1
        wakeup = self.env.timeout_pooled(delay)
        d._wakeup_pending = True

        # The domain's wakeup body (drain, re-arm, deliver the drained
        # tasks' ``done`` callbacks inline): the slot's callback, which
        # every arming finds built.
        body = d._wake._callbacks[0]

        def _on_wakeup(ev) -> None:
            if gen != self._gen[d]:
                self.superseded += 1
                return
            body(ev)

        wakeup.callbacks.append(_on_wakeup)

    def _disarm(self, d) -> None:
        self._gen[d] = self._gen.get(d, 0) + 1
        d._wakeup_pending = False


class LiveEventLog(EventLoopProfiler):
    """Records ``(time, callback sites)`` of every event that was not a
    superseded reference wakeup; both schemes' wakeups read "wakeup"."""

    def __init__(self, pools):
        super().__init__()
        self.pools = pools
        self.live = []

    def _superseded(self) -> int:
        return sum(getattr(p, "superseded", 0) for p in self.pools)

    def record(self, env, when, event, callbacks):
        before = self._superseded()
        super().record(env, when, event, callbacks)
        if self._superseded() == before:
            self.live.append((when, tuple(
                "wakeup" if site_name(cb).endswith("._on_wakeup")
                else site_name(cb) for cb in callbacks)))


OPS = st.one_of(
    st.tuples(st.just("kernel"), st.integers(0, 2),
              st.floats(1e9, 5e11), st.floats(0.0, 8e9),
              st.integers(1, A100_40GB.sms)),
    st.tuples(st.just("copy"), st.floats(1e-4, 0.02)),
    st.tuples(st.just("plain"), st.floats(1e-4, 0.02)),
    st.tuples(st.just("cancel"), st.sampled_from(["gpu", "pcie", "plain"]),
              st.integers(0, 7)),
    st.tuples(st.just("poke"), st.sampled_from(["gpu", "pcie", "plain"])),
    st.tuples(st.just("starve"), st.booleans()),
)

SCHEDULES = st.lists(
    st.tuples(st.floats(0.0, 0.01), OPS), min_size=1, max_size=30)


def _run(schedule, pool_cls):
    """Play ``schedule`` with ``pool_cls`` pools; the last result is the
    pair (``Environment.arm`` calls, reference ``_arm`` calls)."""
    env_arms = []
    arm = Environment.arm

    def counted_arm(env, slot, delay):
        env_arms.append(delay)
        arm(env, slot, delay)

    with mock.patch.object(Environment, "arm", counted_arm):
        *result, seam_arms = _play(schedule, pool_cls)
    return (*result, (len(env_arms), seam_arms))


def _play(schedule, pool_cls):
    env = Environment()
    with mock.patch.object(gpu_device, "FluidPool", pool_cls), \
            mock.patch.object(gpu_transfer, "FluidPool", pool_cls):
        gpu = SimulatedGPU(env, A100_40GB)
        pcie = TransferEngine(env)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    clients = [daemon.client(f"c{i}", active_thread_percentage=40)
               for i in range(3)]
    starved = [False]

    def plain_allocator(tasks):
        share = 0.0 if starved[0] else 1.0 / len(tasks)
        for t in tasks:
            t.rate = share

    plain = pool_cls(env, plain_allocator, name="plain")
    pools = {"gpu": gpu.pool, "pcie": pcie.pool, "plain": plain}
    log = LiveEventLog(list(pools.values()))
    log.attach(env)
    tasks = []

    def operate():
        for delay, op in schedule:
            yield env.timeout(delay)
            kind = op[0]
            if kind == "kernel":
                _, c, flops, nbytes, sms = op
                clients[c].launch(Kernel(flops=flops, bytes_moved=nbytes,
                                         max_sms=sms))
                tasks.append(gpu.pool.tasks[-1]
                             if len(gpu.pool) else None)
            elif kind == "copy":
                pcie.copy(op[1])
                tasks.append(pcie.pool.tasks[-1]
                             if len(pcie.pool) else None)
            elif kind == "plain":
                tasks.append(plain.add(FluidTask(env, work=op[1])))
            elif kind == "cancel":
                resident = pools[op[1]].tasks
                if resident:
                    task = resident[op[2] % len(resident)]
                    pools[op[1]].cancel(task)
                    task.done._defused = True
                    task.done.fail(RuntimeError("cancelled"))
            elif kind == "poke":
                pools[op[1]].poke()
            else:
                starved[0] = op[1]
                plain.poke()
        starved[0] = False
        plain.poke()  # revive any starved task so the run drains

    env.process(operate())
    env.run()
    superseded = sum(getattr(p, "superseded", 0) for p in pools.values())
    state = [(t.work, t.rate, t.done.triggered) if t is not None else None
             for t in tasks]
    drained = [p.work_drained for p in pools.values()]
    seam_arms = sum(getattr(p, "arms", 0) for p in pools.values())
    return (log.live, state, drained, env.events_processed, superseded,
            seam_arms)


@given(schedule=SCHEDULES)
@settings(max_examples=80, deadline=None)
def test_slot_matches_heap_timeouts(schedule):
    live, state, drained, events, superseded, arms = \
        _run(schedule, FluidPool)
    assert superseded == 0
    ref_live, ref_state, ref_drained, ref_events, ref_superseded, \
        ref_arms = _run(schedule, HeapWakeupPool)
    assert arms[0] == ref_arms[1] and ref_arms[0] == 0
    assert live == ref_live
    assert state == ref_state
    assert drained == ref_drained
    assert events == ref_events - ref_superseded


@pytest.mark.parametrize("schedule", [
    # Every pool re-arms; the plain pool starves and revives.
    [(0.0, ("kernel", 0, 2e11, 4e9, 60)),
     (0.001, ("kernel", 1, 2e11, 4e9, 60)),
     (0.001, ("copy", 0.01)),
     (0.0, ("copy", 0.01)),
     (0.0, ("plain", 0.01)),
     (0.001, ("starve", True)),
     (0.001, ("starve", False))],
    # The earliest wakeup (the GPU's) re-arms past the transfer's.
    [(0.0, ("copy", 0.0025)),
     (0.0, ("kernel", 0, 1e9, 3e9, 108)),
     (0.001, ("kernel", 1, 1e9, 8e9, 108))],
], ids=["all-pools", "earliest-moves-later"])
def test_reference_supersedes_wakeups(schedule):
    """Fixed schedules that reach superseded wakeups in the reference."""
    live, state, _, events, _, arms = _run(schedule, FluidPool)
    ref_live, ref_state, _, ref_events, superseded, ref_arms = \
        _run(schedule, HeapWakeupPool)
    assert superseded > 0
    assert arms[0] == ref_arms[1] > 0 and ref_arms[0] == 0
    assert live == ref_live
    assert state == ref_state
    assert events == ref_events - superseded
