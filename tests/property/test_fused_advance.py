"""Property tests: the fused advance and the scan-free horizon give the
floats of the loop and the horizon they replaced.

``FluidPool._advance`` takes one subtraction per task and clamps the
step only for a task that drains, and
``_reallocate`` takes the horizon straight from the work/rate
quotients, leaving starved and invalid rates to the full scan.
``LoopAdvancePool`` keeps the former code: a loop that skips
non-positive rates and clamps every step before subtracting, and a
horizon behind a ``min(rate) > 0`` pre-scan.  It follows the pool's
completion delivery rule (a wakeup's drains are delivered by the
wakeup, any other drain schedules its ``done``).

Random schedules of admissions, cancellations, pokes, per-task
starvation and whole-pool starvation, over a GPU pool and a plain pool
in one environment, run once with each pool class under both regimes'
checks (``tests/regimes.py``; the ``vector`` one also checks the pool's
advances against numpy).  The runs must agree exactly on every
task's work and rate after every event, on completion times and order,
on ``work_drained`` and on the event count.
"""

import math
import operator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import A100_40GB, Kernel, MpsControlDaemon, SimulatedGPU
from repro.gpu import device as gpu_device
from repro.profile import EventLoopProfiler
from repro.sim import Environment, FluidPool, FluidTask
from tests.regimes import REGIMES, regime_checks

#: The rate of the task that drains below the clock's resolution at
#: t = 1.5 (tests/sim/test_fluid.py::
#: test_completion_below_clock_resolution_terminates).
SUB_ULP_RATE = 9722361.180590294


class LoopAdvancePool(FluidPool):
    """The former scalar advance and ``_reallocate`` horizon."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Scalar steps clamped to the remaining work.
        self.clamps = 0
        #: Scalar steps skipped for a zero rate.
        self.skips = 0
        #: Wakeups armed at most one clock ulp ahead.
        self.sub_ulp = 0

    def _arm(self, d, delay):
        if delay <= math.ulp(self.env.now):
            self.sub_ulp += 1
        super()._arm(d, delay)

    def _advance(self, d, inline=False):
        n = len(d._slot_task)
        now = self.env._now
        dt = now - d._last_update
        d._last_update = now
        if dt <= 0 or n == 0:
            return None
        w = d._w
        r = d._r
        th = d._th
        drained_at = None
        drained_total = 0.0
        for i in range(n):
            rate = r[i]
            if rate <= 0:
                self.skips += 1
                continue
            work = w[i]
            drained = rate * dt
            if drained > work:
                self.clamps += 1
                drained = work
            work -= drained
            drained_total += drained
            if work <= th[i]:
                work = 0.0
                if drained_at is None:
                    drained_at = []
                drained_at.append(i)
            w[i] = work
        self._work_drained.add(drained_total)
        finished = None
        if drained_at is not None:
            finished = []
            # Order-preserving removal from the admission-ordered
            # columns, as the pool does.
            for k, i in enumerate(drained_at):
                i -= k
                task = d._slot_task[i]
                del w[i], r[i], th[i], d._slot_task[i]
                task._work = 0.0
                task._dom = None
                finished.append(task)
                d._members_rev += 1
                if self.on_change is not None:
                    self.on_change(task, False)
                # The pool's delivery rule: a wakeup's drains are
                # delivered by the wakeup itself, others are scheduled.
                if inline:
                    task.done._value = task
                else:
                    task.done.succeed(task)
        return finished

    def _reallocate(self, d):
        if not d._slot_task:
            self._disarm(d)
            d._alloc_rev = -1
            return
        if (d._members_rev == d._alloc_rev
                and self._epoch == d._alloc_epoch):
            if d._wakeup_pending:
                return
            self._schedule_wakeup(d)
            return
        self.allocator(d._slot_task)
        d._alloc_rev = d._members_rev
        d._alloc_epoch = self._epoch
        r = d._r
        if d._wake is not None and min(r) > 0.0:
            horizon = min(map(operator.truediv, d._w, r))
            if horizon < math.inf:
                self._arm(d, max(horizon, 0.0))
                return
        self._schedule_wakeup(d)


class StateLog(EventLoopProfiler):
    """Snapshots every watched task's ``(work, rate)`` after each event."""

    def __init__(self, tasks):
        super().__init__()
        self.tasks = tasks
        self.states = []

    def record(self, env, when, event, callbacks):
        super().record(env, when, event, callbacks)
        self.states.append((when, [(t.work, t.rate) for t in self.tasks]))


OPS = st.one_of(
    st.tuples(st.just("kernel"), st.integers(0, 2),
              st.floats(1e9, 5e11), st.floats(0.0, 8e9),
              st.integers(1, A100_40GB.sms)),
    st.tuples(st.just("plain"), st.floats(1e-4, 0.05),
              st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("cancel"), st.sampled_from(["gpu", "plain"]),
              st.integers(0, 7)),
    st.tuples(st.just("poke"), st.sampled_from(["gpu", "plain"])),
    st.tuples(st.just("zero"), st.integers(0, 7)),
    st.tuples(st.just("starve"), st.booleans()),
)

SCHEDULES = st.lists(
    st.tuples(st.floats(0.0, 0.01), OPS), min_size=1, max_size=30)


def _play(schedule, pool_cls):
    """Run ``schedule`` with ``pool_cls`` pools; returns everything the
    two runs must agree on, and the pools."""
    env = Environment()
    with mock.patch.object(gpu_device, "FluidPool", pool_cls):
        gpu = SimulatedGPU(env, A100_40GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    clients = [daemon.client(f"c{i}", active_thread_percentage=40)
               for i in range(3)]
    starved = [False]

    def plain_allocator(tasks):
        # meta: [weight]; a weight of 0 starves the task.  A weight
        # above 1e6 is a fixed rate (the sub-ulp task).
        n = len(tasks)
        for t in tasks:
            weight = t.meta[0]
            if starved[0]:
                t.rate = 0.0
            elif weight > 1e6:
                t.rate = weight
            else:
                t.rate = weight / n

    plain = pool_cls(env, plain_allocator, name="plain")
    pools = {"gpu": gpu.pool, "plain": plain}
    tasks = []
    completions = []
    log = StateLog(tasks)
    log.attach(env)

    def watch(task):
        tasks.append(task)
        index = len(tasks) - 1
        task.done.callbacks.append(
            lambda ev: completions.append((index, env.now, ev._ok)))

    def operate():
        for delay, op in schedule:
            yield env.timeout(delay)
            kind = op[0]
            if kind == "kernel":
                _, c, flops, nbytes, sms = op
                clients[c].launch(Kernel(flops=flops, bytes_moved=nbytes,
                                         max_sms=sms))
                if len(gpu.pool):
                    watch(gpu.pool.tasks[-1])
            elif kind == "plain":
                watch(plain.add(FluidTask(env, work=op[1], meta=[op[2]])))
            elif kind == "cancel":
                resident = pools[op[1]].tasks
                if resident:
                    task = resident[op[2] % len(resident)]
                    pools[op[1]].cancel(task)
                    task.done._defused = True
                    task.done.fail(RuntimeError("cancelled"))
            elif kind == "poke":
                pools[op[1]].poke()
            elif kind == "zero":
                resident = plain.tasks
                if resident:
                    resident[op[1] % len(resident)].meta[0] = 0.0
                    plain.poke()
            else:
                starved[0] = op[1]
                plain.poke()
        # Revive every starved task so the run drains.
        starved[0] = False
        for task in plain.tasks:
            if task.meta[0] == 0.0:
                task.meta[0] = 1.0
        plain.poke()

    def sub_ulp():
        # The task that drains below the clock's resolution (schedules
        # end before t = 1.5).
        yield env.timeout(1.5)
        watch(plain.add(FluidTask(env, work=1.0, meta=[SUB_ULP_RATE])))

    env.process(operate())
    env.process(sub_ulp())
    env.run()
    result = (log.states, completions,
              [p.work_drained for p in pools.values()],
              env.events_processed, env.now)
    return result, list(pools.values())


def _compare(schedule, regime):
    with regime_checks(regime):
        got, _ = _play(schedule, FluidPool)
        want, refs = _play(schedule, LoopAdvancePool)
    assert got[0] == want[0]
    assert got[1:] == want[1:]
    return refs


regimes = pytest.mark.parametrize("regime", [t for _, t in REGIMES],
                                  ids=[i for i, _ in REGIMES])


@regimes
@given(schedule=SCHEDULES)
@settings(max_examples=150, deadline=None)
def test_fused_advance_matches_loop(schedule, regime):
    _compare(schedule, regime)


def test_reference_takes_every_branch():
    """A fixed schedule reaches clamped completions and zero-rate tasks
    in the reference, and both runs drain the sub-ulp task."""
    schedule = [
        (0.0, ("plain", 0.01, 1.0)),
        (0.0, ("plain", 0.03, 3.0)),
        (0.001, ("kernel", 0, 2e11, 4e9, 60)),
        (0.001, ("plain", 0.02, 0.5)),
        (0.002, ("zero", 1)),
        (0.001, ("kernel", 1, 5e10, 1e9, 30)),
        (0.003, ("starve", True)),
        (0.002, ("starve", False)),
        (0.001, ("cancel", "plain", 0)),
    ]
    gpu_pool, plain = _compare(schedule, False)
    assert gpu_pool.clamps + plain.clamps > 0 and plain.skips > 0
    assert plain.sub_ulp > 0
