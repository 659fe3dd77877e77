"""Check the fluid pool's slot layout and wakeup horizon as it runs, and
in the ``vector`` regime its floats against the numpy formulation.

The fluid pool and the allocator have one scalar path.  They used to
switch to numpy kernels at a resident-count threshold; the regime ids
stay, and the ``vector`` regime now checks the scalar floats against
that numpy formulation, a test-only oracle.  :func:`regime_checks` runs
a block with these checks:

- in both regimes, after every advance (where tasks drain) and every
  reallocation, the domain's slot columns hold its residents in
  admission order (``_aseq`` strictly ascending) and each task's
  ``rate``/``work`` read its own column entry, and a drained task has
  left its domain and reads rate 0.0; after a reallocation, the
  domain's completion wakeup is armed exactly at its earliest
  completion, ``now + min(work / rate)`` over the tasks that progress,
  or disarmed when none does (:func:`check_horizon`);
- in the ``vector`` regime also: every advance leaves each task the
  work ``w - min(r*dt, w)`` (zero once at or below its drain
  threshold), drains exactly the tasks numpy finds at or below it, and
  adds the left-to-right ``np.add.accumulate`` of the drained amounts
  to ``work_drained``; every horizon equals the numpy minimum; and
  every group's allocation columns and every within-group split equal
  their numpy computation (sums through ``np.add.accumulate``, the
  waterfill's running ``remaining`` through ``np.subtract.accumulate``).
"""

import math
from contextlib import contextmanager
from functools import reduce
from operator import add
from unittest import mock

import numpy as np

from repro.gpu import device
from repro.gpu.device import SimulatedGPU
from repro.sim.fluid import FluidPool
from repro.sim.numerics import KahanSum

#: ``(id, numpy oracle)``: the numpy-checked and the plain regime.
REGIMES = [("vector", True), ("scalar", False)]


def check_slots(d) -> None:
    """Assert the slot invariants of the pool domain ``d`` (see module
    docstring)."""
    n = len(d._slot_task)
    assert len(d._w) == len(d._r) == len(d._th) == n
    aseq = [t._aseq for t in d._slot_task]
    assert all(a < b for a, b in zip(aseq, aseq[1:])), aseq
    for i, t in enumerate(d._slot_task):
        assert t._dom is d
        assert t.rate == d._r[i] and t.work == d._w[i]


def check_horizon(d, in_frame: bool, numpy_oracle: bool = False) -> None:
    """Assert the pool domain ``d``'s wakeup is armed at its earliest
    completion.

    The horizon is ``min(work / rate)`` over the tasks with a positive
    rate; when ``now`` plus it rounds to ``now``, the full scan wakes
    one clock ulp later instead, while the arming in ``_reallocate``'s
    frame (``in_frame``: a slot built before and every rate positive)
    arms it as computed and reaches the full scan when it fires.  With
    no positive rate the slot must be disarmed."""
    env = d.pool.env
    key = env._timers.get(d._wake) if d._wake is not None else None
    assert (key is not None) == d._wakeup_pending
    horizon = min((w / r for w, r in zip(d._w, d._r) if r > 0.0),
                  default=math.inf)
    if numpy_oracle and horizon < math.inf:
        wa = np.array(d._w)
        ra = np.array(d._r)
        pos = ra > 0.0
        assert float(np.min(wa[pos] / ra[pos])) == horizon
    if horizon == math.inf:
        assert key is None
        return
    now = env.now
    due = now + horizon
    if due <= now and not in_frame:
        due = now + math.ulp(now)
    assert key is not None and key[0] == due


def _advance_oracle(pool: FluidPool, d, advance, inline: bool):
    """Run ``advance`` over domain ``d`` and check its floats against
    numpy."""
    dt = pool.env._now - d._last_update
    tasks = list(d._slot_task)
    if dt <= 0 or not tasks:
        return advance(pool, d, inline)
    w = np.array(d._w)
    drained = np.minimum(np.array(d._r) * dt, w)
    left = w - drained
    done = left <= np.array(d._th)
    left[done] = 0.0
    acc = pool._work_drained
    want = KahanSum(acc.value)
    want._comp = acc._comp
    want.add(float(np.add.accumulate(drained)[-1]))
    finished = advance(pool, d, inline)
    # The columns are in admission order, and so are the drained tasks.
    drained_tasks = [t for t, d in zip(tasks, done.tolist()) if d]
    assert (finished or []) == drained_tasks
    assert [t.work for t in tasks] == left.tolist()
    assert (acc.value, acc._comp) == (want.value, want._comp)
    return finished


def _columns_np(st) -> tuple:
    """A group's allocation columns, by numpy, from its classes."""
    work = [d for d, _, _ in st.kclass]
    if st.repeats:
        tasks = st.res
        by_client = {}
        for i, t in enumerate(tasks):
            by_client.setdefault(id(t.meta["client"]), []).append(i)
        for idx in by_client.values():
            cap = float(tasks[idx[0]].meta["client"].sm_cap)
            subtotal = reduce(add, [work[i] for i in idx], 0.0)
            if subtotal > cap:
                for i in idx:
                    work[i] *= cap / subtotal
    w = np.array(work)
    total = float(np.add.accumulate(w)[-1])
    scale = min(1.0, st.budget / total) if total > 0 else 0.0
    sm = w * scale
    ki = np.array([k for _, k, _ in st.kclass], dtype=np.float64)
    bytes_a, flops_a, smrate_a = ki[:, 0], ki[:, 1], ki[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        v = bytes_a * ((smrate_a * sm) / flops_a)
    v = np.where(flops_a > 0, v, np.inf)
    v = np.where(bytes_a == 0, 0.0, v)
    return (tuple(sm.tolist()), float(np.add.accumulate(sm)[-1]),
            tuple(v.tolist()), float(np.add.accumulate(v)[-1]))


def _waterfill_uniform_np(demand: np.ndarray, total: float) -> np.ndarray:
    """``device._waterfill_uniform_list`` over a demand array."""
    m = np.minimum(demand, total)
    alloc = np.zeros_like(m)
    active = m > 0.0
    remaining = total
    while remaining > 0.0:
        nact = int(np.count_nonzero(active))
        if nact == 0:
            break
        share = remaining / nact
        unsat = active & (m > share)
        if int(np.count_nonzero(unsat)) == nact:
            alloc[active] = total if total < share else share
            return alloc
        sat = active & ~unsat
        alloc[sat] = m[sat]
        remaining = float(np.subtract.accumulate(
            np.concatenate(((remaining,), m[sat])))[-1])
        active = unsat
    return alloc


def _group_rates_np(cols, gs: float, overhead: float) -> tuple:
    """``device._group_rates`` by numpy."""
    bwd = np.asarray(cols.bwd_list, dtype=np.float64)
    if device._fits(cols.bw_demand_sum, gs):
        bwa = bwd.copy()
    else:
        bwa = _waterfill_uniform_np(bwd, gs)
    ki = np.array(cols.kinfo, dtype=np.float64)
    bytes_a, flops_a, smrate_a = ki[:, 0], ki[:, 1], ki[:, 2]
    sm = np.asarray(cols.sm_list, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_c = ((smrate_a * sm) / flops_a) * overhead
        rate_m = bwa / bytes_a
    rate_c = np.where(flops_a > 0, rate_c, np.inf)
    rate_m = np.where((bytes_a > 0) & (bwd > 0), rate_m, np.inf)
    rate = np.minimum(rate_c, rate_m)
    rate[np.isinf(rate)] = 0.0
    return (tuple(bwa.tolist()), float(np.add.accumulate(bwa)[-1]),
            tuple(rate.tolist()))


@contextmanager
def regime_checks(numpy_oracle: bool):
    """Run the block with :func:`check_slots` after every advance and
    reallocation and :func:`check_horizon` after every reallocation;
    with ``numpy_oracle`` (the ``vector`` regime), also check every
    advance, column and split against numpy."""
    reallocate = FluidPool._reallocate
    advance = FluidPool._advance
    recompute = SimulatedGPU._recompute_group
    group_rates = device._group_rates

    def checked_reallocate(pool, d):
        # Only a fresh allocation arms in _reallocate's frame.
        fresh = (d._members_rev != d._alloc_rev
                 or pool._epoch != d._alloc_epoch)
        built = d._wake is not None
        reallocate(pool, d)
        check_slots(d)
        check_horizon(d, fresh and built
                      and min(d._r, default=0.0) > 0.0, numpy_oracle)

    def checked_advance(pool, d, inline=False):
        if numpy_oracle:
            finished = _advance_oracle(pool, d, advance, inline)
        else:
            finished = advance(pool, d, inline)
        for task in finished or ():
            assert task._dom is None and task.rate == 0.0
        check_slots(d)
        return finished

    def checked_recompute(gpu, st):
        recompute(gpu, st)
        cols = st.cols
        assert (cols.sm_list, cols.sm_sum, cols.bwd_list,
                cols.bw_demand_sum) == _columns_np(st)

    def checked_group_rates(cols, gs, overhead):
        split = group_rates(cols, gs, overhead)
        assert split == _group_rates_np(cols, gs, overhead)
        return split

    patches = [mock.patch.object(FluidPool, "_reallocate",
                                 checked_reallocate),
               mock.patch.object(FluidPool, "_advance", checked_advance)]
    if numpy_oracle:
        patches += [
            mock.patch.object(SimulatedGPU, "_recompute_group",
                              checked_recompute),
            mock.patch.object(device, "_group_rates", checked_group_rates),
        ]
    for patch in patches:
        patch.start()
    try:
        yield
    finally:
        for patch in reversed(patches):
            patch.stop()
