"""Force the simulator's adaptive regimes and check pool slot invariants.

The fluid pool's hot loops (``fluid._VEC_MIN``) and the allocator's
per-group math (``device._VEC_MIN_GROUP``) switch between scalar loops
and numpy kernels at a resident-count threshold that small test
scenarios never reach.  :func:`forced_regime` sets both thresholds to
one value — ``1`` (always vector) or ``10**9`` (always scalar) — and
checks the slot layout after every reallocation and eviction:

- each resident task sits in its slot (``pool._slot_task[t._slot] is
  t``) and its ``rate``/``work`` read that slot;
- every ndarray mirror flagged in sync equals its list;
- after a reallocation, the completion wakeup is armed exactly at the
  earliest completion, ``now + min(work / rate)`` over the tasks that
  progress, or disarmed when none does (:func:`check_horizon`).
"""

import math
from contextlib import contextmanager
from unittest import mock

from repro.gpu import device
from repro.sim import fluid
from repro.sim.fluid import FluidPool

#: ``(id, threshold)``: always-vector and always-scalar.
REGIMES = [("vector", 1), ("scalar", 10**9)]


def check_slots(pool: FluidPool) -> None:
    """Assert the slot invariants of ``pool`` (see module docstring)."""
    n = len(pool._slot_task)
    assert len(pool._w) == len(pool._r) == len(pool._th) == n
    for i, t in enumerate(pool._slot_task):
        assert t._slot == i and t._pool is pool
        assert t.rate == pool._r[i] and t.work == pool._w[i]
    for flag, arr, values in ((pool._w_sync, pool._w_arr, pool._w),
                              (pool._r_sync, pool._r_arr, pool._r),
                              (pool._th_sync, pool._th_arr, pool._th)):
        if flag:
            assert arr[:n].tolist() == values


def check_horizon(pool: FluidPool, in_frame: bool) -> None:
    """Assert ``pool``'s wakeup is armed at its earliest completion.

    The horizon is ``min(work / rate)`` over the tasks with a positive
    rate; when ``now`` plus it rounds to ``now``, the full scan wakes
    one clock ulp later instead, while the arming in ``_reallocate``'s
    frame (``in_frame``: the scalar regime, a slot built before and
    every rate positive) arms it as computed and reaches the full scan
    when it fires.  With no positive rate the slot must be disarmed."""
    env = pool.env
    key = env._timers.get(pool._wake) if pool._wake is not None else None
    assert (key is not None) == pool._wakeup_pending
    horizon = min((w / r for w, r in zip(pool._w, pool._r) if r > 0.0),
                  default=math.inf)
    if horizon == math.inf:
        assert key is None
        return
    now = env.now
    due = now + horizon
    if due <= now and not in_frame:
        due = now + math.ulp(now)
    assert key is not None and key[0] == due


@contextmanager
def forced_regime(threshold: int):
    """Run the block with both adaptive thresholds at ``threshold``,
    :func:`check_slots` after every reallocation and eviction, and
    :func:`check_horizon` after every reallocation."""
    reallocate = FluidPool._reallocate
    evict = FluidPool._evict_slot

    def checked_reallocate(pool):
        # Only a fresh allocation arms in _reallocate's frame.
        fresh = (pool._members_rev != pool._alloc_rev
                 or pool._epoch != pool._alloc_epoch)
        built = pool._wake is not None
        reallocate(pool)
        assert len(pool._slot_task) == len(pool._tasks)
        for t in pool._tasks.values():
            assert pool._slot_task[t._slot] is t
        check_slots(pool)
        r = pool._r
        check_horizon(pool, fresh and built and len(r) < threshold
                      and min(r, default=0.0) > 0.0)

    def checked_evict(pool, task):
        evict(pool, task)
        assert task._pool is None and task.rate == 0.0
        check_slots(pool)

    with mock.patch.object(fluid, "_VEC_MIN", threshold), \
            mock.patch.object(device, "_VEC_MIN_GROUP", threshold), \
            mock.patch.object(FluidPool, "_reallocate", checked_reallocate), \
            mock.patch.object(FluidPool, "_evict_slot", checked_evict):
        yield
