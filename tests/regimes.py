"""Force the simulator's adaptive regimes and check pool slot invariants.

The fluid pool's hot loops (``fluid._VEC_MIN``) and the allocator's
per-group math (``device._VEC_MIN_GROUP``) switch between scalar loops
and numpy kernels at a resident-count threshold that small test
scenarios never reach.  :func:`forced_regime` sets both thresholds to
one value — ``1`` (always vector) or ``10**9`` (always scalar) — and
checks the slot layout after every reallocation and eviction:

- each resident task sits in its slot (``pool._slot_task[t._slot] is
  t``) and its ``rate``/``work`` read that slot;
- every ndarray mirror flagged in sync equals its list.
"""

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


@contextmanager
def forced_regime(threshold: int):
    """Run the block with both adaptive thresholds at ``threshold`` and
    :func:`check_slots` after every reallocation and eviction."""
    reallocate = FluidPool._reallocate
    evict = FluidPool._evict_slot

    def checked_reallocate(pool):
        reallocate(pool)
        assert len(pool._slot_task) == len(pool._tasks)
        for t in pool._tasks.values():
            assert pool._slot_task[t._slot] is t
        check_slots(pool)

    def checked_evict(pool, task):
        evict(pool, task)
        assert task._pool is None and task.rate == 0.0
        check_slots(pool)

    with mock.patch.object(fluid, "_VEC_MIN", threshold), \
            mock.patch.object(device, "_VEC_MIN_GROUP", threshold), \
            mock.patch.object(FluidPool, "_reallocate", checked_reallocate), \
            mock.patch.object(FluidPool, "_evict_slot", checked_evict):
        yield
