"""The simulated GPU: SM and bandwidth sharing across multiplexed clients.

Model (DESIGN.md §5)
--------------------
Every running kernel is a fluid task whose progress rate is the roofline
minimum of

- a *compute* rate: ``flops_per_sm x efficiency x allocated_SMs / flops``;
- a *memory* rate: ``allocated_bandwidth / bytes_moved``.

Clients are grouped into *share groups*, the unit of isolation:

=============  ==========================  =============================
Technique      Share groups                Discipline
=============  ==========================  =============================
time-sharing   one device-wide group       temporal (one kernel at a time,
                                           context-switch cost between
                                           clients)
MPS (default)  one device-wide group       spatial (all kernels resident)
MPS + GPU %    one device-wide group,      spatial; *bandwidth is not
               per-client SM caps          capped* — matches real MPS
MIG            one group per instance      spatial; SM *and* bandwidth
                                           *and* memory hard-capped
vGPU           one group per VM            temporal within a VM; fair
                                           fluid share across VMs
=============  ==========================  =============================

SM allocation: within a group, each kernel demands
``min(kernel.max_sms, client.sm_cap, group SM budget)``; demands exceeding
the budget are scaled back proportionally.  Groups with a ``fair`` SM
policy (vGPU) split the device SMs evenly among *active* groups.

Bandwidth allocation: water-filling of the device bandwidth over all
resident kernels, with per-group hard caps for MIG-style isolation.  A
compute-bound kernel only demands the bandwidth needed to keep memory off
its critical path, so leftover bandwidth flows to memory-bound kernels —
this work-conserving behaviour is exactly why MPS outperforms MIG in the
paper's 3- and 4-way experiments.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.sim.core import Environment, Event, SimulationError
from repro.sim.fluid import FluidPool, FluidTask
from repro.sim.numerics import KahanSum
from repro.gpu.kernel import Kernel
from repro.gpu.memory import MemoryPool
from repro.gpu.specs import GPUSpec

__all__ = ["AllocatorMismatch", "GpuClient", "ShareGroup", "SimulatedGPU"]

_client_ids = itertools.count()
_group_ids = itertools.count()

#: Group size at which the allocator's per-group math switches from the
#: scalar loops to numpy kernels (below it, ufunc dispatch overhead
#: exceeds the loop cost; the paths are bit-identical either way).
_VEC_MIN_GROUP = 64

#: Entry bound of each device's allocation memo (kernel classes, group
#: columns and bandwidth splits together; ~0.6 KiB each).  A full memo
#: is cleared, which costs hits, never exactness.
_MEMO_MAX = 1024


class AllocatorMismatch(SimulationError):
    """The incremental allocator diverged from the full recompute."""


@dataclass
class ShareGroup:
    """A contention domain on the device (whole GPU, MIG instance, or VM)."""

    name: str
    device: "SimulatedGPU"
    #: Hard SM budget for the whole group.
    sm_budget: int
    #: Hard bandwidth cap (bytes/s); ``None`` means the device bandwidth.
    bw_cap: Optional[float]
    #: Memory pool backing this group's clients.
    memory: MemoryPool
    #: "spatial": all kernels resident; "temporal": one at a time.
    discipline: str = "spatial"
    #: "cap": sm_budget is absolute; "fair": split device SMs evenly
    #: among active groups with this policy (vGPU time-slicing model).
    sm_policy: str = "cap"
    #: Multiplicative slowdown applied to this group's compute rates
    #: (models vGPU/hypervisor scheduling inefficiency).
    overhead_factor: float = 1.0
    clients: list["GpuClient"] = field(default_factory=list)
    #: Stable identity for cross-call allocator caching (``id()`` can be
    #: recycled after a group is garbage-collected; this cannot).
    gid: int = field(default_factory=lambda: next(_group_ids), init=False)
    # -- temporal-discipline state --
    _queues: dict | None = None        # client id -> deque of tasks
    _rr: "deque | None" = None         # round-robin of client ids with work
    _idle: Optional[Event] = None      # pump sleeps on this when empty
    _resident: FluidTask | None = None
    _serving_cid: Optional[int] = None  # client whose quantum is active
    _last_cid: Optional[int] = None

    def __post_init__(self) -> None:
        if self.discipline not in ("spatial", "temporal"):
            raise ValueError(f"unknown discipline {self.discipline!r}")
        if self.sm_policy not in ("cap", "fair"):
            raise ValueError(f"unknown sm_policy {self.sm_policy!r}")
        if self.discipline == "temporal":
            self._queues = {}
            self._rr = deque()
            self.device.env.process(self._pump())

    @property
    def effective_bw_cap(self) -> float:
        return self.device.spec.bandwidth if self.bw_cap is None else self.bw_cap

    def _pump(self):
        """Temporal discipline: quantum-based round-robin time-slicing.

        One context is resident at a time.  Within a quantum, the
        resident client's queued kernels run back to back (a workload of
        many tiny kernels is not charged a context switch per kernel);
        when the quantum expires and other clients are waiting, the pump
        pays the switch cost and rotates — NVIDIA's default behaviour.
        """
        env = self.device.env
        spec = self.device.spec
        while True:
            while not self._rr:
                self._idle = env.event(name=f"{self.name}-idle")
                yield self._idle
                self._idle = None
            cid = self._rr.popleft()
            if self._last_cid is not None and self._last_cid != cid:
                yield env.timeout(spec.timeslice_switch_seconds)
            self._last_cid = cid
            self._serving_cid = cid
            quantum_end = env.now + spec.timeslice_quantum_seconds
            queue = self._queues[cid]
            while True:
                if not queue:
                    # Let same-instant continuations (stream callbacks)
                    # enqueue the client's next kernel before deciding.
                    yield env.timeout(0)
                    if not queue:
                        break
                task = queue.popleft()
                self._resident = task
                self.device._admit(task)
                try:
                    yield task.done
                except Exception:  # noqa: BLE001
                    # Kernel killed (e.g. injected GPU error); the
                    # launcher observes the failure — the pump survives.
                    pass
                self._resident = None
                if env.now >= quantum_end and self._rr:
                    break  # quantum used up and someone else is waiting
            self._serving_cid = None
            if queue:
                self._rr.append(cid)  # unfinished: back of the rotation

    def submit(self, task: FluidTask) -> None:
        if self.discipline == "temporal":
            cid = task.meta["client"].cid
            queue = self._queues.get(cid)
            if queue is None:
                queue = deque()
                self._queues[cid] = queue
            was_empty = not queue
            queue.append(task)
            if (was_empty and cid not in self._rr
                    and cid != self._serving_cid):
                self._rr.append(cid)
            if self._idle is not None and not self._idle.triggered:
                self._idle.succeed()
        else:
            self.device._admit(task)


class GpuClient:
    """A process using the GPU (one FaaS function instance).

    Clients are created through the multiplexing managers
    (:class:`~repro.gpu.mps.MpsControlDaemon`,
    :class:`~repro.gpu.mig.MigInstance`, ...) or
    :meth:`SimulatedGPU.timeshare_client`, never directly.
    """

    def __init__(self, device: "SimulatedGPU", group: ShareGroup, name: str,
                 sm_cap: Optional[int] = None):
        self.device = device
        self.group = group
        self.name = name
        self.cid = next(_client_ids)
        #: Per-client SM cap (MPS active-thread-percentage); immutable —
        #: real MPS requires a process restart to change it (§6).
        self._sm_cap = group.sm_budget if sm_cap is None else int(sm_cap)
        if self._sm_cap <= 0:
            raise ValueError("sm_cap must be positive")
        self._alive = True
        self.kernels_launched = 0
        group.clients.append(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GpuClient {self.name!r} group={self.group.name!r}>"

    @property
    def sm_cap(self) -> int:
        return self._sm_cap

    @property
    def alive(self) -> bool:
        return self._alive

    # -- memory -----------------------------------------------------------
    def alloc(self, nbytes: float) -> None:
        """Reserve device memory (raises :class:`GpuOutOfMemory`)."""
        self._check_alive()
        self.group.memory.allocate(self.name, nbytes)

    def free(self, nbytes: float | None = None) -> float:
        return self.group.memory.release(self.name, nbytes)

    @property
    def memory_used(self) -> float:
        return self.group.memory.usage_of(self.name)

    # -- kernels ------------------------------------------------------------
    def launch(self, kernel: Kernel) -> Event:
        """Submit a kernel; the returned event fires on completion."""
        self._check_alive()
        self.kernels_launched += 1
        return self.device.submit(self, kernel)

    def run(self, kernel: Kernel):
        """Generator helper: launch overhead + completion (yield from it)."""
        yield self.device.env.timeout(self.device.spec.launch_overhead)
        yield self.launch(kernel)

    def close(self) -> None:
        """Tear the client down, releasing all memory it holds."""
        if not self._alive:
            return
        self._alive = False
        self.group.memory.release(self.name)
        self.group.clients.remove(self)

    def _check_alive(self) -> None:
        if not self._alive:
            raise RuntimeError(f"client {self.name!r} has been closed")


class _GroupAllocState:
    """Cached per-group allocation results (the incremental allocator).

    Valid while the group's membership signature, SM budget, and overhead
    factor are unchanged; the bandwidth split additionally requires the
    group's share of device bandwidth to be unchanged.  Every cached float
    is exactly the value the full recompute would produce, because it *is*
    that value — the cache memoises, it never delta-updates.
    """

    __slots__ = ("budget", "overhead", "sm_list", "bwd_list",
                 "bw_demand_sum", "share", "bw_list", "sm_sum", "bw_sum",
                 "demands", "kinfo", "cls", "rmemo", "gcap", "gdemand")

    def __init__(self) -> None:
        self.budget = -1.0
        self.overhead = 0.0
        # Group-level bandwidth cap and cap-limited demand as of the
        # last stale pass (inputs to the group-level waterfill).
        self.gcap = 0.0
        self.gdemand = 0.0
        # Per-task allocation columns as parallel tuples in group-task
        # (residency/kinfo) order — positional access keeps the hot
        # rates pass free of per-task dict lookups.  Tuples, because the
        # allocation memo shares them between groups.
        self.sm_list: tuple[float, ...] = ()
        self.bwd_list: tuple[float, ...] = ()
        self.bw_demand_sum = 0.0
        self.share: Optional[float] = None
        self.bw_list: tuple[float, ...] = ()
        # Per-task caches that survive recomputes: the raw SM demand
        # (a function of the task's kernel, its client's cap, and the
        # group budget — the caller rebuilds the state on budget change)
        # and the kernel constants the bandwidth pass reads.  Entries
        # for departed tasks are popped by the membership hook.
        self.demands: dict[int, float] = {}
        self.kinfo: dict[int, tuple] = {}
        # Each task's kernel-class id: the interned ``(demand, kinfo)``
        # pair, so the ordered id tuple names the group's contents.
        self.cls: dict[int, int] = {}
        # The memo's bandwidth-split table for the current contents,
        # keyed by ``(share, overhead)``; ``None`` when the group has a
        # repeated client and bypasses the memo.
        self.rmemo: Optional[dict] = None
        # Per-group subtotals of sm_list/bw_list (in group-task order):
        # the device totals are the sum of these over groups, so a clean
        # group contributes O(1) work to the totals instead of O(tasks).
        self.sm_sum = 0.0
        self.bw_sum = 0.0


class SimulatedGPU:
    """One simulated GPU device.

    Parameters
    ----------
    incremental:
        Reuse per-group allocation state across membership changes (the
        default).  Results are bit-identical to the full recompute; set
        ``False`` to force the original full path on every change.
    cross_check:
        Run *both* paths on every allocation and raise
        :class:`AllocatorMismatch` on any difference (debug mode; also
        enabled by the ``REPRO_ALLOC_CHECK=1`` environment variable).
    """

    def __init__(self, env: Environment, spec: GPUSpec, name: str = "gpu0",
                 incremental: bool = True,
                 cross_check: Optional[bool] = None):
        self.env = env
        self.spec = spec
        self.name = name
        self.memory = MemoryPool(spec.memory_bytes, name=f"{name}-hbm")
        self.incremental = incremental
        self.pool = FluidPool(
            env, self._allocate, name=f"{name}-pool",
            on_change=self._on_membership if incremental else None)
        self.groups: list[ShareGroup] = []
        #: Device-wide default group (used by time-sharing and MPS).
        self.default_group = ShareGroup(
            name=f"{name}-default",
            device=self,
            sm_budget=spec.sms,
            bw_cap=None,
            memory=self.memory,
            discipline="temporal",  # NVIDIA default: time-sliced contexts
        )
        self.groups.append(self.default_group)
        # Utilization accounting (integrals of current allocations).
        # Compensated sums: at millions of kernel events the naive float
        # accumulation drifts enough to fail conservation checks.
        self._cur_sm_alloc = 0.0
        self._cur_bw_alloc = 0.0
        self._integral_t0 = env.now
        self._sm_seconds = KahanSum()
        self._bw_byte_seconds = KahanSum()
        self.kernels_completed = 0
        # Incremental-allocator state and diagnostics.
        if cross_check is None:
            cross_check = os.environ.get("REPRO_ALLOC_CHECK", "") not in ("", "0")
        self.cross_check = cross_check
        self._galloc: dict[int, _GroupAllocState] = {}
        # Residency indexes maintained by the pool's membership hook
        # (incremental mode only): resident tasks per group in admission
        # order, the group objects themselves, and the set of groups
        # whose membership changed since the last allocation.  They spare
        # the allocator the O(#tasks) regroup-and-signature pass that
        # previously dominated its cost at scale.
        self._resident: dict[int, dict[int, FluidTask]] = {}
        self._rgroups: dict[int, ShareGroup] = {}
        self._dirty: set[int] = set()
        # Per-group client-residency counts and the number of clients
        # with more than one resident task: when that is zero, the MPS
        # aggregate-cap shrink provably cannot fire and the recompute
        # skips the whole by-client pass.
        self._gclients: dict[int, dict[int, int]] = {}
        self._grep: dict[int, int] = {}
        # Cross-call caches for the incremental path.  With k resident
        # groups and (typically) one dirty group per membership change,
        # the allocator only visits stale groups: the first-task group
        # ordering, the count of fair-policy groups, and each group's
        # bandwidth cap and cap-limited demand are all carried between
        # calls and invalidated by the membership hook (ordering, fair
        # count) or by a pool-epoch / fair-count change (caps, demands —
        # external capacity changes reach the allocator via poke, which
        # bumps the pool epoch).
        self._order: list[tuple[int, int]] = []
        self._order_stale = True
        self._n_fair = 0
        # Group-order-aligned list of the per-group state objects: the
        # demand-sum and totals loops iterate it without dict lookups.
        # Invalidated with the ordering, and whenever a state object is
        # (re)created outside an ordering change (solo-path eviction).
        self._ostates: list[_GroupAllocState] = []
        self._ostates_stale = True
        self._seen_epoch = -1
        self._seen_n_fair = -1
        # Whether the last incremental pass water-filled the group
        # shares.  While consecutive passes stay uncontended, a clean
        # group's share equals its unchanged demand, so the rates pass
        # can visit stale groups only.
        self._was_contended = True
        # Allocation memo.  Groups of identical replicas recur with the
        # same contents, so a dirty group's SM/demand columns are looked
        # up by (SM budget, ordered kernel-class ids) before they are
        # recomputed, and each entry holds a second table of bandwidth
        # splits keyed by (group share, overhead factor).  Every stored
        # float is the value the recompute produced from exactly those
        # inputs, so a hit is bit-identical.  Class ids come from a
        # counter that never restarts: after a clear, a resident task's
        # old id still names exactly one class, so stale ids only miss.
        self._memo: dict[tuple, tuple] = {}
        self._kclass: dict[tuple, int] = {}
        self._kclass_ids = itertools.count()
        self._memo_size = 0
        #: Allocator invocations (every admit/complete/poke that changed
        #: the resident set or external capacity).
        self.alloc_calls = 0
        #: Full per-group demand recomputations (dirty groups).
        self.alloc_group_recomputes = 0
        #: Dirty groups whose columns came from the allocation memo
        #: (a subset of ``alloc_group_recomputes``).
        self.alloc_memo_hits = 0
        #: Groups served entirely from cached state.
        self.alloc_group_reuses = 0
        #: Single-resident-kernel fast-path hits.
        self.alloc_fast_path = 0
        env.gpus.append(self)

    @property
    def sm_seconds(self) -> float:
        """Integral of allocated SMs over time (compensated sum)."""
        return self._sm_seconds.value

    @property
    def bw_byte_seconds(self) -> float:
        """Integral of allocated bandwidth over time (compensated sum)."""
        return self._bw_byte_seconds.value

    # -- client factories ---------------------------------------------------
    def timeshare_client(self, name: str) -> GpuClient:
        """A client under the default time-sliced context scheduling."""
        if self.default_group.discipline != "temporal":
            raise RuntimeError(
                f"{self.name}: default group is not time-sharing "
                "(an MPS daemon owns it); use the daemon to create clients"
            )
        return GpuClient(self, self.default_group, name)

    def add_group(self, group: ShareGroup) -> ShareGroup:
        self.groups.append(group)
        self.pool.poke()
        return group

    def remove_group(self, group: ShareGroup) -> None:
        if group.clients:
            raise RuntimeError(
                f"cannot remove group {group.name!r}: {len(group.clients)} "
                "clients still attached"
            )
        self.groups.remove(group)
        self.pool.poke()

    # -- kernel path ----------------------------------------------------------
    def submit(self, client: GpuClient, kernel: Kernel) -> Event:
        task = FluidTask(self.env, work=1.0,
                         meta={"client": client, "kernel": kernel})
        task.done.callbacks.append(self._on_complete)
        client.group.submit(task)
        return task.done

    def _admit(self, task: FluidTask) -> None:
        self.pool.add(task)

    def _on_complete(self, ev: Event) -> None:
        if ev.ok:
            self.kernels_completed += 1
        if len(self.pool) == 0:
            # Allocator will not be called again until new work arrives;
            # close the utilization integral now.
            self._integrate()
            self._cur_sm_alloc = 0.0
            self._cur_bw_alloc = 0.0

    # -- utilization ------------------------------------------------------------
    def _integrate(self) -> None:
        dt = self.env.now - self._integral_t0
        if dt > 0:
            self._sm_seconds.add(self._cur_sm_alloc * dt)
            self._bw_byte_seconds.add(self._cur_bw_alloc * dt)
        self._integral_t0 = self.env.now

    def sm_utilization(self, since: float = 0.0) -> float:
        """Mean SM utilization in [0,1] from ``since`` until now."""
        self._integrate()
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return self.sm_seconds / (self.spec.sms * horizon)

    # -- the allocator ------------------------------------------------------------
    def _on_membership(self, task: FluidTask, added: bool) -> None:
        """FluidPool membership hook (incremental mode only).

        Keeps ``_resident``/``_rgroups`` in sync with the pool and marks
        the affected group dirty, so the allocator never has to rebuild
        the grouping from the task list.  Per-group dicts preserve
        admission order (inserts append, deletes keep order), matching
        the full path's iteration contract.
        """
        client = task.meta["client"]
        group: ShareGroup = client.group
        gid = group.gid
        cid = id(client)
        if added:
            res = self._resident.get(gid)
            if res is None:
                self._resident[gid] = res = {}
                self._rgroups[gid] = group
                self._gclients[gid] = {}
                self._grep[gid] = 0
                self._order_stale = True
                if group.sm_policy == "fair":
                    self._n_fair += 1
            res[task.tid] = task
            counts = self._gclients[gid]
            c = counts.get(cid, 0) + 1
            counts[cid] = c
            if c == 2:
                self._grep[gid] += 1
        else:
            res = self._resident[gid]
            if next(iter(res)) == task.tid:
                # The group's first resident task changes (or the group
                # vanishes): the cached first-task ordering is stale.
                self._order_stale = True
            del res[task.tid]
            counts = self._gclients[gid]
            c = counts[cid] - 1
            if c:
                counts[cid] = c
                if c == 1:
                    self._grep[gid] -= 1
            else:
                del counts[cid]
            st = self._galloc.get(gid)
            if st is not None:
                st.demands.pop(task.tid, None)
                st.kinfo.pop(task.tid, None)
                st.cls.pop(task.tid, None)
            if not res:
                del self._resident[gid]
                del self._rgroups[gid]
                del self._gclients[gid]
                del self._grep[gid]
                # A vanished group must not leave cached state behind:
                # gids are never reused, and the solo path relies on the
                # cache only holding currently-resident groups.
                self._galloc.pop(gid, None)
                if group.sm_policy == "fair":
                    self._n_fair -= 1
        self._dirty.add(gid)

    def _allocate(self, tasks: list[FluidTask]) -> None:
        """FluidPool callback: divide SMs and bandwidth over ``tasks``.

        Dispatches to the incremental path (per-group memoisation, solo
        fast path) or the original full recompute.  Both produce
        bit-identical rates; ``cross_check`` runs both and compares.
        """
        self.alloc_calls += 1
        self._integrate()
        if self.incremental:
            if len(tasks) == 1:
                self._allocate_solo(tasks[0])
            else:
                self._allocate_incremental(tasks)
            if self.cross_check:
                self._verify_against_full(tasks)
        else:
            sm_alloc, bw_alloc, rates, total_sm, total_bw = \
                self._compute_full(tasks)
            for t in tasks:
                t.rate = rates[t.tid]
            self._cur_sm_alloc = total_sm
            self._cur_bw_alloc = total_bw

    def _allocate_solo(self, t: FluidTask) -> None:
        """One resident kernel: the water level is trivial.

        Replicates the full path's arithmetic *exactly* (same operations
        in the same order) so the result is bit-identical; the derivation
        is spelled out in docs/architecture.md.
        """
        self.alloc_fast_path += 1
        spec = self.spec
        client: GpuClient = t.meta["client"]
        kernel: Kernel = t.meta["kernel"]
        group = client.group
        fair = group.sm_policy == "fair"
        budget = spec.sms / 1 if fair else float(group.sm_budget)
        # SM demand: a single kernel is never shrunk by its client's
        # aggregate cap (the demand already honours ``sm_cap``).
        demand = float(min(kernel.max_sms, client.sm_cap, budget))
        scale = min(1.0, budget / demand) if demand > 0 else 0.0
        sms = demand * scale
        cap = group.effective_bw_cap
        if fair:
            cap = min(cap, spec.bandwidth / 1)
        if kernel.bytes_moved == 0:
            bwd = 0.0
        elif kernel.flops > 0:
            compute_rate = (
                spec.flops_per_sm * kernel.efficiency * sms / kernel.flops
            )
            bwd = kernel.bytes_moved * compute_rate
        else:
            bwd = float("inf")
        # Hierarchical waterfill with one group holding one task
        # collapses to min(demand, group cap, device bandwidth).
        bw = min(bwd, cap, spec.bandwidth)
        rate_c = float("inf")
        if kernel.flops > 0:
            rate_c = (
                spec.flops_per_sm * kernel.efficiency * sms / kernel.flops
            ) * group.overhead_factor
        rate_m = float("inf")
        if kernel.bytes_moved > 0 and bwd > 0:
            rate_m = bw / kernel.bytes_moved
        rate = min(rate_c, rate_m)
        t.rate = 0.0 if rate == float("inf") else rate
        # Invalidate the group's cached state: its membership no longer
        # matches whatever the cache last saw.
        self._galloc.pop(group.gid, None)
        self._cur_sm_alloc = sms
        self._cur_bw_alloc = bw

    def _allocate_incremental(self, tasks: list[FluidTask]) -> None:
        """Memoised allocation: recompute only dirty groups.

        A group is *dirty* when its membership changed since the last
        allocation (tracked by the pool's :meth:`_on_membership` hook)
        or its SM budget or overhead factor moved; its bandwidth split
        is additionally redone when the group-level waterfill moved its
        share.  Clean
        groups keep the rates their tasks already carry.  Every reused
        float is the exact value a full recompute would produce, so the
        two paths are bit-identical (enforced by ``cross_check`` and the
        property tests).
        """
        spec = self.spec
        resident = self._resident
        rgroups = self._rgroups
        dirty = self._dirty
        states = self._galloc
        # The full path's ordering contract: groups appear in order of
        # their first resident task.  tids are admission-monotonic and
        # each residency dict is in admission order, so its first key is
        # the group's earliest resident task — sorting by that tid
        # reproduces the first-occurrence order over ``tasks`` without
        # touching the task list.  The sorted list is cached; the
        # membership hook flags it stale when a group appears, vanishes,
        # or loses its first resident task.
        if self._order_stale:
            self._order = sorted([(next(iter(res)), gid)
                                  for gid, res in resident.items()])
            self._order_stale = False
            self._ostates_stale = True
        order = self._order

        n_fair = self._n_fair
        fair_share = spec.sms / n_fair if n_fair else 0.0
        pool_epoch = self.pool._epoch
        if pool_epoch != self._seen_epoch or n_fair != self._seen_n_fair:
            # External capacity change (poke bumps the epoch) or a moved
            # fair split: every group's budget/cap may have shifted, so
            # every group is stale this round.
            self._seen_epoch = pool_epoch
            self._seen_n_fair = n_fair
            stale = [gid for _, gid in order]
            full_round = True
        elif len(states) != len(resident):
            # A state object is missing (solo-path eviction): ``states``
            # is always a subset of ``resident``, so a length mismatch
            # means some resident group has no cached state.  Visit all.
            stale = [gid for _, gid in order]
            full_round = True
        else:
            # The membership hook marks every changed group dirty
            # (including vanished ones, filtered out here), so the dirty
            # set alone — usually one gid — names the stale groups.
            stale = [g for g in dirty if g in resident]
            full_round = False
        reused = len(order) - len(stale)

        for gid in stale:
            g = rgroups[gid]
            budget = fair_share if g.sm_policy == "fair" else float(g.sm_budget)
            st = states.get(gid)
            if (st is None or gid in dirty or st.budget != budget
                    or st.overhead != g.overhead_factor):
                if st is None:
                    self._ostates_stale = True
                st = self._recompute_group(st, resident[gid],
                                           budget, g.overhead_factor,
                                           self._grep[gid] == 0)
                states[gid] = st
                self.alloc_group_recomputes += 1
            else:
                reused += 1
            cap = g.effective_bw_cap
            if g.sm_policy == "fair":
                cap = min(cap, spec.bandwidth / max(1, n_fair))
            st.gcap = cap
            st.gdemand = min(st.bw_demand_sum, cap)
        self.alloc_group_reuses += reused
        dirty.clear()

        if self._ostates_stale:
            self._ostates = [states[gid] for _, gid in order]
            self._ostates_stale = False
        ostates = self._ostates

        # Group-level waterfill always reruns: any group's demand change
        # moves the shared water level.  O(#groups), not O(#tasks).
        # The demand sum accumulates in first-task group order — the
        # same sequence of adds the full path's dict-ordered sum runs.
        # Uncontended fast path: when the demand sum sits safely below
        # the budget the waterfill provably hands every group exactly
        # its (already cap-limited) demand.  "Safely" needs a relative
        # margin: at the exact boundary the waterfill's running
        # ``remaining`` subtraction drifts by ulps and the last keys
        # can receive the drifted remainder instead of their demand.
        demand_sum = 0.0
        for st in ostates:
            demand_sum += st.gdemand
        contended = not _fits(demand_sum, spec.bandwidth)
        if contended:
            # The waterfill iterates its demand dict; build both inputs
            # in the contract (first-task) order.
            group_share = _waterfill(
                {gid: states[gid].gdemand for _, gid in order},
                {gid: states[gid].gcap for _, gid in order},
                spec.bandwidth)
        else:
            group_share = None

        # While consecutive passes stay uncontended every clean group's
        # share equals its (unchanged) demand and its rates are already
        # exact, so only the stale groups need the rates pass.  Any
        # contended pass — or the first uncontended one after it — can
        # move a clean group's share, so those visit every group.
        if contended or self._was_contended or full_round:
            visit = [gid for _, gid in order]
        else:
            visit = stale
        self._was_contended = contended

        for gid in visit:
            st = states[gid]
            gs = group_share[gid] if group_share is not None else st.gdemand
            if st.share is not None and st.share == gs:
                continue  # same split as last time: rates already exact
            overhead = rgroups[gid].overhead_factor
            rmemo = st.rmemo
            split = rmemo.get((gs, overhead)) if rmemo is not None else None
            if split is None:
                split = _group_rates(st, gs, overhead)
                if rmemo is not None:
                    self._memo_room()
                    rmemo[(gs, overhead)] = split
            st.bw_list, st.bw_sum, rates = split
            st.share = gs
            # The columns mirror the residency dict, so rates align with
            # its tasks.
            for t, r in zip(resident[gid].values(), rates):
                t.rate = r

        # Device totals: sum the per-group subtotals in group order —
        # the same grouping and order the full path uses — so a clean
        # group costs O(1) here instead of an O(#tasks) re-walk.
        total_sm = 0.0
        total_bw = 0.0
        for st in ostates:
            total_sm += st.sm_sum
            total_bw += st.bw_sum
        self._cur_sm_alloc = total_sm
        self._cur_bw_alloc = total_bw

    def _memo_room(self) -> None:
        """Account for one memo insert, clearing the memo when full."""
        if self._memo_size >= _MEMO_MAX:
            self._memo.clear()
            self._kclass.clear()
            self._memo_size = 0
        self._memo_size += 1

    def _recompute_group(self, st: Optional[_GroupAllocState],
                         group_res: dict, budget: float,
                         overhead: float,
                         no_repeats: bool) -> _GroupAllocState:
        """Full SM/demand recompute for one (dirty) group.

        ``group_res`` is the group's residency dict (tid → task) in
        admission order.  Per-task SM demands and kernel constants
        persist across recomputes (both depend only on the task and the
        budget; a budget change clears them and the membership hook
        evicts departed tasks), so a membership change costs one pass of
        plain float arithmetic over the group instead of a rebuild of
        every intermediate.  The state object itself is reused in place
        so caches holding a reference stay valid.

        A group with no repeated client first looks its columns up in
        the allocation memo by ``(budget, ordered kernel-class ids)``;
        they are a pure function of exactly those inputs.  Repeated
        clients bypass the memo, since the aggregate-cap shrink depends
        on client identity.
        """
        spec = self.spec
        if st is None:
            st = _GroupAllocState()
        elif st.budget != budget:
            # The cached demands depend on the budget: drop them (the
            # kernel constants don't, but keeping the dicts in lockstep
            # keeps the ordered-iteration contract trivial).
            st.demands.clear()
            st.kinfo.clear()
            st.cls.clear()
        st.budget = budget
        st.overhead = overhead
        st.share = None  # membership changed: the rates pass must rerun
        demands = st.demands
        kinfo = st.kinfo
        cls = st.cls
        group_tasks = group_res.values()
        if len(demands) != len(group_res):
            # The caches are subsets of the residency dict (the hook
            # pops departures), so equal lengths mean every resident
            # task is cached and the fill pass can be skipped.
            kclass = self._kclass
            for t in group_tasks:
                tid = t.tid
                if tid not in demands:
                    client: GpuClient = t.meta["client"]
                    kernel: Kernel = t.meta["kernel"]
                    demand = float(min(kernel.max_sms, client.sm_cap,
                                       budget))
                    # (bytes_moved, flops, flops_per_sm * efficiency):
                    # the cached product has the exact operand grouping
                    # the full path uses, so reuse stays bit-identical.
                    ki = (kernel.bytes_moved, kernel.flops,
                          spec.flops_per_sm * kernel.efficiency)
                    demands[tid] = demand
                    kinfo[tid] = ki
                    c = kclass.get((demand, ki))
                    if c is None:
                        self._memo_room()
                        c = kclass[(demand, ki)] = next(self._kclass_ids)
                    cls[tid] = c
        if no_repeats:
            key = (budget, *cls.values())
            hit = self._memo.get(key)
            if hit is not None:
                self.alloc_memo_hits += 1
                (st.sm_list, st.sm_sum, st.bwd_list, st.bw_demand_sum,
                 st.rmemo) = hit
                return st
            # Every client has at most one resident task here, so each
            # aggregate equals the single demand, which is already
            # capped by ``sm_cap`` — the shrink below cannot fire.
            work = demands
        else:
            # The MPS percentage caps a *client's aggregate* SM usage,
            # not each kernel: several concurrent streams from one
            # capped client must share the client's slice.  Shrink a
            # copy — the cache keeps the pre-shrink demands.
            work = dict(demands)
            by_client: dict[int, list[FluidTask]] = {}
            for t in group_tasks:
                by_client.setdefault(id(t.meta["client"]), []).append(t)
            for client_tasks in by_client.values():
                cap = float(client_tasks[0].meta["client"].sm_cap)
                subtotal = sum(work[t.tid] for t in client_tasks)
                if subtotal > cap:
                    shrink = cap / subtotal
                    for t in client_tasks:
                        work[t.tid] *= shrink
        n = len(work)
        if n >= _VEC_MIN_GROUP:
            # Vectorized tail for large groups.  Sums run through
            # np.add.accumulate — a strictly sequential left-to-right
            # sum, so each is the same float as the scalar running sum
            # (numpy's pairwise np.sum would not be); products and
            # divisions are elementwise with the scalar path's exact
            # operand grouping.
            w = np.fromiter(work.values(), np.float64, n)
            total = float(np.add.accumulate(w)[-1])
            scale = min(1.0, budget / total) if total > 0 else 0.0
            sm = w * scale
            sm_list = sm.tolist()
            sm_sum = float(np.add.accumulate(sm)[-1])
            ki = np.array(list(kinfo.values()), dtype=np.float64)
            bytes_a = ki[:, 0]
            flops_a = ki[:, 1]
            smrate_a = ki[:, 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                v = bytes_a * ((smrate_a * sm) / flops_a)
            v = np.where(flops_a > 0, v, np.inf)
            v = np.where(bytes_a == 0, 0.0, v)
            bwd_list = v.tolist()
            # Adding the zero entries the scalar loop skips is exact:
            # x + 0.0 == x for the non-negative accumulator.
            bsum = float(np.add.accumulate(v)[-1])
        else:
            total = sum(work.values())
            scale = min(1.0, budget / total) if total > 0 else 0.0
            # One fused pass computes both columns: the SM share and the
            # bandwidth that keeps memory off the critical path given
            # that share (compute-rate-matched demand).  The two running
            # sums are independent accumulators, so interleaving them
            # preserves each scalar addition sequence exactly.  Skipping
            # the zero entries in the demand sum is exact: adding 0.0
            # never changes a non-negative accumulator.  kinfo and work
            # share insertion order (both track residency), so zipping
            # keeps the pairing.
            sm_list = []
            sm_append = sm_list.append
            bwd_list = []
            bwd_append = bwd_list.append
            sm_sum = 0.0
            bsum = 0.0
            inf = float("inf")
            for d, (bytes_moved, flops, sm_rate) in zip(work.values(),
                                                        kinfo.values()):
                smv = d * scale
                sm_append(smv)
                sm_sum += smv
                if bytes_moved == 0:
                    bwd_append(0.0)
                    continue
                if flops > 0:
                    v = bytes_moved * (sm_rate * smv / flops)
                else:
                    v = inf
                bwd_append(v)
                bsum += v
        st.sm_list = tuple(sm_list)
        st.sm_sum = sm_sum
        st.bwd_list = tuple(bwd_list)
        st.bw_demand_sum = bsum
        if no_repeats:
            st.rmemo = {}
            self._memo_room()
            self._memo[key] = (st.sm_list, sm_sum, st.bwd_list, bsum,
                               st.rmemo)
        else:
            st.rmemo = None
        return st

    def _compute_full(self, tasks: list[FluidTask]):
        """The original one-shot allocation (reference implementation).

        Pure: returns ``(sm_alloc, bw_alloc, rates, total_sm, total_bw)``
        without touching task or device state, so it can serve both as
        the ``incremental=False`` engine and as the cross-check oracle.
        """
        spec = self.spec

        by_group: dict[int, list[FluidTask]] = {}
        group_of: dict[int, ShareGroup] = {}
        for t in tasks:
            g = t.meta["client"].group
            by_group.setdefault(g.gid, []).append(t)
            group_of[g.gid] = g

        # SM budgets: "fair" groups (vGPU VMs) split the device evenly.
        fair_groups = [gid for gid, g in group_of.items() if g.sm_policy == "fair"]
        fair_share = spec.sms / len(fair_groups) if fair_groups else 0.0

        sm_alloc: dict[int, float] = {}
        bw_demand: dict[int, float] = {}
        bw_group_cap: dict[int, float] = {}

        for gid, group_tasks in by_group.items():
            group = group_of[gid]
            budget = fair_share if group.sm_policy == "fair" else float(group.sm_budget)
            demands = {}
            by_client: dict[int, list[FluidTask]] = {}
            for t in group_tasks:
                client: GpuClient = t.meta["client"]
                kernel: Kernel = t.meta["kernel"]
                demands[t.tid] = float(min(kernel.max_sms, client.sm_cap, budget))
                by_client.setdefault(id(client), []).append(t)
            for client_tasks in by_client.values():
                cap = float(client_tasks[0].meta["client"].sm_cap)
                subtotal = sum(demands[t.tid] for t in client_tasks)
                if subtotal > cap:
                    shrink = cap / subtotal
                    for t in client_tasks:
                        demands[t.tid] *= shrink
            total = sum(demands.values())
            scale = min(1.0, budget / total) if total > 0 else 0.0
            for t in group_tasks:
                sm_alloc[t.tid] = demands[t.tid] * scale

            cap = group.effective_bw_cap
            if group.sm_policy == "fair":
                cap = min(cap, spec.bandwidth / max(1, len(fair_groups)))
            bw_group_cap[gid] = cap

            for t in group_tasks:
                kernel = t.meta["kernel"]
                if kernel.bytes_moved == 0:
                    bw_demand[t.tid] = 0.0
                    continue
                if kernel.flops > 0:
                    compute_rate = (
                        spec.flops_per_sm * kernel.efficiency * sm_alloc[t.tid]
                        / kernel.flops
                    )
                    bw_demand[t.tid] = kernel.bytes_moved * compute_rate
                else:
                    bw_demand[t.tid] = float("inf")

        bw_alloc = _hierarchical_waterfill(
            by_group, bw_demand, bw_group_cap, spec.bandwidth
        )

        rates: dict[int, float] = {}
        for t in tasks:
            kernel = t.meta["kernel"]
            group = t.meta["client"].group
            sms = sm_alloc[t.tid]
            bw = bw_alloc[t.tid]
            rate_c = float("inf")
            if kernel.flops > 0:
                rate_c = (
                    spec.flops_per_sm * kernel.efficiency * sms / kernel.flops
                ) * group.overhead_factor
            rate_m = float("inf")
            if kernel.bytes_moved > 0 and bw_demand[t.tid] > 0:
                # A zero bandwidth *demand* (possible by underflow for
                # kernels moving a handful of bytes) means memory can
                # never be this kernel's bottleneck — leave it unthrottled
                # rather than dividing a zero allocation.
                rate_m = bw / kernel.bytes_moved
            rate = min(rate_c, rate_m)
            rates[t.tid] = 0.0 if rate == float("inf") else rate

        # Totals as per-group subtotals summed in group order — the
        # exact grouping the incremental path caches, so the two paths
        # produce bit-identical utilisation integrals.
        total_sm = 0.0
        total_bw = 0.0
        for ts in by_group.values():
            gsm = 0.0
            gbw = 0.0
            for t in ts:
                gsm += sm_alloc[t.tid]
                gbw += bw_alloc[t.tid]
            total_sm += gsm
            total_bw += gbw

        return sm_alloc, bw_alloc, rates, total_sm, total_bw

    def _verify_against_full(self, tasks: list[FluidTask]) -> None:
        """Cross-check: assert the incremental result equals the oracle."""
        sm_alloc, bw_alloc, rates, total_sm, total_bw = \
            self._compute_full(tasks)
        for t in tasks:
            if t.rate != rates[t.tid]:
                raise AllocatorMismatch(
                    f"{self.name}: rate mismatch for task {t.tid}: "
                    f"incremental {t.rate!r} != full {rates[t.tid]!r}"
                )
        if (self._cur_sm_alloc != total_sm
                or self._cur_bw_alloc != total_bw):
            raise AllocatorMismatch(
                f"{self.name}: utilisation totals diverged: "
                f"sm {self._cur_sm_alloc!r} != {total_sm!r} or "
                f"bw {self._cur_bw_alloc!r} != {total_bw!r}"
            )
        for gid, res in self._resident.items():
            st = self._galloc.get(gid)
            if st is None:
                continue  # solo path keeps no per-group state
            # Allocation columns are positional in residency order.
            for i, t in enumerate(res.values()):
                if (st.sm_list[i] != sm_alloc[t.tid]
                        or st.bw_list[i] != bw_alloc[t.tid]):
                    raise AllocatorMismatch(
                        f"{self.name}: cached allocation mismatch for task "
                        f"{t.tid}: sm {st.sm_list[i]!r} != "
                        f"{sm_alloc[t.tid]!r} or bw {st.bw_list[i]!r} != "
                        f"{bw_alloc[t.tid]!r}"
                    )


def _group_rates(st: _GroupAllocState, gs: float, overhead: float):
    """Within-group bandwidth split and task rates for group share ``gs``.

    Pure: returns ``(bw_list, bw_sum, rates)`` as tuples in group-task
    order, computed from the group's cached columns only, so the
    allocation memo can store the result under ``(gs, overhead)``.
    """
    bwd_list = st.bwd_list
    if len(bwd_list) >= _VEC_MIN_GROUP:
        return _group_rates_vec(st, gs, overhead)
    # Same fast path as between groups: a demand sum safely below the
    # group share means every task gets its full demand.  (When
    # bandwidth is uncontended gs *equals* the demand sum, so this
    # intentionally falls through to the exact loop — equality is
    # inside the drift margin.)
    if _fits(st.bw_demand_sum, gs):
        bw_list = bwd_list
    else:
        bw_list = _waterfill_uniform_list(bwd_list, gs)
    inf = float("inf")
    rates = []
    rates_append = rates.append
    bw_sum = 0.0
    # kinfo and the allocation columns mirror the residency dict (all
    # append on admit and evict on departure), so the four sequences
    # iterate in lockstep — no per-task dict lookups.
    for (bytes_moved, flops, sm_rate), smv, bw, bwdv in zip(
            st.kinfo.values(), st.sm_list, bw_list, bwd_list):
        bw_sum += bw
        rate_c = inf
        if flops > 0:
            rate_c = (sm_rate * smv / flops) * overhead
        rate_m = inf
        if bytes_moved > 0 and bwdv > 0:
            rate_m = bw / bytes_moved
        rate = rate_c if rate_c < rate_m else rate_m
        rates_append(0.0 if rate == inf else rate)
    return tuple(bw_list), bw_sum, tuple(rates)


def _group_rates_vec(st: _GroupAllocState, gs: float, overhead: float):
    """:func:`_group_rates` vectorized (large groups).

    Bit-identical to the scalar loop: the waterfill's ``remaining``
    sequence is reproduced with ``np.subtract.accumulate`` (sequential,
    same order), the rate math is the same elementwise operations with
    the same operand grouping, and the ``bw_sum`` subtotal accumulates
    left-to-right via ``np.add.accumulate``.  Only worth the ufunc
    dispatch overhead above ``_VEC_MIN_GROUP`` resident tasks (e.g. MPS
    groups with hundreds of streams); small groups take the scalar loop.
    """
    bwd = np.asarray(st.bwd_list, dtype=np.float64)
    if _fits(st.bw_demand_sum, gs):
        bwa = bwd.copy()
    else:
        bwa = _waterfill_uniform_arr(bwd, gs)
    ki = np.array(list(st.kinfo.values()), dtype=np.float64)
    bytes_a = ki[:, 0]
    flops_a = ki[:, 1]
    smrate_a = ki[:, 2]
    sm = np.asarray(st.sm_list, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_c = ((smrate_a * sm) / flops_a) * overhead
        rate_m = bwa / bytes_a
    rate_c = np.where(flops_a > 0, rate_c, np.inf)
    rate_m = np.where((bytes_a > 0) & (bwd > 0), rate_m, np.inf)
    rate = np.minimum(rate_c, rate_m)
    rate[np.isinf(rate)] = 0.0
    bw_sum = float(np.add.accumulate(bwa)[-1]) if len(bwa) else 0.0
    return tuple(bwa.tolist()), bw_sum, tuple(rate.tolist())


def _hierarchical_waterfill(
    by_group: dict[int, list[FluidTask]],
    demand: dict[int, float],
    group_cap: dict[int, float],
    total_bw: float,
) -> dict[int, float]:
    """Water-fill ``total_bw`` over tasks honouring per-group hard caps.

    Phase 1 fixes each group's aggregate share: groups whose demand is below
    both their cap and the fair share are fully satisfied, and the surplus
    is re-filled over the rest.  Phase 2 water-fills within each group.
    """
    group_demand = {
        gid: min(sum(demand[t.tid] for t in ts), group_cap[gid])
        for gid, ts in by_group.items()
    }
    group_share = _waterfill(group_demand, group_cap, total_bw)

    alloc: dict[int, float] = {}
    for gid, ts in by_group.items():
        task_demand = {t.tid: demand[t.tid] for t in ts}
        task_cap = {t.tid: group_share[gid] for t in ts}
        alloc.update(_waterfill(task_demand, task_cap, group_share[gid]))
    return alloc


def _fits(demand_sum: float, total: float) -> bool:
    """True when water-filling ``demand_sum`` into ``total`` provably
    gives every key its full (cap-limited) demand.

    Requires the sum to sit below the budget by a relative margin that
    dominates the waterfill loop's worst-case ``remaining`` rounding
    drift (~n ulps, versus the 1e-9 margin here); exactly at the
    boundary the loop's drifted remainder can differ from the demand
    in the last ulps, so equality must take the slow exact path.
    """
    return total - demand_sum > total * 1e-9


def _waterfill_uniform_arr(demand: "np.ndarray", total: float) -> "np.ndarray":
    """:func:`_waterfill_uniform` over a demand *array* (large groups).

    Bit-identical: the clamp is an elementwise ``min``, the per-pass
    share and the all-unsatisfied collapse use the same scalar floats,
    and the running ``remaining`` is reproduced by a sequential
    ``np.subtract.accumulate`` over the satisfied demands in index
    order — the exact subtraction sequence of the scalar loop.
    """
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
        nunsat = int(np.count_nonzero(unsat))
        if nunsat == nact:
            alloc[active] = total if total < share else share
            return alloc
        sat = active & ~unsat
        ms = m[sat]
        alloc[sat] = ms
        remaining = float(np.subtract.accumulate(
            np.concatenate(((remaining,), ms)))[-1])
        active = unsat
    return alloc


def _waterfill_uniform_list(demand: list, total: float) -> list:
    """:func:`_waterfill` with every per-key cap equal to ``total``,
    over a positional demand column.

    The incremental allocator's within-group split always caps each
    task at the group share, so the cap dict collapses to a scalar —
    the arithmetic below mirrors :func:`_waterfill` term for term and
    produces bit-identical allocations.  Pre-clamped ``(index, clamped)``
    pairs replace the per-pass ``min(demand[k], total)`` recomputation
    and dict lookups of the generic version.  Pair order is demand
    index order — the same order the generic loop visits dict keys — so
    the ``remaining`` subtraction sequence (and hence every rounded
    intermediate) is identical.
    """
    alloc = [0.0] * len(demand)
    active = [(i, d if d < total else total) for i, d in enumerate(demand)
              if (d if d < total else total) > 0]
    remaining = total
    # First-round saturation shortcut: when every active demand fits
    # under the first share, the loop below allocates each key exactly
    # its clamped demand in one pass and terminates — the ``remaining``
    # subtractions never feed back into any allocation, so returning
    # the clamped demands directly is bit-identical.  This is the
    # common case when the group share equals the demand sum.
    if active and total > 0.0:
        share0 = total / len(active)
        if max(m for _, m in active) <= share0:
            for i, m in active:
                alloc[i] = m
            return alloc
    while active and remaining > 0.0:
        share = remaining / len(active)
        # Single-pass partition: the generic loop's list comprehension
        # plus re-scan visit the same keys in the same order, so the
        # ``remaining`` subtraction sequence is unchanged.
        unsatisfied = []
        unsat_append = unsatisfied.append
        satisfied = []
        sat_append = satisfied.append
        for im in active:
            if im[1] > share:
                unsat_append(im)
            else:
                sat_append(im)
        if not satisfied:
            final = total if total < share else share
            for i, _ in active:
                alloc[i] = final
            return alloc
        for i, m in satisfied:
            alloc[i] = m
            remaining -= m
        active = unsatisfied
    return alloc


def _waterfill(demand: dict, cap: dict, total: float) -> dict:
    """Classic water-filling: satisfy small demands, split the rest fairly.

    The loop terminates in at most ``len(demand)`` iterations: every pass
    either fully satisfies at least one client (removing it) or returns.
    The remaining-budget test is exact on purpose — an absolute epsilon
    here would zero out legitimately tiny allocations (e.g. a kernel
    moving a few bytes) and stall its fluid task forever.
    """
    alloc = {k: 0.0 for k in demand}
    active = [k for k in demand if min(demand[k], cap[k]) > 0]
    remaining = total
    while active and remaining > 0.0:
        share = remaining / len(active)
        satisfied = [k for k in active if min(demand[k], cap[k]) <= share]
        if not satisfied:
            for k in active:
                alloc[k] = min(cap[k], share)
            return alloc
        for k in satisfied:
            alloc[k] = min(demand[k], cap[k])
            remaining -= alloc[k]
        done = set(satisfied)
        active = [k for k in active if k not in done]
    return alloc
