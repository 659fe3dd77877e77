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

Fluid domains: the kernels of each MIG instance form a domain of their
own in the device's fluid pool (:mod:`repro.sim.fluid`), and every
other group shares one device domain.  An admission or a completion
advances and reallocates its own domain only, and the allocator divides
SMs and bandwidth over that domain's residents.  MIG's slice accounting
keeps the instances' bandwidth caps within the device bandwidth, so no
shared water level couples them: each domain's water-fill against the
device bandwidth gives every instance its cap-limited demand, as one
device-wide water-fill would.

Two allocation paths: a domain whose residents form one cap-policy
group (a MIG instance, flat MPS, time-sharing) takes the incremental
path, which memoises that group's columns and splits; any other domain
(a vGPU fair-share group, or two or more groups) takes the full
recompute, the reference.

Exactness: the incremental allocator reproduces the full recompute's
floats exactly (``cross_check`` compares every allocation).  Every float
sum on both paths is a left-to-right fold (``reduce(add, ..., 0.0)`` or
a running ``+=``), never the builtin ``sum``, which compensates its
rounding from Python 3.12 and would then differ from the running sums in
the last ulp.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterable, Optional

from repro.sim.core import Environment, Event, SimulationError
from repro.sim.fluid import FluidPool, FluidTask
from repro.sim.numerics import KahanSum
from repro.gpu.kernel import Kernel
from repro.gpu.memory import MemoryPool
from repro.gpu.specs import GPUSpec

__all__ = ["AllocatorMismatch", "GpuClient", "ShareGroup", "SimulatedGPU"]

_client_ids = itertools.count()
_group_ids = itertools.count()

#: Relative margin of :func:`_fits`.
_FIT_MARGIN = 1e-9

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
    #: Fluid-domain key of the group's kernels: ``None`` (the device
    #: domain) or, for a hardware-isolated slice, the group's ``gid``
    #: (set by :meth:`SimulatedGPU.add_group`).
    fluid_domain: Optional[int] = field(default=None, init=False)
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
                self.device.pool.add(task)
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
        """Queue ``task`` for the temporal pump (spatial groups' tasks
        go straight into the device's pool)."""
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
        if not self._alive:
            raise RuntimeError(f"client {self.name!r} has been closed")
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


class _Columns:
    """A share group's allocation columns: one allocation-memo entry.

    A pure function of the group's SM budget and its ordered kernel
    classes (the memo key).  Tuples in residency order: the SM shares,
    the bandwidth demands (compute-rate-matched) and the kernel
    constants ``(bytes_moved, flops, flops_per_sm * efficiency)``, with
    the two subtotals.  ``rmemo`` holds the within-group bandwidth
    splits keyed by ``(group share, overhead factor)``; it is ``None``
    for columns a repeated client computed, which bypass the memo.
    """

    __slots__ = ("sm_list", "sm_sum", "bwd_list", "bw_demand_sum",
                 "kinfo", "rmemo")

    def __init__(self, sm_list: tuple, sm_sum: float, bwd_list: tuple,
                 bw_demand_sum: float, kinfo: tuple,
                 rmemo: Optional[dict]) -> None:
        self.sm_list = sm_list
        self.sm_sum = sm_sum
        self.bwd_list = bwd_list
        self.bw_demand_sum = bw_demand_sum
        self.kinfo = kinfo
        self.rmemo = rmemo


class _GroupAllocState:
    """Everything the incremental allocator keeps for one resident group.

    The pool's membership hook creates the record at the group's first
    resident task, keeps its indexes current and drops it at the last;
    the allocator recomputes a record's columns only when it is *dirty*.
    Every cached float is exactly the value the full recompute would
    produce, because it *is* that value — the cache memoises, never
    delta-updates.  Records are kept for every group, so a domain knows
    when it holds one cap-policy group again; the allocator reads only
    that group's.  The record's per-task lists follow its residency
    order, which for the domain's one group is the domain's column
    order.
    """

    __slots__ = ("group", "dom", "res", "counts", "repeats", "dirty",
                 "budget", "overhead", "gcap", "cols", "share", "split",
                 "kclass", "cls")

    def __init__(self, group: ShareGroup, dom: "_AllocDomain") -> None:
        self.group = group
        # The group's fluid domain.
        self.dom = dom
        # Resident tasks in admission order, tasks per client (keyed by
        # the client), and clients with more than one: while that is
        # zero the MPS aggregate-cap shrink cannot fire (and the memo
        # applies).
        self.res: list[FluidTask] = []
        self.counts: dict[GpuClient, int] = {}
        self.repeats = 0
        # Membership changed, or the solo path bypassed the columns.
        self.dirty = False
        # Capacity: SM budget, compute overhead factor and bandwidth
        # cap.  They move only in a full round (after a poke), which
        # re-derives them (SimulatedGPU._set_capacity), as the hook does
        # when it creates the record.
        self.budget = -1.0
        self.overhead = 0.0
        self.gcap = 0.0
        # The columns (a memo entry) and the split last written for
        # them at group share ``share`` (``None``: columns replaced, or
        # a full recompute wrote the rates, so the rates pass must
        # rerun): ``(bw_list, bw_sum, rates)``.
        self.cols: Optional[_Columns] = None
        self.share: Optional[float] = None
        self.split: tuple = ((), 0.0, ())
        # Per-task classes in residency order, under ``budget``: the
        # class-cache entry ``(SM demand, kernel constants, class id)``
        # and the class id alone, so the memo key is ``(budget, *cls)``.
        self.kclass: list[tuple] = []
        self.cls: list[int] = []


class _AllocDomain:
    """The allocator's state for one fluid domain of the device.

    The membership hook keeps (incremental mode only) the domain's
    records and ``single``: its one record when the domain holds exactly
    one cap-policy group, the incremental path's case, else ``None``.  A
    poke bumps the pool epoch; a new epoch since the domain's last
    incremental pass makes its next one a full round (the record's
    capacity re-derived; a solo pass defers it).  Every path keeps the
    domain's allocation totals and integrates them over time
    (compensated sums: at millions of kernel events the naive float
    accumulation drifts enough to fail conservation checks).
    """

    __slots__ = ("fluid", "records", "single", "seen_epoch", "cur_sm",
                 "cur_bw", "t0", "sm_seconds", "bw_byte_seconds")

    def __init__(self, fluid, now: float) -> None:
        # The pool's domain: its residents and rate slots.
        self.fluid = fluid
        self.records: list[_GroupAllocState] = []
        self.single: Optional[_GroupAllocState] = None
        self.seen_epoch = -1
        self.cur_sm = 0.0
        self.cur_bw = 0.0
        self.t0 = now
        self.sm_seconds = KahanSum()
        self.bw_byte_seconds = KahanSum()

    def regroup(self) -> None:
        """Re-derive ``single`` after a record joined or left."""
        records = self.records
        self.single = (records[0] if len(records) == 1
                       and records[0].group.sm_policy == "cap" else None)


class SimulatedGPU:
    """One simulated GPU device.

    ``pool`` is the one fluid pool of every kernel on the device; its
    allocator and membership hook serve each of its domains (see the
    module docstring), and its length counts the residents of all.

    Parameters
    ----------
    incremental:
        Reuse a one-group domain's allocation state across membership
        changes (the default).  Results are bit-identical to the full
        recompute, which every other domain takes; set ``False`` to
        force the full path on every change.
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
        # The allocator's state per fluid domain (key -> state), in
        # creation order: the device domain, then one per MIG instance.
        self._domains: dict[Optional[int], _AllocDomain] = {
            None: _AllocDomain(self.pool.domain(None), env.now)}
        self.kernels_completed = 0
        # Incremental-allocator state and diagnostics.
        if cross_check is None:
            cross_check = os.environ.get("REPRO_ALLOC_CHECK", "") not in ("", "0")
        self.cross_check = cross_check
        # Kept by the pool's membership hook (incremental mode only):
        # one allocation record per resident group (gid -> record), each
        # also listed by its domain.
        self._groups: dict[int, _GroupAllocState] = {}
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
        # Class cache: (kernel kid, client SM cap, record budget) ->
        # (demand, kernel constants, class id), the pure function of
        # those three that _classify derives.  Cleared with the memo (a
        # cached id must be the one _kclass holds) and on its own when
        # full (which only costs lookups).
        self._kcache: dict[tuple, tuple] = {}
        #: Allocator invocations (every admit/complete/poke that changed
        #: the resident set or external capacity).
        self.alloc_calls = 0
        #: Incremental passes that recomputed their group's columns
        #: (the group was dirty).
        self.alloc_group_recomputes = 0
        #: Dirty groups whose columns came from the allocation memo
        #: (a subset of ``alloc_group_recomputes``).
        self.alloc_memo_hits = 0
        #: Incremental passes that kept their group's columns (a poke
        #: that left the group's membership and capacity unchanged).
        self.alloc_group_reuses = 0
        #: Single-resident-kernel fast-path hits.
        self.alloc_fast_path = 0
        env.gpus.append(self)

    @property
    def sm_seconds(self) -> float:
        """Integral of allocated SMs over time (the domains' compensated
        sums, added in domain order)."""
        return reduce(add, [d.sm_seconds.value
                            for d in self._domains.values()], 0.0)

    @property
    def bw_byte_seconds(self) -> float:
        """Integral of allocated bandwidth over time (the domains'
        compensated sums, added in domain order)."""
        return reduce(add, [d.bw_byte_seconds.value
                            for d in self._domains.values()], 0.0)

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
        """Attach ``group``.  A cap-policy group with a bandwidth cap of
        its own is a hardware-isolated slice (a MIG instance: its SMs,
        memory and bandwidth are its own) and gets its own fluid domain.
        MIG's slice accounting keeps the instances' caps within the
        device bandwidth, so no shared water level couples them."""
        self.groups.append(group)
        if group.bw_cap is not None and group.sm_policy == "cap":
            group.fluid_domain = group.gid
            self._domains[group.gid] = _AllocDomain(
                self.pool.domain(group.gid), self.env.now)
        self.pool.poke()
        return group

    def remove_group(self, group: ShareGroup) -> None:
        if group.clients:
            raise RuntimeError(
                f"cannot remove group {group.name!r}: {len(group.clients)} "
                "clients still attached"
            )
        self.groups.remove(group)
        key = group.fluid_domain
        if key is not None and not self._domains[key].fluid._slot_task:
            # Retire the instance's empty domain: its integrals carry
            # over to the device domain's, so ``sm_seconds`` keeps
            # counting them and reconfigurations do not pile up domains.
            dom = self._domains.pop(key)
            del self.pool._domains[key]
            dev = self._domains[None]
            dev.sm_seconds.add(dom.sm_seconds.value)
            dev.bw_byte_seconds.add(dom.bw_byte_seconds.value)
        self.pool.poke()

    # -- kernel path ----------------------------------------------------------
    def submit(self, client: GpuClient, kernel: Kernel) -> Event:
        task = FluidTask(self.env, 1.0, {"client": client, "kernel": kernel})
        task.done.callbacks.append(self._on_complete)
        group = client.group
        task.domain = group.fluid_domain
        if group.discipline == "temporal":
            group.submit(task)
        else:
            self.pool.add(task)
        return task.done

    def _on_complete(self, ev: Event) -> None:
        if ev._ok:
            self.kernels_completed += 1
            dom = self._domains[ev._value.domain]
            if not dom.fluid._slot_task:
                self._close_domain(dom)
            return
        # A killed kernel: its task is not at hand, so look at every
        # domain.
        for dom in self._domains.values():
            if not dom.fluid._slot_task:
                self._close_domain(dom)

    # -- utilization ------------------------------------------------------------
    def _integrate(self) -> None:
        for dom in self._domains.values():
            self._integrate_domain(dom)

    def _integrate_domain(self, dom: "_AllocDomain") -> None:
        dt = self.env.now - dom.t0
        if dt > 0:
            dom.sm_seconds.add(dom.cur_sm * dt)
            dom.bw_byte_seconds.add(dom.cur_bw * dt)
        dom.t0 = self.env.now

    def _close_domain(self, dom: "_AllocDomain") -> None:
        """An empty domain's allocator will not be called again until
        new work arrives: close its utilization integral now."""
        self._integrate_domain(dom)
        dom.cur_sm = 0.0
        dom.cur_bw = 0.0

    def sm_utilization(self, since: float = 0.0) -> float:
        """Mean SM utilization in [0,1] from ``since`` until now."""
        self._integrate()
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return self.sm_seconds / (self.spec.sms * horizon)

    # -- the allocator ------------------------------------------------------------
    def _on_membership(self, task: FluidTask, added: bool) -> None:
        """FluidPool membership hook (incremental mode only): keep the
        group's record in sync with the pool and mark it dirty.

        Residency lists keep admission order, the pool's column order.
        A record that joins or leaves its domain re-derives the domain's
        ``single``.  Tasks are classified here, from the class cache
        when it holds the entry.
        """
        client = task.meta["client"]
        group: ShareGroup = client.group
        gid = group.gid
        st = self._groups.get(gid)
        if added:
            if st is None:
                dom = self._domains[group.fluid_domain]
                st = self._groups[gid] = _GroupAllocState(group, dom)
                dom.records.append(st)
                dom.regroup()
                self._set_capacity(st)
            st.res.append(task)
            counts = st.counts
            c = counts[client] = counts.get(client, 0) + 1
            if c == 2:
                st.repeats += 1
            entry = self._kcache.get(
                (task.meta["kernel"].kid, client._sm_cap, st.budget))
            if entry is None:
                self._classify(st, task)
            else:
                st.kclass.append(entry)
                st.cls.append(entry[2])
        else:
            res = st.res
            i = res.index(task)
            del res[i], st.kclass[i], st.cls[i]
            counts = st.counts
            c = counts[client] - 1
            if c:
                counts[client] = c
                if c == 1:
                    st.repeats -= 1
            else:
                del counts[client]
            if not res:
                del self._groups[gid]
                dom = st.dom
                dom.records.remove(st)
                dom.regroup()
                return
        st.dirty = True

    def _classify(self, st: _GroupAllocState, t: FluidTask) -> None:
        """Append ``t``'s SM demand under the record's budget, its kernel
        constants and its interned kernel-class id to the record's
        classes (``t`` is the next task in residency order).

        The triple depends only on the kernel (an immutable value named
        by its ``kid``), the client's SM cap and the budget, so it is
        looked up by those three in the class cache before it is
        derived (the membership hook takes a hit itself)."""
        meta = t.meta
        kernel: Kernel = meta["kernel"]
        cap = meta["client"]._sm_cap
        ckey = (kernel.kid, cap, st.budget)
        entry = self._kcache.get(ckey)
        if entry is None:
            demand = float(min(kernel.max_sms, cap, st.budget))
            # (bytes_moved, flops, flops_per_sm * efficiency): the cached
            # product has the exact operand grouping the full path uses,
            # so reuse stays bit-identical.
            ki = (kernel.bytes_moved, kernel.flops,
                  self.spec.flops_per_sm * kernel.efficiency)
            c = self._kclass.get((demand, ki))
            if c is None:
                self._memo_room()
                c = self._kclass[(demand, ki)] = next(self._kclass_ids)
            if len(self._kcache) >= _MEMO_MAX:
                self._kcache.clear()
            entry = self._kcache[ckey] = (demand, ki, c)
        st.kclass.append(entry)
        st.cls.append(entry[2])

    @staticmethod
    def _capacity(group: ShareGroup) -> tuple[float, float, float]:
        """``(SM budget, overhead factor, bandwidth cap)`` of a
        cap-policy group: the full path's derivation.  (A fair-policy
        group's record gets these too; no pass reads them.)"""
        return (float(group.sm_budget), group.overhead_factor,
                group.effective_bw_cap)

    def _set_capacity(self, st: _GroupAllocState) -> bool:
        """Re-derive ``st``'s capacity fields; returns whether its budget
        or overhead moved (its columns or rates must then be redone).  A
        new budget drops the task classes, which depend on it."""
        budget, overhead, st.gcap = self._capacity(st.group)
        moved = False
        if st.budget != budget:
            st.kclass.clear()
            st.cls.clear()
            st.budget = budget
            moved = True
        if st.overhead != overhead:
            st.overhead = overhead
            moved = True
        return moved

    def _allocate(self, tasks: list[FluidTask]) -> None:
        """FluidPool callback: divide SMs and bandwidth over ``tasks``,
        the residents of one fluid domain in admission order (its slot
        column order: every path writes the rates as one column).

        A domain of one cap-policy group takes the incremental path
        (the solo fast path for one resident, else the memoised pass);
        any other domain, and every domain when ``incremental`` is off,
        takes the full recompute.  The paths produce bit-identical
        rates; ``cross_check`` compares every allocation.
        """
        self.alloc_calls += 1
        first = tasks[0]
        dom = self._domains[first.domain]
        # _integrate_domain, inline: the same Kahan steps applied in
        # place to the domain's two compensated sums.
        now = self.env._now
        dt = now - dom.t0
        if dt > 0:
            acc = dom.sm_seconds
            y = dom.cur_sm * dt - acc._comp
            s = acc.value + y
            acc._comp = (s - acc.value) - y
            acc.value = s
            acc = dom.bw_byte_seconds
            y = dom.cur_bw * dt - acc._comp
            s = acc.value + y
            acc._comp = (s - acc.value) - y
            acc.value = s
        dom.t0 = now
        st = dom.single
        if st is None:
            _, _, rates, dom.cur_sm, dom.cur_bw = self._compute_full(tasks)
            dom.fluid._r[:] = [rates[t.tid] for t in tasks]
            # The rates just written were split across groups: a record
            # left alone later must rerun its rates pass.
            for rec in dom.records:
                rec.share = None
        elif len(tasks) == 1:
            self._allocate_solo(first, st, dom)
        else:
            self._allocate_incremental(st, dom)
        if self.cross_check and self.incremental:
            self._verify_against_full(tasks, dom)

    def _allocate_solo(self, t: FluidTask, st: _GroupAllocState,
                       dom: _AllocDomain) -> None:
        """One resident kernel of a cap-policy group: the water level is
        trivial.

        Replicates the full path's arithmetic *exactly* (same operations
        in the same order) so the result is bit-identical; the derivation
        is spelled out in docs/architecture.md.
        """
        self.alloc_fast_path += 1
        spec = self.spec
        client: GpuClient = t.meta["client"]
        kernel: Kernel = t.meta["kernel"]
        group = client.group
        budget = float(group.sm_budget)
        # SM demand: a single kernel is never shrunk by its client's
        # aggregate cap (the demand already honours ``sm_cap``).
        demand = float(min(kernel.max_sms, client.sm_cap, budget))
        scale = min(1.0, budget / demand) if demand > 0 else 0.0
        sms = demand * scale
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
        bw = min(bwd, group.effective_bw_cap, spec.bandwidth)
        rate_c = float("inf")
        if kernel.flops > 0:
            rate_c = (
                spec.flops_per_sm * kernel.efficiency * sms / kernel.flops
            ) * group.overhead_factor
        rate_m = float("inf")
        if kernel.bytes_moved > 0 and bwd > 0:
            rate_m = bw / kernel.bytes_moved
        rate = min(rate_c, rate_m)
        dom.fluid._r[0] = 0.0 if rate == float("inf") else rate
        # The record's columns no longer describe the rate just written:
        # mark it dirty so the next incremental pass recomputes it.
        st.dirty = True
        dom.cur_sm = sms
        dom.cur_bw = bw

    def _allocate_incremental(self, st: _GroupAllocState,
                              dom: _AllocDomain) -> None:
        """Memoised allocation of a domain holding one cap-policy group,
        whose record is ``st``.

        The group's columns are recomputed (or looked up in the memo)
        only when it is dirty: its membership changed since the last
        pass, or the solo path bypassed it.  A *full round* (the first
        pass after a poke) re-derives the record's capacity and marks it
        dirty if its budget or overhead moved; otherwise capacity is as
        the last full round (or the record's creation) left it.  The
        split is redone when the group's share moved.  Every reused
        float is the exact value a full recompute would produce
        (enforced by ``cross_check`` and the property tests).
        """
        pool_epoch = self.pool._epoch
        if pool_epoch != dom.seen_epoch:
            dom.seen_epoch = pool_epoch
            if self._set_capacity(st):
                st.dirty = True
        if st.dirty:
            st.dirty = False
            self.alloc_group_recomputes += 1
            # Every task classified and no repeated client: the memo
            # key is at hand.  Any other case, or a miss, is
            # _recompute_group's.
            hit = None
            if not st.repeats and len(st.cls) == len(st.res):
                hit = self._memo.get((st.budget, *st.cls))
            if hit is None:
                self._recompute_group(st)
            else:
                self.alloc_memo_hits += 1
                st.cols = hit
            st.share = None  # new columns: the rates pass must rerun
        else:
            self.alloc_group_reuses += 1
        cols = st.cols
        # The device-level waterfill of one group, exactly: its demand,
        # limited by its cap, then by the device bandwidth.
        gs = min(cols.bw_demand_sum, st.gcap, self.spec.bandwidth)
        if st.share != gs:
            rmemo = cols.rmemo
            key = (gs, st.overhead)
            split = rmemo.get(key) if rmemo is not None else None
            if split is None:
                split = _group_rates(cols, gs, st.overhead)
                if rmemo is not None:
                    self._memo_room()
                    rmemo[key] = split
            st.split = split
            st.share = gs
            # The group's residency order is the domain's column order,
            # so the rates land as one column.
            dom.fluid._r[:] = split[2]
        dom.cur_sm = cols.sm_sum
        dom.cur_bw = st.split[1]

    def _memo_room(self) -> None:
        """Account for one memo insert, clearing the memo when full."""
        if self._memo_size >= _MEMO_MAX:
            self._memo.clear()
            self._kclass.clear()
            self._kcache.clear()
            self._memo_size = 0
        self._memo_size += 1

    def _recompute_group(self, st: _GroupAllocState) -> None:
        """Full SM/demand recompute of one dirty group's columns, under
        its budget.

        Per-task classes persist across recomputes (a budget change
        clears them), so a membership change costs one pass of float
        arithmetic over the group at most.

        A group with no repeated client first looks its columns up in
        the allocation memo by ``(budget, ordered kernel-class ids)``;
        they are a pure function of exactly those inputs.  Repeated
        clients bypass the memo, since the aggregate-cap shrink depends
        on client identity.  (The allocation pass takes the hit itself
        when every task is classified, and calls this only on a miss or
        when the key must first be completed.)
        """
        budget = st.budget
        kclass = st.kclass
        res = st.res
        if not kclass:
            # A budget change dropped every class (the hook classifies
            # each admission): classify in residency order.
            for t in res:
                self._classify(st, t)
        work = [d for d, _, _ in kclass]
        kinfo = tuple([ki for _, ki, _ in kclass])
        no_repeats = st.repeats == 0
        if no_repeats:
            key = (budget, *st.cls)
            hit = self._memo.get(key)
            if hit is not None:
                self.alloc_memo_hits += 1
                st.cols = hit
                return
            # Every client has at most one resident task here, so each
            # aggregate equals the single demand, which is already
            # capped by ``sm_cap`` — the shrink below cannot fire.
        else:
            # The MPS percentage caps a *client's aggregate* SM usage,
            # not each kernel: several concurrent streams from one
            # capped client must share the client's slice.  Shrink the
            # demand copy — the classes keep the pre-shrink demands.
            by_client: dict[int, list[int]] = {}
            for i, t in enumerate(res):
                by_client.setdefault(id(t.meta["client"]), []).append(i)
            for idx in by_client.values():
                cap = float(res[idx[0]].meta["client"].sm_cap)
                subtotal = reduce(add, [work[i] for i in idx], 0.0)
                if subtotal > cap:
                    shrink = cap / subtotal
                    for i in idx:
                        work[i] *= shrink
        total = reduce(add, work, 0.0)
        scale = min(1.0, budget / total) if total > 0 else 0.0
        # One fused pass computes both columns: the SM share and the
        # bandwidth that keeps memory off the critical path given that
        # share (compute-rate-matched demand).  The two running sums
        # are independent accumulators, so interleaving them preserves
        # each addition sequence exactly.  Skipping the zero entries in
        # the demand sum is exact: adding 0.0 never changes a
        # non-negative accumulator.
        sm_list = []
        sm_append = sm_list.append
        bwd_list = []
        bwd_append = bwd_list.append
        sm_sum = 0.0
        bsum = 0.0
        inf = float("inf")
        for d, (bytes_moved, flops, sm_rate) in zip(work, kinfo):
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
        cols = st.cols = _Columns(tuple(sm_list), sm_sum, tuple(bwd_list),
                                  bsum, kinfo, {} if no_repeats else None)
        if no_repeats:
            self._memo_room()
            self._memo[key] = cols

    def _compute_full(self, tasks: Iterable[FluidTask]):
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
                subtotal = reduce(add, [demands[t.tid] for t in client_tasks],
                                  0.0)
                if subtotal > cap:
                    shrink = cap / subtotal
                    for t in client_tasks:
                        demands[t.tid] *= shrink
            total = reduce(add, demands.values(), 0.0)
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

    def _verify_against_full(self, tasks: list[FluidTask],
                             dom: _AllocDomain) -> None:
        """Cross-check: assert the incremental result for domain ``dom``
        (residents ``tasks``) equals the oracle.

        The hook-kept indexes are checked first, so a stale one is named
        as such rather than by the rate it corrupts."""
        by_group: dict[int, list[FluidTask]] = {}
        for t in tasks:
            by_group.setdefault(t.meta["client"].group.gid, []).append(t)
        self._verify_indexes(by_group, dom)
        sm_alloc, bw_alloc, rates, total_sm, total_bw = \
            self._compute_full(tasks)
        for t, rate in zip(tasks, dom.fluid._r):
            if rate != rates[t.tid]:
                raise AllocatorMismatch(
                    f"{self.name}: rate mismatch for task {t.tid}: "
                    f"incremental {rate!r} != full {rates[t.tid]!r}"
                )
        if dom.cur_sm != total_sm or dom.cur_bw != total_bw:
            raise AllocatorMismatch(
                f"{self.name}: utilisation totals diverged: "
                f"sm {dom.cur_sm!r} != {total_sm!r} or "
                f"bw {dom.cur_bw!r} != {total_bw!r}"
            )
        st = dom.single
        if st is not None and not st.dirty:
            # An incremental pass (a solo pass leaves the record dirty:
            # the columns it bypassed are stale).  Allocation columns
            # are positional in residency order.
            sm_list = st.cols.sm_list
            bw_list = st.split[0]
            for i, t in enumerate(st.res):
                if (sm_list[i] != sm_alloc[t.tid]
                        or bw_list[i] != bw_alloc[t.tid]):
                    raise AllocatorMismatch(
                        f"{self.name}: cached allocation mismatch for task "
                        f"{t.tid}: sm {sm_list[i]!r} != "
                        f"{sm_alloc[t.tid]!r} or bw {bw_list[i]!r} != "
                        f"{bw_alloc[t.tid]!r}"
                    )

    def _verify_indexes(self, by_group: dict[int, list[FluidTask]],
                        dom: _AllocDomain) -> None:
        """Cross-check domain ``dom``'s hook-maintained records against
        a recount from its task list (``by_group``: gid -> tasks, both
        in admission order), so an index fails at the call where it goes
        stale rather than when a rate finally diverges."""
        def check(ok: bool, what: str) -> None:
            if not ok:
                raise AllocatorMismatch(f"{self.name}: stale index: {what}")

        want = sorted(by_group)
        got = sorted(st.group.gid for st in dom.records)
        check(got == want
              and sum(st.dom is dom for st in self._groups.values())
              == len(want),
              f"records {got} != resident groups {want}")
        single = dom.single
        dom.regroup()  # a recount from the records just checked
        check(dom.single is single, "single-group record")
        if single is not None:
            # The one group's residency order is the domain's column
            # order, which the incremental pass writes its rates by.
            check(single.res == dom.fluid._slot_task,
                  f"residency order of {single.group.name!r}")
        else:
            # A full recompute wrote the rates: no record may skip its
            # next rates pass on a share from before it.
            check(all(st.share is None for st in dom.records),
                  "share after a full recompute")
        # Capacity fields move only in a full round: unless the next
        # pass is one, each record's must be what the group gives now.
        if self.pool._epoch == dom.seen_epoch:
            for st in dom.records:
                check((st.budget, st.overhead, st.gcap)
                      == self._capacity(st.group),
                      f"capacity of {st.group.name!r}")
        owner: dict[int, tuple] = {}
        for gid, ts in by_group.items():
            st = self._groups[gid]
            tids = [t.tid for t in ts]
            counts = dict(Counter(t.meta["client"] for t in ts))
            check(st.dom is self._domains[st.group.fluid_domain]
                  and [t.tid for t in st.res] == tids
                  and st.counts == counts
                  and st.repeats == sum(c > 1 for c in counts.values()),
                  f"residency of {st.group.name!r}")
            # Every task is classified, in residency order, and each
            # class id names exactly the task's (demand, kernel
            # constants): ids are never reused, and a class re-interned
            # after a memo clear only gets a newer one.
            check(len(st.cls) == len(st.kclass) == len(tids),
                  f"classes of {st.group.name!r}")
            for t, entry, c in zip(ts, st.kclass, st.cls):
                k: Kernel = t.meta["kernel"]
                key = (float(min(k.max_sms, t.meta["client"].sm_cap,
                                 st.budget)),
                       (k.bytes_moved, k.flops,
                        self.spec.flops_per_sm * k.efficiency))
                check(entry == (*key, c)
                      and owner.setdefault(c, key) == key
                      and self._kclass.get(key, c) >= c,
                      f"class of task {t.tid}")
        # The class cache and the interning table are cleared together,
        # so every cached id is the one the table holds.
        for ckey, (demand, ki, c) in self._kcache.items():
            check(self._kclass.get((demand, ki)) == c,
                  f"class cache entry {ckey}")


def _group_rates(cols: _Columns, gs: float, overhead: float):
    """Within-group bandwidth split and task rates for group share ``gs``.

    Pure: returns ``(bw_list, bw_sum, rates)`` as tuples in group-task
    order, computed from the group's columns only, so the allocation
    memo can store the result under ``(gs, overhead)``.
    """
    bwd_list = cols.bwd_list
    # Fast path: a demand sum safely below the group share means every
    # task gets its full demand.  (When
    # bandwidth is uncontended gs *equals* the demand sum, so this
    # intentionally falls through to the exact loop — equality is
    # inside the drift margin.)
    if _fits(cols.bw_demand_sum, gs):
        bw_list = bwd_list
    else:
        bw_list = _waterfill_uniform_list(bwd_list, gs)
    inf = float("inf")
    rates = []
    rates_append = rates.append
    bw_sum = 0.0
    # The columns all follow the residency order, so the four
    # sequences iterate in lockstep — no per-task dict lookups.
    for (bytes_moved, flops, sm_rate), smv, bw, bwdv in zip(
            cols.kinfo, cols.sm_list, bw_list, bwd_list):
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
        gid: min(reduce(add, [demand[t.tid] for t in ts], 0.0),
                 group_cap[gid])
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

    Requires the sum to sit below the budget by a relative margin,
    ``_FIT_MARGIN``, that dominates the waterfill loop's worst-case
    ``remaining`` rounding drift (~n ulps); exactly at the boundary the
    loop's drifted remainder can differ from the demand in the last
    ulps, so equality must take the slow exact path.
    """
    return total - demand_sum > total * _FIT_MARGIN


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
