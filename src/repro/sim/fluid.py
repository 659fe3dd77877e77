"""Rate-based ("fluid") task pool.

Models a set of concurrently-resident tasks whose progress rates depend on
how a shared resource is divided among them *right now*.  Whenever the set
of resident tasks changes, an allocator callback recomputes every task's
rate and the pool re-arms its wakeup for the next completion — one
:class:`~repro.sim.core.WakeupSlot` kept outside the event heap, so a
superseded wakeup is overwritten rather than left to pop.

This is the standard fluid-flow approximation used in network and GPU
sharing simulators: between membership changes, rates are constant, so the
next completion time is exact and the event count stays proportional to
the number of tasks, not to the simulated duration.

The GPU device model layers a roofline allocator on top: a kernel's rate
is ``min(compute_rate(SMs), memory_rate(bandwidth share))``, and the
bandwidth share is recomputed by water-filling on every membership change
(see :mod:`repro.gpu.device`).

Isolation domains
-----------------
A pool is split into *domains*, keyed by each task's ``domain`` (``None``
unless its creator set one).  Tasks in different domains never share a
resource, so each domain keeps its own residents, progress clock,
allocation revision and wakeup: an admission, a cancellation or a
completion advances and reallocates its own domain only, and the
allocator is called with that domain's residents.  The GPU device gives
each MIG instance its own domain (hardware-isolated slices); every other
share group sits in one device domain.  A pool whose tasks carry no key
has a single domain and behaves as one undivided pool.

Storage layout
--------------
Within a domain, the residents and their remaining work, rate and drain
threshold live in four parallel *slot columns* (``_slot_task``, ``_w``,
``_r``, ``_th``) in admission order: an admission appends, and a
removal is an order-preserving ``del`` at the task's index.  The
allocator is handed the domain's ``_slot_task`` list, so its i-th task
owns column entry i, and an allocator that knows the layout (the GPU
device) writes its rates into ``_r`` as one column.  ``FluidTask.work``
and ``FluidTask.rate`` are properties over the task's column entry
(found by identity), so other allocators and observers see a
plain-attribute interface.  A resident task's ``work`` is as of its
domain's last update: progress since then is applied at the domain's
next event.  The two per-event hot loops are scalar loops over one
domain's columns:

- :meth:`FluidPool._advance` fuses the step into one subtraction,
  ``work = w - r*dt``, and clamps the drained amount to ``w`` only when
  the result is at or below the drain threshold (then the task drains,
  ending at 0.0 with ``w`` drained).  A zero rate subtracts and drains
  exact zeros, and a negative rate never reaches an advance (arming
  rejects it).  The drained amounts are summed left to right, in
  admission order, and the drained tasks leave in admission order;
- the wakeup horizon is an order-free ``min`` of the work/rate
  quotients, taken with no pre-scan of the rates: resident work is
  positive, so a starved task raises ``ZeroDivisionError`` and a
  negative rate gives a negative minimum, and both fall through to
  :meth:`FluidPool._schedule_wakeup`'s full scan, which validates the
  rates and skips starved tasks.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Callable, Hashable, Optional

from repro.sim.core import (
    NORMAL, Environment, Event, SimulationError, WakeupSlot,
)
from repro.sim.numerics import KahanSum

__all__ = ["FluidTask", "FluidPool"]

#: Relative tolerance for treating remaining work as drained.
_EPS = 1e-9

_task_ids = itertools.count()


class FluidTask:
    """A unit of divisible work progressing at a pool-assigned rate.

    ``work`` must be finite and non-negative: a NaN or infinite amount
    could never drain."""

    __slots__ = ("_work", "total_work", "_rate", "done", "meta", "tid",
                 "domain", "_dom", "_thresh", "_aseq")

    def __init__(self, env: Environment, work: float, meta: Any = None):
        work = float(work)
        if not 0.0 <= work < math.inf:  # NaN fails both comparisons
            raise ValueError(f"work must be finite and >= 0, got {work!r}")
        self.total_work = work
        #: Remaining work, in abstract units (column-resident while
        #: pooled).
        self._work = work
        # Drain threshold, hoisted out of the advance loop: the same
        # float as _EPS * max(work, 1.0).
        self._thresh = _EPS * work if work > 1.0 else _EPS
        # Progress rate while not resident (0.0 once evicted).
        self._rate = 0.0
        #: Fires (with this task) when the work drains; see
        #: :class:`FluidPool` for where its callbacks run.
        self.done: Event = Event(env, "fluid-done")
        self.meta = meta
        self.tid = next(_task_ids)
        #: Isolation-domain key: the pool admits the task into the
        #: domain of this key (see the module docstring).
        self.domain: Hashable = None
        # The domain the task is resident in, or None.
        self._dom: Optional[_Domain] = None
        # Admission sequence number across the pool's domains.
        self._aseq = -1

    @property
    def work(self) -> float:
        """Remaining work, as of the domain's last update while resident."""
        d = self._dom
        return self._work if d is None else d._w[d._slot_task.index(self)]

    @work.setter
    def work(self, value: float) -> None:
        dom = self._dom
        if dom is None:
            self._work = value
        else:
            dom._w[dom._slot_task.index(self)] = value

    @property
    def rate(self) -> float:
        """Progress rate (units/s) set by the allocator; column-resident."""
        d = self._dom
        return self._rate if d is None else d._r[d._slot_task.index(self)]

    @rate.setter
    def rate(self, value: float) -> None:
        dom = self._dom
        if dom is None:
            self._rate = value
        else:
            dom._r[dom._slot_task.index(self)] = value

    @property
    def progress(self) -> float:
        """Fraction of work completed, in [0, 1]."""
        if self.total_work == 0:
            return 1.0
        return 1.0 - self.work / self.total_work

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FluidTask #{self.tid} work={self.work:.4g}/{self.total_work:.4g}"
            f" rate={self.rate:.4g}>"
        )


_aseq_key = operator.attrgetter("_aseq")


class _Domain:
    """One isolation domain of a :class:`FluidPool`: its residents' slot
    columns (admission order), progress clock, allocation revision and
    wakeup."""

    __slots__ = ("pool", "_w", "_r", "_th", "_slot_task", "_last_update",
                 "_wake", "_wakeup_pending", "_members_rev", "_alloc_rev",
                 "_alloc_epoch")

    def __init__(self, pool: "FluidPool") -> None:
        self.pool = pool
        # Parallel slot columns in admission order (see module
        # docstring): _slot_task[i] is the i-th resident; _w/_r/_th hold
        # its remaining work, rate and drain threshold.
        self._w: list[float] = []
        self._r: list[float] = []
        self._th: list[float] = []
        self._slot_task: list[FluidTask] = []
        self._last_update = pool.env.now
        # The completion wakeup: one slot outside the event heap (built
        # at the first arming), re-armed on every reallocation.
        self._wake: Optional[WakeupSlot] = None
        self._wakeup_pending = False
        # The membership revision, with the pool's capacity epoch,
        # decides whether cached rates are still valid, letting
        # _reallocate skip the allocator entirely.  tids are unique and
        # admission-monotonic, so "no mutation since the last
        # allocation" is exactly "same resident sequence".
        self._members_rev = 0
        self._alloc_rev = -1
        self._alloc_epoch = 0


class FluidPool:
    """A pool of fluid tasks sharing a resource via an allocator callback.

    Completion delivery: a task's ``done`` fires with the task when its
    work drains.  When a domain's wakeup drains tasks, the wakeup itself
    runs their ``done`` callbacks after re-arming the domain, in
    admission order, so a completion costs no loop event of its own.
    Within one wakeup that is the order scheduled ``done`` events would
    fire in; other events due at the same instant (another domain's or
    pool's wakeup, a timeout or an arrival at that time) run after these
    callbacks, where they would run before scheduled ``done`` events.
    Wakeups due at the same instant fire in the order they were armed.
    If a callback raises, the wakeup's undelivered completions are
    scheduled and the error propagates.  A task that drains anywhere
    else keeps a scheduled ``done``: above all one that drains at
    admission, inside :meth:`add`, whose launcher attaches callbacks
    only after ``add`` returns (likewise a drain found by ``cancel`` or
    ``poke``).

    Parameters
    ----------
    env:
        Simulation environment.
    allocator:
        Called with one domain's admission-ordered list of resident
        tasks (its ``_slot_task`` column, which it must not mutate)
        whenever that domain's membership changes; must set
        ``task.rate`` on each, or write the domain's ``_r`` column, whose
        i-th entry is the i-th task's rate (the same store).  Rates must
        be non-negative and may be zero (a starved task simply does not
        progress).
    on_change:
        Optional ``fn(task, added)`` invoked synchronously at every
        membership mutation (admission: ``added=True``; completion or
        cancellation: ``added=False``), always *before* the allocator
        runs for that change.  Incremental allocators use it to maintain
        residency indexes without re-deriving them from the task list on
        every call.
    """

    def __init__(self, env: Environment,
                 allocator: Callable[[list[FluidTask]], None],
                 name: str = "fluid-pool",
                 on_change: Optional[Callable[[FluidTask, bool], None]] = None):
        self.env = env
        self.allocator = allocator
        self.name = name
        self.on_change = on_change
        # Domains by key, in creation order.
        self._domains: dict[Hashable, _Domain] = {}
        # Admission sequence, across domains: ``tasks`` merges the
        # domains' admission-ordered columns by it.
        self._aseq = 0
        # External capacity changes (poke) bump the epoch: every domain's
        # next reallocation then runs the allocator.
        self._epoch = 0
        # Compensated: at 1M+ tasks the naive running sum drifts enough
        # to fail the conservation checks (see repro.sim.numerics).
        self._work_drained = KahanSum()

    @property
    def work_drained(self) -> float:
        """Total work drained through this pool (conservation checks)."""
        return self._work_drained.value

    # -- public API ---------------------------------------------------------
    @property
    def tasks(self) -> tuple[FluidTask, ...]:
        """Resident tasks of every domain, in admission order."""
        columns = [d._slot_task for d in self._domains.values()
                   if d._slot_task]
        if len(columns) == 1:
            return tuple(columns[0])
        return tuple(sorted(itertools.chain.from_iterable(columns),
                            key=_aseq_key))

    def __len__(self) -> int:
        return sum(len(d._slot_task) for d in self._domains.values())

    def domain(self, key: Hashable = None) -> _Domain:
        """The domain of ``key``, created on first use."""
        d = self._domains.get(key)
        if d is None:
            d = self._domains[key] = _Domain(self)
        return d

    def add(self, task: FluidTask) -> FluidTask:
        """Admit a task into its domain; returns it (its ``done`` event
        fires on drain)."""
        if task._dom is not None:
            raise SimulationError("task already resident in a pool")
        d = self._domains.get(task.domain)
        if d is None:
            d = self.domain(task.domain)
        self._advance(d)
        if task._work <= task._thresh:
            # Drains instantly: complete without ever becoming resident
            # (residency would double-fire ``done`` on the next advance).
            task._work = 0.0
            task.done.succeed(task)
            return task
        d._w.append(task._work)
        d._r.append(0.0)  # no progress until the allocator runs
        d._th.append(task._thresh)
        d._slot_task.append(task)
        task._rate = 0.0  # what ``rate`` reads once the task leaves
        task._aseq = self._aseq
        self._aseq += 1
        task._dom = d
        d._members_rev += 1
        if self.on_change is not None:
            self.on_change(task, True)
        self._reallocate(d)
        return task

    def cancel(self, task: FluidTask) -> float:
        """Evict a task before completion; returns remaining work."""
        d = task._dom
        if d is None or d.pool is not self:
            raise SimulationError("task not resident in this pool")
        self._advance(d)
        if task._dom is not d:
            # The pending progress drained it: _advance already finished
            # it (done fired, membership updated) — nothing left to evict.
            return 0.0
        i = d._slot_task.index(task)
        task._work = d._w[i]
        del d._w[i], d._r[i], d._th[i], d._slot_task[i]
        task._dom = None
        d._members_rev += 1
        if self.on_change is not None:
            self.on_change(task, False)
        self._reallocate(d)
        return task._work

    def poke(self) -> None:
        """Force a reallocation of every domain (e.g. after an external
        capacity change)."""
        busy = [d for d in self._domains.values() if d._slot_task]
        if not busy:
            # Capacity changes cannot affect anyone, and an empty domain
            # has nothing to drain: skip the allocator round trip.
            return
        self._epoch += 1
        for d in busy:
            self._advance(d)
            self._reallocate(d)

    # -- internals ------------------------------------------------------------
    def _advance(self, d: _Domain,
                 inline: bool = False) -> Optional[list[FluidTask]]:
        """Apply domain ``d``'s progress at current rates from its last
        update until now.

        Returns the drained tasks (admission order) or ``None``.  Each
        drained task's ``done`` is scheduled, unless ``inline``: then it
        is only triggered, and the caller runs its callbacks."""
        now = self.env._now
        dt = now - d._last_update
        d._last_update = now
        n = len(d._slot_task)
        if dt <= 0 or n == 0:
            return None
        w = d._w
        r = d._r
        th = d._th
        drained_at: Optional[list[int]] = None
        drained_total = 0.0
        for i in range(n):
            drained = r[i] * dt
            work = w[i] - drained
            if work <= th[i]:
                # Drained: clamp the step to the work that was left.
                if drained > w[i]:
                    drained = w[i]
                work = 0.0
                if drained_at is None:
                    drained_at = []
                drained_at.append(i)
            w[i] = work
            drained_total += drained
        self._work_drained.add(drained_total)
        if drained_at is None:
            return None
        slot_task = d._slot_task
        on_change = self.on_change
        finished = []
        for k, i in enumerate(drained_at):
            i -= k  # the k drained before it have left the columns
            task = slot_task[i]
            del w[i], r[i], th[i], slot_task[i]
            task._work = 0.0
            task._dom = None
            finished.append(task)
            d._members_rev += 1
            if on_change is not None:
                on_change(task, False)
            if inline:
                # Triggered now, delivered by the wakeup.
                task.done._value = task
            else:
                task.done.succeed(task)
        return finished

    def _reallocate(self, d: _Domain) -> None:
        if not d._slot_task:
            self._disarm(d)
            d._alloc_rev = -1
            return
        if (d._members_rev == d._alloc_rev
                and self._epoch == d._alloc_epoch):
            # Same resident set under the same external capacity: the
            # allocator would reproduce the rates every task already
            # carries, so skip it (and the water-filling behind it).  Only
            # a fired wakeup gets here — add, cancel and poke bump a
            # revision — so nothing is armed: arm the next completion.
            self._schedule_wakeup(d)
            return
        self.allocator(d._slot_task)
        d._alloc_rev = d._members_rev
        d._alloc_epoch = self._epoch
        # The common case, armed in this frame: a domain whose tasks all
        # progress — _schedule_wakeup's first branch, without its rate
        # pre-scan.  Resident work is positive, so a starved task
        # raises ZeroDivisionError and a negative rate gives a negative
        # horizon; both, an infinite horizon and the first arming
        # (which builds the slot) take the full scan, which validates
        # and handles starvation.  (A horizon below the clock's
        # resolution fires once without progress and reaches the full
        # scan that way.)
        if d._wake is not None:
            try:
                horizon = min(map(operator.truediv, d._w, d._r))
            except ZeroDivisionError:
                horizon = -1.0
            if 0.0 <= horizon < math.inf:
                self._arm(d, horizon)
                return
        self._schedule_wakeup(d)

    def _schedule_wakeup(self, d: _Domain) -> None:
        """Arm ``d``'s wakeup for its earliest completion at current
        rates."""
        # The scan doubles as rate validation (the former separate
        # O(#tasks) pass over the allocator's output).
        horizon = math.inf
        w = d._w
        r = d._r
        rmin = min(r)
        if rmin > 0.0:
            # Every rate is positive: the horizon is the smallest
            # work/rate quotient.  ``min`` over a C-level ``map``
            # compares the same divisions the explicit scan would, so
            # the chosen float is identical.
            horizon = min(map(operator.truediv, w, r))
        elif rmin < 0.0:
            bad = next(t for t, rate in zip(d._slot_task, r) if rate < 0)
            raise SimulationError(
                f"allocator produced negative rate for {bad!r}"
            )
        else:
            for i in range(len(r)):
                rate = r[i]
                if rate > 0:
                    h = w[i] / rate
                    if h < horizon:
                        horizon = h
        if horizon == math.inf:
            # Every task starved; an external poke must revive them.
            self._disarm(d)
            return
        if d._wake is None:
            # The domain's completion wakeup; the closure's name is its
            # profiler site.  It drains the domain's due work, re-arms,
            # then runs each drained task's ``done`` callbacks in
            # admission order, with no loop event of their own.
            def _on_wakeup(_ev: Event) -> None:
                d._wakeup_pending = False
                finished = self._advance(d, True)
                self._reallocate(d)
                if finished is None:
                    return
                pending = iter(finished)
                try:
                    for task in pending:
                        done = task.done
                        callbacks, done.callbacks = done.callbacks, None
                        for cb in callbacks:
                            cb(done)
                except BaseException:
                    # The error ends the loop's run; the completions not
                    # yet delivered wait on the heap, as scheduled ones
                    # would.
                    enqueue = self.env._enqueue
                    for task in pending:
                        enqueue(task.done, NORMAL)
                    raise

            d._wake = WakeupSlot(self.env, _on_wakeup)
        now = self.env._now
        if now + horizon <= now:
            # The earliest completion rounds to now: a wakeup there
            # drains nothing (no time elapses) and would re-arm at the
            # same instant forever.  Wake one clock ulp later instead;
            # that step's progress covers the remaining work (worth
            # under half an ulp), so the task drains.
            horizon = math.ulp(now)
        self._arm(d, horizon)

    def _arm(self, d: _Domain, delay: float) -> None:
        """(Re-)arm ``d``'s completion wakeup ``delay`` from now."""
        self.env.arm(d._wake, delay)
        d._wakeup_pending = True

    def _disarm(self, d: _Domain) -> None:
        if d._wakeup_pending:
            d._wakeup_pending = False
            self.env.disarm(d._wake)
