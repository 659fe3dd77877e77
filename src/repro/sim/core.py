"""Event queue, virtual clock, and the core event types.

Design notes
------------
The scheduler is a binary heap keyed on ``(time, priority, seq)``.  The
monotonically increasing ``seq`` makes the ordering a *total* order, so
simulations are bit-for-bit deterministic given the same inputs — a hard
requirement for the reproduction benchmarks (and for the hypothesis tests
that shrink failing schedules).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "SimulationError",
    "Timeout",
    "PENDING",
    "URGENT",
    "NORMAL",
    "WakeupSlot",
]

#: Sentinel for an event that has not yet fired.
PENDING = object()

#: Scheduling priority for events that must pre-empt same-time events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Optional callback ``fn(env)`` invoked when :meth:`Environment.run`
#: returns — installed by :mod:`repro.sim.stats` while a collector is
#: active, ``None`` otherwise (so the hot loop never pays for it).
RUN_LISTENER: Optional[Callable[["Environment"], None]] = None

#: Optional callback ``fn(env)`` invoked when an :class:`Environment` is
#: constructed — installed by :mod:`repro.profile` while a profiling
#: context is active so every environment built inside it (including the
#: per-cell environments of a sharded run) gets a profiler attached.
#: ``None`` otherwise; construction is cold, so the check is free.
ENV_CREATED_HOOK: Optional[Callable[["Environment"], None]] = None


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not model errors)."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, is *triggered* when given a value (or an
    exception), and is *processed* once the environment has run its
    callbacks.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused",
                 "_recycle", "name")

    def __init__(self, env: "Environment", name: str | None = None):
        self.env = env
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False
        # True once some waiter has taken responsibility for the failure.
        self._defused = False
        self._recycle = False
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        ident = self.name if self.name else f"{id(self):#x}"
        return f"<{type(self).__name__} {ident} {state}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.env._enqueue(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process that waits on the
        event, unless it was *defused* (e.g. captured by a future).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = exception
        self._ok = False
        self.env._enqueue(self, priority)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Timeouts are the single most-constructed object in a simulation, so
    the constructor bypasses :meth:`Event.__init__` (no name formatting,
    no super() dispatch) — a measurable share of event-loop time.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._scheduled = False
        self._defused = False
        self._recycle = False
        self.name = None
        self.delay = delay
        self._value = value
        self._ok = True
        env._enqueue(self, priority, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.processed else "ok"
        return f"<Timeout timeout({self.delay:g}) {state}>"


class WakeupSlot(Event):
    """A re-armable timer kept outside the event heap (the fluid pool's
    completion wakeup).  Re-arming (:meth:`Environment.arm`) overwrites
    the pending firing, where a timeout would leave a superseded entry
    to be popped and ignored.  The loop fires it like any event, running
    ``callback``; a fired slot stays disarmed until re-armed."""

    __slots__ = ("_callbacks",)

    def __init__(self, env: "Environment", callback: Callable[["Event"], None]):
        super().__init__(env)
        self._value = None
        self._callbacks = [callback]
        self.callbacks = None


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` combinators.

    Already-processed constituents are resolved eagerly at construction
    (counting them separately from pending ones — a processed event must
    never drive the pending counter negative and fire an ``AllOf``
    early); pending constituents resolve through callbacks.
    """

    __slots__ = ("events", "_pending_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        # Any constituent that already failed decides the condition.
        for ev in self.events:
            if ev.processed and not ev.ok:
                self.fail(ev.value)
                return
        pending = [ev for ev in self.events if not ev.processed]
        self._pending_count = len(pending)
        if self._resolve_initial(n_processed_ok=len(self.events) - len(pending)):
            return
        for ev in pending:
            ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _resolve_initial(self, n_processed_ok: int) -> bool:
        """Decide the condition from construction-time state; True if done."""
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once *all* constituent events have fired (dict of values)."""

    __slots__ = ()

    def _resolve_initial(self, n_processed_ok: int) -> bool:
        if self._pending_count == 0:
            self.succeed(self._collect())
            return True
        return False

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending_count -= 1
        if self._pending_count <= 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as *any* constituent event fires."""

    __slots__ = ()

    def _resolve_initial(self, n_processed_ok: int) -> bool:
        if n_processed_ok > 0 or not self.events:
            self.succeed(self._collect())
            return True
        return False

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed(self._collect())


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    #: Upper bound on the recycled-timeout free list (see
    #: :meth:`timeout_pooled`); past this, extras are left to the GC.
    _POOL_LIMIT = 256

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Number of events processed so far (diagnostic).
        self.events_processed = 0
        #: Simulated GPUs attached to this environment (diagnostic
        #: registry for the ``--stats`` collector; see repro.sim.stats).
        self.gpus: list = []
        #: Free list of processed recyclable timeouts.
        self._tpool: list[Timeout] = []
        #: Armed wakeup slots (slot -> its heap key) and the earliest of
        #: those keys, or ``None`` — see :meth:`arm`.
        self._timers: dict[WakeupSlot, tuple] = {}
        self._tnext: Optional[tuple] = None
        #: Attached :class:`repro.profile.EventLoopProfiler`, or ``None``:
        #: while attached, the event loop hands each event's callbacks to
        #: its ``record``.
        self._profiler = None
        if ENV_CREATED_HOOK is not None:
            ENV_CREATED_HOOK(self)

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    # -- event construction helpers ---------------------------------------
    def event(self, name: str | None = None) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def timeout_pooled(self, delay: float) -> Timeout:
        """A recyclable :class:`Timeout` drawn from a free list.

        Timeouts are the single most-constructed object in a simulation;
        hot internal paths (fluid-pool wakeups, serving loops, open-loop
        arrival generators) draw them here so the event loop stops paying
        an allocation + GC tax per event.  The contract: the *caller must
        not retain the event past its processing* — once its callbacks
        have run, the event goes back on the free list and will be reborn
        as a different timeout.  ``yield env.timeout_pooled(d)`` from a
        process is fine (the process drops the reference on resume);
        storing the event or reading ``.value`` later is not.
        """
        pool = self._tpool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay!r}")
            ev = pool.pop()
            ev.callbacks = []
            ev._value = None
            ev._scheduled = False
            ev._defused = False
            ev.delay = delay
            self._enqueue(ev, NORMAL, delay=delay)
            return ev
        ev = Timeout(self, delay)
        ev._recycle = True
        return ev

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator) -> "Process":
        """Start a new process from a generator (see :mod:`repro.sim.process`)."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling --------------------------------------------------------
    def _enqueue(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._queue, (self._now + delay, priority, seq, event))

    def schedule_batch(self, times, callback: Optional[Callable[["Event"], None]] = None,
                       priority: int = NORMAL) -> list[Event]:
        """Schedule one event per *absolute* timestamp in a single call.

        ``times`` is a sequence (list or numpy array) of non-decreasing
        absolute simulation times, all ``>= now``.  Each event fires with
        its timestamp as value and ``callback`` (if given) pre-installed.
        Returns the created events in input order.

        This is the bulk counterpart of :meth:`timeout`: instead of one
        ``heappush`` per event, the whole batch is appended to the queue
        and the heap invariant restored with a single ``heapify`` —
        O(n + m) for m pending events instead of O(n log m).  Sequence
        numbers are assigned in input order, so two same-time events from
        one batch process in input order, and an event enqueued *later*
        at the same timestamp (e.g. by a callback) processes after the
        rest of the batch — exactly as if each event had been scheduled
        individually at batch-creation time.
        """
        if hasattr(times, "tolist"):
            times = times.tolist()
        now = self._now
        queue = self._queue
        seq0 = seq = self._seq
        start = len(queue)
        events: list[Event] = []
        prev = now
        for t in times:
            if t < prev:
                # Discard the partial batch: nothing was heapified yet,
                # so the appended tail can simply be cut off.
                del queue[start:]
                self._seq = seq0
                raise SimulationError(
                    f"schedule_batch times must be non-decreasing and >= now "
                    f"(got {t!r} after {prev!r})"
                )
            prev = t
            ev = Event.__new__(Event)
            ev.env = self
            ev.callbacks = [callback] if callback is not None else []
            ev._value = t
            ev._ok = True
            ev._scheduled = True
            ev._defused = False
            ev._recycle = False
            ev.name = None
            seq += 1
            queue.append((t, priority, seq, ev))
            events.append(ev)
        self._seq = seq
        if events:
            heapq.heapify(queue)
        return events

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` simulated seconds; returns the event."""
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        t = self._queue[0][0] if self._queue else float("inf")
        nxt = self._tnext
        return t if nxt is None or t < nxt[0] else nxt[0]

    # -- wakeup slots -------------------------------------------------------
    def arm(self, slot: "WakeupSlot", delay: float) -> None:
        """(Re-)arm ``slot`` to fire ``delay`` from now, replacing any
        pending firing.  The slot takes the ``(time, NORMAL, seq)`` key a
        :class:`Timeout` created here would have (arming consumes a
        ``seq``), so it fires in that timeout's place in the order."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        seq = self._seq + 1
        self._seq = seq
        key = (self._now + delay, NORMAL, seq, slot)
        timers = self._timers
        old = timers.get(slot)
        timers[slot] = key
        slot.callbacks = slot._callbacks
        nxt = self._tnext
        if nxt is None or key < nxt:
            self._tnext = key
        elif nxt is old:
            self._tnext = min(timers.values())

    def disarm(self, slot: "WakeupSlot") -> None:
        """Cancel ``slot``'s pending firing, if any."""
        timers = self._timers
        old = timers.pop(slot, None)
        if old is not None and old is self._tnext:
            self._tnext = min(timers.values()) if timers else None

    # -- the event loop ------------------------------------------------------
    def _drain(self, horizon: float, stop=None) -> None:
        """The event loop: process events in ``(time, priority, seq)``
        order — the smaller of the heap top and the earliest armed slot
        next — while the next is due by ``horizon``.  ``stop`` is checked
        after every event and halts the loop once non-empty.  An attached
        profiler runs each event's callbacks through its ``record``."""
        queue = self._queue
        pop = _heappop
        timers = self._timers
        tpool = self._tpool
        pool_limit = self._POOL_LIMIT
        prof = self._profiler
        while True:
            nxt = self._tnext
            if queue and (nxt is None or queue[0] < nxt):
                when = queue[0][0]
                if when > horizon:
                    return
                event = pop(queue)[3]
            elif nxt is not None:
                when = nxt[0]
                if when > horizon:
                    return
                event = nxt[3]
                del timers[event]
                self._tnext = min(timers.values()) if timers else None
            else:
                return
            if when > self._now:
                self._now = when
            elif when < self._now - 1e-12:
                raise SimulationError("event scheduled in the past")
            callbacks, event.callbacks = event.callbacks, None
            self.events_processed += 1
            if prof is None:
                for cb in callbacks:
                    cb(event)
            else:
                prof.record(self, when, event, callbacks)
            if not event._ok and not event._defused:
                # An un-waited-on failure must not pass silently.
                raise event._value
            if event._recycle and len(tpool) < pool_limit:
                tpool.append(event)
            if stop:
                return

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue and self._tnext is None:
            raise SimulationError("no scheduled events")
        self._drain(float("inf"), _ONE_EVENT)

    def advance(self, horizon: float, stop: Optional[Event] = None) -> bool:
        """Step every event due at or before ``horizon``; clock never jumps.

        The epoch-barrier primitive of the sharded engine
        (:mod:`repro.sim.sharded`).  Unlike ``run(until=horizon)`` the
        clock is **not** advanced to the horizon afterwards — ``now``
        stays at the last processed event — so a simulation advanced in
        epochs sees the *identical* event sequence, final clock, and
        ``events_processed`` as one advanced in a single ``run(until=
        stop_event)`` call: the barrier only pauses the loop, it never
        perturbs it.

        With ``stop`` given, processing halts as soon as that event is
        processed (exactly ``run(until=stop)``'s condition: the event
        after it, even at the same timestamp, does not run) and the call
        returns ``True``; otherwise it returns ``False`` once every
        event due by ``horizon`` has been processed.  The call leaves
        ``stop``'s callbacks as it found them.  ``RUN_LISTENER`` is not
        invoked (an epoch is a fragment of a run, not a run).
        """
        horizon = float(horizon)
        if stop is None:
            self._drain(horizon)
            return False
        if stop.processed:
            return True
        fired: list[Event] = []

        def _capture(ev: Event) -> None:
            fired.append(ev)

        stop.callbacks.append(_capture)
        try:
            self._drain(horizon, fired)
        finally:
            if stop.callbacks is not None:
                stop.callbacks.remove(_capture)
        return bool(fired)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or event fires.

        Returns the value of ``until`` when it is an event.  With no
        ``until`` the clock ends at the last processed event.
        """
        try:
            if isinstance(until, Event):
                if not self.advance(float("inf"), until):
                    raise SimulationError(
                        "event queue drained before the 'until' event fired"
                    )
                if not until.ok:
                    raise until.value
                return until.value
            horizon = float("inf") if until is None else float(until)
            if horizon != float("inf") and horizon < self._now:
                raise ValueError(
                    f"until={horizon!r} is in the past (now={self._now!r})")
            self._drain(horizon)
            if horizon != float("inf"):
                self._now = max(self._now, horizon)
            return None
        finally:
            if RUN_LISTENER is not None:
                RUN_LISTENER(self)


#: ``step``'s stop container: non-empty, so the loop halts after one event.
_ONE_EVENT = (True,)
