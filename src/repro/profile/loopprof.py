"""Event-loop profiler implementation.

The engine's event loop hands every ``(when, event, callbacks)`` batch
— wakeup-slot firings included — to :meth:`EventLoopProfiler.record`
when a profiler is attached.  ``record`` runs the callbacks itself — same order, same
exception semantics — so attaching a profiler cannot change a
simulation's outcome, only observe it.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.sim import core as _core

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment, Event

#: Report schema identifier.
SCHEMA = "repro-profile/1"

#: The ``repro`` package directory: site names are relative to it.
_REPRO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def site_name(cb: Callable) -> str:
    """Stable, human-readable identity for a callback site.

    Bound methods and plain functions resolve to their code object
    (``file:line:qualname``), which is identical across runs and across
    processes for the same source tree.  ``file`` is relative to the
    ``repro`` package (``sim/fluid.py``), or the bare basename for code
    outside it, so reports name no machine-specific path.  Anything
    without a code object (C callables, partials) falls back to its
    type/repr-derived name.
    """
    func = getattr(cb, "__func__", cb)
    code = getattr(func, "__code__", None)
    if code is not None:
        qual = getattr(func, "__qualname__", code.co_name)
        path = os.path.abspath(code.co_filename)
        rel = os.path.relpath(path, _REPRO_DIR)
        if rel.startswith(".."):
            rel = os.path.basename(path)
        return f"{rel.replace(os.sep, '/')}:{code.co_firstlineno}:{qual}"
    return f"<{type(cb).__module__}.{type(cb).__qualname__}>"


class _SiteStats:
    __slots__ = ("events", "wall", "sim")

    def __init__(self) -> None:
        self.events = 0
        self.wall = 0.0
        self.sim = 0.0


class EventLoopProfiler:
    """Per-callback-site attribution for one or more environments.

    Collected per site (a callback's ``__code__`` identity):

    - ``events``: number of callback invocations,
    - ``wall``: wall-clock seconds spent inside the callback,
    - ``sim``: simulated seconds that elapsed *leading into* the events
      this site handled (the gap from the previously processed event
      timestamp) — "which activity is the clock waiting on".

    Plus a power-of-two queue-depth histogram sampled at every event
    pop, a deterministic proxy for scheduler pressure.
    """

    def __init__(self) -> None:
        self.sites: dict[int, _SiteStats] = {}
        self._site_cb: dict[int, Callable] = {}
        #: Power-of-two buckets: index ``i`` counts pops with queue
        #: depth in ``[2**(i-1), 2**i - 1]`` (index 0 = empty queue).
        self.depth_hist: list[int] = [0] * 40
        self.events = 0
        self.wall_in_callbacks = 0.0
        self._last_when: Optional[float] = None
        self._attached: list["Environment"] = []

    # -- collection --------------------------------------------------------

    def record(self, env: "Environment", when: float, event: "Event",
               callbacks: list) -> None:
        """Run ``callbacks`` for ``event``, attributing as we go.

        Called by the environment's event loop in place of the plain
        callback loop; identical invocation order and exception
        propagation.
        """
        self.events += 1
        self.depth_hist[len(env._queue).bit_length()] += 1
        last = self._last_when
        sim_gap = when - last if (last is not None and when > last) else 0.0
        self._last_when = when
        sites = self.sites
        perf = time.perf_counter
        for cb in callbacks:
            func = getattr(cb, "__func__", cb)
            code = getattr(func, "__code__", None)
            key = id(code) if code is not None else id(type(cb))
            st = sites.get(key)
            if st is None:
                st = sites[key] = _SiteStats()
                self._site_cb[key] = cb
            t0 = perf()
            cb(event)
            dt = perf() - t0
            st.events += 1
            st.wall += dt
            st.sim += sim_gap
            self.wall_in_callbacks += dt
            sim_gap = 0.0  # the gap belongs to the first callback only

    # -- attachment --------------------------------------------------------

    def attach(self, env: "Environment") -> None:
        """Start profiling ``env`` (replaces any previous profiler)."""
        env._profiler = self
        if self._last_when is None:
            # Anchor sim-gap attribution at the clock's attach-time
            # value, so the first event's leading gap is counted too.
            self._last_when = env._now
        self._attached.append(env)

    def detach_all(self) -> None:
        for env in self._attached:
            if env._profiler is self:
                env._profiler = None
        self._attached.clear()

    # -- reporting ---------------------------------------------------------

    def report(self, top: int = 25) -> dict[str, Any]:
        """Structured report, heaviest wall-time sites first."""
        rows = []
        total_wall = self.wall_in_callbacks
        for key, st in self.sites.items():
            rows.append({
                "site": site_name(self._site_cb[key]),
                "events": st.events,
                "wall_seconds": st.wall,
                "wall_pct": (100.0 * st.wall / total_wall
                             if total_wall > 0 else 0.0),
                "sim_seconds": st.sim,
            })
        rows.sort(key=lambda r: (-r["wall_seconds"], r["site"]))
        hist = {}
        for i, n in enumerate(self.depth_hist):
            if not n:
                continue
            if i == 0:
                label = "0"
            elif i == 1:
                label = "1"
            else:
                label = f"{2 ** (i - 1)}-{2 ** i - 1}"
            hist[label] = n
        return {
            "schema": SCHEMA,
            "events": self.events,
            "distinct_sites": len(self.sites),
            "wall_seconds_in_callbacks": total_wall,
            "queue_depth_hist": hist,
            "sites": rows[:top],
        }

    def report_json(self, top: int = 25, indent: int = 2) -> str:
        return json.dumps(self.report(top), indent=indent)

    def summary(self, top: int = 5) -> dict[str, Any]:
        """Compact summary for embedding into bench JSON."""
        rep = self.report(top)
        return {
            "events": rep["events"],
            "distinct_sites": rep["distinct_sites"],
            "wall_seconds_in_callbacks": rep["wall_seconds_in_callbacks"],
            "top_sites": [
                {"site": r["site"], "events": r["events"],
                 "wall_pct": round(r["wall_pct"], 2)}
                for r in rep["sites"]
            ],
        }


@contextmanager
def profiling(env: Optional["Environment"] = None,
              profiler: Optional[EventLoopProfiler] = None,
              ) -> Iterator[EventLoopProfiler]:
    """Attach a profiler to ``env`` — or to every Environment created
    inside the block when ``env`` is omitted (via ``ENV_CREATED_HOOK``,
    chaining any hook already installed).
    """
    prof = profiler if profiler is not None else EventLoopProfiler()
    if env is not None:
        prof.attach(env)
        try:
            yield prof
        finally:
            prof.detach_all()
        return
    prev_hook = _core.ENV_CREATED_HOOK

    def _hook(new_env: "Environment") -> None:
        if prev_hook is not None:
            prev_hook(new_env)
        prof.attach(new_env)

    _core.ENV_CREATED_HOOK = _hook
    try:
        yield prof
    finally:
        _core.ENV_CREATED_HOOK = prev_hook
        prof.detach_all()
