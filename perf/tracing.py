"""Layer-attributed tracing for the benchmark's traced run.

Spans are recorded from the benchmark's files only, never from inside
the program:

- **Root spans.** :class:`LayerProfiler`, an ``EventLoopProfiler``
  subclass handed to ``repro.profile.profiling(profiler=...)``, runs each
  event callback inside a root span.  The span's layer is the module of
  the callback's code; a ``Process._resume`` is charged to the module of
  the process's generator, and a ``schedule_callback`` trampoline to the
  module of the function it schedules.
- **Child spans.** :meth:`Tracer.install` wraps the layer-boundary calls
  listed in :data:`BOUNDARIES` (plus each device's pool allocator and
  membership hook, via :meth:`Tracer.wrap_devices`).

A layer's self time is its span time minus the time of its child spans;
``sim.core``'s self time is the traced wall time not covered by any root
span (the event loop itself).  Aggregates are kept online; the first
``max_spans`` raw spans are kept for :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import os
import time

import repro
from repro.profile import EventLoopProfiler
from repro.sim.core import Environment
from repro.sim.fluid import FluidPool
from repro.sim.process import Process
from repro.gpu.device import SimulatedGPU
from repro.telemetry.resilience import ResilienceStats
from repro.telemetry.streaming import StreamingLatencyStats
from repro.workloads.fleet import AutoscaledServingFleet, ServingFleet
from repro.workloads.resilience import ResilientRouter
from repro.workloads.serving import InferenceServer

#: Layer names are module names relative to the ``repro`` package.
LAYERS = ("sim.core", "sim.process", "sim.fluid", "gpu.device",
          "workloads.serving", "workloads.resilience", "faas.chaos",
          "workloads.fleet", "workloads.autoscale", "telemetry")

#: Modules below a package with no layer of their own.
_PACKAGE_LAYERS = {"sim": "sim.core", "gpu": "gpu.device",
                   "telemetry": "telemetry"}

UNATTRIBUTED = "unattributed"

#: (owner, attribute, layer) of every wrapped layer-boundary call.
BOUNDARIES = (
    (FluidPool, "add", "sim.fluid"),
    (FluidPool, "cancel", "sim.fluid"),
    (FluidPool, "poke", "sim.fluid"),
    (SimulatedGPU, "submit", "gpu.device"),
    (InferenceServer, "submit", "workloads.serving"),
    (ResilientRouter, "submit", "workloads.resilience"),
    (ResilienceStats, "record_completion", "telemetry"),
    (StreamingLatencyStats, "add", "telemetry"),
    (ServingFleet, "apply_fault", "workloads.fleet"),
    (AutoscaledServingFleet, "apply_fault", "workloads.fleet"),
    (AutoscaledServingFleet, "resize_replica", "workloads.fleet"),
)

_perf = time.perf_counter
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
_RESUME_CODE = Process._resume.__code__
_TRAMPOLINE_QUALNAME = "Environment.schedule_callback.<locals>.<lambda>"


def layer_of(module: str) -> str:
    """The layer a ``repro``-relative module name belongs to."""
    best = ""
    for layer in LAYERS:
        if (module == layer or module.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    return best or _PACKAGE_LAYERS.get(module.split(".")[0], UNATTRIBUTED)


def _module_of(code) -> str:
    rel = os.path.relpath(os.path.abspath(code.co_filename), _REPRO_DIR)
    if rel.startswith(".."):
        return "<outside repro>"
    return rel[:-len(".py")].replace(os.sep, ".").removesuffix(".__init__")


def _site_name(code) -> str:
    """Machine-independent site name: ``module:qualname``."""
    return f"{_module_of(code)}:{getattr(code, 'co_qualname', code.co_name)}"


class Tracer:
    """Online span aggregation plus the first ``max_spans`` raw spans."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        #: Wrappers record only while True (the timed section).
        self.active = False
        #: Span name -> number of spans opened.
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.root_s = 0.0
        self.unattributed_root_s = 0.0
        self.roots = 0
        #: Raw spans: [name, layer, start, end, parent index, root id].
        self.spans: list[list] = []
        #: Requests returned by ``InferenceServer.submit`` (queue waits).
        self.requests: list = []
        self._stack: list[list] = []
        self._t0 = time.perf_counter()
        self._restore: list = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str, layer: str) -> None:
        calls = self.calls
        calls[name] = calls.get(name, 0) + 1
        stack = self._stack
        if stack:
            top = stack[-1]
            parent, root = top[3], top[4]
        else:
            parent = -1
            root = self.roots
            self.roots = root + 1
        spans = self.spans
        idx = len(spans)
        if idx < self.max_spans:
            spans.append([name, layer, 0.0, 0.0, parent, root])
        else:
            idx = -1
        stack.append([layer, _perf(), 0.0, idx, root])

    def close(self) -> None:
        end = _perf()
        stack = self._stack
        layer, start, child, idx, _root = stack.pop()
        dur = end - start
        self_s = self.self_s
        self_s[layer] = self_s.get(layer, 0.0) + dur - child
        if stack:
            stack[-1][2] += dur
        else:
            self.root_s += dur
            if layer == UNATTRIBUTED:
                self.unattributed_root_s += dur
        if idx >= 0:
            span = self.spans[idx]
            span[2] = start - self._t0
            span[3] = end - self._t0

    def wrap(self, fn, name: str, layer: str, keep: list | None = None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if keep is not None:
                keep.append(out)
            return out

        return traced

    # -- instrumentation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every :data:`BOUNDARIES` call (undone by :meth:`uninstall`)."""
        for owner, attr, layer in BOUNDARIES:
            original = owner.__dict__[attr]
            name = f"{owner.__qualname__}.{attr}"
            keep = self.requests if owner is InferenceServer else None
            setattr(owner, attr, self.wrap(original, name, layer, keep))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def wrap_devices(self, env: Environment) -> None:
        """Wrap each device's pool allocator and membership hook: the
        ``sim.fluid`` -> ``gpu.device`` boundary."""
        for gpu in env.gpus:
            pool = gpu.pool
            pool.allocator = self.wrap(pool.allocator,
                                       "SimulatedGPU.allocator", "gpu.device")
            if pool.on_change is not None:
                pool.on_change = self.wrap(pool.on_change,
                                           "SimulatedGPU.on_membership",
                                           "gpu.device")

    # -- output --------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, root in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer,
                                     "start": start, "end": end,
                                     "parent": parent, "root": root}) + "\n")


class LayerProfiler(EventLoopProfiler):
    """Runs every event callback inside a layer-attributed root span.

    Also samples, once per event, the event-queue depth and the number of
    fluid tasks resident on the environment's devices.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer
        #: value -> occurrences, one sample per event.
        self.queue_depth: dict[int, int] = {}
        self.resident: dict[int, int] = {}
        self.resumes = 0
        self.attributed_events = 0
        self._sites: dict = {}
        self._pools: list = []

    def attach(self, env) -> None:
        super().attach(env)
        self._pools = [gpu.pool for gpu in env.gpus]

    def record(self, env, when, event, callbacks) -> None:
        self.events += 1
        # The same queue read the base profiler's depth histogram uses.
        depth = len(env._queue)
        self.queue_depth[depth] = self.queue_depth.get(depth, 0) + 1
        resident = 0
        for pool in self._pools:
            resident += len(pool)
        self.resident[resident] = self.resident.get(resident, 0) + 1
        attributed = True
        tracer = self.tracer
        for cb in callbacks:
            name, layer = self._site(cb)
            if layer == UNATTRIBUTED:
                attributed = False
            tracer.open(name, layer)
            try:
                cb(event)
            finally:
                tracer.close()
        self.attributed_events += attributed

    def _site(self, cb) -> tuple[str, str]:
        func = getattr(cb, "__func__", cb)
        code = getattr(func, "__code__", None)
        if code is None:
            return f"<{type(cb).__qualname__}>", UNATTRIBUTED
        if code is _RESUME_CODE:
            self.resumes += 1
            generator = getattr(cb.__self__, "_generator", None)
            code = getattr(generator, "gi_code", code)
        elif getattr(code, "co_qualname", "") == _TRAMPOLINE_QUALNAME:
            fn = func.__closure__[code.co_freevars.index("fn")].cell_contents
            return self._site(fn)
        site = self._sites.get(code)
        if site is None:
            site = self._sites[code] = (_site_name(code),
                                        layer_of(_module_of(code)))
        return site


def percentile_of_counts(counts: dict, q: float) -> float:
    """Inverted-CDF percentile of a value -> occurrences histogram."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    need = q * total
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= need:
            return float(value)
    return float(max(counts))
