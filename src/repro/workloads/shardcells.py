"""Scenario cells: the gated bench scenarios as shardable simulations.

Each cell wraps one complete scenario — a whole device plus its
replicas, clients, chaos controller, and/or autoscaler — behind the
cell protocol of :mod:`repro.sim.sharded` (``advance`` / ``drain_events``
/ ``result``).  Three guarantees make the sharded runs bit-identical to
the single-process engines:

- **one construction path** — every cell builds its scenario through
  the same ``build_*`` helper the single-process bench runner uses
  (:mod:`repro.bench.scale_experiments` et al.), so the object graph,
  RNG consumption, and event-sequence numbering are identical;
- **barrier-transparent stepping** — cells advance via
  :meth:`~repro.sim.core.Environment.advance`, which processes exactly
  the events a single ``run(until=done)`` would, in the same order,
  without ever moving the clock to a barrier;
- **seed isolation** — :func:`cell_seed` gives cell 0 the root seed
  *verbatim* (a one-cell sharded run IS the legacy scenario) and every
  later cell an independent named substream
  (:func:`~repro.sim.rng.substream_seed`), so adding cell N never
  perturbs cells < N.

Completion events are recorded as ``(sim_time, latency, ...)`` tuples
via each scenario's streaming-stats tap; the ``sharded_*_report``
runners merge them canonically and replay the merged stream through
fresh accumulators (see :mod:`repro.telemetry.streaming`).
"""

from __future__ import annotations

import hashlib
from functools import reduce
from operator import add
from typing import Optional

from repro.sim.rng import substream_seed

__all__ = [
    "AutoscaleCell",
    "FleetCell",
    "ScaleCell",
    "cell_seed",
    "sharded_autoscale_report",
    "sharded_fleet_report",
    "sharded_scale_report",
]


def cell_seed(root_seed: int, label: str, index: int) -> int:
    """Seed for cell ``index`` of a sharded scenario family.

    Cell 0 keeps the root seed verbatim so the one-cell sharded run
    reproduces the legacy single-process scenario bit for bit; higher
    cells draw from named substreams, so growing the fleet never
    perturbs the cells that were already there.
    """
    if index == 0:
        return int(root_seed)
    return substream_seed(root_seed, label, index)


class _RecordingStats:
    """Streaming-stats shim that also timestamps every completion.

    Duck-types the ``add``/``stats`` surface the serving clients use;
    each ``add`` appends ``(env.now, latency)`` to the cell's event
    buffer before forwarding to the real accumulator, so the cell's own
    stats stay bit-identical to the unsharded run while the merge layer
    gets the raw stream.
    """

    __slots__ = ("_env", "_buffer", "inner")

    def __init__(self, env, buffer: list, inner):
        self._env = env
        self._buffer = buffer
        self.inner = inner

    def add(self, latency: float) -> None:
        self._buffer.append((self._env.now, float(latency)))
        self.inner.add(latency)

    def stats(self):
        return self.inner.stats()


class _ScenarioCell:
    """Common advance/drain plumbing over one Environment + stop event.

    Subclasses set ``self.env`` and ``self._stop`` in ``__init__`` and
    append ``(time, ...)`` tuples to ``self._events`` as completions
    happen.
    """

    def __init__(self) -> None:
        self.env = None
        self._stop = None
        self._events: list[tuple] = []
        self._finished = False

    def advance(self, horizon: float) -> bool:
        if not self._finished:
            self._finished = self.env.advance(horizon, stop=self._stop)
            if self._finished:
                self._on_finished()
        return self._finished

    def _on_finished(self) -> None:
        pass

    def drain_events(self) -> list[tuple]:
        # Clear in place: the recording taps hold a reference to this
        # exact list, so rebinding would silently detach them after the
        # first barrier.
        out = list(self._events)
        self._events.clear()
        return out

    def apply_command(self, command) -> None:
        pass

    def result(self) -> dict:
        raise NotImplementedError


class ScaleCell(_ScenarioCell):
    """One trace-serving scale device: 7x ``1g.10gb`` MIG, 16 MPS
    servers each, under open-loop Poisson load (the ``scale`` bench
    scenario, streaming engine)."""

    def __init__(self, n_requests: int, rate_rps: float, seed: int):
        super().__init__()
        from repro.bench.scale_experiments import build_trace_serving
        from repro.sim.core import Environment
        from repro.telemetry.streaming import StreamingLatencyStats

        self.rate_rps = float(rate_rps)
        self.env = Environment()
        stats = _RecordingStats(self.env, self._events,
                                StreamingLatencyStats())
        self.handles = build_trace_serving(
            self.env, n_requests, rate_rps, seed, stats=stats)
        self._stop = self.env.all_of(
            [c.done for c in self.handles["clients"]])

    def result(self) -> dict:
        from repro.bench.scale_experiments import trace_serving_metrics

        return trace_serving_metrics(self.env, self.handles,
                                     self.rate_rps)


class FleetCell(_ScenarioCell):
    """One resilient serving fleet (optionally under a chaos plan) —
    the ``resilience`` bench scenario."""

    def __init__(self, mode: str, n_requests: int, rate_rps: float,
                 deadline_seconds: float, seed: int, chaos: bool = False,
                 n_partitions: int = 7, servers_per_partition: int = 16,
                 n_tokens: int = 16):
        super().__init__()
        from repro.bench.resilience_experiments import (
            build_resilient_fleet,
            canonical_fault_plan,
        )
        from repro.sim.core import Environment

        self.mode = mode
        self.n_requests = n_requests
        self.rate_rps = float(rate_rps)
        self.deadline_seconds = float(deadline_seconds)
        self.env = Environment()
        plan = None
        if chaos:
            plan = canonical_fault_plan(n_requests / rate_rps, seed=seed)
        self.fleet, self.chaos, client = build_resilient_fleet(
            self.env, mode, n_requests, rate_rps=rate_rps,
            deadline_seconds=deadline_seconds, seed=seed, plan=plan,
            n_partitions=n_partitions,
            servers_per_partition=servers_per_partition, n_tokens=n_tokens)
        buffer, env = self._events, self.env

        def tap(latency: float, in_slo: bool) -> None:
            buffer.append((env.now, float(latency), bool(in_slo)))

        self.fleet.stats.on_completion = tap
        self._stop = client.done

    def result(self) -> dict:
        from repro.bench.resilience_experiments import resilient_fleet_report

        return resilient_fleet_report(self.env, self.fleet, self.chaos,
                                      self.mode, self.n_requests,
                                      self.rate_rps, self.deadline_seconds)


class AutoscaleCell(_ScenarioCell):
    """One diurnal-contest fleet (optionally closed-loop autoscaled) —
    the ``autoscale`` bench scenario."""

    def __init__(self, horizon: float, autoscale: bool,
                 pcts: dict[str, int], weight_cache: bool = True,
                 seed: int = 0, trace_seeds: tuple = (1, 2),
                 fault_plan_json: Optional[str] = None):
        super().__init__()
        from repro.bench.autoscale_experiments import build_autoscale_fleet
        from repro.sim.core import Environment

        self.autoscale = autoscale
        self.weight_cache = weight_cache
        self.pcts = dict(pcts)
        self.env = Environment()
        buffer, env = self._events, self.env

        def tap(latency: float, in_slo: bool) -> None:
            buffer.append((env.now, float(latency), bool(in_slo)))

        # Plans travel as JSON text: cell specs must pickle cleanly
        # into worker processes, and the serialised form is exactly the
        # replayable artifact (every cell replays the same plan against
        # its own fleet).
        plan = None
        if fault_plan_json is not None:
            from repro.faas.chaos import FaultPlan

            plan = FaultPlan.from_json(fault_plan_json)
        self.fleet, self.autoscaler, clients, self.chaos = \
            build_autoscale_fleet(
                self.env, horizon, autoscale, pcts,
                weight_cache=weight_cache, seed=seed,
                trace_seeds=tuple(trace_seeds), on_completion=tap,
                plan=plan)
        self._stop = self.env.all_of([c.done for c in clients])

    def _on_finished(self) -> None:
        if self.autoscaler is not None:
            self.autoscaler.stop()

    def result(self) -> dict:
        from repro.bench.autoscale_experiments import autoscale_fleet_report

        return autoscale_fleet_report(self.env, self.fleet, self.autoscaler,
                                      self.autoscale, self.weight_cache,
                                      self.pcts, chaos=self.chaos)


# -- sharded scenario runners -----------------------------------------------

def _latency_dict(stats) -> dict:
    return {
        "count": stats.count,
        "mean": stats.mean,
        "p50": stats.p50,
        "p95": stats.p95,
        "p99": stats.p99,
        "min": stats.minimum,
        "max": stats.maximum,
    }


def _events_digest(events: list[tuple]) -> str:
    """Canonical digest of the merged stream — ``repr`` round-trips
    floats exactly, so equal digests mean a bit-identical stream."""
    return hashlib.sha256(repr(events).encode()).hexdigest()


def _run_sharded(specs, n_shards: int, epoch_seconds: float,
                 use_processes: Optional[bool]) -> dict:
    from repro.sim.sharded import ShardedSimulation
    from repro.telemetry.streaming import replay_latency_stats

    sim = ShardedSimulation(specs, epoch_seconds)
    out = sim.run(n_shards, use_processes=use_processes)
    events = out["events"]
    merged_latency = replay_latency_stats(events, value_index=1).stats()
    return {
        "cells": out["cells"],
        "events": events,
        "merged": {
            "n_events": len(events),
            "events_digest": _events_digest(events),
            "latency": _latency_dict(merged_latency),
        },
        # Shard count and barrier pacing are execution details —
        # identical results across them are the whole point — so they
        # live beside pids/RSS, outside the deterministic payload.
        "execution": dict(out["execution"], n_shards=out["n_shards"],
                          epochs=out["epochs"]),
    }


def sharded_scale_report(n_cells: int, n_shards: int,
                         n_requests_per_cell: int,
                         rate_rps: Optional[float] = None, seed: int = 0,
                         epoch_seconds: float = 60.0,
                         use_processes: Optional[bool] = None) -> dict:
    """Run ``n_cells`` scale devices sharded ``n_shards`` ways.

    Everything outside ``"execution"`` is deterministic in
    (seed, config) — invariant in ``n_shards``, ``epoch_seconds``, and
    in-process vs pooled execution.
    """
    from repro.bench.scale_experiments import DEFAULT_RATE_RPS
    from repro.sim.sharded import CellSpec

    rate = DEFAULT_RATE_RPS if rate_rps is None else rate_rps
    specs = [CellSpec(ScaleCell,
                      {"n_requests": n_requests_per_cell, "rate_rps": rate,
                       "seed": cell_seed(seed, "scale", i)},
                      name=f"scale-{i}")
             for i in range(n_cells)]
    out = _run_sharded(specs, n_shards, epoch_seconds, use_processes)
    out["config"] = {"scenario": "scale", "n_cells": n_cells,
                     "n_requests_per_cell": n_requests_per_cell,
                     "rate_rps": rate, "seed": seed}
    out["merged"]["events_processed"] = sum(c["events"]
                                            for c in out["cells"])
    out["merged"]["n_requests"] = sum(c["n_requests"]
                                      for c in out["cells"])
    return out


def sharded_fleet_report(mode: str, n_requests_per_cell: int,
                         n_cells: int = 1, n_shards: int = 1,
                         rate_rps: Optional[float] = None,
                         deadline_seconds: Optional[float] = None,
                         seed: int = 0, chaos: bool = False,
                         n_partitions: int = 7,
                         servers_per_partition: int = 16,
                         n_tokens: int = 16,
                         epoch_seconds: float = 60.0,
                         use_processes: Optional[bool] = None) -> dict:
    """Run ``n_cells`` resilient fleets sharded ``n_shards`` ways.

    With ``chaos=True`` each cell replays its own canonical fault plan
    (cell 0's is exactly the legacy bench plan for ``seed``).
    """
    from repro.bench.resilience_experiments import (
        DEFAULT_DEADLINE_SECONDS,
        DEFAULT_RATE_RPS,
    )
    from repro.sim.sharded import CellSpec

    rate = DEFAULT_RATE_RPS if rate_rps is None else rate_rps
    deadline = (DEFAULT_DEADLINE_SECONDS if deadline_seconds is None
                else deadline_seconds)
    specs = [CellSpec(FleetCell,
                      {"mode": mode, "n_requests": n_requests_per_cell,
                       "rate_rps": rate, "deadline_seconds": deadline,
                       "seed": cell_seed(seed, "fleet", i), "chaos": chaos,
                       "n_partitions": n_partitions,
                       "servers_per_partition": servers_per_partition,
                       "n_tokens": n_tokens},
                      name=f"fleet-{i}")
             for i in range(n_cells)]
    out = _run_sharded(specs, n_shards, epoch_seconds, use_processes)
    out["config"] = {"scenario": "fleet", "mode": mode,
                     "n_cells": n_cells,
                     "n_requests_per_cell": n_requests_per_cell,
                     "rate_rps": rate, "deadline_seconds": deadline,
                     "seed": seed, "chaos": chaos,
                     "n_partitions": n_partitions,
                     "servers_per_partition": servers_per_partition,
                     "n_tokens": n_tokens}
    merged = out["merged"]
    for key in ("offered", "completed", "shed", "failed", "lost", "slo_ok",
                "faults_applied"):
        merged[key] = sum(c[key] for c in out["cells"])
    merged["events_processed"] = sum(c["events"] for c in out["cells"])
    merged["slo_attainment"] = (merged["slo_ok"] / merged["offered"]
                                if merged["offered"] else 0.0)
    return out


def sharded_autoscale_report(horizon: float, autoscale: bool,
                             pcts: dict[str, int], n_cells: int = 1,
                             n_shards: int = 1, weight_cache: bool = True,
                             seed: int = 0, epoch_seconds: float = 60.0,
                             use_processes: Optional[bool] = None,
                             fault_plan_json: Optional[str] = None) -> dict:
    """Run ``n_cells`` diurnal-contest fleets sharded ``n_shards`` ways.

    Cell 0 carries the legacy hot/cold trace seeds (1, 2); later cells
    draw their diurnal traces from named substreams.
    ``fault_plan_json`` (a serialised :class:`~repro.faas.chaos.FaultPlan`)
    is replayed by *every* cell against its own fleet — cells are
    independent universes, so a shared schedule keeps any cell count
    comparable against a single-process run of the same plan.
    """
    from repro.sim.sharded import CellSpec

    def trace_seeds(i: int) -> tuple:
        if i == 0:
            return (1, 2)
        return (substream_seed(seed, "autoscale-hot", i),
                substream_seed(seed, "autoscale-cold", i))

    specs = [CellSpec(AutoscaleCell,
                      {"horizon": horizon, "autoscale": autoscale,
                       "pcts": dict(pcts), "weight_cache": weight_cache,
                       "seed": cell_seed(seed, "autoscale", i),
                       "trace_seeds": trace_seeds(i),
                       "fault_plan_json": fault_plan_json},
                      name=f"autoscale-{i}")
             for i in range(n_cells)]
    out = _run_sharded(specs, n_shards, epoch_seconds, use_processes)
    out["config"] = {"scenario": "autoscale", "horizon": horizon,
                     "autoscale": autoscale, "pcts": dict(pcts),
                     "n_cells": n_cells, "weight_cache": weight_cache,
                     "seed": seed,
                     "faults": fault_plan_json is not None}
    merged = out["merged"]
    for key in ("offered", "slo_ok", "lost", "faults_applied"):
        merged[key] = sum(c[key] for c in out["cells"])
    merged["events_processed"] = sum(c["events"] for c in out["cells"])
    merged["slo_good_fraction"] = (merged["slo_ok"] / merged["offered"]
                                   if merged["offered"] else 0.0)
    # A left fold, not the builtin ``sum``: from Python 3.12 that
    # compensates float rounding, and the payload would then depend on
    # the interpreter's minor version.
    merged["gpu_seconds"] = reduce(add, (c["gpu_seconds"]
                                         for c in out["cells"]), 0.0)
    merged["resize_aborts"] = sum(
        (c["autoscaler"] or {}).get("resize_aborts", 0)
        for c in out["cells"])
    merged["resize_rollbacks"] = sum(
        (c["autoscaler"] or {}).get("resize_rollbacks", 0)
        for c in out["cells"])
    return out
