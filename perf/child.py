"""Subprocess entry of the benchmark: one cold start, or one measured run.

    python3 perf/child.py setup   --workload W --seed N [--smoke]
    python3 perf/child.py measure --workload W --seed N --seconds S
                                  [--trace] [--smoke]

``setup`` imports the program, generates the first episode's inputs and
builds its scenario up to the first event, then exits.  ``measure`` pins
itself to one CPU and runs every episode of the workload (the payload),
then re-runs episodes in order while ``--seconds`` allow, checking that
each re-run reproduces its episode's digest.  After every timed episode
run it times a fresh ``setup`` interpreter (a cold start), so that cold
starts are spread over the whole run.

The host metrics are reported at the machine's reference speed.  Each
episode runs in slices of a few tens of milliseconds, and a reference
probe (``reference.py``) is timed before the first slice and after every
slice and cold start.  Each slice and cold start is divided by the mean
slowdown of the two probes around it: ``ops_per_s`` is the requests
served by all timed episode runs over their scaled host seconds, and
``setup_s`` the median scaled cold start.  The unscaled values and the
run's mean slowdown stay in the result.

With ``--trace`` it instead runs the payload a second time with tracing
on, checks that the traced run reproduces every digest, and reports the
per-layer metrics.  The run result is one JSON document on the last
line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro  # noqa: E402
from repro.profile import profiling  # noqa: E402
from reference import probe  # noqa: E402
from scenarios import (WORKLOADS, aggregate, episode_digest,  # noqa: E402
                       json_digest)

if not os.path.abspath(repro.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"perf: imported repro from {repro.__file__}, "
             f"not from this checkout's src/")

#: Seconds a cold start may take before it is killed.
COLD_START_TIMEOUT = 60

#: Root-span site of the fluid pool's completion wakeups.
WAKEUP_SITE = "sim.fluid:FluidPool._schedule_wakeup.<locals>._on_wakeup"


class _Ledger:
    """Operation counts and correctness checks of one run."""

    def __init__(self):
        self.checks: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, episode: int, result: dict, extra=()) -> None:
        ok = True
        for name, passed, detail in [*result["checks"], *extra]:
            entry = self.checks.setdefault(
                name, {"passed": 0, "failed": 0, "detail": ""})
            if passed:
                entry["passed"] += 1
            else:
                entry["failed"] += 1
                entry["detail"] = (entry["detail"]
                                   or f"episode {episode}: {detail}")
                ok = False
        self.attempted += result["ops"]
        if not ok:
            self.failed += result["ops"]


class _Timeline:
    """Host timings in the order they were taken.  When ``probed``, a
    reference probe is timed before the first and after each of them."""

    def __init__(self, probed: bool):
        self.probed = probed
        self.seconds: list[float] = []
        self.slowdowns: list[float] = [probe()] if probed else []

    def time(self, fn) -> None:
        t0 = time.perf_counter()
        fn()
        self.seconds.append(time.perf_counter() - t0)
        if self.probed:
            self.slowdowns.append(probe())

    def scaled(self, start: int, stop: int) -> float:
        """Seconds of timings ``start:stop`` at the reference speed: each
        over the mean slowdown of the probes on either side of it."""
        s, x = self.seconds, self.slowdowns
        return sum(s[i] * 2 / (x[i] + x[i + 1]) for i in range(start, stop))


def cold_start(name: str, seed: int, smoke: bool) -> None:
    """One fresh interpreter that imports the program and builds the first
    episode, then exits."""
    cmd = [sys.executable, os.path.abspath(__file__), "setup",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=COLD_START_TIMEOUT)
    if proc.returncode != 0:
        sys.exit(f"perf: {' '.join(cmd)} failed:\n{proc.stderr}")


def _seconds(runs: list) -> float:
    return sum(r["seconds"] for r in runs)


def _served(runs: list) -> int:
    """Requests served to completion.  Throughput counts these, not the
    offered requests: a shed or failed request costs a fraction of a
    served one, and the share of them varies with the seed."""
    return sum(r["served"] for r in runs)


def _sum_counters(results: list) -> dict:
    total: Counter = Counter()
    for r in results:
        total.update(r["counters"])
    return dict(total)


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    started = time.perf_counter()
    wl = WORKLOADS[name]
    n_episodes = wl.smoke_episodes if smoke else wl.episodes
    inputs = [wl.inputs(seed, k, smoke) for k in range(n_episodes)]
    ledger = _Ledger()
    runs: list[dict] = []
    results = []
    #: Indexes in ``timeline`` of the cold starts.
    cold_starts: list[int] = []
    if not trace:
        # Discarded: fills the bytecode cache.
        cold_start(name, seed, smoke)
    timeline = _Timeline(probed=not trace)

    def timed_run(k: int) -> dict:
        episode = wl.build(inputs[k])
        start = len(timeline.seconds)
        episode.run(timeline.time)
        stop = len(timeline.seconds)
        result = episode.result()
        runs.append({"episode": k, "ops": result["ops"],
                     "served": result["outcome"]["completed"],
                     "timings": [start, stop],
                     "seconds": sum(timeline.seconds[start:stop])})
        if not trace:
            cold_starts.append(len(timeline.seconds))
            timeline.time(lambda: cold_start(name, seed, smoke))
        return result

    for k in range(n_episodes):
        result = timed_run(k)
        ledger.check(k, result)
        results.append(result)
    digests = [episode_digest(r) for r in results]
    out = {"workload": name, "seed": seed, "smoke": smoke, "trace": trace,
           "payload": {"metrics": aggregate(results),
                       "episode_digests": digests,
                       "digest": json_digest(digests),
                       "outcomes": [r["outcome"] for r in results]},
           "counters": _sum_counters(results)}
    if trace:
        out["layers"], traced_runs = _traced(wl, inputs, ledger, digests,
                                             _seconds(runs))
    else:
        # Fill the run's time with re-runs while the mean episode run so
        # far still fits; each must reproduce its episode bit for bit.
        k = n_episodes
        while True:
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / k > seconds:
                break
            result = timed_run(k % n_episodes)
            ledger.check(k % n_episodes, result, [
                ("re-run reproduces the episode digest",
                 episode_digest(result) == digests[k % n_episodes],
                 "digest differs")])
            k += 1
    out["timing"] = {
        "runs": runs,
        "timed_seconds": _seconds(runs),
        "raw_ops_per_s": _served(runs) / _seconds(runs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not trace:
        # Host seconds at the reference speed: a slice run while other
        # tenants slowed the machine by x counts x times fewer seconds.
        for run in runs:
            run["scaled_seconds"] = timeline.scaled(*run["timings"])
        out["timing"].update(
            seconds=timeline.seconds, slowdowns=timeline.slowdowns,
            slowdown=statistics.fmean(timeline.slowdowns),
            ops_per_s=_served(runs)
            / sum(r["scaled_seconds"] for r in runs))
        out["setup"] = {
            "cold_starts": cold_starts,
            "raw_setup_s": statistics.median(
                timeline.seconds[i] for i in cold_starts),
            "setup_s": statistics.median(
                timeline.scaled(i, i + 1) for i in cold_starts)}
    else:
        out["timing"]["traced_runs"] = traced_runs
    out["checks"] = ledger.checks
    out["attempted"] = ledger.attempted
    out["failed"] = ledger.failed
    return out


def _traced(wl, inputs: list, ledger: _Ledger, digests: list,
            untraced_wall: float) -> tuple[dict, list]:
    """Re-run the payload with tracing on; returns (layer metrics, runs)."""
    from tracing import LayerProfiler, Tracer

    tracer = Tracer()
    profiler = LayerProfiler(tracer)
    runs: list[dict] = []
    results = []
    tracer.install()
    try:
        for k, episode_inputs in enumerate(inputs):
            episode = wl.build(episode_inputs)
            tracer.wrap_devices(episode.env)
            timeline = _Timeline(probed=False)
            with profiling(env=episode.env, profiler=profiler):
                tracer.active = True
                try:
                    episode.run(timeline.time)
                finally:
                    tracer.active = False
            result = episode.result()
            ledger.check(k, result, [
                ("traced run reproduces the untraced digest",
                 episode_digest(result) == digests[k], "digest differs")])
            runs.append({"episode": k, "ops": result["ops"],
                         "seconds": sum(timeline.seconds)})
            results.append(result)
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(ROOT, "perf", "out",
                                    f"{wl.name}.spans.jsonl"))
    return layer_metrics(tracer, profiler, results, _seconds(runs),
                         untraced_wall), runs


def layer_metrics(tracer, profiler, traced: list, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Every per-layer metric: public counters read after the runs, span
    aggregates and samples from the traced run."""
    from tracing import percentile_of_counts

    c = _sum_counters(traced)
    out = [r["outcome"] for r in traced]
    calls, self_s = tracer.calls, tracer.self_s
    offered = sum(o["offered"] for o in out)
    completed = sum(o["completed"] for o in out)
    waits = [r.start_time - r.arrival_time for r in tracer.requests
             if r.finish_time is not None]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    events_coverage = ratio(profiler.attributed_events, profiler.events)
    wall_coverage = 1.0 - ratio(tracer.unattributed_root_s, traced_wall)
    return {
        "sim.core.events": c.get("events", 0),
        "sim.core.events_per_request": ratio(c.get("events", 0), offered),
        "sim.core.self_s": traced_wall - tracer.root_s,
        "sim.core.queue_depth_p50":
            percentile_of_counts(profiler.queue_depth, 0.5),
        "sim.process.resumes": profiler.resumes,
        "sim.fluid.tasks": calls.get("FluidPool.add", 0),
        "sim.fluid.wakeups": calls.get(WAKEUP_SITE, 0),
        "sim.fluid.resident_p50":
            percentile_of_counts(profiler.resident, 0.5),
        "sim.fluid.self_s": self_s.get("sim.fluid", 0.0),
        "gpu.device.kernels": c.get("kernels", 0),
        "gpu.device.alloc_calls": c.get("alloc_calls", 0),
        "gpu.device.group_recomputes": c.get("group_recomputes", 0),
        "gpu.device.group_reuse_ratio": ratio(
            c.get("group_reuses", 0),
            c.get("group_reuses", 0) + c.get("group_recomputes", 0)),
        "gpu.device.fast_path_ratio": ratio(c.get("fast_path", 0),
                                            c.get("alloc_calls", 0)),
        "gpu.device.self_s": self_s.get("gpu.device", 0.0),
        "gpu.device.sm_utilization": ratio(c.get("sm_seconds", 0.0),
                                           c.get("sm_capacity_seconds", 0.0)),
        "workloads.serving.requests": calls.get("InferenceServer.submit", 0),
        "workloads.serving.kernels_per_request": ratio(c.get("kernels", 0),
                                                       offered),
        "workloads.serving.queue_wait_mean_s": ratio(sum(waits), len(waits)),
        "workloads.serving.self_s": self_s.get("workloads.serving", 0.0),
        "workloads.resilience.attempts": c.get("attempts", 0),
        "workloads.resilience.amplification": ratio(c.get("attempts", 0),
                                                    completed),
        "workloads.resilience.retries": c.get("retries", 0),
        "workloads.resilience.hedges": c.get("hedges", 0),
        "workloads.resilience.hedge_win_ratio": ratio(c.get("hedge_wins", 0),
                                                      c.get("hedges", 0)),
        "workloads.resilience.wasted_attempts": c.get("wasted_attempts", 0),
        "workloads.resilience.breaker_opens": c.get("breaker_opens", 0),
        # Shed, failed and lost requests, over offered.
        "workloads.resilience.failed_fraction": ratio(offered - completed,
                                                      offered),
        "workloads.resilience.self_s":
            self_s.get("workloads.resilience", 0.0),
        "faas.chaos.faults_applied": c.get("faults_applied", 0),
        "faas.chaos.self_s": self_s.get("faas.chaos", 0.0),
        "workloads.fleet.resize_attempts": c.get("resize_attempts", 0),
        "workloads.fleet.resize_commit_ratio": ratio(
            c.get("replica_restarts", 0), c.get("resize_attempts", 0)),
        "workloads.fleet.resize_rollbacks": c.get("resize_rollbacks", 0),
        "workloads.fleet.reconfig_downtime_s":
            c.get("reconfig_downtime_s", 0.0),
        "workloads.fleet.weight_cache_hit_ratio": ratio(
            c.get("weight_cache_hits", 0), c.get("replica_restarts", 0)),
        "workloads.fleet.gpu_seconds": c.get("fleet_gpu_seconds", 0.0),
        "workloads.fleet.self_s": self_s.get("workloads.fleet", 0.0),
        "workloads.autoscale.ticks": c.get("ticks", 0),
        "workloads.autoscale.degraded_ticks": c.get("degraded_ticks", 0),
        "workloads.autoscale.reconfigurations":
            c.get("reconfigurations", 0),
        "workloads.autoscale.self_s": self_s.get("workloads.autoscale", 0.0),
        "telemetry.records": c.get("records", 0),
        "telemetry.self_s": self_s.get("telemetry", 0.0),
        "trace.coverage": min(events_coverage, wall_coverage),
        "trace.overhead": ratio(traced_wall, untraced_wall) - 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        wl.build(wl.inputs(args.seed, 0, args.smoke))
        return 0
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the episodes, the probes and, by inheritance, the
        # cold starts: the reference loop tracks the episodes' speed only
        # on the same core, whose neighbours slow both alike.  Unpinned,
        # 20 s medians of the two correlated at 0.38; pinned, at 0.84.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.smoke)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
