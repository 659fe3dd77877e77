"""Perf trajectory: timed kernel microbenchmarks + sweep wall-clocks.

``repro bench`` times (a) the simulation kernel's hot paths in isolation
and (b) the real paper sweeps serial vs parallel vs warm-cache, then
writes ``BENCH_<date>.json``.  Committing one such file per perf-focused
PR gives future changes a trajectory to regress against: if events/sec
or a sweep wall-clock moves the wrong way, the diff that did it is one
``git log BENCH_*.json`` away.

Schema (``repro-bench/8``)::

    {
      "schema": "repro-bench/8",
      "date": "YYYY-MM-DD",
      "git_sha": str | null,          # HEAD at collection time
      "quick": bool,                  # reduced sizes (CI smoke)
      "jobs": int,                    # worker processes for parallel runs
      "platform": {...},              # python / cpu_count
      "profile": {...} | null,        # event-loop profiler summary
                                      # (``--profile`` runs only): per-site
                                      # event counts + wall attribution from
                                      # a second, instrumented micro pass
      "micro": {name: {..., "events_per_sec" | "per_sec": float}},
      "sweeps": {name: {"configs": int,
                        "serial_seconds": float,
                        "parallel_seconds": float,
                        "warm_seconds": float,
                        "parallel_speedup": float,
                        "warm_speedup": float,
                        "cache_hit_rate": float}},
      "scale": {                      # streaming vs legacy engine
        "scenario": {...},            # fixed fleet topology + load
        "compare_n_requests": int,
        "streaming": {..., "events_per_sec": float, "rss_growth_kb": int},
        "legacy": {...},              # identical sim, pre-change engine
        "speedup": float,             # streaming / legacy events/sec
        "sharded": {                  # sharded vs single-process engine
          "n_cells": int, "cores": int,
          "events_digest": str,       # canonical merged-stream digest
          "single": {..., "events_per_sec": float},
          "sharded": {..., "worker_rss_growth_kb": [int, ...]},
          "speedup": float,           # sharded / single events/sec
          "speedup_measured": bool,   # False below SHARDED_MIN_CORES
          "gate": {"identical": bool, "speedup_floor": float,
                   "speedup_enforced": bool, "pass": bool}
        },
        "streaming_1m": {...}         # full runs only: 1M-request run
      },
      "resilience": {                 # chaos serving + blast radius
        "scenario": {...},            # fleet topology, rate, deadline
        "plan_events": int,           # canonical fault schedule size
        "fleet": {...},               # ResilienceStats.report payload
        "gate": {"goodput_floor_rps": float, "goodput_rps": float,
                 "lost": int, "pass": bool},
        "blast_radius": {"mig": {...}, "mps": {...},
                         "isolation_ratio": float}
      },
      "autoscale": {                  # online repartitioning closed loop
        "scenario": {...},            # diurnal two-function contest
        "closed_loop": {...},         # FleetAutoscaler-driven run
        "closed_loop_cache_off": {...},
        "static_small": {...},        # equal split, mean-sized
        "static_large": {...},        # hot-peak-sized
        "gpu_seconds_ratio": {"vs_small": float, "vs_large": float},
        "gate": {"beats_static_small": bool, "beats_static_large": bool,
                 "gpu_seconds_matched": bool,
                 "cache_shrinks_downtime": bool, "reconfigured": bool,
                 "twin_identical": bool, "lost": int, "pass": bool},
        "chaos": {                    # control-plane chaos gate
          "plan_events": int,         # canonical fault plan size
          "plan_kinds": {...},        # events per fault kind
          "run": {...},               # closed loop under the plan
          "gate": {"lost": int, "resize_aborted": bool,
                   "rollbacks_verified": bool, "degraded_detected": bool,
                   "slo_ratio_vs_fault_free": float, "slo_floor": float,
                   "twin_identical": bool, "pass": bool}
        }
      },
      "cluster": {                    # cluster-scale placement contest
        "contest": {                  # 500-GPU / 50-function packing
          "inventory": {spec: int}, "n_gpus": int, "n_functions": int,
          "greedy": {..., "gpus_used": int, "in_slo_fraction": float,
                     "digest": str},
          "optimized": {...},         # tail right-sizing + repacking
          "mps_caps": {...},          # per-packer worst weighted cap sum
          "max_weighted_cap_sum": int
        },
        "feedback": {...},            # fleet->cluster drift replanning
        "gate": {"fewer_gpus": bool, "in_slo_within_tolerance": bool,
                 "rejections_match": bool, "caps_bounded": bool,
                 "twin_identical": bool, "pass": bool}
      }
    }

``/1`` reports lack the ``scale`` section, ``/2`` reports the
``resilience`` section, ``/3`` reports the ``autoscale`` section, ``/4``
reports the ``scale.sharded`` subsection, ``/5`` reports
``git_sha``/``profile``, ``/7`` reports the ``autoscale.chaos``
subsection, and ``/8`` reports the ``cluster`` section; everything else
is unchanged, so trajectory tooling can read all eight (readers must
tolerate missing keys).
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import time
from typing import Optional

from repro.runner import ResultCache, SweepRunner, default_cache_dir

__all__ = ["collect_bench", "write_bench_json", "default_bench_path"]


# ------------------------------------------------------------------ micro

def _bench_event_queue(n: int) -> dict:
    from repro.sim.core import Environment

    env = Environment()
    t0 = time.perf_counter()
    for i in range(n):
        env.timeout(float(i % 97))
    env.run()
    dt = time.perf_counter() - t0
    return {"n_events": env.events_processed, "seconds": dt,
            "events_per_sec": env.events_processed / dt}


def _bench_fluid_churn(n_tasks: int) -> dict:
    from repro.sim.core import Environment
    from repro.sim.fluid import FluidPool, FluidTask

    env = Environment()

    def equal(tasks):
        share = 100.0 / len(tasks)
        for t in tasks:
            t.rate = share

    pool = FluidPool(env, equal)

    def submitter(env):
        for i in range(n_tasks):
            pool.add(FluidTask(env, work=float(1 + i % 13)))
            yield env.timeout(0.05)

    env.process(submitter(env))
    t0 = time.perf_counter()
    env.run()
    dt = time.perf_counter() - t0
    return {"n_tasks": n_tasks, "seconds": dt, "per_sec": n_tasks / dt,
            "events_per_sec": env.events_processed / dt}


def _bench_gpu_allocator(n_clients: int, n_kernels: int) -> dict:
    """The fig4-shaped hot path: MPS clients streaming decode kernels."""
    from repro.gpu.device import SimulatedGPU
    from repro.gpu.mps import MpsControlDaemon
    from repro.gpu.specs import A100_80GB
    from repro.sim.core import Environment
    from repro.workloads.llm import LLAMA2_7B, InferenceRuntime, LlamaInference

    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=2))

    def stream(env, client):
        for _ in range(n_kernels):
            yield client.launch(llm.decode_kernel())
            yield env.timeout(llm.host_seconds_per_token)

    procs = [env.process(stream(env, daemon.client(f"c{i}")))
             for i in range(n_clients)]
    t0 = time.perf_counter()
    env.run(until=env.all_of(procs))
    dt = time.perf_counter() - t0
    total = n_clients * n_kernels
    return {"n_kernels": total, "seconds": dt, "per_sec": total / dt,
            "events_per_sec": env.events_processed / dt}


def _bench_decode_kernel(n: int) -> dict:
    """Kernel-construction path (memoised after the first call)."""
    from repro.workloads.llm import LLAMA2_7B, InferenceRuntime, LlamaInference

    llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=2))
    t0 = time.perf_counter()
    for _ in range(n):
        llm.decode_kernel()
    dt = time.perf_counter() - t0
    return {"n_calls": n, "seconds": dt, "per_sec": n / dt}


# ------------------------------------------------------------------ sweeps

def _sweep_fns(quick: bool) -> dict:
    """Name -> zero-arg callable taking a runner, returning result count."""
    from repro.bench.llm_experiments import fig2_sm_sweep, fig4_fig5_sweep

    if quick:
        fig2_pcts = (25, 50, 75, 100)
        fig2_tokens = 5
        fig45 = {"process_counts": (1, 2), "n_completions": 4, "n_tokens": 5}
    else:
        fig2_pcts = tuple(range(5, 101, 5))
        fig2_tokens = 20
        fig45 = {"process_counts": (1, 2, 3, 4), "n_completions": 100,
                 "n_tokens": 20}
    return {
        "fig2_sm_sweep": lambda runner: len(sum(
            fig2_sm_sweep(fig2_pcts, n_tokens=fig2_tokens,
                          runner=runner).values(), [])),
        "fig4_fig5_sweep": lambda runner: len(
            fig4_fig5_sweep(runner=runner, **fig45)),
    }


def _time_sweep(fn, jobs: int) -> dict:
    """Time one sweep serial (no cache), parallel cold, then warm."""
    cache_root = os.path.join(default_cache_dir(), "bench")
    cache = ResultCache(root=cache_root)
    cache.clear()  # a stale entry would fake the "cold" measurement

    t0 = time.perf_counter()
    n_configs = fn(SweepRunner(jobs=1, cache=None))
    serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    fn(SweepRunner(jobs=jobs, cache=cache))
    parallel = time.perf_counter() - t0

    warm_cache = ResultCache(root=cache_root)  # fresh stats, same disk
    t0 = time.perf_counter()
    fn(SweepRunner(jobs=jobs, cache=warm_cache))
    warm = time.perf_counter() - t0

    return {
        "configs": n_configs,
        "serial_seconds": serial,
        "parallel_seconds": parallel,
        "warm_seconds": warm,
        "parallel_speedup": serial / parallel if parallel > 0 else 0.0,
        "warm_speedup": serial / warm if warm > 0 else 0.0,
        "cache_hit_rate": warm_cache.hit_rate,
    }


# ------------------------------------------------------------------ driver

def _git_sha() -> Optional[str]:
    """HEAD commit of the source tree, or ``None`` outside a checkout."""
    import subprocess

    root = os.path.dirname(default_bench_path())
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _run_micro(micro_sizes: dict) -> dict:
    return {
        "event_queue": _bench_event_queue(*micro_sizes["event_queue"]),
        "fluid_churn": _bench_fluid_churn(*micro_sizes["fluid_churn"]),
        "gpu_allocator": _bench_gpu_allocator(*micro_sizes["gpu_allocator"]),
        "decode_kernel": _bench_decode_kernel(*micro_sizes["decode_kernel"]),
    }


def collect_bench(quick: bool = False, jobs: Optional[int] = None,
                  profile: bool = False) -> dict:
    """Run every microbenchmark and sweep timing; return the report dict.

    With ``profile=True`` the micro suite runs a second time under the
    event-loop profiler and the per-site attribution summary lands in
    the ``profile`` section — the timed numbers always come from the
    uninstrumented pass, so profiled and plain reports stay comparable.
    """
    if jobs is None:
        from repro.runner import default_jobs

        jobs = default_jobs()
    micro_sizes = {
        "event_queue": (20_000,) if quick else (200_000,),
        "fluid_churn": (300,) if quick else (2_000,),
        "gpu_allocator": (4, 50) if quick else (4, 400),
        "decode_kernel": (2_000,) if quick else (50_000,),
    }
    micro = _run_micro(micro_sizes)
    profile_summary = None
    if profile:
        from repro.profile import profiling

        with profiling() as prof:
            _run_micro(micro_sizes)
        profile_summary = prof.summary(top=10)
    sweeps = {name: _time_sweep(fn, jobs)
              for name, fn in _sweep_fns(quick).items()}
    from repro.bench.autoscale_experiments import autoscale_report
    from repro.bench.cluster_experiments import cluster_report
    from repro.bench.resilience_experiments import resilience_report
    from repro.bench.scale_experiments import scale_report

    scale = scale_report(quick=quick)
    resilience = resilience_report(quick=quick)
    autoscale = autoscale_report(quick=quick)
    cluster = cluster_report(quick=quick)
    return {
        "schema": "repro-bench/8",
        "date": datetime.date.today().isoformat(),
        "git_sha": _git_sha(),
        "quick": quick,
        "jobs": jobs,
        "platform": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "profile": profile_summary,
        "micro": micro,
        "sweeps": sweeps,
        "scale": scale,
        "resilience": resilience,
        "autoscale": autoscale,
        "cluster": cluster,
    }


def default_bench_path(date: Optional[str] = None) -> str:
    """``<repo>/BENCH_<date>.json`` (the repo root holding ``src/``)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    date = date or datetime.date.today().isoformat()
    return os.path.join(root, f"BENCH_{date}.json")


def write_bench_json(path: Optional[str] = None, quick: bool = False,
                     jobs: Optional[int] = None,
                     profile: bool = False) -> tuple[str, dict]:
    """Collect the report and write it; returns ``(path, report)``."""
    report = collect_bench(quick=quick, jobs=jobs, profile=profile)
    path = path or default_bench_path(report["date"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path, report
