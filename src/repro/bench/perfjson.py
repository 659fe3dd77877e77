"""Bench report: sweep wall-clocks plus the modelled scale, resilience,
autoscale and cluster sections.

``repro bench`` times the real paper sweeps serial vs parallel vs
warm-cache and runs every bench scenario, then writes
``BENCH_<date>.json``.  Speed comparisons between commits are made
same-machine by ``perf/`` (``perf/compare.py``), not against these
files: timings recorded on one machine say little about another.

Each section carries its own ``checks``: a list of
:func:`~repro.bench.harness.check` entries, each
``{"name": str, "value": ..., "threshold": str, "verdict": str}`` with
``verdict`` one of ``pass``, ``fail`` or ``unmeasured`` (the machine
could not measure it; not a pass).  A check's dotted name is its
section's path plus its name (``autoscale.chaos.lost``); the top-level
``failed`` and ``unmeasured`` lists name every check with that verdict,
and ``repro bench`` exits 1 when ``failed`` is non-empty.

Schema (``repro-bench/10``)::

    {
      "schema": "repro-bench/10",
      "date": "YYYY-MM-DD",
      "git_sha": str | null,          # HEAD at collection time
      "quick": bool,                  # reduced sizes (CI smoke)
      "jobs": int,                    # worker processes for parallel runs
      "platform": {...},              # python / cpu_count
      "failed": [str, ...],           # dotted names of failed checks
      "unmeasured": [str, ...],       # dotted names of unmeasured checks
      "sweeps": {name: {"configs": int,
                        "serial_seconds": float,
                        "parallel_seconds": float,
                        "warm_seconds": float,
                        "parallel_speedup": float,
                        "warm_speedup": float,
                        "cache_hit_rate": float,
                        "checks": [...]}},   # configs, cache_hit_rate,
                                             # warm_seconds
      "scale": {                      # trace-serving scale scenario
        "scenario": {...},            # fixed fleet topology + load
        "compare_n_requests": int,
        "streaming": {..., "events_per_sec": float, "rss_growth_kb": int,
                      "checks": [...]},       # events_per_sec
        "sharded": {                  # sharded vs single-process engine
          "n_cells": int, "cores": int, "min_cores": int,
          "events_digest": str,       # canonical merged-stream digest
          "single": {..., "events_per_sec": float},
          "sharded": {..., "worker_rss_growth_kb": [int, ...]},
          "speedup": float,           # sharded / single events/sec
          "checks": [...],            # identical, speedup (unmeasured
                                      # below min_cores), worker_respawns
          "pair": {...}               # full runs only: the same shape,
                                      # 2 full-size cells on 2 shards,
                                      # floor 1.4x from 2 cores
        },
        "streaming_1m": {...}         # full runs only: 1M-request run
      },
      "resilience": {                 # chaos serving + blast radius
        "scenario": {...},            # fleet topology, rate, deadline
        "plan_events": int,           # canonical fault schedule size
        "fleet": {...},               # ResilienceStats.report payload
        "blast_radius": {"mig": {...}, "mps": {...},
                         "isolation_ratio": float},
        "checks": [...]               # lost, goodput_rps,
                                      # mig_kill_fraction
      },
      "autoscale": {                  # online repartitioning closed loop
        "scenario": {...},            # diurnal two-function contest
        "closed_loop": {...},         # FleetAutoscaler-driven run
        "closed_loop_cache_off": {...},
        "static_small": {...},        # equal split, mean-sized
        "static_large": {...},        # hot-peak-sized
        "gpu_seconds_ratio": {"vs_small": float, "vs_large": float},
        "checks": [...],              # beats_static_small/_large,
                                      # gpu_seconds_matched,
                                      # cache_shrinks_downtime,
                                      # reconfigurations, twin_identical,
                                      # lost
        "chaos": {                    # control-plane chaos run
          "plan_events": int,         # canonical fault plan size
          "plan_kinds": {...},        # events per fault kind
          "run": {...},               # closed loop under the plan
          "checks": [...]             # lost, resize_aborts,
                                      # resize_rollbacks, degraded_ticks,
                                      # slo_ratio_vs_fault_free,
                                      # twin_identical
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
        "checks": [...]               # fewer_gpus, in_slo_delta,
                                      # rejections_match,
                                      # max_weighted_cap_sum,
                                      # twin_identical, drift_triggered,
                                      # settled_after_replan
      }
    }

``/1`` reports lack the ``scale`` section, ``/2`` reports the
``resilience`` section, ``/3`` reports the ``autoscale`` section, ``/4``
reports the ``scale.sharded`` subsection, ``/5`` reports
``git_sha``/``profile``, ``/7`` reports the ``autoscale.chaos``
subsection, ``/8`` reports the ``cluster`` section, ``/9`` drops the
host ``micro`` suite, the ``profile`` section and the raced
``scale.legacy``/``scale.speedup`` engine and adds
``scale.sharded.gate.min_cores`` and ``scale.sharded.pair``, and
``/10`` replaces every section's ``gate`` dict (and its ``pass``
verdict) with a ``checks`` list, drops ``scale.sharded.speedup_measured``
for the ``unmeasured`` verdict, moves ``min_cores`` up to
``scale.sharded`` and adds the top-level ``failed``/``unmeasured``
lists; everything else is unchanged (readers must tolerate missing
keys).
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import time
from typing import Optional

from repro.bench.harness import check, check_verdicts
from repro.runner import ResultCache, SweepRunner, default_cache_dir

__all__ = ["collect_bench", "write_bench_json", "default_bench_path"]


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
        "checks": [
            check("configs", n_configs, ">", 0),
            check("cache_hit_rate", warm_cache.hit_rate, "==", 1.0),
            check("warm_seconds", warm, "<", serial),
        ],
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


def collect_bench(quick: bool = False, jobs: Optional[int] = None) -> dict:
    """Run every sweep timing and bench scenario; return the report dict."""
    if jobs is None:
        from repro.runner import default_jobs

        jobs = default_jobs()
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
    report = {
        "schema": "repro-bench/10",
        "date": datetime.date.today().isoformat(),
        "git_sha": _git_sha(),
        "quick": quick,
        "jobs": jobs,
        "platform": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "sweeps": sweeps,
        "scale": scale,
        "resilience": resilience,
        "autoscale": autoscale,
        "cluster": cluster,
    }
    report.update(check_verdicts(report))
    return report


def default_bench_path(date: Optional[str] = None) -> str:
    """``<repo>/BENCH_<date>.json`` (the repo root holding ``src/``)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    date = date or datetime.date.today().isoformat()
    return os.path.join(root, f"BENCH_{date}.json")


def write_bench_json(path: Optional[str] = None, quick: bool = False,
                     jobs: Optional[int] = None) -> tuple[str, dict]:
    """Collect the report and write it; returns ``(path, report)``."""
    report = collect_bench(quick=quick, jobs=jobs)
    path = path or default_bench_path(report["date"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path, report
