"""Million-request trace-serving scale benchmark (``repro bench``).

The paper's sweeps are many *small* simulations; this scenario is one
*large* one, sized to exercise the engine work that dominates at FaaS
fleet scale: a fully-partitioned A100-80GB (7 x ``1g.10gb`` MIG
instances, each running an MPS daemon with 16 serving functions)
under a sustained open-loop Poisson load of up to a million requests.

The engine keeps no per-request state (incremental allocator, pooled
timeouts, chunked gap draws, streaming accumulators), so memory stays
bounded however long the trace.  Each run happens in a forked
subprocess so ``ru_maxrss`` growth measures that run alone.  Speed
comparisons between commits belong to ``perf/``; this section records
the scenario's events/sec, RSS growth and latency summary, and the
sharded engine's bit-identity and speedup checks.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from typing import Optional

from repro.bench.harness import check

__all__ = ["build_trace_serving", "trace_serving_metrics",
           "trace_serving_scale", "scale_report", "sharded_scale_benchmark",
           "sharded_pair_benchmark"]

#: The fixed fleet topology (see module docstring).  Batch size 1 with
#: 16-token completions is the paper's fine-grained sharing regime: many
#: small kernels from many co-resident functions, which maximises
#: allocator churn (the engine cost this benchmark isolates).
N_INSTANCES = 7
SERVERS_PER_INSTANCE = 16
MAX_BATCH_SIZE = 1
N_TOKENS = 16

#: Total offered load over the whole fleet, requests/second.  Must stay
#: below fleet capacity or queues grow without bound.  At batch size 1
#: the fleet is GPU-bound: capacity measures ~4.07 rps regardless of
#: server count, so 3.88 rps ~= 95% utilisation — heavy enough that
#: nearly every server keeps a kernel resident (~112 concurrent fluid
#: tasks), light enough to stay stable.
DEFAULT_RATE_RPS = 3.88

#: Events/sec floor on the scenario run.  Generous (a 2-vCPU x86 box
#: measures ~38k events/sec) so only a gross breakage trips it; speed
#: regressions between commits are ``perf/compare.py``'s job.
EVENTS_PER_SEC_FLOOR = 5_000


def build_trace_serving(env, n_requests: int, rate_rps: float, seed: int,
                        stats=None) -> dict:
    """Construct the canonical scale fleet inside ``env``; return handles.

    One fully-partitioned A100-80GB (7 x ``1g.10gb``, 16 MPS serving
    functions each) plus its open-loop clients.  Shared by the bench
    run and the sharded simulation cells, so both build the
    *identical* scenario — the bit-identity the differential tests
    assert rests on this single construction path.

    ``stats`` (any object with ``add(latency)``, by default a fresh
    :class:`StreamingLatencyStats`) is handed to every client; pass a
    recording wrapper to tap completions.
    Returns ``{"gpu", "manager", "servers", "clients", "stats",
    "n_servers", "n_requests"}``.
    """
    import numpy as np

    from repro.gpu.device import SimulatedGPU
    from repro.gpu.mig import MigManager
    from repro.gpu.specs import A100_80GB
    from repro.telemetry.streaming import StreamingLatencyStats
    from repro.workloads.llm import LLAMA2_7B, InferenceRuntime, LlamaInference
    from repro.workloads.serving import InferenceServer, OpenLoopClient

    # Pin cross_check off: this is a performance measurement, and an
    # inherited REPRO_ALLOC_CHECK=1 would make the incremental engine
    # run the full recompute after every allocation anyway.
    gpu = SimulatedGPU(env, A100_80GB, cross_check=False)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    # int8 weights: LLaMa-2-7B fits a 1g.10gb slice.
    llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=1))

    n_servers = N_INSTANCES * SERVERS_PER_INSTANCE
    if stats is None:
        stats = StreamingLatencyStats()
    servers: list[InferenceServer] = []
    clients: list[OpenLoopClient] = []
    per_server = max(1, n_requests // n_servers)
    for i in range(N_INSTANCES):
        instance = manager.create_instance("1g.10gb")
        daemon = instance.enable_mps()
        for j in range(SERVERS_PER_INSTANCE):
            k = i * SERVERS_PER_INSTANCE + j
            server = InferenceServer(
                env, daemon.client(f"srv{k}"), llm,
                max_batch_size=MAX_BATCH_SIZE, keep_completed=False)
            servers.append(server)
            clients.append(OpenLoopClient(
                env, server, rate_rps=rate_rps / n_servers,
                n_requests=per_server, n_tokens=N_TOKENS,
                rng=np.random.default_rng(seed + k),
                streaming=True, stats=stats))
    return {"gpu": gpu, "manager": manager, "servers": servers,
            "clients": clients, "stats": stats, "n_servers": n_servers,
            "n_requests": per_server * n_servers}


def trace_serving_metrics(env, handles: dict, rate_rps: float) -> dict:
    """The deterministic half of the scale metrics dict.

    Everything here is a pure function of (seed, config) — wall clock
    and RSS are layered on by :func:`_run_scale`, and excluded when
    the differential tests compare sharded against single-process runs.
    """
    lat = handles["stats"].stats()
    gpu = handles["gpu"]
    return {
        # A constant, but part of every sharded scale cell's payload
        # and so of its digest.
        "engine": "streaming",
        "n_requests": handles["n_requests"],
        "n_servers": handles["n_servers"],
        "rate_rps": rate_rps,
        "sim_seconds": env.now,
        "events": env.events_processed,
        "alloc_calls": gpu.alloc_calls,
        "alloc_group_recomputes": gpu.alloc_group_recomputes,
        "latency": {
            "count": lat.count,
            "mean": lat.mean,
            "p50": lat.p50,
            "p95": lat.p95,
            "p99": lat.p99,
            "min": lat.minimum,
            "max": lat.maximum,
        },
    }


def _run_scale(n_requests: int, rate_rps: float, seed: int) -> dict:
    """Run the scale scenario inline; returns the metrics dict."""
    from repro.sim.core import Environment

    env = Environment()
    handles = build_trace_serving(env, n_requests, rate_rps, seed)

    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    env.run(until=env.all_of([c.done for c in handles["clients"]]))
    wall = time.perf_counter() - t0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    metrics = trace_serving_metrics(env, handles, rate_rps)
    metrics["wall_seconds"] = wall
    metrics["events_per_sec"] = (env.events_processed / wall
                                 if wall > 0 else 0.0)
    metrics["rss_growth_kb"] = max(0, rss1 - rss0)
    return metrics


def _subprocess_target(conn, n_requests, rate_rps, seed):
    try:
        conn.send(_run_scale(n_requests, rate_rps, seed))
    except BaseException as exc:  # pragma: no cover - forwarded to parent
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def trace_serving_scale(n_requests: int,
                        rate_rps: float = DEFAULT_RATE_RPS,
                        seed: int = 0, isolate: bool = True) -> dict:
    """Run the scale scenario; returns the metrics dict.

    With ``isolate=True`` (the default) the run happens in a forked
    child process, so its ``rss_growth_kb`` is not polluted by whatever
    the parent allocated before — ``ru_maxrss`` is a process-lifetime
    high-water mark, and a big earlier run would otherwise mask a small
    later one.
    """
    if not isolate:
        return _run_scale(n_requests, rate_rps, seed)
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_subprocess_target,
                       args=(child, n_requests, rate_rps, seed))
    proc.start()
    child.close()
    try:
        result = parent.recv()
    finally:
        proc.join()
        parent.close()
    if "error" in result:
        raise RuntimeError(f"scale run failed in subprocess: {result['error']}")
    return result


#: Sharded-bench shape: one cell per MIG-partitioned device, matching
#: the canonical topology, so the ideal speedup is ``min(cores, 7)``.
SHARDED_N_CELLS = 7
#: Events/sec floor for sharded vs single-process on a multi-core
#: runner (unmeasured on smaller machines — there is nothing to
#: parallelise onto).
SHARDED_SPEEDUP_FLOOR = 5.0
SHARDED_MIN_CORES = 6
#: The two-shard check, which runs wherever two cores exist: two
#: full-size cells on two worker processes against one process.  At
#: the quick size (400 requests per cell) process start-up dominates
#: and the ratio reads 1.00x, so only full-size runs carry this check.
PAIR_N_CELLS = 2
PAIR_REQUESTS_PER_CELL = 4_000
PAIR_SPEEDUP_FLOOR = 1.4
PAIR_MIN_CORES = 2


def sharded_scale_benchmark(quick: bool = False, seed: int = 0,
                            n_requests_per_cell: Optional[int] = None,
                            n_cells: int = SHARDED_N_CELLS,
                            n_shards: Optional[int] = None,
                            epoch_seconds: float = 60.0,
                            speedup_floor: float = SHARDED_SPEEDUP_FLOOR,
                            min_cores: int = SHARDED_MIN_CORES) -> dict:
    """The ``sharded`` subsection of the ``scale`` bench section.

    Runs the identical ``n_cells``-device workload twice — once
    in-process on one shard (serialised) and once over ``n_shards``
    worker processes — then checks that the deterministic payloads are
    bit-identical (shard count is an execution detail, not a model
    input) and that, on a runner with at least ``min_cores`` cores, the
    sharded run clears ``speedup_floor``x the single-process
    events/sec.  Below that core count the ratio says
    nothing about the engine, so the ``speedup`` check is
    ``unmeasured``.  No worker may need a respawn.  Worker RSS growth
    is reported per shard so a leak in any one cell process is visible
    rather than averaged away.
    """

    import json
    import os

    from repro.workloads.shardcells import sharded_scale_report

    per_cell = n_requests_per_cell or (400 if quick else 4_000)
    cores = os.cpu_count() or 1
    if n_shards is None:
        n_shards = min(n_cells, cores)

    def timed(shards: int, use_processes: bool) -> tuple:
        t0 = time.perf_counter()
        out = sharded_scale_report(n_cells, shards, per_cell, seed=seed,
                                   epoch_seconds=epoch_seconds,
                                   use_processes=use_processes)
        wall = time.perf_counter() - t0
        events = out["merged"]["events_processed"]
        summary = {
            "shards": shards,
            "processes": use_processes,
            "events": events,
            "n_requests": out["merged"]["n_requests"],
            "wall_seconds": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "worker_rss_growth_kb": out["execution"]["worker_rss_growth_kb"],
            "worker_respawns": out["execution"]["worker_respawns"],
        }
        return out, summary

    single_out, single = timed(1, use_processes=False)
    sharded_out, sharded = timed(n_shards, use_processes=True)

    def payload(out: dict) -> str:
        return json.dumps({k: v for k, v in out.items()
                           if k != "execution"}, sort_keys=True,
                          default=repr)

    speedup = (sharded["events_per_sec"] / single["events_per_sec"]
               if single["events_per_sec"] > 0 else 0.0)
    return {
        "n_cells": n_cells,
        "n_requests_per_cell": per_cell,
        "epoch_seconds": epoch_seconds,
        "cores": cores,
        "min_cores": min_cores,
        "events_digest": sharded_out["merged"]["events_digest"],
        "merged_latency": sharded_out["merged"]["latency"],
        "single": single,
        "sharded": sharded,
        "speedup": speedup,
        "checks": [
            check("identical", payload(single_out) == payload(sharded_out),
                  "==", True),
            check("speedup", speedup, ">=", speedup_floor,
                  measured=cores >= min_cores and n_shards >= speedup_floor),
            check("worker_respawns", sum(sharded["worker_respawns"]),
                  "==", 0),
        ],
    }


def sharded_pair_benchmark(seed: int = 0) -> dict:
    """The two-shard checks: :func:`sharded_scale_benchmark` on
    ``PAIR_N_CELLS`` full-size cells over two workers, floor
    ``PAIR_SPEEDUP_FLOOR``x, measured from ``PAIR_MIN_CORES`` cores."""
    return sharded_scale_benchmark(
        seed=seed, n_requests_per_cell=PAIR_REQUESTS_PER_CELL,
        n_cells=PAIR_N_CELLS, n_shards=2, speedup_floor=PAIR_SPEEDUP_FLOOR,
        min_cores=PAIR_MIN_CORES)


def scale_report(quick: bool = False, seed: int = 0) -> dict:
    """The ``scale`` section of ``BENCH_<date>.json``.

    Runs the scenario at 2,500 requests (``quick``) or 25,000, then the
    sharded engine's checks — the two-shard ones only at full size —
    and, unless ``quick``, the million-request headline run.
    """
    compare_n = 2_500 if quick else 25_000
    streaming = trace_serving_scale(compare_n, seed=seed)
    streaming["checks"] = [check("events_per_sec",
                                 streaming["events_per_sec"], ">=",
                                 EVENTS_PER_SEC_FLOOR)]
    report = {
        "scenario": {
            "gpu": "A100_80GB",
            "topology": f"{N_INSTANCES}x 1g.10gb MIG, "
                        f"{SERVERS_PER_INSTANCE} MPS servers each",
            "model": "llama2-7b int8",
            "max_batch_size": MAX_BATCH_SIZE,
            "n_tokens": N_TOKENS,
            "rate_rps": DEFAULT_RATE_RPS,
        },
        "compare_n_requests": compare_n,
        "streaming": streaming,
    }
    report["sharded"] = sharded_scale_benchmark(quick=quick, seed=seed)
    if not quick:
        report["sharded"]["pair"] = sharded_pair_benchmark(seed=seed)
        report["streaming_1m"] = trace_serving_scale(1_000_000, seed=seed)
    return report
