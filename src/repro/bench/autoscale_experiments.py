"""Autoscale benchmark (the ``autoscale`` section of ``repro bench``).

The §7 closed loop, scored: two serving functions with anti-correlated
diurnal demand (their peaks half a period apart) share one A100-80GB
through flat MPS.  Three layouts compete at matched provisioned
capacity (summed per-replica caps ~= 100% of the GPU in every
configuration, so GPU-seconds are equal by construction):

- **static-small** — the GPU split equally, sized for the *mean*: the
  hot function's peak saturates its caps and sheds;
- **static-large** — the hot function peak-sized, the cold one starved:
  now the *cold* peak sheds;
- **closed-loop** — the :class:`~repro.workloads.autoscale.FleetAutoscaler`
  re-negotiates MPS shares online, paying real
  :class:`~repro.partition.reconfig.ReconfigCost` drain/restart windows.

The score is the in-SLO fraction of *offered* load (``slo_ok /
offered``): shed requests count against a layout, so admission control
cannot shed its way to a win.  The checks require the closed loop to
beat both statics, its GPU-seconds to stay within tolerance of theirs,
the weight cache to strictly shrink mean restart downtime versus a
cache-off twin, zero lost requests everywhere, and twin closed-loop
runs to be bit-identical (determinism survives resize events).

The ``chaos`` subsection replays the closed loop under the *canonical
control-plane fault plan* (:func:`canonical_control_plane_plan`): stuck
resize drains, corrupt weight-cache entries, telemetry dropouts, and
inflated offered counters, all seeded and replayable.  Its checks demand
the serving plane conserve every request (zero lost), every aborted
resize prove its rollback, the controller actually detect the bad
sensors (>= 1 degraded tick), the in-SLO fraction stay at or above
``SLO_CHAOS_FLOOR`` x the fault-free closed loop, and twin chaos runs
stay bit-identical.
"""

from __future__ import annotations

import json
import math

from repro.bench.harness import check

__all__ = ["autoscale_chaos_report", "autoscale_fleet_report",
           "autoscale_report", "build_autoscale_fleet",
           "canonical_control_plane_plan", "run_autoscale_fleet"]

#: Two functions x three replicas over one A100-80GB.
N_REPLICAS = 3
SLO_SECONDS = 6.0
N_TOKENS = 16

#: Diurnal demand: the hot function carries 2x the cold one's mean, and
#: the cold peak lands half a period after the hot peak (phase pi).
HOT_MEAN_RPS = 0.9
COLD_MEAN_RPS = 0.45
PERIOD_SECONDS = 600.0
DEPTH = 0.8

#: Per-replica MPS percentages.  Every layout's replica-weighted sum is
#: 99% of the GPU — the closest an integer 3+3-replica split gets to
#: 100 — matching the bound the repaired ``scaled_percentages`` now
#: enforces on the closed loop, so the contest is about *where* the SMs
#: sit, not how many are provisioned.
STATIC_SMALL = {"hot": 17, "cold": 16}   # equal split, mean-sized
STATIC_LARGE = {"hot": 27, "cold": 6}    # hot-peak-sized, cold starved

#: Controller cadence.
INTERVAL_SECONDS = 30.0
COOLDOWN_SECONDS = 120.0

#: GPU-seconds fairness tolerance between layouts.
GPU_SECONDS_TOLERANCE = 0.10

#: Canonical control-plane fault plan (the ``chaos`` subsection): MTBFs
#: sized so a quick 600 s run still sees stuck drains collide with
#: resizes and at least one telemetry fault span a control tick.
CHAOS_STUCK_MTBF = 100.0
CHAOS_STUCK_DURATION = 150.0
CHAOS_CACHE_MTBF = 300.0
CHAOS_DROPOUT_MTBF = 300.0
CHAOS_DROPOUT_DURATION = 75.0
CHAOS_CORRUPT_MTBF = 250.0
CHAOS_CORRUPT_DURATION = 60.0
CHAOS_CORRUPT_FACTOR = 8.0
#: The chaos run must keep at least this fraction of the fault-free
#: closed loop's in-SLO fraction.
SLO_CHAOS_FLOOR = 0.8


def canonical_control_plane_plan(horizon: float, seed: int = 0):
    """The control-plane chaos schedule the bench and CI replay.

    Four independent Poisson fault classes, one sub-seed each (so
    adding a class never perturbs the others), merged by time:
    ``resize_stuck`` holds, ``cache_load_failure`` corruptions,
    ``sensor_dropout`` freezes, and ``telemetry_corruption`` inflation.
    """
    from repro.faas.chaos import FaultPlan

    stuck = FaultPlan.exponential(
        "resize_stuck", CHAOS_STUCK_MTBF, horizon, seed=seed * 10 + 2,
        duration=CHAOS_STUCK_DURATION)
    cache = FaultPlan.exponential(
        "cache_load_failure", CHAOS_CACHE_MTBF, horizon,
        seed=seed * 10 + 3)
    dropout = FaultPlan.exponential(
        "sensor_dropout", CHAOS_DROPOUT_MTBF, horizon, seed=seed * 10 + 5,
        duration=CHAOS_DROPOUT_DURATION)
    corrupt = FaultPlan.exponential(
        "telemetry_corruption", CHAOS_CORRUPT_MTBF, horizon,
        seed=seed * 10 + 7, duration=CHAOS_CORRUPT_DURATION,
        factor=CHAOS_CORRUPT_FACTOR)
    return stuck.merge(cache, dropout, corrupt)


def _clients(env, fleet, horizon: float, trace_seeds: tuple = (1, 2)):
    from repro.workloads.serving import OpenLoopClient
    from repro.workloads.traces import iter_diurnal_trace

    hot = OpenLoopClient(
        env, fleet.groups["hot"].router, n_tokens=N_TOKENS, streaming=True,
        arrivals=iter_diurnal_trace(HOT_MEAN_RPS, horizon,
                                    period=PERIOD_SECONDS, depth=DEPTH,
                                    seed=trace_seeds[0]))
    cold = OpenLoopClient(
        env, fleet.groups["cold"].router, n_tokens=N_TOKENS, streaming=True,
        arrivals=iter_diurnal_trace(COLD_MEAN_RPS, horizon,
                                    period=PERIOD_SECONDS, depth=DEPTH,
                                    seed=trace_seeds[1], phase=math.pi))
    return hot, cold


def build_autoscale_fleet(env, horizon: float, autoscale: bool,
                          pcts: dict[str, int],
                          weight_cache: bool = True, seed: int = 0,
                          trace_seeds: tuple = (1, 2),
                          on_completion=None, plan=None) -> tuple:
    """Construct one diurnal contest scenario inside ``env``.

    Returns ``(fleet, autoscaler, clients, chaos)``.  Shared by the
    single-process runner and the sharded simulation's autoscale cells
    — one construction path, so the differential tests can demand
    bit-identity.  ``on_completion`` taps every function group's stats
    *before* the autoscaler attaches its monitors (the autoscaler
    chains onto an installed tap rather than replacing it);
    ``trace_seeds`` re-seeds the hot/cold diurnal arrival traces so
    extra cells carry independent demand.  ``plan`` (a
    :class:`~repro.faas.chaos.FaultPlan`) attaches a
    :class:`~repro.faas.chaos.ChaosController` replaying it against the
    fleet; ``chaos`` is ``None`` without one.
    """
    from repro.faas.chaos import ChaosController
    from repro.workloads.autoscale import FleetAutoscaler
    from repro.workloads.fleet import AutoscaledServingFleet, FleetFunction

    functions = [
        FleetFunction("hot", N_REPLICAS, SLO_SECONDS, pcts["hot"],
                      n_tokens=N_TOKENS),
        FleetFunction("cold", N_REPLICAS, SLO_SECONDS, pcts["cold"],
                      n_tokens=N_TOKENS),
    ]
    fleet = AutoscaledServingFleet(env, functions, seed=seed,
                                   weight_cache=weight_cache)
    if on_completion is not None:
        for group in fleet.groups.values():
            group.stats.on_completion = on_completion
    autoscaler = None
    if autoscale:
        autoscaler = FleetAutoscaler(
            fleet, interval_seconds=INTERVAL_SECONDS,
            cooldown_seconds=COOLDOWN_SECONDS)
        autoscaler.start()
    chaos = None
    if plan is not None:
        chaos = ChaosController(env, fleet, plan, horizon=horizon)
    clients = _clients(env, fleet, horizon, trace_seeds)
    return fleet, autoscaler, clients, chaos


def autoscale_fleet_report(env, fleet, autoscaler, autoscale: bool,
                           weight_cache: bool,
                           pcts: dict[str, int], chaos=None) -> dict:
    """Assemble the comparable report dict for a finished run."""
    functions_report = fleet.report(env.now)
    offered = sum(r["offered"] for r in functions_report.values())
    slo_ok = sum(r["slo_ok"] for r in functions_report.values())
    lost = sum(r["lost"] for r in functions_report.values())
    return {
        "autoscale": autoscale,
        "weight_cache": weight_cache,
        "initial_pcts": dict(pcts),
        "final_pcts": {name: group.current_pct
                       for name, group in fleet.groups.items()},
        "offered": offered,
        "slo_ok": slo_ok,
        "lost": lost,
        "slo_good_fraction": slo_ok / offered if offered else 0.0,
        "gpu_seconds": fleet.provisioned_gpu_seconds(),
        "sim_seconds": env.now,
        "events": env.events_processed,
        "faults": dict(sorted(fleet.faults.items())),
        "faults_applied": sum(fleet.faults.values()),
        "chaos_log": None if chaos is None else [
            [t, kind, desc] for t, kind, desc in chaos.applied],
        "functions": functions_report,
        "autoscaler": None if autoscaler is None else autoscaler.summary(),
    }


def run_autoscale_fleet(horizon: float, autoscale: bool,
                        pcts: dict[str, int],
                        weight_cache: bool = True,
                        seed: int = 0, plan=None) -> dict:
    """One diurnal serving run; returns the comparable report dict.

    ``pcts`` sets the initial per-replica MPS percentages; with
    ``autoscale=False`` they are also final (a static layout).  ``plan``
    replays a fault plan against the fleet.  The returned dict is the
    payload the ``twin_identical`` checks compare verbatim across twin
    runs.
    """
    from repro.sim.core import Environment

    env = Environment()
    fleet, autoscaler, clients, chaos = build_autoscale_fleet(
        env, horizon, autoscale, pcts, weight_cache=weight_cache,
        seed=seed, plan=plan)
    env.run(until=env.all_of([c.done for c in clients]))
    if autoscaler is not None:
        autoscaler.stop()
    return autoscale_fleet_report(env, fleet, autoscaler, autoscale,
                                  weight_cache, pcts, chaos=chaos)


def autoscale_chaos_report(horizon: float, fault_free: dict,
                           seed: int = 0) -> dict:
    """The ``chaos`` subsection: the closed loop under control-plane
    faults, scored against its own fault-free run."""
    plan = canonical_control_plane_plan(horizon, seed=seed)
    chaos = run_autoscale_fleet(horizon, True, STATIC_SMALL, seed=seed,
                                plan=plan)
    twin = run_autoscale_fleet(horizon, True, STATIC_SMALL, seed=seed,
                               plan=plan)
    twin_identical = (json.dumps(chaos, sort_keys=True)
                      == json.dumps(twin, sort_keys=True))
    ctrl = chaos["autoscaler"]
    base = fault_free["slo_good_fraction"]
    kinds: dict[str, int] = {}
    for event in plan:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    return {
        "plan_events": len(plan),
        "plan_kinds": dict(sorted(kinds.items())),
        "run": chaos,
        "checks": [
            check("lost", chaos["lost"], "==", 0),
            check("resize_aborts", ctrl["resize_aborts"], ">=", 1),
            check("resize_rollbacks", ctrl["resize_rollbacks"], "==",
                  ctrl["resize_aborts"]),
            check("degraded_ticks", ctrl["degraded_ticks"], ">=", 1),
            check("slo_ratio_vs_fault_free",
                  chaos["slo_good_fraction"] / base if base else 0.0,
                  ">=", SLO_CHAOS_FLOOR),
            check("twin_identical", twin_identical, "==", True),
        ],
    }


def autoscale_report(quick: bool = False, seed: int = 0) -> dict:
    """The ``autoscale`` section of ``BENCH_<date>.json``."""
    # Two full diurnal periods even in quick mode: the closed loop pays
    # real reconfiguration downtime up front and can no longer recoup
    # it through the (fixed) >100% cap oversubscription, so a single
    # 600 s period is not enough runway to amortise the investment.
    horizon = 1200.0 if quick else 1800.0
    closed = run_autoscale_fleet(horizon, True, STATIC_SMALL, seed=seed)
    twin = run_autoscale_fleet(horizon, True, STATIC_SMALL, seed=seed)
    cache_off = run_autoscale_fleet(horizon, True, STATIC_SMALL,
                                    weight_cache=False, seed=seed)
    small = run_autoscale_fleet(horizon, False, STATIC_SMALL, seed=seed)
    large = run_autoscale_fleet(horizon, False, STATIC_LARGE, seed=seed)
    twin_identical = (json.dumps(closed, sort_keys=True)
                      == json.dumps(twin, sort_keys=True))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    gpu_ratios = {
        "vs_small": ratio(closed["gpu_seconds"], small["gpu_seconds"]),
        "vs_large": ratio(closed["gpu_seconds"], large["gpu_seconds"]),
    }
    slo = closed["slo_good_fraction"]
    return {
        "scenario": {
            "gpu": "A100_80GB",
            "model": "llama2-7b int8",
            "functions": {
                "hot": {"replicas": N_REPLICAS, "mean_rps": HOT_MEAN_RPS,
                        "phase": 0.0},
                "cold": {"replicas": N_REPLICAS, "mean_rps": COLD_MEAN_RPS,
                         "phase": "pi"},
            },
            "period_seconds": PERIOD_SECONDS,
            "depth": DEPTH,
            "slo_seconds": SLO_SECONDS,
            "n_tokens": N_TOKENS,
            "horizon_seconds": horizon,
            "interval_seconds": INTERVAL_SECONDS,
            "cooldown_seconds": COOLDOWN_SECONDS,
        },
        "closed_loop": closed,
        "closed_loop_cache_off": cache_off,
        "static_small": small,
        "static_large": large,
        "gpu_seconds_ratio": gpu_ratios,
        "chaos": autoscale_chaos_report(horizon, closed, seed=seed),
        "checks": [
            check("beats_static_small", slo, ">=",
                  small["slo_good_fraction"]),
            check("beats_static_large", slo, ">=",
                  large["slo_good_fraction"]),
            check("gpu_seconds_matched",
                  max(abs(r - 1.0) for r in gpu_ratios.values()), "<=",
                  GPU_SECONDS_TOLERANCE),
            check("cache_shrinks_downtime",
                  closed["autoscaler"]["mean_restart_downtime"], "<",
                  cache_off["autoscaler"]["mean_restart_downtime"]),
            check("reconfigurations",
                  closed["autoscaler"]["reconfigurations"], ">=", 1),
            check("twin_identical", twin_identical, "==", True),
            check("lost", closed["lost"] + cache_off["lost"]
                  + small["lost"] + large["lost"], "==", 0),
        ],
    }
