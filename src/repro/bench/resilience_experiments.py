"""Resilience benchmark (the ``resilience`` section of ``repro bench``).

Two experiments over the canonical 112-replica fleet of the scale
benchmark (7 partitions x 16 serving functions on an A100-80GB):

- **goodput under chaos** — the full fault-tolerant serving plane
  (retries, hedging, breakers, failover, admission control) serves an
  open-loop Poisson load while a :class:`~repro.faas.chaos.FaultPlan`
  mixing every fault class plays out.  The checks: *zero lost
  requests* (every offered request terminates exactly once) and
  goodput — in-SLO completions per second — above a floor relative to
  the offered rate.
- **blast radius** — the MIG-backed fleet and a flat-MPS fleet with
  identical per-replica SM shares replay the *identical* ECC-only
  plan.  On MIG an uncorrectable error is confined to one ``1g.10gb``
  instance (~1/7 of resident kernels); under MPS every resident client
  shares the dying context.  The measured mean kill fraction per fault
  quantifies the isolation the paper's hardware partitioning buys; it
  must stay below the flat-MPS one.

Everything is seeded end to end, so a regression in any number here is
a real behaviour change, not noise.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import check

__all__ = ["DEFAULT_GOODPUT_FLOOR_FRACTION", "blast_radius_experiment",
           "build_resilient_fleet", "canonical_fault_plan",
           "resilience_report", "resilient_fleet_report",
           "run_resilient_fleet"]

#: The fleet topology mirrors :mod:`repro.bench.scale_experiments`.
N_PARTITIONS = 7
SERVERS_PER_PARTITION = 16
N_TOKENS = 16

#: Offered load (requests/second).  Fleet capacity at batch size 1 is
#: ~4.07 rps; 3.4 leaves headroom for retry/hedge amplification while
#: keeping utilisation interesting (~84%).
DEFAULT_RATE_RPS = 3.4

#: Per-request latency SLO for the bench scenario.  Generous relative
#: to the ~20s fault-free mean at this utilisation, so SLO misses under
#: chaos measure fault impact rather than baseline queueing.
DEFAULT_DEADLINE_SECONDS = 60.0

#: The goodput check: goodput must stay above this fraction of the
#: offered rate under the canonical fault schedule.
DEFAULT_GOODPUT_FLOOR_FRACTION = 0.7


def canonical_fault_plan(horizon: float, seed: int = 0):
    """The bench's standard fault mix over ``horizon`` seconds.

    One independent Poisson process per fault class (distinct derived
    seeds), merged: roughly one ECC error and one replica crash per
    ~80s, plus stragglers, transient launch failures, and
    reconfiguration stalls.  Deterministic in ``(horizon, seed)``.
    """
    from repro.faas.chaos import FaultPlan

    return FaultPlan.exponential(
        "ecc", mtbf_seconds=80.0, horizon=horizon, seed=seed * 8 + 1,
    ).merge(
        FaultPlan.exponential(
            "replica_crash", mtbf_seconds=80.0, horizon=horizon,
            seed=seed * 8 + 2, duration=5.0),
        FaultPlan.exponential(
            "straggler_replica", mtbf_seconds=60.0, horizon=horizon,
            seed=seed * 8 + 3, duration=10.0, factor=4.0),
        FaultPlan.exponential(
            "launch_failure", mtbf_seconds=40.0, horizon=horizon,
            seed=seed * 8 + 4),
        FaultPlan.exponential(
            "reconfig_stall", mtbf_seconds=120.0, horizon=horizon,
            seed=seed * 8 + 5, duration=2.0),
    )


def build_resilient_fleet(env, mode: str, n_requests: int,
                          rate_rps: float = DEFAULT_RATE_RPS,
                          deadline_seconds: float = DEFAULT_DEADLINE_SECONDS,
                          seed: int = 0, plan=None,
                          n_partitions: int = N_PARTITIONS,
                          servers_per_partition: int = SERVERS_PER_PARTITION,
                          n_tokens: int = N_TOKENS) -> tuple:
    """Construct one chaos-serving scenario inside ``env``.

    Returns ``(fleet, chaos, client)``.  Shared by the single-process
    runner and the sharded simulation's fleet cells, so both build the
    *identical* scenario — the differential tests' bit-identity rests
    on this single construction path.
    """
    import numpy as np

    from repro.faas.chaos import ChaosController
    from repro.workloads.fleet import ServingFleet
    from repro.workloads.resilience import SLOPolicy
    from repro.workloads.serving import OpenLoopClient

    policy = SLOPolicy(deadline_seconds=deadline_seconds)
    fleet = ServingFleet(env, mode=mode, n_partitions=n_partitions,
                         servers_per_partition=servers_per_partition,
                         policy=policy, seed=seed)
    chaos = None
    if plan is not None:
        chaos = ChaosController(env, fleet, plan)
    client = OpenLoopClient(env, fleet.router, rate_rps=rate_rps,
                            n_requests=n_requests, n_tokens=n_tokens,
                            rng=np.random.default_rng(seed),
                            streaming=True)
    return fleet, chaos, client


def resilient_fleet_report(env, fleet, chaos, mode: str, n_requests: int,
                           rate_rps: float,
                           deadline_seconds: float) -> dict:
    """Assemble the report dict for a finished chaos-serving run.

    Every field is deterministic in (seed, config) — this is the
    payload the determinism tests compare verbatim across twin runs.
    """
    report = fleet.report(env.now)
    report["mode"] = mode
    report["n_requests"] = n_requests
    report["rate_rps"] = rate_rps
    report["deadline_seconds"] = deadline_seconds
    report["sim_seconds"] = env.now
    report["events"] = env.events_processed
    report["faults_applied"] = 0 if chaos is None else len(chaos.applied)
    report["ecc_log"] = list(fleet.ecc_log)
    return report


def run_resilient_fleet(mode: str, n_requests: int,
                        rate_rps: float = DEFAULT_RATE_RPS,
                        deadline_seconds: float = DEFAULT_DEADLINE_SECONDS,
                        seed: int = 0, plan=None,
                        n_partitions: int = N_PARTITIONS,
                        servers_per_partition: int = SERVERS_PER_PARTITION,
                        n_tokens: int = N_TOKENS) -> dict:
    """One chaos-serving run; returns the resilience report dict."""
    from repro.sim.core import Environment

    env = Environment()
    fleet, chaos, client = build_resilient_fleet(
        env, mode, n_requests, rate_rps=rate_rps,
        deadline_seconds=deadline_seconds, seed=seed, plan=plan,
        n_partitions=n_partitions,
        servers_per_partition=servers_per_partition, n_tokens=n_tokens)
    env.run(until=client.done)
    return resilient_fleet_report(env, fleet, chaos, mode, n_requests,
                                  rate_rps, deadline_seconds)


def blast_radius_experiment(n_requests: int = 600,
                            rate_rps: float = 3.0,
                            seed: int = 0,
                            ecc_mtbf_seconds: float = 30.0) -> dict:
    """Replay one ECC-only plan against MIG and flat-MPS fleets.

    The identical plan (same times, same raw targets) hits both
    topologies; per fault the fleet logs ``(domain, killed, resident)``.
    The MIG mean kill fraction should sit near ``1/n_partitions``; the
    MPS one near 1.0 — their ratio is the isolation factor.
    """
    from repro.faas.chaos import FaultPlan

    horizon = n_requests / rate_rps
    plan = FaultPlan.exponential("ecc", mtbf_seconds=ecc_mtbf_seconds,
                                 horizon=horizon, seed=seed * 8 + 7)

    def summarise(report: dict) -> dict:
        fractions = [killed / resident
                     for _dom, killed, resident in report["ecc_log"]
                     if resident > 0]
        return {
            "faults": len(report["ecc_log"]),
            "faults_with_residents": len(fractions),
            "kernels_killed": sum(k for _d, k, _r in report["ecc_log"]),
            "mean_kill_fraction": (sum(fractions) / len(fractions)
                                   if fractions else 0.0),
            "completed": report["completed"],
            "lost": report["lost"],
        }

    mig = summarise(run_resilient_fleet("mig-mps", n_requests,
                                        rate_rps=rate_rps, seed=seed,
                                        plan=plan))
    mps = summarise(run_resilient_fleet("mps", n_requests,
                                        rate_rps=rate_rps, seed=seed,
                                        plan=plan))
    ratio = (mps["mean_kill_fraction"] / mig["mean_kill_fraction"]
             if mig["mean_kill_fraction"] > 0 else 0.0)
    return {"plan_events": len(plan), "mig": mig, "mps": mps,
            "isolation_ratio": ratio}


def resilience_report(quick: bool = False, seed: int = 0,
                      n_requests: Optional[int] = None) -> dict:
    """The ``resilience`` section of ``BENCH_<date>.json``."""
    n = n_requests or (800 if quick else 4_000)
    horizon = n / DEFAULT_RATE_RPS
    plan = canonical_fault_plan(horizon, seed=seed)
    fleet = run_resilient_fleet("mig-mps", n, plan=plan, seed=seed)
    fleet.pop("ecc_log")  # raw per-fault tuples; blast radius covers it
    blast = blast_radius_experiment(
        n_requests=400 if quick else 1_200, seed=seed)
    return {
        "scenario": {
            "gpu": "A100_80GB",
            "topology": f"{N_PARTITIONS}x 1g.10gb MIG, "
                        f"{SERVERS_PER_PARTITION} MPS servers each",
            "model": "llama2-7b int8",
            "rate_rps": DEFAULT_RATE_RPS,
            "deadline_seconds": DEFAULT_DEADLINE_SECONDS,
            "n_requests": n,
        },
        "plan_events": len(plan),
        "fleet": fleet,
        "blast_radius": blast,
        "checks": [
            check("lost", fleet["lost"], "==", 0),
            check("goodput_rps", fleet["goodput_rps"], ">=",
                  DEFAULT_GOODPUT_FLOOR_FRACTION * DEFAULT_RATE_RPS),
            check("mig_kill_fraction", blast["mig"]["mean_kill_fraction"],
                  "<", blast["mps"]["mean_kill_fraction"]),
        ],
    }
