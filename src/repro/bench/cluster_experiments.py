"""Cluster placement benchmark (the ``cluster`` section of ``repro
bench``).

ROADMAP item 1's contest, scored: 50 functions with seeded-random SLOs,
latency curves, weight footprints, and rate forecasts must be packed
onto a 500-GPU heterogeneous fleet (A100-80GB / A100-40GB / H100 /
V100) by both packers from :mod:`repro.cluster.packing`.  The checks
demand:

- the segment-repacking optimiser uses *strictly fewer* GPUs than the
  greedy first-fit-decreasing baseline;
- at an in-SLO fraction within ``IN_SLO_TOLERANCE`` of greedy's (both
  packers share the oracle's admission rule, so the engineered
  infeasible functions — an SLO below any device's serial floor, a
  weight footprint no slice holds — are rejected identically and the
  fractions normally tie exactly);
- twin runs produce byte-identical canonical placement payloads
  (packing is pure deterministic arithmetic — no wall clock, no
  unseeded randomness);
- every per-GPU MPS cap set emitted via the repaired
  :func:`~repro.partition.autoscaler.scaled_percentages` keeps its
  replica-weighted sum <= 100 (the satellite bugfix, enforced at
  cluster scale where the old per-function ``ceil`` overshoot
  compounded worst);
- both placements pass the model's over-commitment ``validate()``.

A ``feedback`` subsection drives :class:`~repro.cluster.feedback.
ClusterFeedback` with synthetic offered-counter telemetry (a demand
shift on two functions) and checks the drift trigger replans
deterministically: the doubled rates must trigger a replan, and the
replanned-for rates must not trigger another.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from repro.bench.harness import check
from repro.gpu.specs import A100_40GB, A100_80GB, GB, H100_80GB, V100_32GB
from repro.cluster.feedback import ClusterFeedback
from repro.cluster.model import FunctionDemand, LatencyCurve
from repro.cluster.oracle import SizingOracle
from repro.cluster.packing import greedy_pack, optimize_pack
from repro.sim.rng import substream_seed

__all__ = ["cluster_report", "contest_demands", "contest_inventory",
           "run_contest"]

#: The heterogeneous contest fleet: 500 devices across four models.
CONTEST_INVENTORY = (
    (A100_80GB, 200),
    (A100_40GB, 150),
    (H100_80GB, 100),
    (V100_32GB, 50),
)

N_FUNCTIONS = 50

#: The optimiser must match greedy's in-SLO fraction this closely.
IN_SLO_TOLERANCE = 0.01


def contest_inventory() -> list[tuple]:
    return [(spec, count) for spec, count in CONTEST_INVENTORY]


def contest_demands(n_functions: int = N_FUNCTIONS,
                    seed: int = 0) -> list[FunctionDemand]:
    """``n_functions`` seeded demands spanning the sizing space.

    Parameters draw from one named substream per contest, so demand i
    depends only on ``(seed, i)`` — growing the contest never perturbs
    existing functions.  Two engineered-infeasible demands exercise the
    oracle's typed rejections: one SLO below every device's serial
    floor, one weight footprint larger than any slice.
    """
    demands: list[FunctionDemand] = []
    for i in range(n_functions):
        rng = np.random.default_rng(
            substream_seed(seed, "cluster-demand", i))
        work = float(rng.uniform(0.5, 10.0))
        serial = float(rng.uniform(0.01, 0.08))
        saturation = int(rng.integers(8, 97))
        # SLO between "needs a fat slice" (1.15x the saturated latency)
        # and "a sliver will do" (4x), always achievable on paper.
        floor_latency = serial + work / saturation
        slo = floor_latency * float(rng.uniform(1.15, 4.0))
        # Heavy-tailed forecasts (median ~20 rps, a few hundreds-of-rps
        # whales) so the 50 functions genuinely contend for the fleet
        # instead of rattling around in it.
        rate = float(rng.lognormal(mean=3.0, sigma=1.1))
        model_bytes = float(rng.uniform(0.5, 30.0)) * GB
        demands.append(FunctionDemand(
            name=f"fn{i:03d}",
            slo_seconds=slo,
            rate_rps=rate,
            curve=LatencyCurve(work=work, serial=serial,
                               saturation=saturation),
            model_bytes=model_bytes,
        ))
    if n_functions >= 2:
        # fn_slo: serial floor 0.2 s against a 0.1 s SLO — no SM count
        # on any device helps; the feasible flag must say so.
        demands[-2] = FunctionDemand(
            name=demands[-2].name, slo_seconds=0.1, rate_rps=2.0,
            curve=LatencyCurve(work=1.0, serial=0.2, saturation=50),
            model_bytes=4.0 * GB)
        # fn_mem: 200 GB of weights fit no slice in the catalog.
        demands[-1] = FunctionDemand(
            name=demands[-1].name, slo_seconds=5.0, rate_rps=1.0,
            curve=LatencyCurve(work=2.0, serial=0.05, saturation=60),
            model_bytes=200.0 * GB)
    return demands


def _digest(placement) -> str:
    payload = json.dumps(placement.payload(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_contest(n_functions: int = N_FUNCTIONS, seed: int = 0,
                inventory=None) -> dict:
    """Pack one contest with both packers and score them."""
    inventory = contest_inventory() if inventory is None else inventory
    demands = contest_demands(n_functions, seed)
    oracle = SizingOracle([spec for spec, _ in inventory])

    t0 = time.perf_counter()
    greedy = greedy_pack(demands, inventory, oracle)
    t1 = time.perf_counter()
    optimized = optimize_pack(demands, inventory, oracle)
    t2 = time.perf_counter()
    greedy.validate()
    optimized.validate()

    caps = {}
    worst_cap = 0
    for label, placement in (("greedy", greedy), ("optimized", optimized)):
        per_gpu = placement.mps_caps()
        worst = max((v["weighted_sum"] for v in per_gpu.values()),
                    default=0)
        caps[label] = {"shared_gpus": len(per_gpu),
                       "max_weighted_sum": worst}
        worst_cap = max(worst_cap, worst)

    return {
        "inventory": {spec.name: count for spec, count in inventory},
        "n_gpus": sum(count for _, count in inventory),
        "n_functions": n_functions,
        "seed": seed,
        "greedy": {**greedy.score(), "digest": _digest(greedy),
                   "wall_seconds": t1 - t0},
        "optimized": {**optimized.score(), "digest": _digest(optimized),
                      "wall_seconds": t2 - t1},
        "mps_caps": caps,
        "max_weighted_cap_sum": worst_cap,
    }


def _feedback_report(seed: int = 0) -> dict:
    """Exercise the fleet->cluster loop with synthetic telemetry."""
    inventory = [(A100_80GB, 40), (V100_32GB, 10)]
    demands = contest_demands(8, seed)[:6]  # feasible subset
    loop = ClusterFeedback(demands, inventory, drift_threshold=0.25)
    before = loop.placement.gpus_used
    # Two windows of offered counters: the first primes the sensor, the
    # second doubles two functions' arrival rates.
    t_prime, t_obs = 60.0, 120.0
    loop.observe_counters({
        d.name: (d.rate_rps * t_prime, t_prime) for d in demands})
    boosted = {d.name: (2.0 if i < 2 else 1.0)
               for i, d in enumerate(demands)}
    loop.observe_counters({
        d.name: (d.rate_rps * t_prime
                 + boosted[d.name] * d.rate_rps * (t_obs - t_prime),
                 t_obs)
        for d in demands})
    drift_before = loop.drift()
    diff = loop.replan(now=t_obs)  # the doubled rates must trip a replan
    loop.placement.validate()
    settled = loop.replan(now=t_obs + 60.0)  # planned-for rates: no-op
    return {
        "gpus_before": before,
        "gpus_after": loop.placement.gpus_used,
        "replans": loop.replans,
        "drift_before": drift_before,
        "drift_triggered": diff is not None,
        "settled_after_replan": settled is None,
        "diff": None if diff is None else
        {k: v for k, v in diff.items() if k != "time"},
        "summary": loop.summary(),
    }


def cluster_report(quick: bool = False, seed: int = 0) -> dict:
    """The ``cluster`` section of ``BENCH_<date>.json``."""
    contest = run_contest(N_FUNCTIONS, seed)
    twin = run_contest(N_FUNCTIONS, seed)
    twin_identical = (
        contest["greedy"]["digest"] == twin["greedy"]["digest"]
        and contest["optimized"]["digest"] == twin["optimized"]["digest"])

    greedy, optimized = contest["greedy"], contest["optimized"]
    feedback = _feedback_report(seed)
    return {
        "contest": contest,
        "feedback": feedback,
        "checks": [
            check("fewer_gpus", optimized["gpus_used"], "<",
                  greedy["gpus_used"]),
            check("in_slo_delta", abs(greedy["in_slo_fraction"]
                                      - optimized["in_slo_fraction"]),
                  "<=", IN_SLO_TOLERANCE),
            check("rejections_match", optimized["rejected"], "==",
                  greedy["rejected"]),
            check("max_weighted_cap_sum", contest["max_weighted_cap_sum"],
                  "<=", 100),
            check("twin_identical", twin_identical, "==", True),
            check("drift_triggered", feedback["drift_triggered"], "==",
                  True),
            check("settled_after_replan", feedback["settled_after_replan"],
                  "==", True),
        ],
    }
