"""Extension study: demand-driven partition autoscaling (§7 realised).

The paper's closing future-work goal — "change GPU resources depending
on demand" — run end to end against live traffic: two LLaMa-2 serving
functions (three replicas each) share one A100-80GB through flat MPS
while their Poisson request rates swap at t=600 s.  A static equal
split competes with the :class:`~repro.workloads.autoscale.FleetAutoscaler`
closed loop, with and without the §7 weight cache, on the in-SLO
fraction of offered requests and on restart downtime.
"""

from repro.bench import format_table, save_results
from repro.sim import Environment
from repro.workloads import (
    AutoscaledServingFleet,
    FleetAutoscaler,
    FleetFunction,
    OpenLoopClient,
    iter_poisson_trace,
)

N_REPLICAS = 3
SLO = 6.0  # seconds per 16-token completion
N_TOKENS = 16
#: Initial per-replica MPS percentages: the autoscale bench's equal,
#: mean-sized split (3 x 17 + 3 x 16 = 99% of the GPU).
INITIAL_PCT = {"fn0": 17, "fn1": 16}
#: Step demand, requests per second: ``(segment start, fn0, fn1)``.
#: fn0 is hot until the swap at t=600 s, then fn1.
SCHEDULE = [(0.0, 1.5, 0.15), (600.0, 0.15, 1.5)]
HORIZON = 1200.0  # seconds of arrivals
SEED = 0


def _step_arrivals(segments, seed):
    """Poisson arrivals whose rate steps at each ``(start, end, rate)``
    segment; every segment draws from its own seeded stream."""
    for k, (start, end, rate) in enumerate(segments):
        for t in iter_poisson_trace(rate, end - start, seed=seed + k):
            yield start + t


def _run(autoscale: bool, weight_cache: bool = True):
    env = Environment()
    fleet = AutoscaledServingFleet(
        env, [FleetFunction(name, N_REPLICAS, SLO, pct, n_tokens=N_TOKENS)
              for name, pct in INITIAL_PCT.items()],
        seed=SEED, weight_cache=weight_cache)
    scaler = FleetAutoscaler(fleet) if autoscale else None
    if scaler is not None:
        scaler.start()
    ends = [start for start, *_ in SCHEDULE[1:]] + [HORIZON]
    clients = []
    for i, name in enumerate(INITIAL_PCT):
        segments = [(start, end, rates[i])
                    for (start, *rates), end in zip(SCHEDULE, ends)]
        clients.append(OpenLoopClient(
            env, fleet.groups[name].router, n_tokens=N_TOKENS,
            streaming=True,
            arrivals=_step_arrivals(segments, seed=2 * i + 1)))
    env.run(until=env.all_of([c.done for c in clients]))
    if scaler is not None:
        scaler.stop()
    reports = fleet.report(env.now)
    offered = sum(r["offered"] for r in reports.values())
    summary = scaler.summary() if scaler is not None else {
        "reconfigurations": 0, "replica_restarts": 0,
        "mean_restart_downtime": 0.0}
    return {
        "final": {name: group.current_pct
                  for name, group in fleet.groups.items()},
        "reconfigurations": summary["reconfigurations"],
        "replica_restarts": summary["replica_restarts"],
        "mean_restart_downtime": summary["mean_restart_downtime"],
        "in_slo": sum(r["slo_ok"] for r in reports.values()) / offered,
        "lost": sum(r["lost"] for r in reports.values()),
    }


def test_autoscaler_tracks_demand(run_once):
    def study():
        return {"static 17/16": _run(autoscale=False),
                "closed loop": _run(autoscale=True),
                "closed loop, no cache": _run(autoscale=True,
                                              weight_cache=False)}

    runs = run_once(study)

    rows = [[name, run["final"]["fn0"], run["final"]["fn1"],
             run["reconfigurations"], run["replica_restarts"],
             f"{run['mean_restart_downtime']:.2f}", f"{run['in_slo']:.3f}",
             run["lost"]]
            for name, run in runs.items()]
    table = format_table(
        ["policy", "final fn0 %", "final fn1 %", "resizes", "restarts",
         "mean restart s", "in-SLO", "lost"],
        rows,
        title="Extension — demand swap at t=600s, 2 functions x 3 "
              "replicas (fn0: 1.5->0.15 rps, fn1: 0.15->1.5 rps)",
    )
    print("\n" + table)
    save_results("extension_autoscaler", table)

    static = runs["static 17/16"]
    closed = runs["closed loop"]
    cache_off = runs["closed loop, no cache"]
    # The static split never changes, and no run loses a request.
    assert static["reconfigurations"] == 0
    assert all(run["lost"] == 0 for run in runs.values())
    # The closed loop follows the demand: after the swap fn1 (now hot)
    # holds the larger share.
    assert closed["reconfigurations"] >= 2
    assert closed["final"]["fn1"] > closed["final"]["fn0"]
    # Following the demand pays off in SLO attainment.
    assert closed["in_slo"] > static["in_slo"]
    # Restarts were cheap thanks to the weight cache: per-replica
    # downtime is the restart cost, not a model reload.
    assert closed["mean_restart_downtime"] < 4.0
    assert closed["mean_restart_downtime"] < \
        cache_off["mean_restart_downtime"]
