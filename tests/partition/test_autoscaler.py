"""Tests for the demand-to-partition sizing and gating helpers (§7).

The helpers are exercised directly, and through the fleet controller
(:class:`FleetAutoscaler`) that turns their output into live MPS
repartitions.
"""

import math

import pytest

from repro.gpu import A100_40GB
from repro.partition import (
    SizingResult,
    cooldown_elapsed,
    required_sms_for,
    scaled_percentages,
)
from repro.sim import Environment
from repro.workloads import (
    AutoscaledServingFleet,
    FleetAutoscaler,
    FleetFunction,
    OpenLoopClient,
    iter_poisson_trace,
)


def weighted_sum(pcts, counts=None):
    counts = counts or {name: 1 for name in pcts}
    return sum(pcts[name] * counts[name] for name in pcts)


def latency_law(serial=0.05, work=2.0, saturation=40):
    """A latency(sms) law shaped like the Fig. 2 curve."""
    return lambda sms: work / min(sms, saturation) + serial


def make_stack(rates, horizon=200.0, pct=20, **scaler_kwargs):
    """Two functions x 2 replicas with Poisson demand at ``rates``."""
    env = Environment()
    fleet = AutoscaledServingFleet(env, [
        FleetFunction(name, 2, slo_seconds=6.0, initial_pct=pct, n_tokens=8)
        for name in ("fn0", "fn1")])
    scaler = FleetAutoscaler(fleet, **scaler_kwargs)
    clients = []
    for seed, (name, rate) in enumerate(sorted(rates.items()), start=1):
        group = fleet.groups[name]
        clients.append(OpenLoopClient(
            env, group.router, n_tokens=group.n_tokens, streaming=True,
            arrivals=iter_poisson_trace(rate, horizon, seed=seed)))
    return env, fleet, scaler, clients


def test_required_sms_scales_with_demand():
    law = latency_law()
    slo = 0.2
    assert required_sms_for(A100_40GB, law, slo, 0.0) == 1
    low = required_sms_for(A100_40GB, law, slo, 2.0)
    high = required_sms_for(A100_40GB, law, slo, 8.0)
    assert high > low >= 1
    # The chosen allocation meets both the SLO and the stability ceiling.
    latency = law(high)
    assert latency <= slo
    assert 8.0 * latency <= 0.8 + 1e-9


def test_infeasible_slo_gives_whole_gpu():
    assert required_sms_for(A100_40GB, latency_law(), 0.0001, 1.0) \
        == A100_40GB.sms


def test_desired_percentages_normalised():
    needed = {name: required_sms_for(A100_40GB, latency_law(), 0.2, 12.0)
              for name in ("fn0", "fn1")}
    pct = scaled_percentages(A100_40GB, needed)
    # The repaired apportionment bounds the sum by the GPU itself, not
    # the old per-function-ceil "roughly 100 plus rounding slack".
    assert sum(pct.values()) <= 100
    assert all(p >= 5 for p in pct.values())


# ------------------------------------------------ cooldown gating (bugfix)

def test_cooldown_elapsed_first_decision_is_eligible():
    # A fresh controller's last_applied is -inf, so even an enormous
    # cooldown cannot gate the very first decision.
    assert cooldown_elapsed(0.0, -math.inf, 1e9)
    # The regression this pins: a 0 initialiser would silently gate
    # every reconfiguration in the first cooldown window.
    assert not cooldown_elapsed(10.0, 0.0, 60.0)
    assert cooldown_elapsed(60.0, 0.0, 60.0)


def test_cooldown_elapsed_slo_violation_shrinks_the_wait():
    # Half the cooldown has passed: gated while healthy...
    assert not cooldown_elapsed(150.0, 100.0, 100.0)
    # ...eligible once the SLO is burning (default factor halves it).
    assert cooldown_elapsed(150.0, 100.0, 100.0, slo_violated=True)
    # Factor 0 bypasses the cooldown outright; factor 1 disables bypass.
    assert cooldown_elapsed(100.0, 100.0, 100.0, slo_violated=True,
                            slo_bypass_factor=0.0)
    assert not cooldown_elapsed(150.0, 100.0, 100.0, slo_violated=True,
                                slo_bypass_factor=1.0)


# ------------------------------------------- the controller on the helpers

def test_autoscaler_repartitions_on_demand_shift():
    env, fleet, scaler, clients = make_stack(
        {"fn0": 1.2, "fn1": 0.05}, interval_seconds=20.0,
        cooldown_seconds=0.0)
    old_client = fleet.groups["fn0"].replicas[0].server.client
    scaler.start()
    env.run(until=env.all_of([c.done for c in clients]))
    scaler.stop()
    assert scaler.reconfigurations >= 1
    hot, cold = fleet.groups["fn0"], fleet.groups["fn1"]
    assert hot.current_pct > cold.current_pct
    # The repartition replaced the MPS clients with wider SM caps.
    hot_client = hot.replicas[0].server.client
    assert hot_client is not old_client
    assert hot_client.sm_cap > cold.replicas[0].server.client.sm_cap


def test_autoscaler_downtime_accounted():
    env, fleet, scaler, clients = make_stack(
        {"fn0": 1.2, "fn1": 0.05}, interval_seconds=20.0,
        cooldown_seconds=0.0)
    scaler.start()
    env.run(until=env.all_of([c.done for c in clients]))
    scaler.stop()
    assert scaler.reconfigurations >= 1
    assert scaler.reconfiguration_downtime > 0
    # Every restart pays at least the planner's teardown + worker start.
    restart = scaler.planner.TEARDOWN_SECONDS + \
        scaler.planner.cold_start.worker_start_seconds(True)
    assert scaler.reconfiguration_downtime >= \
        scaler.replica_restarts * restart - 1e-9
    assert scaler.reconfiguration_downtime == pytest.approx(sum(
        entry["downtime_seconds"] for entry in scaler.reconfig_log))


def test_autoscaler_stop():
    env, fleet, scaler, _ = make_stack(
        {"fn0": 0.5, "fn1": 0.5}, horizon=100.0, interval_seconds=10.0)
    scaler.start()
    env.run(until=25.0)
    scaler.stop()
    decisions = len(scaler.decisions)
    reconfigurations = scaler.reconfigurations
    assert decisions >= 1
    env.run(until=100.0)
    assert len(scaler.decisions) == decisions
    assert scaler.reconfigurations == reconfigurations
    scaler.stop()  # idempotent


def test_slo_bypass_factor_validated():
    for factor in (-0.1, 1.5):
        with pytest.raises(ValueError, match="slo_bypass_factor"):
            make_stack({}, slo_bypass_factor=factor)
    # The closed interval's ends are both legal.
    for factor in (0.0, 1.0):
        _, _, scaler, _ = make_stack({}, slo_bypass_factor=factor)
        assert scaler.slo_bypass_factor == factor


def test_validation():
    env = Environment()
    fn = FleetFunction("f", 1, slo_seconds=1.0, initial_pct=50)
    with pytest.raises(ValueError, match="at least one"):
        AutoscaledServingFleet(env, [])
    with pytest.raises(ValueError, match="unique"):
        AutoscaledServingFleet(env, [fn, fn])
    with pytest.raises(ValueError):
        FleetFunction("g", 1, slo_seconds=0.0, initial_pct=50)
    scaler = FleetAutoscaler(AutoscaledServingFleet(env, [fn]))
    with pytest.raises(RuntimeError, match="already started"):
        scaler.start()
        scaler.start()


# -------------------------------------- sizing arithmetic (bugfix sweep)
#
# The three regressions below all passed the *old* arithmetic's own
# tests while oversubscribing or misreporting: per-function ``ceil``
# caps summing past 100%, and ``required_sms_for`` silently returning a
# whole GPU for functions no GPU can serve.

def test_scaled_percentages_regression_ceil_overshoot():
    """Seven 16-SM functions on a 108-SM GPU, expand=True.

    The old code gave each function ``ceil(100 * 16/112) = 15%``:
    7 x 15 = 105% of the GPU promised to co-residents.  Largest
    remainder hands out 100 exactly.
    """
    needed = {f"fn{i}": 16 for i in range(7)}
    pcts = scaled_percentages(A100_40GB, needed, expand=True)
    assert weighted_sum(pcts) == 100
    assert max(pcts.values()) - min(pcts.values()) <= 1  # equal demand


def test_scaled_percentages_regression_floor_plus_ceil_overshoot():
    """Replicated shares: the overshoot compounded per *replica*.

    Three functions needing 30 SMs at 2 replicas each previously got
    ``ceil(100 * 30/180) = 17%`` per replica: 6 x 17 = 102%.
    """
    needed = {name: 30 for name in ("a", "b", "c")}
    counts = {name: 2 for name in needed}
    pcts = scaled_percentages(A100_40GB, needed, counts, expand=True)
    assert weighted_sum(pcts, counts) <= 100
    # Granularity: every +1 costs 2 weighted points, so the closest
    # reachable total is 100 exactly here (16/17/17 per replica).
    assert weighted_sum(pcts, counts) == 100


def test_scaled_percentages_never_oversubscribes_without_expand():
    needed = {"hot": 200, "cold": 90}  # far beyond one GPU
    pcts = scaled_percentages(A100_40GB, needed)
    assert weighted_sum(pcts) <= 100
    assert pcts["hot"] > pcts["cold"]


def test_scaled_percentages_floor_preserved():
    needed = {"whale": 500, **{f"krill{i}": 0 for i in range(6)}}
    pcts = scaled_percentages(A100_40GB, needed, expand=True)
    # 7 functions: the keep-warm floor min(5, 100 // 7) = 5 holds even
    # though the whale wants everything.
    assert all(p >= 5 for p in pcts.values())
    assert weighted_sum(pcts) <= 100
    assert pcts["whale"] == max(pcts.values())


def test_scaled_percentages_granularity_can_undershoot_100():
    """3+3 replicas: +1 costs 3 weighted points, so 99 is the max."""
    needed = {"hot": 40, "cold": 40}
    counts = {"hot": 3, "cold": 3}
    pcts = scaled_percentages(A100_40GB, needed, counts, expand=True)
    assert weighted_sum(pcts, counts) == 99


def test_scaled_percentages_rejects_impossible_replica_counts():
    with pytest.raises(ValueError, match="101 replicas"):
        scaled_percentages(A100_40GB, {"f": 10}, {"f": 101})
    with pytest.raises(ValueError, match="at least one replica"):
        scaled_percentages(A100_40GB, {"f": 10}, {"f": 0})


def test_required_sms_for_reports_infeasible():
    law = latency_law()  # serial floor 0.05 s
    sizing = required_sms_for(A100_40GB, law, slo_seconds=0.01,
                              demand_rps=1.0)
    assert sizing == A100_40GB.sms  # best effort unchanged
    assert isinstance(sizing, SizingResult)
    assert not sizing.feasible
    # And the happy path still carries an affirmative verdict.
    ok = required_sms_for(A100_40GB, law, slo_seconds=1.0, demand_rps=1.0)
    assert ok.feasible
    assert 1 <= ok < A100_40GB.sms


def test_sizing_result_is_arithmetically_an_int():
    sizing = SizingResult(40, feasible=False)
    assert sizing + 2 == 42
    assert sizing * 2 == 80
    assert round(100 * sizing / A100_40GB.sms) == 37
    assert "feasible=False" in repr(sizing)


def test_required_sms_for_bisect_matches_linear_scan():
    """The bisection answers exactly what the old scan answered."""
    law = latency_law(serial=0.02, work=3.0, saturation=60)

    def linear(slo, rps, ceiling=0.8):
        for sms in range(1, A100_40GB.sms + 1):
            lat = law(sms)
            if lat <= slo and rps * lat <= ceiling:
                return sms
        return A100_40GB.sms

    for slo in (0.05, 0.08, 0.1, 0.3, 1.0):
        for rps in (0.5, 2.0, 8.0, 20.0):
            got = required_sms_for(A100_40GB, law, slo, rps)
            assert got == linear(slo, rps), (slo, rps)


def test_required_sms_for_nonmonotone_curve_falls_back_to_scan():
    """A wobbly curve (cache cliff) must still get the exact answer."""

    def wobble(sms):
        # Non-monotone: a latency spike at 40-49 SMs.
        base = 2.0 / min(sms, 60) + 0.02
        return base + (0.5 if 40 <= sms < 50 else 0.0)

    got = required_sms_for(A100_40GB, wobble, slo_seconds=0.1,
                           demand_rps=1.0)
    # Exact smallest acceptable size, even though bisection landed
    # inside the spike region.
    assert got == min(s for s in range(1, A100_40GB.sms + 1)
                      if wobble(s) <= 0.1)
    assert got.feasible
