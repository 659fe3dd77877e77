"""Tests for the online repartitioning control plane (§7, closed loop).

Covers the :class:`AutoscaledServingFleet` (live resizes, weight-cache
standing references, provisioned-capacity accounting) and the
:class:`FleetAutoscaler` that drives it (windowed sensing, cooldown
gating, rolling MPS waves, the MIG global-teardown alternative).
"""

import json

import pytest

from repro.partition.reconfig import ReconfigurationPlanner
from repro.sim import Environment
from repro.workloads import (
    AutoscaledServingFleet,
    FleetAutoscaler,
    FleetFunction,
    OpenLoopClient,
    iter_poisson_trace,
)

def make_fleet(weight_cache=True, n_replicas=2, pct=20, seed=0):
    env = Environment()
    functions = [
        FleetFunction("hot", n_replicas, slo_seconds=6.0, initial_pct=pct,
                      n_tokens=8),
        FleetFunction("cold", n_replicas, slo_seconds=6.0, initial_pct=pct,
                      n_tokens=8),
    ]
    fleet = AutoscaledServingFleet(env, functions, seed=seed,
                                   weight_cache=weight_cache)
    return env, fleet


def drive(env, fleet, name, rate, horizon, seed=1, start=0.0):
    """Poisson arrivals at ``rate`` over ``[start, start + horizon)``."""
    group = fleet.groups[name]
    return OpenLoopClient(env, group.router, n_tokens=group.n_tokens,
                          streaming=True,
                          arrivals=(start + t for t in iter_poisson_trace(
                              rate, horizon, seed=seed)))


# ------------------------------------------------------- fleet construction

def test_fleet_validation():
    env = Environment()
    with pytest.raises(ValueError, match="at least one"):
        AutoscaledServingFleet(env, [])
    fn = FleetFunction("f", 1, slo_seconds=1.0, initial_pct=10)
    with pytest.raises(ValueError, match="unique"):
        AutoscaledServingFleet(env, [fn, fn])
    with pytest.raises(ValueError):
        FleetFunction("g", 0, slo_seconds=1.0, initial_pct=10)
    with pytest.raises(ValueError):
        FleetFunction("g", 1, slo_seconds=0.0, initial_pct=10)
    with pytest.raises(ValueError):
        FleetFunction("g", 1, slo_seconds=1.0, initial_pct=0)


def test_fleet_holds_standing_weight_references():
    env, fleet = make_fleet()
    cache = fleet.weight_cache
    # One resident entry per function, pinned for the fleet's lifetime.
    resident = cache.resident_keys(
        fleet.groups["hot"].replicas[0].server.client)
    assert sorted(resident) == ["cold", "hot"]
    assert fleet.n_replicas == 4


def test_fleet_routes_per_function():
    env, fleet = make_fleet()
    req = fleet.submit("hot")
    env.run(until=req.done)
    assert req.outcome == "ok"
    assert fleet.groups["hot"].stats.offered == 1
    assert fleet.groups["cold"].stats.offered == 0


# ------------------------------------------------------------- live resize

def test_resize_replica_pays_restart_but_not_reload_on_cache_hit():
    env, fleet = make_fleet(weight_cache=True)
    planner = ReconfigurationPlanner(fleet.device.spec)
    group = fleet.groups["hot"]
    replica = group.replicas[0]
    old_client = replica.server.client
    proc = env.process(fleet.resize_replica("hot", replica, 35, planner))
    result = env.run(until=proc)
    assert result["weight_cache_hit"] is True
    assert result["from_pct"] == 20 and result["to_pct"] == 35
    # Downtime = teardown + worker start; the reload is cached away.
    expected = planner.TEARDOWN_SECONDS + \
        planner.cold_start.worker_start_seconds(True)
    assert result["downtime_seconds"] == pytest.approx(expected)
    assert replica.server.client is not old_client
    assert group.pct_by_replica[0] == 35
    # Identity survives: same Replica object, same breaker, router slot.
    assert group.router.replicas[0] is replica
    req = fleet.submit("hot")
    env.run(until=req.done)
    assert req.outcome == "ok"


def test_resize_replica_pays_the_reload_without_the_cache():
    env, fleet = make_fleet(weight_cache=False)
    planner = ReconfigurationPlanner(fleet.device.spec)
    group = fleet.groups["hot"]
    proc = env.process(
        fleet.resize_replica("hot", group.replicas[0], 35, planner))
    result = env.run(until=proc)
    assert result["weight_cache_hit"] is False
    expected = planner.TEARDOWN_SECONDS + \
        planner.cold_start.worker_start_seconds(True) + \
        group.model_load_seconds
    assert result["downtime_seconds"] == pytest.approx(expected)


def test_resize_replica_completes_inflight_work_exactly_once():
    env, fleet = make_fleet()
    planner = ReconfigurationPlanner(fleet.device.spec)
    group = fleet.groups["hot"]
    requests = [fleet.submit("hot") for _ in range(4)]
    env.run(until=env.now + 0.01)  # kernels in flight on both replicas
    procs = [env.process(fleet.resize_replica("hot", r, 30, planner))
             for r in group.replicas]
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    assert group.stats.lost == 0
    assert all(p.value["weight_cache_hit"] for p in procs)
    # Concurrent sibling resizes left the standing references intact:
    # both functions' weights are still resident in the shared pool.
    resident = fleet.weight_cache.resident_keys(
        group.replicas[0].server.client)
    assert sorted(resident) == ["cold", "hot"]


def test_resize_replica_on_dead_replica_returns_none():
    env, fleet = make_fleet()
    planner = ReconfigurationPlanner(fleet.device.spec)
    group = fleet.groups["hot"]
    group.replicas[0].server.crash()
    env.run(until=env.now + 0.001)
    proc = env.process(
        fleet.resize_replica("hot", group.replicas[0], 30, planner))
    assert env.run(until=proc) is None


def test_provisioned_gpu_seconds_tracks_resizes():
    env, fleet = make_fleet(n_replicas=1, pct=20)  # 2 functions x 20%
    planner = ReconfigurationPlanner(fleet.device.spec)
    env.run(until=10.0)
    assert fleet.provisioned_gpu_seconds() == pytest.approx(4.0)  # 40%*10s
    group = fleet.groups["hot"]
    proc = env.process(
        fleet.resize_replica("hot", group.replicas[0], 40, planner))
    env.run(until=proc)
    restart = planner.TEARDOWN_SECONDS + \
        planner.cold_start.worker_start_seconds(True)
    env.run(until=env.now + 10.0)
    # The restart window provisions nothing for the resized replica.
    expected = 4.0 + 0.2 * restart + 0.6 * 10.0
    assert fleet.provisioned_gpu_seconds() == pytest.approx(expected)


# --------------------------------------------------------- controller loop

def test_autoscaler_validation():
    env, fleet = make_fleet()
    with pytest.raises(ValueError, match="technique"):
        FleetAutoscaler(fleet, technique="vgpu")
    with pytest.raises(ValueError, match="waves"):
        FleetAutoscaler(fleet, waves=0)
    with pytest.raises(ValueError, match="slo_bypass_factor"):
        FleetAutoscaler(fleet, slo_bypass_factor=2.0)
    with pytest.raises(ValueError, match="intervals"):
        FleetAutoscaler(fleet, interval_seconds=0.0)
    # A drift threshold below one point resizes without drift: every
    # tick would restart every replica at its unchanged share.
    for threshold in (0, -1):
        with pytest.raises(ValueError, match="change_threshold_pct"):
            FleetAutoscaler(fleet, change_threshold_pct=threshold)
    # An out-of-range keep-warm floor is an error, not a silent clamp.
    for floor in (0, 101):
        with pytest.raises(ValueError, match="min_percentage"):
            FleetAutoscaler(fleet, min_percentage=floor)
    scaler = FleetAutoscaler(fleet, interval_seconds=10.0)
    scaler.start()
    with pytest.raises(RuntimeError, match="already started"):
        scaler.start()
    env.run(until=25.0)
    scaler.stop()
    decided = len(scaler.decisions)
    assert decided >= 1
    env.run(until=100.0)
    assert len(scaler.decisions) == decided  # stop() halts the loop
    scaler.stop()  # idempotent


def test_autoscaler_shifts_shares_toward_the_loaded_function():
    env, fleet = make_fleet(pct=20)
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=0.0)
    scaler.start()
    hot = drive(env, fleet, "hot", rate=1.2, horizon=200.0, seed=1)
    cold = drive(env, fleet, "cold", rate=0.05, horizon=200.0, seed=2)
    env.run(until=env.all_of([hot.done, cold.done]))
    scaler.stop()
    assert scaler.reconfigurations >= 1
    assert fleet.groups["hot"].current_pct > fleet.groups["cold"].current_pct
    reports = fleet.report(env.now)
    assert sum(r["lost"] for r in reports.values()) == 0
    # Every restart hit the standing weight cache.
    assert scaler.weight_cache_hits == scaler.replica_restarts > 0


def test_first_decision_is_not_cooldown_gated():
    """A huge cooldown must not suppress the initial fit."""
    env, fleet = make_fleet(pct=20)
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=10_000.0)
    scaler.start()
    drive(env, fleet, "hot", rate=1.2, horizon=60.0, seed=1)
    drive(env, fleet, "cold", rate=0.05, horizon=60.0, seed=2)
    env.run(until=60.0)
    scaler.stop()
    assert scaler.reconfigurations >= 1
    assert scaler.decisions[0].applied
    assert scaler.decisions[0].reason == "repartitioned"


def test_cooldown_blocks_rapid_changes():
    env, fleet = make_fleet(pct=20)
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=1000.0)
    scaler.start()
    drive(env, fleet, "hot", rate=1.2, horizon=100.0, seed=1)
    drive(env, fleet, "cold", rate=0.05, horizon=100.0, seed=2)
    env.run(until=100.0)
    assert sum(d.applied for d in scaler.decisions) == 1
    # Flip the demand: the change is deferred by the cooldown.
    drive(env, fleet, "hot", rate=0.05, horizon=100.0, seed=3, start=100.0)
    drive(env, fleet, "cold", rate=1.2, horizon=100.0, seed=4, start=100.0)
    env.run(until=200.0)
    scaler.stop()
    after_flip = [d for d in scaler.decisions if d.time > 100.0]
    assert after_flip
    assert all(d.reason == "cooldown" for d in after_flip)
    assert sum(d.applied for d in scaler.decisions) == 1


def test_slo_violation_halves_the_cooldown():
    """A/B: the bypass factor lets a burning SLO repartition sooner."""

    def run(bypass_factor):
        env, fleet = make_fleet(pct=20)
        scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                                 cooldown_seconds=200.0,
                                 slo_bypass_factor=bypass_factor)
        scaler.start()
        drive(env, fleet, "hot", rate=1.2, horizon=200.0, seed=1)
        # "cold" is silent until the first decision has shrunk it to
        # its sliver, then floods it: its window P95 breaks the SLO.
        drive(env, fleet, "cold", rate=3.0, horizon=140.0, seed=4,
              start=60.0)
        env.run(until=200.0)
        scaler.stop()
        return scaler

    bypassing = run(0.5)
    strict = run(1.0)
    # With the bypass the second resize fires after half the cooldown
    # (~100 s); without it the full 200 s still gates at t=200.
    assert sum(d.applied for d in strict.decisions) == 1
    assert sum(d.applied for d in bypassing.decisions) == 2
    assert any(d.reason == "slo-bypass repartition"
               for d in bypassing.decisions)
    # Early ticks inside the shrunk window were still cooldown-gated.
    assert any(d.reason == "cooldown" for d in bypassing.decisions)


def test_autoscaler_stable_demand_no_thrashing():
    env, fleet = make_fleet(pct=20)
    # The threshold sits above the Poisson noise of one 60 s window's
    # rate estimate, so equal demand reads as equal demand.
    scaler = FleetAutoscaler(fleet, interval_seconds=60.0,
                             cooldown_seconds=0.0, change_threshold_pct=10)
    scaler.start()
    drive(env, fleet, "hot", rate=0.6, horizon=600.0, seed=1)
    drive(env, fleet, "cold", rate=0.6, horizon=600.0, seed=2)
    env.run(until=130.0)
    first = scaler.reconfigurations
    assert first >= 1
    held = len(scaler.decisions)
    env.run(until=600.0)
    scaler.stop()
    # After converging, no further repartitions occur.
    assert scaler.reconfigurations == first
    assert len(scaler.decisions) > held
    assert all(not d.applied and d.reason == "within threshold"
               for d in scaler.decisions[held:])


def test_rates_divide_by_the_true_window_after_an_actuation():
    """A tick that actuates delays the next one, whose window then
    spans the interval plus the actuation.  With a cooldown short
    enough to act on that tick (``cooldown * slo_bypass_factor <=
    interval``) the rate must be read over the true window: the
    interval would overstate the hot demand and repartition."""
    env, fleet = make_fleet()
    ticks = []  # published offered counts at each sensor read
    published = fleet.sensor_snapshot

    def spy(name):
        offered, as_of = published(name)
        if name == "hot":
            ticks.append({"time": env.now})
        ticks[-1][name] = offered
        return offered, as_of

    fleet.sensor_snapshot = spy
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=0.0)
    scaler.start()
    drive(env, fleet, "hot", rate=1.0, horizon=200.0, seed=1)
    drive(env, fleet, "cold", rate=0.2, horizon=200.0, seed=2)
    env.run(until=90.0)
    # ticks[0] primes at construction; decision i senses at ticks[i + 1].
    assert [d.applied for d in scaler.decisions[:3]] == [True, True, False]
    before, after = ticks[2], ticks[3]
    window = after["time"] - before["time"]
    assert window > scaler.interval + 5.0  # stretched by the resize

    def rates(seconds):
        return {name: (after[name] - before[name]) / seconds
                for name in ("hot", "cold")}

    decision = scaler.decisions[2]
    assert decision.percentages == scaler.desired_percentages(rates(window))
    assert decision.reason == "within threshold"
    # Divided by the interval, the same counts would have moved the hot
    # share past the change threshold and restarted replicas.
    overstated = scaler.desired_percentages(rates(scaler.interval))
    assert overstated["hot"] - fleet.groups["hot"].current_pct >= \
        scaler.change_threshold


def test_autoscaler_is_deterministic_across_twin_runs():
    def run_once():
        env, fleet = make_fleet(pct=20, seed=3)
        scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                                 cooldown_seconds=40.0)
        scaler.start()
        hot = drive(env, fleet, "hot", rate=1.0, horizon=150.0, seed=1)
        cold = drive(env, fleet, "cold", rate=0.1, horizon=150.0, seed=2)
        env.run(until=env.all_of([hot.done, cold.done]))
        scaler.stop()
        payload = {"summary": scaler.summary(),
                   "log": scaler.reconfig_log,
                   "report": fleet.report(env.now),
                   "events": env.events_processed}
        return json.dumps(payload, sort_keys=True)

    assert run_once() == run_once()


def test_reconfig_log_costs_match_the_executed_timeline():
    env, fleet = make_fleet(pct=20)
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=0.0, waves=2)
    scaler.start()
    hot = drive(env, fleet, "hot", rate=1.2, horizon=120.0, seed=1)
    cold = drive(env, fleet, "cold", rate=0.05, horizon=120.0, seed=2)
    env.run(until=env.all_of([hot.done, cold.done]))
    scaler.stop()
    assert scaler.reconfig_log
    restart = scaler.planner.TEARDOWN_SECONDS + \
        scaler.planner.cold_start.worker_start_seconds(True)
    for entry in scaler.reconfig_log:
        cost = entry["cost"]
        assert cost["technique"] == "mps"
        assert not cost["disturbs_cotenants"]
        floor = cost["teardown_seconds"] + cost["restart_seconds"]
        for replica_entry in entry["replicas"]:
            # Cache hit: measured downtime is the analytic teardown +
            # restart plus however long the drain waited on in-flight
            # kernels — never less, and never a reload on top.
            assert replica_entry["weight_cache_hit"]
            assert replica_entry["downtime_seconds"] >= floor - 1e-9
        assert cost["model_reload_seconds"] == 0.0
        assert entry["downtime_seconds"] == pytest.approx(sum(
            r["downtime_seconds"] for r in entry["replicas"]))


def test_mig_technique_forces_reloads_and_disturbs_everyone():
    env, fleet = make_fleet(pct=20)
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=0.0, technique="mig")
    scaler.start()
    hot = drive(env, fleet, "hot", rate=1.2, horizon=120.0, seed=1)
    cold = drive(env, fleet, "cold", rate=0.05, horizon=120.0, seed=2)
    env.run(until=env.all_of([hot.done, cold.done]))
    scaler.stop()
    assert scaler.reconfigurations >= 1
    # The repartition destroyed the instances' memory pools: the cache
    # cannot help, and *every* function was torn down, hot and cold.
    assert scaler.weight_cache_hits == 0
    resized = {entry["function"] for entry in scaler.reconfig_log}
    assert resized == {"hot", "cold"}
    for entry in scaler.reconfig_log:
        assert entry["technique"] == "mig"
        assert entry["cost"]["reset_seconds"] == fleet.device.spec.reset_seconds
    reports = fleet.report(env.now)
    assert sum(r["lost"] for r in reports.values()) == 0


def test_quiet_fleet_never_reconfigures():
    env, fleet = make_fleet(pct=20)
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=0.0)
    scaler.start()
    env.run(until=100.0)
    scaler.stop()
    # Zero demand maps every function to the minimum sliver; from the
    # expand-normalised layout that is a real repartition at most once,
    # then the controller holds steady.
    assert scaler.reconfigurations <= len(fleet.groups)
    assert all(d.reason in ("within threshold", "repartitioned")
               for d in scaler.decisions)


# ------------------------------------------------ control-plane resilience

def test_autoscaler_resilience_knob_validation():
    env, fleet = make_fleet()
    with pytest.raises(ValueError, match="watchdog"):
        FleetAutoscaler(fleet, resize_watchdog_seconds=0.0)
    with pytest.raises(ValueError, match="breaker_threshold"):
        FleetAutoscaler(fleet, resize_breaker_threshold=0)
    with pytest.raises(ValueError, match="stale"):
        FleetAutoscaler(fleet, sensor_stale_after_seconds=0.0)


def test_sensor_dropout_puts_the_loop_in_degraded_mode():
    from repro.faas import FaultEvent
    env, fleet = make_fleet(pct=20)
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=0.0)
    scaler.start()
    hot = drive(env, fleet, "hot", rate=1.0, horizon=150.0, seed=1)
    env.run(until=30.0)
    fleet.apply_fault(FaultEvent(time=env.now, kind="sensor_dropout",
                                 target=0, duration=80.0))
    env.run(until=hot.done)
    scaler.stop()
    degraded = [d for d in scaler.decisions
                if d.reason.startswith("degraded")]
    assert degraded
    assert any("hot: stale sensor" in d.reason for d in degraded)
    # Recovery step absorbed: the tick after the fault clears re-baselines
    # instead of reading the catch-up delta as a demand spike.
    assert any("sensor re-baseline" in d.reason for d in degraded)
    # Degraded ticks hold the last safe shares and actuate nothing.
    for d in degraded:
        assert not d.applied
    summary = scaler.summary()
    assert summary["degraded_ticks"] == len(degraded)
    assert summary["degraded_seconds"] == pytest.approx(
        len(degraded) * 20.0)
    assert 0.0 < summary["degraded_fraction"] < 1.0
    reports = fleet.report(env.now)
    assert sum(r["lost"] for r in reports.values()) == 0


def test_repeated_drain_timeouts_trip_the_resize_breaker():
    from repro.faas import FaultEvent
    env, fleet = make_fleet(pct=20)
    # Hold every replica's drain until further notice: every resize
    # cycle can only end in a watchdog abort.
    for target in range(4):
        fleet.apply_fault(FaultEvent(time=0.0, kind="resize_stuck",
                                     target=target, duration=0.0))
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=0.0,
                             resize_watchdog_seconds=4.0,
                             resize_max_retries=1,
                             resize_breaker_threshold=2)
    scaler.start()
    hot = drive(env, fleet, "hot", rate=1.2, horizon=200.0, seed=1)
    env.run(until=hot.done)
    scaler.stop()
    summary = scaler.summary()
    assert summary["resize_attempts"] >= summary["resize_aborts"] >= 2
    # Every abort rolled back provably clean.
    assert summary["resize_rollbacks"] == summary["resize_aborts"]
    assert summary["resize_breaker_opens"] >= 1
    assert scaler.reconfigurations == 0  # nothing ever committed
    assert any(d.reason == "resize aborted: drain watchdog"
               for d in scaler.decisions)
    # Once open, the breaker takes the function out of actuation.
    assert any(d.reason.startswith("resize-breaker open")
               for d in scaler.decisions)
    # Shares never moved and nothing was lost while the loop flailed.
    assert all(g.current_pct == 20 for g in fleet.groups.values())
    reports = fleet.report(env.now)
    assert sum(r["lost"] for r in reports.values()) == 0


def test_desired_percentages_guards_empty_pools_and_missing_rates():
    env, fleet = make_fleet()
    scaler = FleetAutoscaler(fleet)
    fleet.groups["hot"].replicas.clear()  # pathological: no pool at all
    desired = scaler.desired_percentages({"cold": 0.5})  # "hot" missing too
    assert set(desired) == {"hot", "cold"}
    assert all(pct >= scaler.min_percentage for pct in desired.values())


def test_summary_counters_are_consistent():
    env, fleet = make_fleet(pct=20)
    scaler = FleetAutoscaler(fleet, interval_seconds=20.0,
                             cooldown_seconds=0.0)
    scaler.start()
    hot = drive(env, fleet, "hot", rate=1.0, horizon=100.0, seed=1)
    env.run(until=hot.done)
    scaler.stop()
    summary = scaler.summary()
    assert summary["ticks"] == len(scaler.decisions)
    assert summary["applied"] == sum(d.applied for d in scaler.decisions)
    assert summary["replica_restarts"] == sum(
        len(e["replicas"]) for e in scaler.reconfig_log)
    if summary["replica_restarts"]:
        assert summary["mean_restart_downtime"] == pytest.approx(
            summary["reconfiguration_downtime"]
            / summary["replica_restarts"])
