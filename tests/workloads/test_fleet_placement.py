"""One fleet, placed per mode: respawns keep placement, faults count once.

:class:`ServingFleet` is a one-function :class:`AutoscaledServingFleet`
whose replica slots :func:`~repro.workloads.fleet.placement` lays out by
sharing mode.  These tests pin what the merge must keep: a crashed
replica comes back in its own slot (same share group, same cap, same
fault domain), and the two fault-counting rules — a mode-built fleet's
``stats.faults`` counts every applied event, a named-function fleet
counts every event in ``faults`` and, per function, only the faults
that landed on it.
"""

import pytest

from repro.faas import ChaosController, FaultEvent, FaultPlan
from repro.faas.chaos import FAULT_KINDS
from repro.gpu.faults import domain_of
from repro.sim import Environment
from repro.workloads import (
    FLEET_MODES,
    AutoscaledServingFleet,
    FleetFunction,
    ServingFleet,
)


@pytest.mark.parametrize("mode", FLEET_MODES)
def test_respawn_keeps_placement(mode):
    env = Environment()
    fleet = ServingFleet(env, mode=mode, n_partitions=2,
                         servers_per_partition=2)
    device = fleet.device
    victim = fleet.replicas[3]  # second slot of the second partition
    before = victim.server.client
    fleet.apply_fault(FaultEvent(time=0.0, kind="replica_crash", target=3,
                                 duration=1.0))
    env.run(until=env.now + 2.0)
    assert victim.alive and victim.incarnations == 2
    after = victim.server.client
    assert after is not before and after.alive and not before.alive
    assert after.group is before.group
    assert after.sm_cap == before.sm_cap
    if mode == "mig-mps":
        # Back in the same MIG instance: the fault domain is unchanged,
        # and it is not the one the first partition's replicas share.
        assert after.group is not device.default_group
        assert domain_of(device, after.group).hardware_isolated
        assert domain_of(device, after.group) == \
            domain_of(device, before.group)
        assert after.group is not fleet.replicas[0].server.client.group
        assert after.sm_cap == after.group.sm_budget
    elif mode == "mps":
        # The flat daemon's equal share: round(100 / n_partitions) %.
        assert after.group is device.default_group
        assert after.group.discipline == "spatial"
        assert after.sm_cap == round(device.default_group.sm_budget
                                     * round(100 / 2) / 100)
    else:
        assert after.group is device.default_group
        assert after.group.discipline == "temporal"
        assert after.sm_cap == device.default_group.sm_budget


def every_kind_plan() -> FaultPlan:
    """One event of each kind, plus a crash of an already-down replica.

    Replica targets resolve over 4 replicas and function targets over
    2 functions, for both fleets under test."""
    events = [
        ("ecc", 0, 0.0, 1.0),
        ("replica_crash", 1, 100.0, 1.0),
        ("replica_crash", 1, 100.0, 1.0),    # already down: skipped
        ("straggler_replica", 2, 5.0, 2.0),
        ("straggler_device", 0, 5.0, 2.0),
        ("launch_failure", 3, 0.0, 1.0),
        ("reconfig_stall", 0, 1.0, 1.0),
        ("resize_stuck", 2, 10.0, 1.0),
        ("cache_load_failure", 0, 0.0, 1.0),
        ("sensor_dropout", 1, 10.0, 1.0),
        ("telemetry_corruption", 0, 10.0, 2.0),
    ]
    plan = FaultPlan(FaultEvent(time=1.0 + i, kind=kind, target=target,
                                duration=duration, factor=factor)
                     for i, (kind, target, duration, factor)
                     in enumerate(events))
    assert {e.kind for e in plan} == set(FAULT_KINDS)
    return plan


def every_event_counts() -> dict:
    counts = {kind: 1 for kind in FAULT_KINDS}
    counts["replica_crash"] = 2
    return counts


def test_mode_built_fleet_counts_every_applied_event():
    env = Environment()
    fleet = ServingFleet(env, mode="mps", n_partitions=2,
                         servers_per_partition=2)
    chaos = ChaosController(env, fleet, every_kind_plan())
    env.run(until=env.now + 20.0)
    assert len(chaos.applied) == 11
    assert fleet.stats.faults == every_event_counts()
    skipped = [desc for _t, kind, desc in chaos.applied
               if kind in FAULT_KINDS[6:]]
    assert len(skipped) == 4
    assert all("no control plane (skipped)" in d for d in skipped)
    assert "crash srv1: already down" in [d for _t, _k, d in chaos.applied]


def test_named_fleet_counts_events_and_landed_faults():
    env = Environment()
    fleet = AutoscaledServingFleet(env, [
        FleetFunction("hot", 2, slo_seconds=6.0, initial_pct=20),
        FleetFunction("cold", 2, slo_seconds=6.0, initial_pct=20)])
    chaos = ChaosController(env, fleet, every_kind_plan())
    env.run(until=env.now + 20.0)
    assert len(chaos.applied) == 11
    assert fleet.faults == every_event_counts()
    # Device-level kinds (ecc, straggler_device) and the crash of a
    # replica already down land on no function.
    assert fleet.groups["hot"].stats.faults == {
        "replica_crash": 1, "reconfig_stall": 1,
        "cache_load_failure": 1, "telemetry_corruption": 1}
    assert fleet.groups["cold"].stats.faults == {
        "straggler_replica": 1, "launch_failure": 1,
        "resize_stuck": 1, "sensor_dropout": 1}
