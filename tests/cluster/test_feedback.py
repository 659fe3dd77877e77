"""Tests for the fleet-to-cluster feedback adapter."""

import pytest

from repro.cluster import (
    ClusterFeedback,
    FunctionDemand,
    LatencyCurve,
    optimize_pack,
    placement_diff,
)
from repro.gpu import A100_80GB, V100_32GB
from repro.gpu.specs import GB
from repro.telemetry.streaming import WindowedRateSensor

INVENTORY = [(A100_80GB, 12), (V100_32GB, 4)]


def demand(name, rate=4.0, slo=0.5, model_gb=4.0):
    return FunctionDemand(
        name=name, slo_seconds=slo, rate_rps=rate,
        curve=LatencyCurve(work=2.0, serial=0.05, saturation=40),
        model_bytes=model_gb * GB)


def demands():
    return [demand("a", 6.0), demand("b", 3.0), demand("c", 1.0)]


# ------------------------------------------------------------------- sensor

def test_sensor_primes_then_rates():
    sensor = WindowedRateSensor()
    assert sensor.observe("f", 100.0, 10.0) is None  # priming
    assert sensor.observe("f", 130.0, 20.0) == pytest.approx(3.0)
    # Counter rewind (restart) re-primes instead of yielding a negative.
    assert sensor.observe("f", 5.0, 30.0) is None
    assert sensor.observe("f", 25.0, 40.0) == pytest.approx(2.0)
    # Stalled clock yields nothing rather than dividing by zero.
    assert sensor.observe("f", 50.0, 40.0) is None


# ----------------------------------------------------------------- feedback

def test_feedback_initial_plan_and_no_drift():
    loop = ClusterFeedback(demands(), INVENTORY)
    loop.placement.validate()
    assert loop.drift() == 0.0
    assert loop.replan() is None  # nothing sensed yet
    assert loop.replans == 0


def test_feedback_drift_triggers_replan():
    loop = ClusterFeedback(demands(), INVENTORY, drift_threshold=0.25)
    before = loop.placement.gpus_used
    # Prime, then double function "a"'s arrivals over the next minute.
    loop.observe_counters({"a": (0.0, 0.0), "b": (0.0, 0.0),
                           "c": (0.0, 0.0)})
    loop.observe_counters({"a": (12.0 * 60, 60.0), "b": (3.0 * 60, 60.0),
                           "c": (1.0 * 60, 60.0)})
    # EWMA with smoothing 0.5: sensed a-rate = (12 + 6) / 2 = 9.
    assert loop.rates["a"] == pytest.approx(9.0)
    assert loop.drift() == pytest.approx(0.5)
    diff = loop.replan(now=60.0)
    assert diff is not None
    assert diff["drift"] == pytest.approx(0.5)
    assert loop.replans == 1
    loop.placement.validate()
    assert loop.placement.gpus_used >= before  # more demand, more GPUs
    # The new plan absorbs the sensed rates; drift resets.
    assert loop.drift() == 0.0
    assert loop.replan(now=120.0) is None


def test_feedback_small_drift_is_ignored():
    loop = ClusterFeedback(demands(), INVENTORY, drift_threshold=0.5)
    loop.observe_counters({"a": (0.0, 0.0)})
    loop.observe_counters({"a": (7.0 * 60, 60.0)})  # 6 -> EWMA 6.5
    assert 0.0 < loop.drift() < 0.5
    assert loop.replan() is None
    # force=True replans regardless.
    assert loop.replan(force=True) is not None


def test_feedback_summary_shape():
    loop = ClusterFeedback(demands(), INVENTORY)
    summary = loop.summary()
    assert summary["replans"] == 0
    assert set(summary["rates"]) == {"a", "b", "c"}
    assert summary["score"]["gpus_used"] == loop.placement.gpus_used


def test_feedback_validation():
    with pytest.raises(ValueError):
        ClusterFeedback(demands(), INVENTORY, drift_threshold=0.0)
    with pytest.raises(ValueError):
        ClusterFeedback(demands(), INVENTORY, smoothing=0.0)


# ------------------------------------------------------------ placement diff

def test_placement_diff_counts_moves():
    base = demands()
    old = optimize_pack(base, INVENTORY)
    same = optimize_pack(base, INVENTORY)
    diff = placement_diff(old, same)
    assert diff["segments_added"] == diff["segments_removed"] == 0
    assert diff["functions_touched"] == []
    assert diff["gpus_freed"] == 0

    grown = [demand("a", 20.0)] + base[1:]
    new = optimize_pack(grown, INVENTORY)
    diff = placement_diff(old, new)
    assert diff["segments_added"] > 0
    assert "a" in diff["functions_touched"]
    assert diff["gpus_after"] == new.gpus_used
