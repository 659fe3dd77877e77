"""Streaming accumulators vs their batch counterparts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.numerics import KahanSum
from repro.telemetry import summarize
from repro.telemetry.streaming import P2Quantile, StreamingLatencyStats


# ------------------------------------------------------------------ P2

def test_p2_small_samples_match_numpy_exactly():
    xs = [4.0, 1.0, 3.0, 2.0, 5.0]
    for p in (0.5, 0.95, 0.99):
        est = P2Quantile(p)
        for i, x in enumerate(xs):
            est.add(x)
            # Fewer than six samples: exact linear interpolation.
            expect = float(np.percentile(xs[: i + 1], 100 * p))
            assert est.value == pytest.approx(expect)


@pytest.mark.parametrize("dist,args", [
    ("uniform", (0.0, 10.0)),
    ("exponential", (2.0,)),
    ("normal", (5.0, 1.0)),
])
@pytest.mark.parametrize("p", [0.5, 0.95, 0.99])
def test_p2_accuracy_vs_numpy(dist, args, p):
    """Within a few percent of the exact sample quantile at n=20k."""
    rng = np.random.default_rng(7)
    xs = getattr(rng, dist)(*args, size=20_000)
    est = P2Quantile(p)
    for x in xs:
        est.add(float(x))
    exact = float(np.percentile(xs, 100 * p))
    spread = float(np.percentile(xs, 99.5) - np.percentile(xs, 0.5))
    assert est.value == pytest.approx(exact, abs=0.05 * spread)
    assert est.count == len(xs)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=200))
@settings(max_examples=50, deadline=None)
def test_p2_estimate_stays_within_sample_range(xs):
    est = P2Quantile(0.95)
    for x in xs:
        est.add(x)
    assert min(xs) <= est.value <= max(xs)


def test_p2_rejects_bad_quantile():
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            P2Quantile(p)
    with pytest.raises(ValueError):
        P2Quantile(0.5).value


# ------------------------------------------------------ latency stats

def test_streaming_latency_stats_vs_summarize():
    rng = np.random.default_rng(11)
    lats = [float(x) for x in rng.exponential(0.5, size=5_000)]
    stats = StreamingLatencyStats()
    for x in lats:
        stats.add(x)
    batch = summarize(lats)
    s = stats.stats()
    assert s.count == batch.count
    assert s.mean == pytest.approx(batch.mean, rel=1e-12)
    assert s.minimum == batch.minimum
    assert s.maximum == batch.maximum
    for name in ("p50", "p95", "p99"):
        assert getattr(s, name) == pytest.approx(getattr(batch, name),
                                                 rel=0.1)


def test_streaming_latency_stats_rejects_negative():
    stats = StreamingLatencyStats()
    with pytest.raises(ValueError):
        stats.add(-1.0)
    with pytest.raises(ValueError):
        stats.stats()


# -------------------------------------------------------------- kahan

def test_kahan_survives_tiny_increments():
    """The conservation failure mode the naive sum exhibits at scale."""
    naive = 1e9
    kahan = KahanSum(1e9)
    for _ in range(1_000_000):
        naive += 1e-9
        kahan.add(1e-9)
    assert kahan.value == pytest.approx(1e9 + 1e-3, rel=1e-12)
    # The naive total lost a visible fraction of the increments.
    assert abs(naive - (1e9 + 1e-3)) > 1e-4
