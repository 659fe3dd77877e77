"""Differential harness: sharded simulation is bit-identical.

Three families of checks, each comparing *complete* deterministic
payloads (cells, merged counters, merged-stream digest, replayed
latency stats — everything except the ``execution`` section):

- a one-cell sharded run equals the legacy single-process engine
  verbatim, for every fleet mode, with and without a fault plan;
- a multi-cell run is invariant in shard count (1, 2, 7), in pooled vs
  in-process execution, and in epoch-barrier spacing;
- the same holds for the scale and autoscale scenarios.

Results are compared as sorted-key JSON dumps so a failure diff names
the exact divergent field.
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest

from repro.workloads.shardcells import (
    sharded_autoscale_report,
    sharded_fleet_report,
    sharded_scale_report,
)

SHARD_COUNTS = (1, 2, 7)

#: Small fleet topology: 2 partitions x 2 replicas keeps each run under
#: a couple of seconds while still exercising routing, chaos, and MIG
#: fault domains.
FLEET_KW = dict(n_partitions=2, servers_per_partition=2)
FLEET_REQUESTS = 100
FLEET_RATE = 3.4

SCALE_REQUESTS = 200  # -> 112 requests (1 per server) per cell
AUTOSCALE_HORIZON = 200.0


def payload(report: dict) -> str:
    """The deterministic half of a sharded report, canonically dumped."""
    return json.dumps({k: v for k, v in report.items() if k != "execution"},
                      sort_keys=True, default=repr)


@lru_cache(maxsize=None)
def fleet_sharded(mode: str, chaos: bool, n_cells: int, n_shards: int,
                  seed: int, use_processes: bool,
                  epoch_seconds: float = 60.0) -> str:
    return payload(sharded_fleet_report(
        mode, FLEET_REQUESTS, n_cells=n_cells, n_shards=n_shards,
        rate_rps=FLEET_RATE, seed=seed, chaos=chaos,
        epoch_seconds=epoch_seconds, use_processes=use_processes,
        **FLEET_KW))


# -- fleet: one cell == legacy engine ---------------------------------------

@pytest.mark.parametrize("mode", ("mig-mps", "mps", "timeshare"))
@pytest.mark.parametrize("chaos", (False, True),
                         ids=("no-faults", "chaos"))
def test_one_cell_matches_legacy_fleet(mode, chaos):
    from repro.bench.resilience_experiments import (
        canonical_fault_plan,
        run_resilient_fleet,
    )

    plan = (canonical_fault_plan(FLEET_REQUESTS / FLEET_RATE, seed=0)
            if chaos else None)
    legacy = run_resilient_fleet(mode, FLEET_REQUESTS, rate_rps=FLEET_RATE,
                                 seed=0, plan=plan, **FLEET_KW)
    sharded = sharded_fleet_report(mode, FLEET_REQUESTS, n_cells=1,
                                   n_shards=1, rate_rps=FLEET_RATE, seed=0,
                                   chaos=chaos, use_processes=False,
                                   **FLEET_KW)
    assert sharded["cells"][0] == legacy


def test_one_cell_pooled_matches_legacy_fleet():
    """``--shards 1`` in a real worker process still equals legacy."""
    from repro.bench.resilience_experiments import run_resilient_fleet

    legacy = run_resilient_fleet("mig-mps", FLEET_REQUESTS,
                                 rate_rps=FLEET_RATE, seed=0, **FLEET_KW)
    sharded = sharded_fleet_report("mig-mps", FLEET_REQUESTS, n_cells=1,
                                   n_shards=1, rate_rps=FLEET_RATE, seed=0,
                                   use_processes=True, **FLEET_KW)
    assert sharded["cells"][0] == legacy


# -- fleet: shard-count / epoch invariance ----------------------------------

@pytest.mark.parametrize("mode", ("mig-mps", "mps", "timeshare"))
@pytest.mark.parametrize("chaos", (False, True),
                         ids=("no-faults", "chaos"))
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_fleet_shard_count_invariance(mode, chaos, n_shards):
    reference = fleet_sharded(mode, chaos, 3, 1, 0, False)
    assert fleet_sharded(mode, chaos, 3, n_shards, 0, True) == reference


@pytest.mark.parametrize("seed", (0, 11))
def test_fleet_seed_sensitivity_and_stability(seed):
    """Twin runs agree; different seeds genuinely differ."""
    twin_a = fleet_sharded("mig-mps", True, 2, 2, seed, True)
    twin_b = payload(sharded_fleet_report(
        "mig-mps", FLEET_REQUESTS, n_cells=2, n_shards=2,
        rate_rps=FLEET_RATE, seed=seed, chaos=True, **FLEET_KW))
    assert twin_a == twin_b
    other = fleet_sharded("mig-mps", True, 2, 2, seed + 1, True)
    assert twin_a != other


def test_fleet_epoch_length_invariance():
    reference = fleet_sharded("mig-mps", True, 3, 1, 0, False)
    assert fleet_sharded("mig-mps", True, 3, 2, 0, True,
                         epoch_seconds=17.0) == reference


def test_adding_a_cell_never_perturbs_existing_cells():
    """Cell seeds come from named substreams: growing the fleet from 2
    to 3 cells leaves cells 0 and 1 bit-identical."""
    small = sharded_fleet_report("mig-mps", FLEET_REQUESTS, n_cells=2,
                                 n_shards=1, rate_rps=FLEET_RATE, seed=0,
                                 use_processes=False, **FLEET_KW)
    large = sharded_fleet_report("mig-mps", FLEET_REQUESTS, n_cells=3,
                                 n_shards=1, rate_rps=FLEET_RATE, seed=0,
                                 use_processes=False, **FLEET_KW)
    assert large["cells"][:2] == small["cells"]


# -- scale scenario ----------------------------------------------------------

def test_one_cell_matches_legacy_scale_engine():
    from repro.bench.scale_experiments import trace_serving_scale

    legacy = trace_serving_scale(SCALE_REQUESTS, seed=3, isolate=False)
    # Wall clock and RSS are measurements of the run, not of the model.
    for key in ("wall_seconds", "requests_per_sec", "tokens_per_sec",
                "events_per_sec", "rss_growth_kb"):
        legacy.pop(key)
    sharded = sharded_scale_report(1, 1, SCALE_REQUESTS, seed=3,
                                   use_processes=False)
    assert sharded["cells"][0] == legacy


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_scale_shard_count_invariance(n_shards):
    reference = scale_payload(3, 1, False, 60.0)
    assert scale_payload(3, n_shards, True, 60.0) == reference


def test_scale_epoch_length_invariance():
    assert scale_payload(3, 2, True, 13.0) == scale_payload(3, 1, False,
                                                            60.0)


@lru_cache(maxsize=None)
def scale_payload(n_cells: int, n_shards: int, use_processes: bool,
                  epoch_seconds: float) -> str:
    return payload(sharded_scale_report(
        n_cells, n_shards, SCALE_REQUESTS, seed=0,
        epoch_seconds=epoch_seconds, use_processes=use_processes))


# -- autoscale scenario ------------------------------------------------------

def test_one_cell_matches_legacy_autoscale():
    from repro.bench.autoscale_experiments import (
        STATIC_SMALL,
        run_autoscale_fleet,
    )

    legacy = run_autoscale_fleet(AUTOSCALE_HORIZON, True, STATIC_SMALL,
                                 seed=0)
    sharded = sharded_autoscale_report(AUTOSCALE_HORIZON, True,
                                       STATIC_SMALL, n_cells=1, n_shards=1,
                                       seed=0, use_processes=False)
    assert sharded["cells"][0] == legacy


@pytest.mark.parametrize("n_shards", (1, 2))
def test_autoscale_shard_count_invariance(n_shards):
    from repro.bench.autoscale_experiments import STATIC_SMALL

    reference = payload(sharded_autoscale_report(
        AUTOSCALE_HORIZON, True, STATIC_SMALL, n_cells=2, n_shards=1,
        seed=0, use_processes=False))
    pooled = payload(sharded_autoscale_report(
        AUTOSCALE_HORIZON, True, STATIC_SMALL, n_cells=2,
        n_shards=n_shards, seed=0, use_processes=True))
    assert pooled == reference


def test_merged_stream_is_complete_and_ordered():
    """The merged stream carries every completion exactly once, in
    canonical (time, cell_id) order."""
    out = sharded_fleet_report("mig-mps", FLEET_REQUESTS, n_cells=3,
                               n_shards=2, rate_rps=FLEET_RATE, seed=0,
                               **FLEET_KW)
    events = out["events"]
    assert len(events) == out["merged"]["n_events"] == \
        sum(c["latency"]["count"] for c in out["cells"])
    times = [ev[0] for ev in events]
    assert times == sorted(times)
