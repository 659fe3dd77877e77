"""Tests for task-graph export, critical path, and parallelism profile."""

import networkx as nx
import pytest

from repro.faas import (
    ColdStartModel,
    Config,
    DataFlowKernel,
    HighThroughputExecutor,
    python_app,
)
from repro.telemetry import critical_path, parallelism_profile, task_graph
from repro.workloads import CampaignConfig, MolecularDesignCampaign
from repro.gpu import A100_40GB
from repro.faas import LocalProvider
from tests.fresh import run_fresh

NO_COLD = ColdStartModel(function_init_seconds=0.0, gpu_context_seconds=0.0)


def make_dfk(workers=8):
    return DataFlowKernel(Config(executors=[
        HighThroughputExecutor(label="cpu", max_workers=workers,
                               cold_start=NO_COLD)]))


def diamond(dfk):
    """a -> (b, c) -> d with distinct runtimes."""

    @python_app(dfk=dfk, walltime=1.0)
    def a():
        return "a"

    @python_app(dfk=dfk, walltime=2.0)
    def b(x):
        return "b"

    @python_app(dfk=dfk, walltime=5.0)
    def c(x):
        return "c"

    @python_app(dfk=dfk, walltime=1.0)
    def d(x, y):
        return "d"

    fa = a()
    fb, fc = b(fa), c(fa)
    fd = d(fb, fc)
    dfk.run()
    return fa, fb, fc, fd


def test_task_graph_structure():
    dfk = make_dfk()
    fa, fb, fc, fd = diamond(dfk)
    graph = task_graph(dfk)
    assert graph.number_of_nodes() == 4
    assert graph.number_of_edges() == 4
    assert nx.is_directed_acyclic_graph(graph)
    assert graph.has_edge(fa.task.tid, fb.task.tid)
    assert graph.has_edge(fc.task.tid, fd.task.tid)
    assert graph.nodes[fc.task.tid]["run_seconds"] == pytest.approx(5.0)
    assert graph.nodes[fa.task.tid]["app"] == "a"


def test_critical_path_picks_heavier_branch():
    dfk = make_dfk()
    fa, fb, fc, fd = diamond(dfk)
    path, seconds = critical_path(dfk)
    assert path == [fa.task.tid, fc.task.tid, fd.task.tid]
    assert seconds == pytest.approx(1.0 + 5.0 + 1.0)
    # The run's makespan equals the critical path (enough workers).
    assert dfk.env.now == pytest.approx(seconds)


def test_critical_path_empty_dfk():
    dfk = make_dfk()
    assert critical_path(dfk) == ([], 0.0)


def test_parallelism_profile_diamond():
    dfk = make_dfk()
    diamond(dfk)
    profile = parallelism_profile(dfk, resolution=0.5)
    counts = dict(profile)
    # During (1, 3): b and c overlap.
    assert counts[2.0] == 2
    # During (3, 6): only c runs.
    assert counts[4.0] == 1
    with pytest.raises(ValueError):
        parallelism_profile(dfk, resolution=0.0)


def test_campaign_critical_path_is_the_sim_train_spine():
    """Fig. 3's structure: the critical path alternates simulation and
    GPU phases — the serial spine that keeps the GPU idle."""
    cpu = HighThroughputExecutor(label="cpu", max_workers=8,
                                 cold_start=NO_COLD)
    gpu = HighThroughputExecutor(
        label="gpu", available_accelerators=["0"], cold_start=NO_COLD,
        provider=LocalProvider(cores=8, gpu_specs=[A100_40GB]))
    dfk = DataFlowKernel(Config(executors=[cpu, gpu]))
    campaign = MolecularDesignCampaign(
        dfk, CampaignConfig(n_initial=8, n_rounds=2,
                            simulations_per_round=4,
                            candidate_pool_size=64))
    campaign.run_to_completion()
    path, seconds = critical_path(dfk)
    apps = [task_graph(dfk).nodes[t]["app"] for t in path]
    # Simulation dominates the critical path, and GPU tasks appear on it.
    assert apps.count("simulation") >= 1
    assert seconds > 0
    # The path is a real dependency chain.
    graph = task_graph(dfk)
    for upstream, downstream in zip(path, path[1:]):
        assert graph.has_edge(upstream, downstream)


WITHOUT_NETWORKX = """
import sys

sys.modules["networkx"] = None  # any `import networkx` now raises

import repro.faas.chaos
import repro.telemetry
import repro.workloads.fleet
from repro.bench.resilience_experiments import (
    canonical_fault_plan,
    run_resilient_fleet,
)
from repro.faas import Config, DataFlowKernel, HighThroughputExecutor
from repro.telemetry import critical_path

# A ServingFleet episode under the canonical data-plane fault plan.
report = run_resilient_fleet("mig-mps", 40, seed=3,
                             plan=canonical_fault_plan(40 / 3.4, seed=3))
assert report["offered"] == 40 and report["lost"] == 0, report
dfk = DataFlowKernel(Config(executors=[HighThroughputExecutor(label="cpu")]))
try:
    critical_path(dfk)
except ImportError as exc:
    print(exc)
else:
    raise SystemExit("critical_path ran without networkx")
"""


def test_serving_runs_without_networkx():
    """networkx is a test extra: a chaos-serving episode needs only
    numpy, and graph analysis names the missing package."""
    message = run_fresh(WITHOUT_NETWORKX)
    assert "networkx" in message
    assert "only task-graph analysis" in message
