"""Tests of the benchmark itself, at ``--smoke`` sizes.

    python -m pytest perf/tests -q
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

from compare import exact_verdict, host_verdict
from scenarios import WORKLOADS, episode_digest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
NAMES = [w["name"] for w in BENCH["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3


def _run(*args, timeout=170) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Lazily made smoke runs, keyed by (workload, kind)."""
    cache: dict = {}
    tmp = tmp_path_factory.mktemp("perf")

    def get(name: str, kind: str):
        key = (name, kind)
        if key not in cache:
            if kind == "twin":
                proc = _run(os.path.join(PERF, "child.py"), "measure",
                            "--workload", name, "--seed", str(SEED),
                            "--smoke")
                assert proc.returncode == 0, proc.stderr
                cache[key] = json.loads(proc.stdout.splitlines()[-1])
            else:
                out = tmp / f"{name}-{kind}.json"
                proc = _run(os.path.join(PERF, "run.py"), "--workload", name,
                            "--seed", str(SEED), "--smoke",
                            "--trace", "1" if kind == "traced" else "0",
                            "--out", str(out))
                assert proc.returncode == 0, proc.stderr
                with open(out, encoding="utf-8") as fh:
                    record = json.load(fh)["runs"][0]
                cache[key] = (proc.stdout, record)
        return cache[key]

    return get


@pytest.mark.parametrize("kind,section", [("plain", "end_to_end"),
                                          ("traced", "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_emitted_metrics_are_the_declared_ones(runs, name, kind, section):
    stdout, _record = runs(name, kind)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert set(last["metrics"]) == set(declared)
    for metric, entry in last["metrics"].items():
        assert NAME_RE.fullmatch(metric)
        assert entry["unit"] == declared[metric]
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])
        line = rf"^  {re.escape(metric)} .* {re.escape(entry['unit'])}$"
        assert re.search(line, stdout, re.MULTILINE)


def test_benchmark_names_are_well_formed():
    names = ([w["name"] for w in BENCH["workloads"]]
             + [m["name"] for m in BENCH["end_to_end"]]
             + [m["name"] for m in BENCH["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64
    assert set(NAMES) == set(WORKLOADS)


def _serialise(obj) -> bytes:
    if isinstance(obj, np.ndarray):
        return obj.dtype.str.encode() + obj.tobytes()
    if isinstance(obj, dict):
        return b"{" + b",".join(k.encode() + b":" + _serialise(v)
                                for k, v in sorted(obj.items())) + b"}"
    if isinstance(obj, list):
        return b"[" + b",".join(_serialise(v) for v in obj) + b"]"
    if hasattr(obj, "to_json"):
        return obj.to_json().encode()
    return repr(obj).encode()


@pytest.mark.parametrize("name", NAMES)
def test_fixed_seed_gives_byte_identical_inputs(name):
    wl = WORKLOADS[name]
    first = [_serialise(wl.inputs(SEED, k, False)) for k in range(2)]
    again = [_serialise(wl.inputs(SEED, k, False)) for k in range(2)]
    assert first == again
    assert first[0] != first[1]
    assert _serialise(wl.inputs(SEED + 1, 0, False)) != first[0]


@pytest.mark.parametrize("name", NAMES)
def test_twin_runs_give_identical_payloads(runs, name):
    _stdout, record = runs(name, "plain")
    twin = runs(name, "twin")
    assert twin["payload"] == record["payload"]
    assert twin["counters"] == record["counters"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_run(runs, name):
    _stdout, plain = runs(name, "plain")
    _stdout, traced = runs(name, "traced")
    assert traced["payload"] == plain["payload"]
    check = traced["checks"]["traced run reproduces the untraced digest"]
    assert check["failed"] == 0 and check["passed"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_trace_covers_the_run(runs, name):
    _stdout, traced = runs(name, "traced")
    assert traced["metrics"]["trace.coverage"] >= 0.99


@pytest.mark.parametrize("name", NAMES)
def test_slicing_leaves_the_episode_unchanged(name):
    wl = WORKLOADS[name]
    inputs = wl.inputs(SEED, 0, True)
    whole = wl.build(inputs)
    whole.env.run(until=whole.done)
    sliced = wl.build(inputs)
    slices = []
    sliced.run(lambda fn: slices.append(fn()))
    assert len(slices) > 10
    whole, sliced = whole.result(), sliced.result()
    assert episode_digest(sliced) == episode_digest(whole)
    assert sliced["counters"] == whole["counters"]


def test_host_metrics_are_at_the_reference_speed(runs):
    _stdout, record = runs(NAMES[0], "plain")
    timing, setup = record["timing"], record["setup"]
    seconds, slowdowns = timing["seconds"], timing["slowdowns"]
    # A probe before the first timing and after each.
    assert len(slowdowns) == len(seconds) + 1
    assert timing["slowdown"] == pytest.approx(statistics.fmean(slowdowns))

    def scaled(i):
        return seconds[i] * 2 / (slowdowns[i] + slowdowns[i + 1])

    # Every timing is one slice of an episode run or one cold start.
    slices = [i for r in timing["runs"] for i in range(*r["timings"])]
    assert sorted(slices + setup["cold_starts"]) == list(range(len(seconds)))
    # Throughput counts the requests served, not those offered.
    outcomes = record["payload"]["outcomes"]
    assert all(r["served"] == outcomes[r["episode"]]["completed"]
               for r in timing["runs"])
    assert record["metrics"]["ops_per_s"] == pytest.approx(
        sum(r["served"] for r in timing["runs"])
        / sum(scaled(i) for i in slices))
    assert record["metrics"]["setup_s"] == pytest.approx(
        statistics.median(scaled(i) for i in setup["cold_starts"]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perf/run.py", "--workload",
                           NAMES[0], "--smoke"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_length_is_fixed_by_benchmark_json():
    proc = _run(os.path.join(PERF, "run.py"), "--workload", NAMES[0],
                "--seconds", str(BENCH["run_seconds"] + 1), timeout=60)
    assert proc.returncode == 2
    assert "--seconds must be" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_compare_host_verdicts():
    metric = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
    base = [100.0, 101.0, 99.0, 100.5, 99.5] * 2

    def pairs(head):
        return list(zip(base, head))

    assert host_verdict(pairs([100.2, 100.8, 99.1, 100.4, 99.7] * 2),
                        metric) == "no worse"
    assert host_verdict(pairs([80.0, 81.0, 79.0, 80.5, 79.5] * 2),
                        metric) == "regressed"
    assert host_verdict(pairs([120.0, 121.0, 119.0, 120.5, 119.5] * 2),
                        metric) == "better"
    assert host_verdict(pairs([60.0, 140.0, 70.0, 130.0, 100.0] * 2),
                        metric) == "unresolved"
    # A win needs ten pairs, however clear it is.
    assert host_verdict(pairs([120.0, 121.0, 119.0, 120.5, 119.5]),
                        metric) == "insufficient runs"


def test_compare_exact_verdicts():
    metric = {"name": "slo_good_fraction", "better": "higher", "bound": 0.1}
    same = [(0.9, 0.9), (0.8, 0.8)]
    assert exact_verdict(same, metric) == "identical"
    assert exact_verdict([(0.9, 0.91), (0.8, 0.8)], metric) == "better"
    # Worse on one seed by far less than the bound is still a regression.
    assert exact_verdict([(0.9, 0.95), (0.8, 0.7999)], metric) == "regressed"
    assert exact_verdict([], metric) == "insufficient runs"
