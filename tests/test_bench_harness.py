"""Tests for the bench harness table formatter and result persistence."""

import os

import pytest

from repro.bench import format_table, save_results
from repro.bench.harness import _fmt, results_dir


def test_format_table_alignment():
    table = format_table(["name", "value"], [["short", 1], ["longer-name", 22]])
    lines = table.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    # Columns align: 'value' header and both values start at same offset.
    offset = lines[0].index("value")
    assert lines[2][offset] == "1" or lines[2][offset - 1] == " "


def test_format_table_with_title():
    table = format_table(["a"], [[1]], title="My Table")
    lines = table.splitlines()
    assert lines[0] == "My Table"
    assert lines[1] == "=" * len("My Table")


def test_format_table_empty_rows():
    table = format_table(["col1", "col2"], [])
    assert "col1" in table and "col2" in table


def test_float_formatting():
    assert _fmt(0) == "0"
    assert _fmt(0.0) == "0"
    assert _fmt(1.5) == "1.5"
    assert _fmt(1.0) == "1"
    assert _fmt(0.001) == "0.001"
    assert _fmt(123456.0) == "1.23e+05"
    assert _fmt(0.000123) == "0.000123"
    assert _fmt("text") == "text"


def test_save_results_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    path = save_results("unit-test", "hello\nworld")
    assert os.path.dirname(path) == str(tmp_path)
    with open(path) as fh:
        assert fh.read() == "hello\nworld\n"


def test_results_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "sub"))
    assert results_dir() == str(tmp_path / "sub")
    assert os.path.isdir(results_dir())


def _check(section, name):
    (entry,) = [c for c in section["checks"] if c["name"] == name]
    return entry


def test_check_verdicts_and_threshold_string():
    from repro.bench.harness import check

    assert check("lost", 0, "==", 0) == {
        "name": "lost", "value": 0, "threshold": "== 0", "verdict": "pass"}
    assert check("rate", 2.3, ">=", 0.7 * 3.4)["threshold"] == ">= 2.38"
    assert check("rate", 2.3, ">=", 0.7 * 3.4)["verdict"] == "fail"
    assert check("same", True, "==", True)["threshold"] == "== true"
    assert check("speedup", 0.9, ">=", 5.0,
                 measured=False)["verdict"] == "unmeasured"


def test_check_verdicts_name_every_failed_and_unmeasured_check():
    from repro.bench.harness import check, check_verdicts, format_checks

    report = {
        "sweeps": {"fig2": {"checks": [check("configs", 4, ">", 0)]}},
        "scale": {"sharded": {
            "checks": [check("speedup", 1.0, ">=", 5.0, measured=False)],
            "pair": {"checks": [check("identical", False, "==", True)]}}},
        "cluster": {"checks": [check("fewer_gpus", 9, "<", 9)]},
    }
    assert check_verdicts(report) == {
        "failed": ["scale.sharded.pair.identical", "cluster.fewer_gpus"],
        "unmeasured": ["scale.sharded.speedup"]}
    table = format_checks(report)
    assert "sweeps.fig2.configs" in table
    assert "UNMEASURED" in table and "FAIL" in table


def test_sharded_speedup_below_min_cores_is_unmeasured(monkeypatch):
    from repro.bench import scale_experiments as se

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = se.sharded_scale_benchmark(n_requests_per_cell=20, n_cells=2)
    assert report["cores"] == 2
    assert report["min_cores"] == se.SHARDED_MIN_CORES
    assert [c["name"] for c in report["checks"]] == \
        ["identical", "speedup", "worker_respawns"]
    assert _check(report, "identical")["verdict"] == "pass"
    assert _check(report, "worker_respawns")["verdict"] == "pass"
    speedup = _check(report, "speedup")
    assert speedup["verdict"] == "unmeasured"
    assert speedup["value"] == report["speedup"]
    assert speedup["threshold"] == ">= 5"


def test_sharded_speedup_note_prints_measured_ratio(monkeypatch):
    from repro.bench import scale_experiments as se

    monkeypatch.setattr(os, "cpu_count", lambda: se.SHARDED_MIN_CORES)
    report = se.sharded_scale_benchmark(n_requests_per_cell=20, n_cells=2,
                                        n_shards=se.SHARDED_MIN_CORES)
    speedup = _check(report, "speedup")
    assert speedup["value"] == report["speedup"] > 0
    assert speedup["threshold"] == ">= 5"
    assert speedup["verdict"] == \
        ("pass" if report["speedup"] >= 5.0 else "fail")


def test_two_shard_gate_below_two_cores_is_unmeasured(monkeypatch):
    from repro.bench import scale_experiments as se

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    report = se.sharded_scale_benchmark(
        n_requests_per_cell=20, n_cells=se.PAIR_N_CELLS, n_shards=2,
        speedup_floor=se.PAIR_SPEEDUP_FLOOR, min_cores=se.PAIR_MIN_CORES)
    assert _check(report, "identical")["verdict"] == "pass"
    speedup = _check(report, "speedup")
    assert speedup["verdict"] == "unmeasured"
    assert speedup["threshold"] == ">= 1.4"


def test_two_shard_note_prints_fractional_floor(monkeypatch):
    from repro.bench import scale_experiments as se

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = se.sharded_scale_benchmark(
        n_requests_per_cell=20, n_cells=se.PAIR_N_CELLS, n_shards=2,
        speedup_floor=se.PAIR_SPEEDUP_FLOOR, min_cores=se.PAIR_MIN_CORES)
    speedup = _check(report, "speedup")
    assert speedup["value"] == report["speedup"] > 0
    assert speedup["threshold"] == ">= 1.4"
    assert speedup["verdict"] == \
        ("pass" if report["speedup"] >= 1.4 else "fail")
