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


def test_sharded_speedup_below_min_cores_is_unmeasured(monkeypatch):
    from repro.bench import scale_experiments as se

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = se.sharded_scale_benchmark(n_requests_per_cell=20, n_cells=2)
    assert report["cores"] == 2
    assert report["speedup_measured"] is False
    assert report["gate"]["identical"] and report["gate"]["pass"]
    assert se.sharded_speedup_note(report) == \
        f"sharded speedup: unmeasured (2 cores < {se.SHARDED_MIN_CORES})"


def test_sharded_speedup_note_prints_measured_ratio():
    from repro.bench.scale_experiments import sharded_speedup_note

    sharded = {"cores": 8, "speedup": 5.4321, "speedup_measured": True,
               "gate": {"speedup_floor": 5.0, "speedup_enforced": True}}
    assert sharded_speedup_note(sharded) == \
        "sharded speedup: 5.43x (floor 5x enforced)"
