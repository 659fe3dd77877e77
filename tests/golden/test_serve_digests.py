"""The ``repro serve`` payloads match the committed golden file
(``tests/golden/serve.py``), under the builtin ``sum`` and under
Python 3.12's compensated ``sum``."""

import builtins

import pytest

from tests.golden.serve import RUNS, load, run
from tests.pysum import sum_py312


@pytest.fixture(scope="module")
def golden():
    return load()


def test_golden_file_lists_every_run(golden):
    assert sorted(golden) == sorted(RUNS)
    for name, argv in RUNS.items():
        assert golden[name]["argv"] == ["serve", *argv]


@pytest.mark.parametrize("name", RUNS)
def test_serve_payload_matches_golden(name, golden):
    got = run(name)
    assert got["payload"] == golden[name]["payload"]
    assert got["events"] == golden[name]["events"]


@pytest.mark.parametrize("name", RUNS)
def test_serve_payload_matches_golden_under_py312_sum(name, golden,
                                                      monkeypatch):
    monkeypatch.setattr(builtins, "sum", sum_py312)
    got = run(name)
    assert got["payload"] == golden[name]["payload"]
    assert got["events"] == golden[name]["events"]
