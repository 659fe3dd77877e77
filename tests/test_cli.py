"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_fig1(capsys):
    out = run_cli(capsys, "fig1", "--models", "resnet50", "--batch", "8")
    assert "resnet50" in out
    assert "max/min" in out


def test_fig2(capsys):
    out = run_cli(capsys, "fig2", "--step", "25")
    assert "7b seconds" in out
    assert "Fig. 2" in out


def test_fig3(capsys):
    out = run_cli(capsys, "fig3", "--width", "40")
    assert "simulation" in out
    assert "GPU idle fraction" in out


def test_fig4_small(capsys):
    out = run_cli(capsys, "fig4", "--completions", "8")
    assert "throughput x" in out
    assert "mps" in out and "mig" in out and "timeshare" in out


def test_fig5_small(capsys):
    out = run_cli(capsys, "fig5", "--completions", "8")
    assert "mean latency" in out


def test_table1(capsys):
    out = run_cli(capsys, "table1", "--clients", "2")
    assert "mps-default" in out
    assert "vgpu" in out


def test_overheads(capsys):
    out = run_cli(capsys, "overheads")
    assert "llama2-13b" in out
    assert "MPS repartition" in out


def test_rightsizing(capsys):
    out = run_cli(capsys, "rightsizing")
    assert "knee SMs" in out


def test_weightcache(capsys):
    out = run_cli(capsys, "weightcache", "--repartitions", "2")
    assert "speedup" in out


def test_multiple_commands_in_one_invocation(capsys):
    out = run_cli(capsys, "fig4", "--completions", "6",
                  "fig5", "--completions", "6")
    assert "Fig. 4" in out
    assert "Fig. 5" in out


def test_fig4_fig5_share_one_sweep(capsys, monkeypatch):
    from repro import cli

    seen = {}
    real_ctx = cli.RunContext

    def spy(*args, **kwargs):
        seen["ctx"] = real_ctx(*args, **kwargs)
        return seen["ctx"]

    monkeypatch.setattr(cli, "RunContext", spy)
    run_cli(capsys, "--no-cache", "fig4", "--completions", "6",
            "fig5", "--completions", "6")
    ctx = seen["ctx"]
    # 3 modes x 4 process counts, computed once; fig5 hits the memory
    # cache even with --no-cache (which only disables the disk layer).
    assert ctx.runner.executed == 12
    assert ctx.runner.cache.hits == 12


def test_global_jobs_flag_reaches_runner(capsys, monkeypatch):
    from repro import cli

    seen = {}
    real_ctx = cli.RunContext

    def spy(*args, **kwargs):
        seen["ctx"] = real_ctx(*args, **kwargs)
        return seen["ctx"]

    monkeypatch.setattr(cli, "RunContext", spy)
    run_cli(capsys, "--jobs", "2", "--no-cache", "fig2", "--step", "50")
    assert seen["ctx"].runner.jobs == 2


#: Every check a quick ``repro bench`` reports, by dotted name.
QUICK_BENCH_CHECKS = {
    *(f"sweeps.{sweep}.{name}"
      for sweep in ("fig2_sm_sweep", "fig4_fig5_sweep")
      for name in ("configs", "cache_hit_rate", "warm_seconds")),
    "scale.streaming.requests_per_sec",
    "scale.sharded.identical", "scale.sharded.speedup",
    "scale.sharded.worker_respawns",
    "resilience.lost", "resilience.goodput_rps",
    "resilience.mig_kill_fraction",
    *(f"autoscale.{name}"
      for name in ("beats_static_small", "beats_static_large",
                   "gpu_seconds_matched", "cache_shrinks_downtime",
                   "reconfigurations", "twin_identical", "lost")),
    *(f"autoscale.chaos.{name}"
      for name in ("lost", "resize_aborts", "resize_rollbacks",
                   "degraded_ticks", "slo_ratio_vs_fault_free",
                   "twin_identical")),
    *(f"cluster.{name}"
      for name in ("fewer_gpus", "in_slo_delta", "rejections_match",
                   "max_weighted_cap_sum", "twin_identical",
                   "drift_triggered", "settled_after_replan")),
}


def test_bench_quick_writes_wellformed_json(capsys, tmp_path):
    import json

    from repro.bench.harness import iter_checks

    out_path = tmp_path / "bench.json"
    out = run_cli(capsys, "--jobs", "1", "bench", "--quick",
                  "--out", str(out_path))
    assert "wrote" in out
    assert "Bench checks" in out
    report = json.loads(out_path.read_text())
    assert report["schema"] == "repro-bench/10"
    assert report["quick"] is True
    # repro-bench/6: provenance SHA.
    assert "git_sha" in report
    assert "streaming_1m" not in report["scale"]  # full runs only
    assert report["failed"] == []
    assert {name for name, _ in iter_checks(report)} == QUICK_BENCH_CHECKS
    for name, entry in iter_checks(report):
        assert entry["verdict"] in ("pass", "unmeasured"), name
        assert name in out


def test_bench_exits_nonzero_naming_each_failed_check(capsys, tmp_path,
                                                       monkeypatch):
    """A failed check makes ``repro bench`` exit 1 and name it; the
    report is written first."""
    import json

    from repro.bench import (autoscale_experiments, cluster_experiments,
                             perfjson, resilience_experiments,
                             scale_experiments)
    from repro.bench.harness import check

    def section(*checks):
        return lambda quick=False: {"checks": list(checks)}

    monkeypatch.setattr(perfjson, "_sweep_fns", lambda quick: {})
    monkeypatch.setattr(scale_experiments, "scale_report", section(
        check("speedup", 1.0, ">=", 5.0, measured=False)))
    monkeypatch.setattr(resilience_experiments, "resilience_report",
                        section(check("lost", 3, "==", 0)))
    monkeypatch.setattr(autoscale_experiments, "autoscale_report",
                        section(check("lost", 0, "==", 0)))
    monkeypatch.setattr(cluster_experiments, "cluster_report", section(
        check("fewer_gpus", 12, "<", 12)))
    out_path = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--quick", "--out", str(out_path)])
    assert exc.value.code == \
        "bench: failed checks: resilience.lost, cluster.fewer_gpus"
    out = capsys.readouterr().out
    assert "resilience.lost" in out and "FAIL" in out
    report = json.loads(out_path.read_text())
    assert report["failed"] == ["resilience.lost", "cluster.fewer_gpus"]
    assert report["unmeasured"] == ["scale.speedup"]


def test_serve_command_writes_report(capsys, tmp_path):
    import json

    from repro.bench.resilience_experiments import canonical_fault_plan

    plan_path = tmp_path / "plan.json"
    canonical_fault_plan(60.0, seed=3).save(plan_path)
    out_path = tmp_path / "serve.json"
    out = run_cli(capsys, "serve", "--mode", "mig-mps", "--requests", "80",
                  "--rate", "3.0", "--seed", "3",
                  "--faults", str(plan_path), "--out", str(out_path))
    assert "Chaos serving" in out
    assert "lost" in out
    report = json.loads(out_path.read_text())
    assert report["offered"] == 80
    assert report["lost"] == 0
    assert report["mode"] == "mig-mps"
    assert report["faults_applied"] > 0


def test_serve_command_without_faults(capsys):
    out = run_cli(capsys, "serve", "--requests", "40", "--rate", "2.0",
                  "--mode", "timeshare")
    assert "faults applied  0" in out


def test_serve_sharded_twin_runs_write_identical_json(capsys, tmp_path):
    """``--shards 2`` twin runs and a ``--shards 1`` run of the same
    cells produce byte-identical reports — the CI determinism gate."""
    paths = {name: tmp_path / f"{name}.json"
             for name in ("twin_a", "twin_b", "single")}
    for name, shards in (("twin_a", "2"), ("twin_b", "2"),
                         ("single", "1")):
        out = run_cli(capsys, "serve", "--requests", "60", "--rate", "3.0",
                      "--seed", "5", "--chaos", "--shards", shards,
                      "--cells", "2", "--out", str(paths[name]))
        assert "events digest" in out
    twin_a = paths["twin_a"].read_bytes()
    assert twin_a == paths["twin_b"].read_bytes()
    assert twin_a == paths["single"].read_bytes()


def test_cluster_command_twin_runs_identical(capsys, tmp_path):
    """Twin ``repro cluster`` invocations write byte-identical JSON
    (timings stripped) — the CI cluster smoke in miniature."""
    import json

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        out = run_cli(capsys, "cluster", "--functions", "6", "--seed", "2",
                      "--out", str(path))
        assert "Cluster placement" in out
        assert "greedy FFD" in out and "repacking optimiser" in out
    assert paths[0].read_bytes() == paths[1].read_bytes()
    contest = json.loads(paths[0].read_text())
    assert "wall_seconds" not in contest["greedy"]
    assert contest["optimized"]["gpus_used"] <= contest["greedy"]["gpus_used"]
    assert contest["max_weighted_cap_sum"] <= 100


def test_serve_sharded_rejects_faults_file(capsys, tmp_path):
    from repro.bench.resilience_experiments import canonical_fault_plan

    plan_path = tmp_path / "plan.json"
    canonical_fault_plan(20.0, seed=3).save(plan_path)
    with pytest.raises(SystemExit):
        main(["serve", "--requests", "40", "--shards", "2",
              "--faults", str(plan_path)])


def test_stats_flag_prints_summary_line(capsys):
    out = run_cli(capsys, "--jobs", "1", "--no-cache", "--stats",
                  "fig2", "--step", "50")
    assert "Fig. 2" in out
    line = out.strip().splitlines()[-1]
    assert line.startswith("[stats]")
    assert "events/sec=" in line
    assert "alloc_calls=" in line
    assert "memo_hits=" in line
    # The fig2 sweep runs real simulations in-process under --jobs 1,
    # so the collector must have seen a nonzero event count.
    assert "events=0 " not in line


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("fig1", "fig2", "fig3", "fig4", "fig5", "table1",
                "overheads", "rightsizing", "weightcache", "bench",
                "cluster", "serve"):
        assert cmd in text
    assert "--jobs" in text
    assert "--no-cache" in text


def test_every_command_is_splittable():
    from repro.cli import COMMANDS, build_parser

    parser = build_parser()
    text = parser.format_help()
    for cmd in COMMANDS:
        assert cmd in text
