"""Command-line interface: regenerate any paper artefact from the shell.

::

    python -m repro fig1 --models resnet50 vgg16
    python -m repro fig2
    python -m repro fig3
    python -m repro fig4 --completions 100
    python -m repro --jobs 8 fig4 fig5
    python -m repro table1
    python -m repro --jobs 1 --stats fig4
    python -m repro overheads
    python -m repro rightsizing
    python -m repro weightcache
    python -m repro bench --quick
    python -m repro serve --requests 800 --faults plan.json --out run.json

Every subcommand prints the paper-style table on stdout.  Several
commands may be given in one invocation (``repro fig4 fig5``); they
share one sweep runner, so overlapping sweeps are computed once and
simulations fan out over ``--jobs`` worker processes with on-disk
result caching (disable the disk layer with ``--no-cache``).
"""

from __future__ import annotations

import argparse
import sys
from functools import cached_property
from typing import Optional, Sequence

from repro.bench.harness import format_table

__all__ = ["main"]


class RunContext:
    """Per-invocation execution state shared by every command group.

    One runner for the whole invocation means its in-memory cache layer
    deduplicates overlapping sweeps across commands — ``repro fig4 fig5``
    runs the multiplexing sweep once — independently of ``--no-cache``,
    which only disables the cross-invocation disk layer.  The runner is
    built on first use, so commands that run no sweep never import
    :mod:`repro.runner`.
    """

    def __init__(self, jobs: Optional[int] = None, no_cache: bool = False):
        self.jobs = jobs
        self.no_cache = no_cache

    @cached_property
    def runner(self):
        from repro.runner import ResultCache, SweepRunner, default_cache_dir

        cache = ResultCache(default_cache_dir(), disk=not self.no_cache)
        return SweepRunner(jobs=self.jobs, cache=cache)


def _cmd_fig1(args, ctx) -> str:
    from repro.bench.app_experiments import fig1_layer_flops

    data = fig1_layer_flops(tuple(args.models), (args.batch,))
    rows = []
    for (model, batch), series in sorted(data.items()):
        flops = [f for _, f in series]
        rows.append([model, batch, len(series), sum(flops) / 1e9,
                     max(flops) / min(flops)])
    return format_table(
        ["model", "batch", "conv layers", "total GFLOP", "max/min"],
        rows, title="Fig. 1 — per-layer FLOP variation")


def _cmd_fig2(args, ctx) -> str:
    from repro.bench.llm_experiments import fig2_sm_sweep

    sweep = fig2_sm_sweep(tuple(range(args.step, 101, args.step)),
                          runner=ctx.runner)
    rows = [
        [p7.mps_percentage, p7.sms, p7.completion_seconds,
         p13.completion_seconds]
        for p7, p13 in zip(sweep["llama2-7b"], sweep["llama2-13b"])
    ]
    return format_table(
        ["MPS %", "SMs", "7b seconds", "13b seconds"], rows,
        title="Fig. 2 — completion latency vs SMs")


def _cmd_fig3(args, ctx) -> str:
    from repro.bench.app_experiments import fig3_moldesign
    from repro.telemetry.timeline import render_ascii_gantt

    result = fig3_moldesign()
    table = format_table(
        ["phase", "busy seconds"],
        [["simulation", result.simulation_busy],
         ["training", result.training_busy],
         ["inference", result.inference_busy]],
        title="Fig. 3 — molecular-design phases")
    return (f"{table}\nGPU idle fraction: {result.gpu_idle_fraction:.2f}\n\n"
            + render_ascii_gantt(result.timeline, width=args.width))


def _cmd_fig4(args, ctx) -> str:
    from repro.bench.llm_experiments import fig4_fig5_sweep

    results = fig4_fig5_sweep(n_completions=args.completions,
                              runner=ctx.runner)
    base = results[("timeshare", 1)]
    rows = [
        [mode, k, r.total_seconds, r.total_seconds / base.total_seconds,
         r.throughput / base.throughput]
        for (mode, k), r in sorted(results.items())
    ]
    return format_table(
        ["mode", "processes", "total s", "vs 1-process", "throughput x"],
        rows, title=f"Fig. 4 — {args.completions} completions")


def _cmd_fig5(args, ctx) -> str:
    from repro.bench.llm_experiments import fig4_fig5_sweep
    from repro.telemetry.metrics import summarize

    results = fig4_fig5_sweep(n_completions=args.completions,
                              runner=ctx.runner)
    rows = []
    for (mode, k), r in sorted(results.items()):
        stats = summarize(r.latencies)
        rows.append([mode, k, stats.mean, stats.p95])
    return format_table(
        ["mode", "processes", "mean latency s", "p95 s"], rows,
        title="Fig. 5 — average inference latency")


def _cmd_table1(args, ctx) -> str:
    from repro.bench.overhead_experiments import table1_comparison

    rows = [
        [r.mode.value, f"{r.measured_utilization:.2f}",
         f"{r.measured_throughput:.1f}", r.utilization_class,
         r.reconfiguration]
        for r in table1_comparison(args.clients, runner=ctx.runner)
    ]
    return format_table(
        ["technique", "SM util", "tokens/s", "paper class",
         "reconfiguration"],
        rows, title="Table 1 — multiplexing techniques")


def _cmd_overheads(args, ctx) -> str:
    from repro.bench.overhead_experiments import discussion_overheads

    report = discussion_overheads()
    rows = [[b.model, b.dtype, b.total_seconds, b.model_load_seconds]
            for b in report.cold_starts]
    table = format_table(
        ["model", "dtype", "cold start s", "of which model load s"],
        rows, title="§6 — cold starts")
    return table + (
        f"\nMPS repartition: {report.mps_repartition_seconds:.1f}s"
        f" (cached: {report.mps_repartition_cached_seconds:.1f}s);"
        f" MIG repartition: {report.mig_repartition_seconds:.1f}s"
    )


def _cmd_rightsizing(args, ctx) -> str:
    from repro.bench.overhead_experiments import rightsizing_study

    rows = [
        [r.workload, r.knee_sms, f"{r.mps_percentage}%",
         r.mig_profile or "-", r.placement,
         f"{100 * r.freed_fraction:.0f}%"]
        for r in rightsizing_study(runner=ctx.runner)
    ]
    return format_table(
        ["workload", "knee SMs", "MPS %", "MIG profile", "placement",
         "GPU freed"],
        rows, title="§7 — right-sizing study")


def _cmd_weightcache(args, ctx) -> str:
    from repro.bench.overhead_experiments import weightcache_ablation

    result = weightcache_ablation(args.repartitions)
    return format_table(
        ["configuration", "downtime s"],
        [["no cache", result.seconds_without_cache],
         ["weight cache", result.seconds_with_cache]],
        title=f"§7 — weight cache over {result.n_repartitions} repartitions",
    ) + f"\nspeedup: {result.speedup:.1f}x"


def _cmd_bench(args, ctx) -> str:
    """``repro bench``: write the report, print the sweep timings and
    every section's checks; exit 1 naming each failed check."""
    from repro.bench.harness import format_checks
    from repro.bench.perfjson import write_bench_json

    path, report = write_bench_json(path=args.out, quick=args.quick,
                                    jobs=ctx.jobs)
    rows = [
        [name, s["configs"], f"{s['serial_seconds']:.2f}",
         f"{s['parallel_seconds']:.2f}", f"{s['warm_seconds']:.3f}",
         f"{s['warm_speedup']:.1f}x", f"{s['cache_hit_rate']:.0%}"]
        for name, s in sorted(report["sweeps"].items())
    ]
    sweeps = format_table(
        ["sweep", "configs", "serial s", "parallel s", "warm s",
         "warm speedup", "hit rate"],
        rows, title=f"Sweep wall-clock (jobs={report['jobs']})")
    checks = format_checks(report, title="Bench checks")
    text = f"{sweeps}\n\n{checks}\n\nwrote {path}"
    if report["failed"]:
        print(text)
        raise SystemExit("bench: failed checks: "
                         + ", ".join(report["failed"]))
    return text


def _cmd_cluster(args, ctx) -> str:
    """``repro cluster``: pack the placement contest, print the score.

    The written JSON strips the ``wall_seconds`` timings — everything
    else in the contest payload is deterministic arithmetic, so twin
    invocations at the same ``--functions``/``--seed`` must produce
    byte-identical files (the CI cluster smoke diffs exactly that).
    """
    import json

    from repro.bench.cluster_experiments import run_contest

    contest = run_contest(n_functions=args.functions, seed=args.seed)
    if args.out:
        payload = json.loads(json.dumps(contest))  # deep copy
        for packer in ("greedy", "optimized"):
            payload[packer].pop("wall_seconds", None)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    rows = []
    for label, key in (("greedy FFD", "greedy"),
                       ("repacking optimiser", "optimized")):
        score = contest[key]
        rows.append([label, score["gpus_used"],
                     f"{score['in_slo_fraction']:.3f}",
                     f"{score['served_in_slo_rps']:.1f}",
                     len(score["rejected"]),
                     f"{score['wall_seconds']:.2f}s"])
    table = format_table(
        ["packer", "GPUs used", "in-SLO", "served rps", "rejected", "wall"],
        rows,
        title=f"Cluster placement — {contest['n_gpus']} GPUs, "
              f"{contest['n_functions']} functions, seed {contest['seed']}")
    saved = contest["greedy"]["gpus_used"] - contest["optimized"]["gpus_used"]
    table += (f"\nrepacking freed {saved} GPUs; max weighted MPS cap sum "
              f"{contest['max_weighted_cap_sum']} (bound 100)")
    if contest["optimized"]["rejected"]:
        table += ("\nrejected: "
                  + ", ".join(contest["optimized"]["rejected"]))
    if args.out:
        table += f"\nwrote {args.out}"
    return table


def _cmd_serve(args, ctx) -> str:
    import json

    from repro.bench.resilience_experiments import (
        DEFAULT_DEADLINE_SECONDS,
        DEFAULT_RATE_RPS,
        run_resilient_fleet,
    )
    from repro.faas.chaos import FaultPlan

    if args.autoscale:
        return _serve_autoscale(args)
    rate = args.rate if args.rate is not None else DEFAULT_RATE_RPS
    slo = args.slo if args.slo is not None else DEFAULT_DEADLINE_SECONDS
    if args.shards is not None or args.cells is not None:
        return _serve_sharded(args, rate, slo)
    plan = FaultPlan.load(args.faults) if args.faults else None
    if plan is None and args.chaos:
        from repro.bench.resilience_experiments import canonical_fault_plan

        plan = canonical_fault_plan(args.requests / rate, seed=args.seed)
    prof = None
    if getattr(args, "profile", False):
        from repro.profile import profiling

        with profiling() as prof:
            report = run_resilient_fleet(
                args.mode, args.requests, rate_rps=rate,
                deadline_seconds=slo, seed=args.seed, plan=plan)
        report["profile"] = prof.report(top=15)
    else:
        report = run_resilient_fleet(
            args.mode, args.requests, rate_rps=rate, deadline_seconds=slo,
            seed=args.seed, plan=plan)
    report.pop("ecc_log")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    lat = report["latency"] or {}
    rows = [
        ["offered", report["offered"]],
        ["completed", report["completed"]],
        ["shed", report["shed"]],
        ["failed", report["failed"]],
        ["lost", report["lost"]],
        ["SLO attainment", f"{report['slo_attainment']:.3f}"],
        ["goodput rps", f"{report['goodput_rps']:.3f}"],
        ["throughput rps", f"{report['throughput_rps']:.3f}"],
        ["retries", report["retries"]],
        ["hedges", report["hedges"]],
        ["amplification", f"{report['amplification']:.3f}"],
        ["breaker opens", report["breaker_opens"]],
        ["faults applied", report["faults_applied"]],
        ["mean latency s", f"{lat.get('mean', 0.0):.3f}"],
        ["p95 latency s", f"{lat.get('p95', 0.0):.3f}"],
    ]
    table = format_table(
        ["metric", "value"], rows,
        title=f"Chaos serving — {args.mode}, {args.requests} requests "
              f"at {rate:g} rps, SLO {slo:g}s")
    if prof is not None:
        import json as _json

        table += "\n" + _json.dumps(report["profile"], indent=2)
    if args.out:
        table += f"\nwrote {args.out}"
    return table


def _serve_sharded(args, rate: float, slo: float) -> str:
    """``repro serve --shards N``: the fleet scenario, cell-sharded.

    The written JSON carries only the deterministic payload — raw
    events are summarised by the canonical digest and the
    ``execution`` section (pids, RSS, respawns) is dropped — so twin
    runs at any two shard counts must produce byte-identical files,
    which is exactly what the CI determinism gate diffs.
    """
    import json

    from repro.workloads.shardcells import sharded_fleet_report

    if args.faults:
        raise SystemExit(
            "serve: --faults replays one explicit plan and cannot be "
            "split across cells; use --chaos for per-cell canonical "
            "plans with --shards/--cells")
    n_shards = args.shards if args.shards is not None else 1
    n_cells = args.cells if args.cells is not None else max(1, n_shards)
    report = sharded_fleet_report(
        args.mode, args.requests, n_cells=n_cells, n_shards=n_shards,
        rate_rps=rate, deadline_seconds=slo, seed=args.seed,
        chaos=args.chaos, epoch_seconds=args.epoch)
    merged = report["merged"]
    if args.out:
        payload = {k: v for k, v in report.items()
                   if k not in ("events", "execution")}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    rows = [
        ["cells", n_cells],
        ["shards", report["execution"]["n_shards"]],
        ["epochs", report["execution"]["epochs"]],
        ["offered", merged["offered"]],
        ["completed", merged["completed"]],
        ["lost", merged["lost"]],
        ["SLO attainment", f"{merged['slo_attainment']:.3f}"],
        ["faults applied", merged["faults_applied"]],
        ["engine events", merged["events_processed"]],
        ["merged completions", merged["n_events"]],
        ["events digest", merged["events_digest"][:16]],
        ["mean latency s", f"{merged['latency']['mean']:.3f}"],
        ["p95 latency s", f"{merged['latency']['p95']:.3f}"],
    ]
    table = format_table(
        ["metric", "value"], rows,
        title=f"Sharded chaos serving — {args.mode}, {n_cells} cells x "
              f"{args.requests} requests at {rate:g} rps"
              + (", canonical chaos" if args.chaos else ""))
    if args.out:
        table += f"\nwrote {args.out}"
    return table


def _autoscale_plan(args):
    """Resolve ``--faults``/``--chaos`` for the autoscale serve paths."""
    from repro.faas.chaos import FaultPlan

    if args.faults:
        return FaultPlan.load(args.faults)
    if args.chaos:
        from repro.bench.autoscale_experiments import (
            canonical_control_plane_plan,
        )

        return canonical_control_plane_plan(args.horizon, seed=args.seed)
    return None


def _serve_autoscale(args) -> str:
    """``repro serve --autoscale``: the closed loop on the diurnal trace."""
    import json

    from repro.bench.autoscale_experiments import (
        STATIC_SMALL,
        run_autoscale_fleet,
    )

    if args.shards is not None or args.cells is not None:
        return _serve_autoscale_sharded(args)
    plan = _autoscale_plan(args)
    report = run_autoscale_fleet(args.horizon, True, STATIC_SMALL,
                                 seed=args.seed, plan=plan)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    ctrl = report["autoscaler"]
    rows = [
        ["offered", report["offered"]],
        ["in-SLO", report["slo_ok"]],
        ["lost", report["lost"]],
        ["in-SLO fraction of offered",
         f"{report['slo_good_fraction']:.3f}"],
        ["provisioned GPU-seconds", f"{report['gpu_seconds']:.1f}"],
        ["controller ticks", ctrl["ticks"]],
        ["reconfigurations", ctrl["reconfigurations"]],
        ["replica restarts", ctrl["replica_restarts"]],
        ["weight-cache hits", ctrl["weight_cache_hits"]],
        ["reconfig downtime s", f"{ctrl['reconfiguration_downtime']:.1f}"],
        ["mean restart downtime s",
         f"{ctrl['mean_restart_downtime']:.2f}"],
    ]
    if plan is not None:
        rows += [
            ["faults applied", report["faults_applied"]],
            ["resize aborts", ctrl["resize_aborts"]],
            ["rollbacks verified", ctrl["resize_rollbacks"]],
            ["resize retries", ctrl["resize_retries"]],
            ["breaker opens", ctrl["resize_breaker_opens"]],
            ["degraded ticks", ctrl["degraded_ticks"]],
        ]
    for name, pct in report["final_pcts"].items():
        rows.append([f"final pct {name}",
                     f"{pct}% (from {report['initial_pcts'][name]}%)"])
    table = format_table(
        ["metric", "value"], rows,
        title=f"Online repartitioning — diurnal two-function trace, "
              f"{args.horizon:g}s horizon")
    if args.out:
        table += f"\nwrote {args.out}"
    return table


def _serve_autoscale_sharded(args) -> str:
    """``repro serve --autoscale --shards N``: sharded diurnal contest."""
    import json

    from repro.bench.autoscale_experiments import STATIC_SMALL
    from repro.workloads.shardcells import sharded_autoscale_report

    n_shards = args.shards if args.shards is not None else 1
    n_cells = args.cells if args.cells is not None else max(1, n_shards)
    plan = _autoscale_plan(args)
    report = sharded_autoscale_report(
        args.horizon, True, STATIC_SMALL, n_cells=n_cells,
        n_shards=n_shards, seed=args.seed, epoch_seconds=args.epoch,
        fault_plan_json=None if plan is None else plan.to_json())
    merged = report["merged"]
    if args.out:
        payload = {k: v for k, v in report.items()
                   if k not in ("events", "execution")}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    rows = [
        ["cells", n_cells],
        ["shards", report["execution"]["n_shards"]],
        ["epochs", report["execution"]["epochs"]],
        ["offered", merged["offered"]],
        ["in-SLO", merged["slo_ok"]],
        ["lost", merged["lost"]],
        ["in-SLO fraction of offered",
         f"{merged['slo_good_fraction']:.3f}"],
        ["provisioned GPU-seconds", f"{merged['gpu_seconds']:.1f}"],
        ["merged completions", merged["n_events"]],
        ["events digest", merged["events_digest"][:16]],
    ]
    if plan is not None:
        rows += [
            ["faults applied", merged["faults_applied"]],
            ["resize aborts", merged["resize_aborts"]],
            ["rollbacks verified", merged["resize_rollbacks"]],
        ]
    table = format_table(
        ["metric", "value"], rows,
        title=f"Sharded online repartitioning — {n_cells} cells, "
              f"{args.horizon:g}s horizon"
              + (", faulted" if plan is not None else ""))
    if args.out:
        table += f"\nwrote {args.out}"
    return table


def build_parser() -> argparse.ArgumentParser:
    from repro.workloads.cnn import CNN_ZOO

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweeps (default: all CPUs, or $REPRO_JOBS)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk sweep result cache for this invocation")
    parser.add_argument(
        "--stats", action="store_true",
        help="print a one-line engine summary (events/sec, allocator "
             "counters) after the command output; in-process sims only, "
             "so combine with --jobs 1 for complete counts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="per-layer CNN FLOPs")
    p.add_argument("--models", nargs="+", default=["alexnet", "vgg16",
                                                   "resnet50", "resnet101"],
                   choices=sorted(CNN_ZOO))
    p.add_argument("--batch", type=int, default=1)
    p.set_defaults(fn=_cmd_fig1)

    p = sub.add_parser("fig2", help="LLaMa-2 latency vs SMs")
    p.add_argument("--step", type=int, default=10)
    p.set_defaults(fn=_cmd_fig2)

    p = sub.add_parser("fig3", help="molecular-design timeline")
    p.add_argument("--width", type=int, default=96)
    p.set_defaults(fn=_cmd_fig3)

    p = sub.add_parser("fig4", help="multiplexed completion time")
    p.add_argument("--completions", type=int, default=100)
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("fig5", help="multiplexed inference latency")
    p.add_argument("--completions", type=int, default=100)
    p.set_defaults(fn=_cmd_fig5)

    p = sub.add_parser("table1", help="multiplexing technique comparison")
    p.add_argument("--clients", type=int, default=4)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("overheads", help="§6 cold start & repartitioning")
    p.set_defaults(fn=_cmd_overheads)

    p = sub.add_parser("rightsizing", help="§7 right-sizing study")
    p.set_defaults(fn=_cmd_rightsizing)

    p = sub.add_parser("weightcache", help="§7 weight-cache ablation")
    p.add_argument("--repartitions", type=int, default=4)
    p.set_defaults(fn=_cmd_weightcache)

    p = sub.add_parser("bench",
                       help="time sweeps, run the bench checks, write JSON")
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes (CI smoke run)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output path (default: BENCH_<date>.json)")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("cluster",
                       help="pack the fleet-scale placement contest")
    p.add_argument("--functions", type=int, default=50, metavar="N",
                   help="contest size in functions (default: 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the deterministic contest JSON "
                        "(timings stripped; twin runs diff identical)")
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("serve",
                       help="fault-tolerant serving fleet, optional chaos")
    p.add_argument("--mode", default="mig-mps",
                   choices=("mig-mps", "mps", "timeshare"),
                   help="fleet sharing mode (default: mig-mps)")
    p.add_argument("--requests", type=int, default=800,
                   help="open-loop requests to offer (default: 800)")
    p.add_argument("--rate", type=float, default=None, metavar="RPS",
                   help="offered load (default: bench scenario rate)")
    p.add_argument("--slo", type=float, default=None, metavar="SECONDS",
                   help="per-request deadline (default: bench scenario SLO)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault plan to replay (see repro.faas.chaos); "
                        "with --autoscale, control-plane kinds hit the "
                        "resize/telemetry machinery")
    p.add_argument("--chaos", action="store_true",
                   help="replay the canonical bench fault plan (per "
                        "cell when sharded; with --autoscale, the "
                        "canonical control-plane plan)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="run the scenario sharded over N worker "
                        "processes (default: single process)")
    p.add_argument("--cells", type=int, default=None, metavar="K",
                   help="device cells in the sharded fleet "
                        "(default: one per shard)")
    p.add_argument("--epoch", type=float, default=60.0, metavar="SECONDS",
                   help="sharded epoch-barrier spacing in sim seconds "
                        "(results are invariant to it; default: 60)")
    p.add_argument("--autoscale", action="store_true",
                   help="run the online-repartitioning closed loop on "
                        "the diurnal two-function trace instead")
    p.add_argument("--horizon", type=float, default=600.0,
                   metavar="SECONDS",
                   help="autoscale trace horizon (default: 600)")
    p.add_argument("--profile", action="store_true",
                   help="run under the event-loop profiler and append "
                        "per-site attribution JSON (single-process "
                        "serve only; sharded workers are not captured)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the resilience report as JSON")
    p.set_defaults(fn=_cmd_serve)

    return parser


#: Subcommand names, used to split a multi-command argv into groups.
COMMANDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "table1", "overheads",
            "rightsizing", "weightcache", "bench", "cluster", "serve")


def _split_commands(argv: Sequence[str]) -> tuple[list[str], list[list[str]]]:
    """Split argv into (global flags, one token group per subcommand)."""
    prefix: list[str] = []
    groups: list[list[str]] = []
    current: Optional[list[str]] = None
    for token in argv:
        if token in COMMANDS:
            current = [token]
            groups.append(current)
        elif current is None:
            prefix.append(token)
        else:
            current.append(token)
    return prefix, groups


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    prefix, groups = _split_commands(argv)
    if not groups:
        parser.parse_args(argv)  # no subcommand: let argparse report it
        return 2  # pragma: no cover - parse_args exits above
    parsed = [parser.parse_args(prefix + group) for group in groups]
    ctx = RunContext(jobs=parsed[0].jobs, no_cache=parsed[0].no_cache)
    if not parsed[0].stats:
        for args in parsed:
            print(args.fn(args, ctx))
        return 0
    from repro.sim.stats import collecting

    with collecting() as stats:
        for args in parsed:
            print(args.fn(args, ctx))
    print(stats.summary_line())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
