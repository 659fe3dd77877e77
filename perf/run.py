"""The repository benchmark: one command, three workloads.

    python3 perf/run.py [--workload NAME ...] [--seed N] [--trace [0|1]]
                        [--repeat K] [--smoke] [--out FILE]

Each workload runs in its own fresh single-threaded subprocess, one at a
time, for ``run_seconds`` of BENCHMARK.json.  With tracing off a run
reports every end-to-end metric declared there; its set-up time is the
median of cold interpreter starts (import plus scenario build) spread
through the run, after one discarded start that fills the bytecode
cache.  Host times are reported at the machine's reference speed, which
a fixed loop timed between slices of the timed work measures (see
``reference.py`` and ``child.py``).
With ``--trace 1`` it reports every per-layer metric instead,
from a separate traced run of the same inputs.  ``--repeat K`` makes K
fresh runs per workload and reports medians; ``--smoke`` shrinks every
workload to a few seconds and makes no timed re-runs (for the tests).
``--seconds`` is accepted for harnesses that pass the run length, and
must equal ``run_seconds``.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with several workloads the
metric names are prefixed by the workload's.  The command exits non-zero
when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
CHILD = os.path.join(PERF, "child.py")

#: Seconds a measured run may take before it is killed.
MEASURE_TIMEOUT = 170
#: Simulated values printed with every run but absent from BENCHMARK.json:
#: the p99's seed-to-seed spread is wider than any bound could be, and
#: the sample count says how many latencies lie beyond it.
REPORTED = {"sim_latency_p99_s": "s", "latency_samples": "count"}


class BenchmarkError(RuntimeError):
    """A subprocess failed or produced an unusable result."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    # Single-threaded numpy, and identical hashing in every process.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def measure(name: str, args, seconds: float) -> dict:
    cmd = [sys.executable, CHILD, "measure", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=MEASURE_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{name}: measured run failed "
                             f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def run_workload(name: str, args, seconds: float, declared: list) -> dict:
    """One fresh run of one workload; returns its record."""
    record = {"workload": name, "seed": args.seed, "trace": bool(args.trace),
              "smoke": args.smoke}
    result = measure(name, args, seconds)
    record.update(result)
    if args.trace:
        values = dict(result["layers"])
    else:
        values = {"ops_per_s": result["timing"]["ops_per_s"],
                  "setup_s": result["setup"]["setup_s"],
                  "peak_rss_mb": result["timing"]["peak_rss_mb"],
                  **result["payload"]["metrics"]}
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    extra = set(values) - set(names) - set(REPORTED)
    if missing or extra:
        raise BenchmarkError(f"{name}: metrics missing {missing}, "
                             f"undeclared {sorted(extra)}")
    record["metrics"] = {n: values[n] for n in names}
    return record


def print_record(record: dict, declared: list) -> None:
    timing = record["timing"]
    setup = record.get("setup")
    print(f"== {record['workload']}  seed {record['seed']}"
          f"{'  traced' if record['trace'] else ''}"
          f"{'  smoke' if record['smoke'] else ''}:"
          f" {len(timing['runs'])} timed episode runs,"
          f" {timing['timed_seconds']:.1f} s timed"
          + (f", {len(setup['cold_starts'])} cold starts" if setup else ""))
    for metric in declared:
        value = record["metrics"][metric["name"]]
        print(f"  {metric['name']:<40} {value:>16.6g}  {metric['unit']}")
    reported = {name: (record["payload"]["metrics"][name], unit)
                for name, unit in REPORTED.items()}
    if setup:
        reported.update(
            host_slowdown=(timing["slowdown"], "x"),
            unscaled_ops_per_s=(timing["raw_ops_per_s"], "ops/s"),
            unscaled_setup_s=(setup["raw_setup_s"], "s"))
    for name, (value, unit) in reported.items():
        label = f"{name} (not gated)"
        print(f"  {label:<40} {value:>16.6g}  {unit}")
    checks = record["checks"]
    failed = {n: c for n, c in checks.items() if c["failed"]}
    print(f"  checks: {len(checks) - len(failed)} of {len(checks)} passed;"
          f" payload digest {record['payload']['digest'][:16]}")
    for name, check in failed.items():
        print(f"  FAILED {name}: {check['detail']}")


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write every run record here (JSON)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeat < 1:
        parser.error("--seed must be >= 0 and --repeat >= 1")
    if args.seconds != bench["run_seconds"]:
        parser.error(f"the run length is fixed by BENCHMARK.json: "
                     f"--seconds must be {bench['run_seconds']}")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perf: src/repro not found next to perf/; run the benchmark "
              "from the root of a checkout", file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = 0.0 if args.smoke else args.seconds

    records, metrics = [], {}
    try:
        for name in args.workload:
            runs = []
            for _ in range(args.repeat):
                record = run_workload(name, args, seconds, declared)
                print_record(record, declared)
                runs.append(record)
            prefix = f"{name}." if len(args.workload) > 1 else ""
            for metric in declared:
                metrics[prefix + metric["name"]] = {
                    "value": statistics.median(
                        r["metrics"][metric["name"]] for r in runs),
                    "unit": metric["unit"]}
            records.extend(runs)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1

    if args.out:
        doc = {"schema": "repro-perf/2",
               "host": {"cpus": os.cpu_count(),
                        "python": platform.python_version(),
                        "machine": platform.machine()},
               "runs": records}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
