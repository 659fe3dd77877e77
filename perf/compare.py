"""A/B verdict between two sets of benchmark runs.

    python3 perf/compare.py --base BASE.json [...] --head HEAD.json [...]

Each file is written by ``perf/run.py --out FILE``.  Runs are paired by
``(workload, seed)``.  For every workload and every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the change of
the median, and a verdict.

Simulated metrics (those in a run's ``payload``) are a pure function of
(seed, configuration), so they are compared seed by seed:

- ``regressed``: the head is worse than the base on any seed, by any
  amount;
- ``better``: the head is better on some seed and worse on none;
- ``identical``: equal on every seed;
- ``insufficient runs``: no seed was run on both sides.

Host metrics (time and memory) are noisy and are judged against the
metric's bound, following the benchmark's A/B rules:

- ``unresolved``: either side's quartile spread exceeds the bound,
  unless every head run beats every base run;
- ``regressed``: the head median is worse by more than the bound;
- ``insufficient runs``: fewer than ten pairs;
- ``better``: the head wins at least nine tenths of the pairs (ties
  count for neither) and its median is better by more than the base's
  own quartile spread;
- ``no worse``: otherwise.

It also prints the change in the share of failed operations and whether
the payload digests of paired runs are identical.  Exits 1 when any
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Pairs a host-metric claim of ``better`` needs.
MIN_PAIRS = 10


def load_runs(paths: list) -> dict:
    """Untraced runs keyed by ``(workload, seed)``; a repeated key keeps
    every run, in file order."""
    runs: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for r in json.load(fh)["runs"]:
                if not r["trace"]:
                    runs.setdefault((r["workload"], r["seed"]), []).append(r)
    return runs


def summary(values: list) -> tuple[float, float, float]:
    """(q1, median, q3); quartiles collapse onto a single value."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _spread(values: list) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / med if med else 0.0


def host_verdict(pairs: list, metric: dict) -> str:
    """Verdict on a noisy metric from (base, head) value pairs."""
    if not pairs:
        return "insufficient runs"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    bmed, hmed = statistics.median(base), statistics.median(head)
    worse = sign * (hmed - bmed) / bmed if bmed else 0.0
    all_better = all(sign * (h - b) < 0 for b in base for h in head)
    if max(_spread(base), _spread(head)) > metric["bound"] \
            and not all_better:
        return "unresolved"
    if worse > metric["bound"]:
        return "regressed"
    if len(pairs) < MIN_PAIRS:
        return "insufficient runs"
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    if wins >= 0.9 * len(pairs) and -worse > _spread(base):
        return "better"
    return "no worse"


def exact_verdict(pairs: list, metric: dict) -> str:
    """Verdict on a deterministic metric from same-seed value pairs."""
    if not pairs:
        return "insufficient runs"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    if any(sign * (h - b) > 0 for b, h in pairs):
        return "regressed"
    if any(h != b for b, h in pairs):
        return "better"
    return "identical"


def _pairs(base: dict, head: dict, workload: str) -> list:
    """(base run, head run) pairs of one workload, matched by seed; with
    several runs of a seed on both sides, in file order."""
    out = []
    for key in sorted(set(base) & set(head)):
        if key[0] == workload:
            out.extend(zip(base[key], head[key]))
    return out


def failed_share(runs: list) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def _fmt(values: list) -> str:
    return "/".join(f"{v:.4g}" for v in summary(values)) if values else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark runs.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    base, head = load_runs(args.base), load_runs(args.head)
    regressed = False
    workloads = sorted({w for w, _ in base} & {w for w, _ in head})
    for workload in workloads:
        pairs = _pairs(base, head, workload)
        b_runs = [r for k, rs in base.items() if k[0] == workload for r in rs]
        h_runs = [r for k, rs in head.items() if k[0] == workload for r in rs]
        print(f"== {workload}: {len(b_runs)} base run(s), {len(h_runs)} "
              f"head run(s), {len(pairs)} same-seed pair(s)")
        print(f"  {'metric':<24} {'base q1/med/q3':>30} "
              f"{'head q1/med/q3':>30} {'median':>8}  verdict")
        for metric in metrics:
            name = metric["name"]
            b = [r["metrics"][name] for r in b_runs]
            h = [r["metrics"][name] for r in h_runs]
            values = [(bp["metrics"][name], hp["metrics"][name])
                      for bp, hp in pairs]
            if name in b_runs[0]["payload"]["metrics"]:
                result, rule = exact_verdict(values, metric), "same seed"
            else:
                result = host_verdict(values, metric)
                rule = f"bound {metric['bound']:.0%}"
            regressed |= result == "regressed"
            bmed, hmed = statistics.median(b), statistics.median(h)
            change = (hmed - bmed) / bmed if bmed else 0.0
            print(f"  {name:<24} {_fmt(b):>30} {_fmt(h):>30} "
                  f"{change:>+8.2%}  {result} ({rule})")
        fb, fh_ = failed_share(b_runs), failed_share(h_runs)
        print(f"  failed share: base {fb:.4%}, head {fh_:.4%} "
              f"(change {fh_ - fb:+.4%})")
        same = sum(bp["payload"]["digest"] == hp["payload"]["digest"]
                   for bp, hp in pairs)
        print(f"  payload digests: identical on {same} of {len(pairs)} "
              f"pair(s)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
