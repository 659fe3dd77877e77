"""Shared harness utilities: table formatting, result persistence and
the bench's named checks."""

from __future__ import annotations

import operator
import os
from typing import Sequence

__all__ = ["check", "check_verdicts", "format_checks", "format_table",
           "iter_checks", "save_results", "results_dir"]

_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
        ">=": operator.ge, ">": operator.gt}


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str | None = None) -> str:
    """Render an aligned plain-text table (the bench output format)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def results_dir() -> str:
    """Directory bench outputs are written to (created on demand)."""
    path = os.environ.get(
        "REPRO_RESULTS_DIR",
        os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))), "results"),
    )
    os.makedirs(path, exist_ok=True)
    return path


def save_results(name: str, text: str) -> str:
    """Persist one experiment's table to ``results/<name>.txt``."""
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.rstrip() + "\n")
    return path


def check(name: str, value, op: str, threshold,
          measured: bool = True) -> dict:
    """One named bench check: ``value op threshold``.

    The verdict and the threshold string the report shows are built
    here from the same ``op`` and ``threshold``.  ``measured=False``
    (the machine cannot produce a meaningful value) gives the verdict
    ``unmeasured``, which is not a pass.
    """
    if not measured:
        verdict = "unmeasured"
    else:
        verdict = "pass" if _OPS[op](value, threshold) else "fail"
    return {"name": name, "value": value,
            "threshold": f"{op} {_shown(threshold)}", "verdict": verdict}


def iter_checks(node: dict, prefix: str = ""):
    """``(dotted name, check)`` for every check under ``node``.

    Every dict holding a ``checks`` list is a section; a check's dotted
    name is the path of keys to its section plus the check's name.
    """
    for entry in node.get("checks", ()):
        yield prefix + entry["name"], entry
    for key, child in node.items():
        if isinstance(child, dict):
            yield from iter_checks(child, f"{prefix}{key}.")


def check_verdicts(node: dict, prefix: str = "") -> dict[str, list[str]]:
    """Dotted names of the failed and unmeasured checks under ``node``."""
    out: dict[str, list[str]] = {"failed": [], "unmeasured": []}
    for name, entry in iter_checks(node, prefix):
        if entry["verdict"] == "fail":
            out["failed"].append(name)
        elif entry["verdict"] == "unmeasured":
            out["unmeasured"].append(name)
    return out


def format_checks(node: dict, prefix: str = "",
                  title: str | None = None) -> str:
    """Every check under ``node`` as one table, in report order."""
    rows = [[name, _shown(entry["value"]), entry["threshold"],
             entry["verdict"].upper()]
            for name, entry in iter_checks(node, prefix)]
    return format_table(["check", "value", "threshold", "verdict"], rows,
                        title=title)


def _shown(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
