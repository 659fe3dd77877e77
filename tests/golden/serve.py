"""Golden ``repro serve`` payloads.

Seven ``repro serve`` runs, whose ``--out`` JSON is committed in
``serve_digests.json`` beside this module, so that a change that keeps
every modelled result is checked against a file rather than only
against its parent commit.  ``test_serve_digests.py`` recomputes each
payload, under the interpreter's builtin ``sum`` and again under
Python 3.12's compensated one (``tests.pysum.sum_py312``), and compares
it with the file.

The CLI writes no wall-clock fields to ``--out``.  The loop-event counts
(keys ``events`` and ``events_processed``, at any depth) are kept apart
from the payload, so that a change which only saves loop events shows
up as a declared diff of that section, not as a payload mismatch.

Regenerate the file (a re-baseline: CHANGES.md must name the runs that
moved, and why)::

    PYTHONPATH=src python -m tests.golden.serve
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from repro.cli import main as cli_main

GOLDEN = Path(__file__).with_name("serve_digests.json")

#: Run name -> ``repro serve`` arguments.
RUNS = {
    "chaos-mig-mps": ("--chaos", "--mode", "mig-mps"),
    "chaos-mps": ("--chaos", "--mode", "mps"),
    "chaos-timeshare": ("--chaos", "--mode", "timeshare"),
    "autoscale": ("--autoscale",),
    "autoscale-chaos": ("--autoscale", "--chaos", "--horizon", "300"),
    "sharded-chaos": ("--requests", "400", "--rate", "3.4", "--seed", "7",
                      "--chaos", "--shards", "1", "--cells", "3"),
    "sharded-autoscale": ("--autoscale", "--chaos", "--horizon", "300",
                          "--shards", "1", "--cells", "3"),
}

#: Keys whose values count loop events.
EVENT_KEYS = ("events", "events_processed")


def split_events(report: dict) -> tuple[dict, dict]:
    """``(payload, events)``: ``report`` without its event counts, and
    the counts by dotted path (list items by index)."""
    events = {}

    def strip(node, path: str):
        if isinstance(node, dict):
            kept = {}
            for key, value in node.items():
                where = f"{path}.{key}" if path else key
                if key in EVENT_KEYS:
                    events[where] = value
                else:
                    kept[key] = strip(value, where)
            return kept
        if isinstance(node, list):
            return [strip(v, f"{path}[{i}]") for i, v in enumerate(node)]
        return node

    return strip(report, ""), events


def run(name: str) -> dict:
    """``{"argv", "payload", "events"}`` of one run, recomputed."""
    argv = ["serve", *RUNS[name]]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "serve.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
        report = json.loads(out.read_text())
    payload, events = split_events(report)
    return {"argv": argv, "payload": payload, "events": events}


def load() -> dict:
    """The committed runs, by name."""
    return json.loads(GOLDEN.read_text())


def main() -> None:
    runs = {name: run(name) for name in RUNS}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(runs)} runs)")


if __name__ == "__main__":
    main()
