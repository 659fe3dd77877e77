"""Run code in a fresh interpreter that imports this checkout's ``repro``.

Import-time behaviour (what a module pulls into ``sys.modules``, whether
an optional dependency is needed) only shows in a process that has not
imported anything yet, so tests that check it run their code here.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` (with ``args`` in ``sys.argv[1:]``) and return its
    standard output; fail the test with its standard error if it exits
    non-zero."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
