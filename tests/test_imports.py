"""Import-time contract of the ``repro`` packages.

Every package ``__init__`` declares its re-exports through
:func:`repro._lazy.attach` and imports nothing until a name is used.
These tests check, in fresh interpreters, what that promises:

- the benchmark's serving path leaves the heavy and unrelated parts of
  the tree (and networkx) unimported;
- each package's public names resolve to the objects their submodules
  define, star-imports bind them all, misspellings raise
  ``AttributeError``, and submodules stay reachable as attributes.
"""

import ast
import json
import pathlib

import pytest

from tests.fresh import SRC, run_fresh

#: What the benchmark's scenarios import.
SERVING_PATH = [
    "repro.faas.chaos",
    "repro.gpu.device",
    "repro.gpu.mig",
    "repro.workloads.serving",
    "repro.workloads.fleet",
    "repro.workloads.autoscale",
    "repro.workloads.resilience",
    "repro.workloads.llm",
    "repro.telemetry.streaming",
]

#: Modules the serving path must not load, with their submodules.
OFF_PATH = [
    "networkx",
    "repro.bench",
    "repro.cluster",
    "repro.colmena",
    "repro.k8s",
    "repro.runner",
    "repro.telemetry.graph",
]


def test_serving_path_import_closure():
    code = ("import importlib, json, sys\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    loaded = json.loads(run_fresh(code, *SERVING_PATH))
    stray = [m for m in loaded
             if any(m == p or m.startswith(p + ".") for p in OFF_PATH)]
    assert stray == []


def _declared_exports() -> dict[str, dict[str, list[str]]]:
    """``{package: {submodule: [names]}}`` as written in each
    ``__init__``'s ``attach`` call."""
    root = pathlib.Path(SRC)
    packages = {}
    for init in sorted(root.glob("repro/*/**/__init__.py")):
        tree = ast.parse(init.read_text())
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "attach"]
        assert len(calls) == 1, f"{init}: expected one attach(...) call"
        package = ".".join(init.parent.relative_to(root).parts)
        packages[package] = ast.literal_eval(calls[0].args[1])
    return packages


EXPORTS = _declared_exports()

API_SURFACE = """
import importlib, json, sys

package, exports = sys.argv[1], json.loads(sys.argv[2])
pkg = importlib.import_module(package)
assert [m for m in sys.modules if m.startswith(package + ".")] == [], \\
    "importing the package imported a submodule"

for sub in exports:
    module = getattr(pkg, sub)
    assert module is sys.modules[f"{package}.{sub}"], sub

names = [name for sub_names in exports.values() for name in sub_names]
assert sorted(pkg.__all__) == sorted(names), pkg.__all__
listing = dir(pkg)
for sub, sub_names in exports.items():
    source = sys.modules[f"{package}.{sub}"]
    for name in sub_names:
        assert getattr(pkg, name) is getattr(source, name), name
        assert name in listing, name

namespace = {}
exec(f"from {package} import *", namespace)
missing = [name for name in names if name not in namespace]
assert missing == [], missing

try:
    pkg.NoSuchName
except AttributeError as exc:
    assert "NoSuchName" in str(exc), exc
else:
    raise AssertionError("a misspelt name resolved")
"""


def test_every_package_declares_exports():
    assert len(EXPORTS) == 13, sorted(EXPORTS)


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_package_api_surface(package):
    run_fresh(API_SURFACE, package, json.dumps(EXPORTS[package]))
