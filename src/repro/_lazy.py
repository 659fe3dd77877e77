"""Package re-exports resolved on first use (Scientific Python SPEC 1).

A package ``__init__`` declares which names it re-exports from which
submodule, in one line::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "device": ["SimulatedGPU", ...],
        ...
    })

Importing the package then imports none of its submodules.  The first
access to ``pkg.SimulatedGPU`` (or ``from pkg import SimulatedGPU``)
imports ``pkg.device`` and caches the value in the package's globals, so
later accesses never reach ``__getattr__`` again.  A bare submodule name
(``pkg.mps``) resolves to the submodule.  This keeps a process that only
needs ``repro.gpu.device`` from paying for everything else the package
offers.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def attach(package: str, exports: dict[str, list[str]]
           ) -> tuple[Callable[[str], object], Callable[[], list[str]],
                      list[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule's name, relative to ``package``, to
    the names the package re-exports from it.
    """
    home = {name: sub for sub, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        sub = home.get(name)
        try:
            module = importlib.import_module(f"{package}.{sub or name}")
        except ModuleNotFoundError as exc:
            if sub is not None or exc.name != f"{package}.{name}":
                raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = module if sub is None else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__, list(home)
