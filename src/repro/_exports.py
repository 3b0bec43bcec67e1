"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

Each package names its public API once, as a table from the module that
defines a name to the names it re-exports::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".sensing": ("SensorSizing", "SkewSensor"),
        "repro.errors": ("JobError",),
    })

A key is an import path, relative to the package when it starts with a
dot.  A name's module is imported the first time the name is read, so
importing one module of a package does not import its siblings:
``import repro.units`` loads no numpy, and ``repro.core.sensitivity``
loads no clock tree.  A submodule stays reachable as an attribute after
a bare ``import package``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of ``package``, which
    re-exports every name of ``table`` from the module it is keyed by.

    A resolved name is bound in the package, so it is looked up once.  A
    name spelled like its own module (``repro.testing.coverage``) is
    bound now: that module's import would otherwise rebind the package
    attribute to the module.
    """
    owners = {name: module for module, names in table.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name in owners:
            module = importlib.import_module(owners[name], package)
            namespace[name] = value = getattr(module, name)
            return value
        # A dunder is never imported: ``repro.__main__`` runs the CLI.
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    for name, module in owners.items():
        if module == "." + name:
            __getattr__(name)
    return list(owners), __getattr__, __dir__
