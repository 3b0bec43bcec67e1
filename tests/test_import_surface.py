"""What importing a ``repro`` module loads, and the package exports.

Each package ``__init__`` re-exports its public names lazily
(:mod:`repro._exports`), so a process loads only the modules its
command runs: a client command or a bare ``import repro.units`` loads
no numpy, and the sensitivity and spec layers load no clock tree, fault
models, HTTP client or process pool.  The load checks run in a fresh
interpreter, since this one has imported everything already.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro

PACKAGES = ["repro"] + [f"repro.{info.name}"
                        for info in pkgutil.iter_modules(repro.__path__)
                        if info.ispkg]


def _loaded(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", [
    "import repro.units",
    "import repro.cli",
    "import runpy, sys\n"
    "sys.argv = ['repro', 'status', '--help']\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__')\n"
    "except SystemExit:\n"
    "    pass",
], ids=["units", "cli", "status-help"])
def test_light_entry_points_load_no_numpy(code):
    assert "numpy" not in _loaded(code)


@pytest.mark.parametrize("module", ["repro.core.sensitivity",
                                    "repro.service.specs"])
def test_engine_layers_load_no_tree_faults_client_or_pool(module):
    loaded = _loaded(f"import {module}")
    assert not loaded & {"repro.clocktree", "repro.testing", "repro.faults",
                         "repro.service.client", "http.client",
                         "multiprocessing"}


def test_whole_tree_loads_no_testing_scheme():
    assert "repro.testing" not in _loaded("import repro.clocktree.whole_tree")


def test_submodules_are_attributes_after_a_bare_package_import():
    # ``import repro.core`` loads no submodule; reading one imports it.
    loaded = _loaded(textwrap.dedent(f"""\
        import importlib, pkgutil, sys
        import repro.core
        assert "repro.core.sensitivity" not in sys.modules
        assert repro.core.sensitivity.extract_tau_min
        for name in {PACKAGES!r}:
            package = importlib.import_module(name)
            for info in pkgutil.iter_modules(package.__path__):
                full = f"{{name}}.{{info.name}}"
                if info.name != "__main__" and full not in sys.modules:
                    assert getattr(package, info.name) is sys.modules[full]
        """))
    assert "repro.core.sensitivity" in loaded


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    for export in package.__all__:
        assert getattr(package, export) is not None
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")


def test_names_spelled_like_their_module_stay_the_exported_object():
    # Importing the submodule binds the package attribute to it; the
    # export must win, as the eager ``__init__`` made it.
    import repro.circuit.validate
    import repro.testing.coverage

    from repro.circuit import validate
    from repro.testing import coverage

    assert callable(validate) and validate.__module__ == "repro.circuit.validate"
    assert callable(coverage) and coverage.__module__ == "repro.testing.coverage"
