"""The package's environment surface is exactly eight names.

How a campaign runs is set by its arguments (kwargs, CLI flags, spec
keys).  The environment may only say where the cache and the service
state live, bound the disk cache, and switch on fault injection.  A
new ``REPRO_*`` literal anywhere under ``src/repro`` - code, comment or
docstring - fails this test until it is added here on purpose.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

#: Every ``REPRO_*`` name the package may mention.
ALLOWED = {
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_DISABLE",
    "REPRO_CACHE_MAX_BYTES",
    "REPRO_SERVICE_DIR",
    "REPRO_FAULTS",
    "REPRO_FAULTS_SEED",
    "REPRO_FAULTS_HANG_S",
    "REPRO_FAULTS_SLOW_S",
}


def test_env_names_are_exactly_the_kept_eight():
    root = Path(repro.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        found |= set(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
    assert found == ALLOWED
