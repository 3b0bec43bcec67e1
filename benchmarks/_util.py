"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and

* prints the reproduced rows/series,
* writes them to ``benchmarks/out/<name>.txt`` for EXPERIMENTS.md,
* asserts the qualitative *shape* claims (who wins, trends, crossovers).

The timing/printing machinery lives in :mod:`repro.runtime.telemetry`
(shared with the campaign executor and the CLI); this module only binds
it to the benchmark output directory and re-exports the pieces the
``bench_*.py`` scripts use.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator

from repro.analog.engine import FAST_OPTIONS, TransientOptions
from repro.runtime import reset_cache
from repro.runtime.telemetry import (  # noqa: F401  (re-exported for benches)
    Stopwatch,
    Telemetry,
    emit_block,
    format_duration,
)

#: Engine options used by most benches: the CLI's FAST options.  On the
#: Fig.-4 grid (3 loads x 4 slews x 8 skews) their ``Vmin`` lies within
#: 1.83 mV of a dt_max = 2 ps, reltol = 1e-3 reference, 0.75 mV in the
#: median (ROADMAP, "FAST is converged").
BENCH_OPTIONS = FAST_OPTIONS

#: Grid-converged options for cross-engine comparisons: a check of
#: "batch equals scalar to 1 mV" must run where the scalar itself is
#: converged, tighter than FAST's 1.83 mV; at dt_max = 5 ps both engines
#: sit within ~0.2 mV of the dt_max = 2 ps reference.
ACCURATE_OPTIONS = TransientOptions(dt_max=5e-12, reltol=1e-3)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


@contextmanager
def memory_only_caches() -> Iterator[None]:
    """Run the block with the disk cache tiers off
    (``REPRO_CACHE_DISABLE=1``), so a leg that empties its caches with
    ``reset_cache()`` starts from nothing; the setting is restored and
    the caches emptied again on exit."""
    saved = os.environ.get("REPRO_CACHE_DISABLE")
    os.environ["REPRO_CACHE_DISABLE"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_CACHE_DISABLE"]
        else:
            os.environ["REPRO_CACHE_DISABLE"] = saved
        reset_cache()


def emit(name: str, lines: Iterable[str]) -> str:
    """Print a result block and persist it under ``benchmarks/out/``."""
    return emit_block(name, lines, OUT_DIR)


def throughput_metrics(
    telemetry: Telemetry, wall_s: float, n_samples: int
) -> Dict[str, Any]:
    """Per-leg throughput numbers.

    ``samples_per_s`` divides by the leg's whole wall time: a prefix
    build is per-job work like the suffix forked from it.  The build
    wall is reported on its own too (``prefix_build_s``), alongside the
    warm-start effectiveness counters (``prefix_hit_rate``,
    ``integrated_time_saved_s``).
    """
    return {
        "wall_s": wall_s,
        "prefix_build_s": telemetry.prefix_build_s,
        "samples_per_s": n_samples / wall_s,
        "prefix_hit_rate": telemetry.prefix_hit_rate,
        "integrated_time_saved_s": telemetry.prefix_saved_time_s,
    }


def write_bench_json(name: str, payload: Dict[str, Any]) -> str:
    """Persist machine-readable bench metrics as ``out/BENCH_<name>.json``.

    ``payload`` carries the bench-specific numbers (wall times, samples/s,
    backend, cache hit rate, deviations...); a small envelope (bench name,
    unix timestamp, platform) is added so CI artifacts from different runs
    remain distinguishable.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    document = {
        "bench": name,
        "timestamp": time.time(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **payload,
    }
    path = os.path.join(OUT_DIR, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return path
