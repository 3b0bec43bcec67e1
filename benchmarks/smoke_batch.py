"""CI smoke check of the batched engine: tiny equivalence + timing run.

A trimmed-down version of ``bench_fig5_montecarlo.py`` sized for a
continuous-integration minute: a small seeded population is evaluated
through the serial scalar backend and three lockstep batch legs at the
grid-converged :data:`_util.ACCURATE_OPTIONS` - one worker at a pinned
stack size, the same stacks fanned over :data:`SHARD_WORKERS` shard
processes, and one worker at the auto-tuned size (one warm stack across
all samples).  Every lockstep row steps its own time grid, so every
batch leg must equal the serial leg **bit for bit** on every per-point
``Vmin``, whatever its stack size or worker count; the throughputs
land in ``out/BENCH_smoke_batch.json``, the sharded leg's ratio over
the single-worker leg as ``shard_speedup``.  Runs standalone
(``python benchmarks/smoke_batch.py``) so the CI job does not depend on
the pytest-benchmark plugin.
"""

import sys

from repro.montecarlo.analysis import scatter_analysis
from repro.montecarlo.sampling import sample_population
from repro.units import fF, ns

from _util import (
    ACCURATE_OPTIONS,
    Stopwatch,
    Telemetry,
    throughput_metrics,
    write_bench_json,
)

N_SAMPLES = 4
SKEWS_NS = (0.0, 0.1, 0.4)
LOAD = fF(160)
SEED = 7

#: Pinned samples per stack of the single-worker and sharded legs, so
#: the two differ in worker count only.  It is not the widest a warm
#: stack can be: the auto leg stacks every sample's jobs together.
STACK_SIZE = len(SKEWS_NS)

#: Shard processes of the sharded leg (the width of the benchmark's
#: ``mc_scatter`` workload).
SHARD_WORKERS = 2



def _run_backend(backend, samples, batch_workers=None, chunksize=None):
    telemetry = Telemetry()
    watch = Stopwatch()
    points = scatter_analysis(
        samples, skews=[ns(t) for t in SKEWS_NS], options=ACCURATE_OPTIONS,
        backend=backend, max_workers=1, batch_workers=batch_workers,
        chunksize=chunksize, cache=None, telemetry=telemetry,
    )
    wall = watch.elapsed()
    return points, {
        "backend": backend,
        "jobs": len(points),
        "cache_hit_rate": 0.0,
        "batch_fallbacks": telemetry.batch_fallbacks,
        "batch_stack_size": telemetry.batch_stack_size,
        "batch_workers": telemetry.batch_workers,
        **throughput_metrics(telemetry, wall, len(points)),
    }


def _mismatches(reference, points):
    """Per-point ``Vmin`` values that differ from ``reference`` in any
    bit (not a tolerance)."""
    return sum(1 for r, p in zip(reference, points) if r.vmin != p.vmin)


def main():
    """Run the smoke comparison; exit non-zero on a bit mismatch."""
    samples = sample_population(N_SAMPLES, LOAD, seed=SEED)
    scalar_points, scalar_metrics = _run_backend("serial", samples)
    record = {
        "options": {"dt_max": ACCURATE_OPTIONS.dt_max,
                    "reltol": ACCURATE_OPTIONS.reltol},
        "grid": {"samples": N_SAMPLES, "skews_ns": list(SKEWS_NS),
                 "seed": SEED},
        "scalar": scalar_metrics,
    }
    legs = {
        "batch": dict(batch_workers=1, chunksize=STACK_SIZE),
        "batch_sharded": dict(batch_workers=SHARD_WORKERS,
                              chunksize=STACK_SIZE),
        "batch_auto": dict(batch_workers=1),
    }
    failed = False
    for name, kwargs in legs.items():
        points, metrics = _run_backend("batch", samples, **kwargs)
        mismatches = _mismatches(scalar_points, points)
        record[name] = {**metrics, "vmin_mismatches": mismatches}
        print(f"smoke_batch: {name} stack {metrics['batch_stack_size']} "
              f"x{metrics['batch_workers']} workers, "
              f"{metrics['samples_per_s']:.2f} samples/s, "
              f"{mismatches} bit mismatches against serial, "
              f"fallbacks {metrics['batch_fallbacks']}")
        if mismatches:
            print(f"FAIL: {name} is not bit-identical to the serial leg",
                  file=sys.stderr)
            failed = True
    record["speedup_batch_vs_serial"] = (
        record["batch"]["samples_per_s"] / scalar_metrics["samples_per_s"])
    record["shard_speedup"] = (record["batch_sharded"]["samples_per_s"]
                               / record["batch"]["samples_per_s"])
    print(f"smoke_batch: speedup {record['speedup_batch_vs_serial']:.2f}x, "
          f"sharded x{SHARD_WORKERS} {record['shard_speedup']:.2f}x")
    write_bench_json("smoke_batch", record)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
