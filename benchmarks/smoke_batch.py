"""CI smoke check of the batched engine: tiny equivalence + timing run.

A trimmed-down version of ``bench_fig5_montecarlo.py`` sized for a
continuous-integration minute: a small seeded population is evaluated
through the serial scalar backend and the lockstep batch backend at the
grid-converged :data:`_util.ACCURATE_OPTIONS`, per-point ``Vmin`` values
are compared, and the measured throughputs are written to
``out/BENCH_smoke_batch.json``.  A third leg fans the same stacks over
:data:`SHARD_WORKERS` shard processes at the same pinned stack size: its
per-point ``Vmin`` must be **bit-identical** to the single-worker batch
leg, and the ratio lands in the record as ``shard_speedup``.  A fourth
leg leaves the stack size to the auto-tune on one worker, which stacks
every sample's warm jobs together (one stack across all samples); it
must stay within the same 1 mV of the serial leg.  Runs standalone
(``python benchmarks/smoke_batch.py``) so the CI job does not depend on
the pytest-benchmark plugin.
"""

import sys

import numpy as np

from repro.montecarlo.parallel import scatter_analysis_parallel
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

#: Pinned samples per stack of the single-worker and sharded legs.  The
#: auto-tuned size depends on the shard worker count, so runs that must
#: be bit-compared across worker counts (the whole point of the sharded
#: leg) pin it.  It is not the widest a warm stack can be: warm stacks
#: hold jobs of any samples that share a fork time (the auto leg).
STACK_SIZE = len(SKEWS_NS)

#: Shard processes of the sharded leg (the width of the benchmark's
#: ``mc_scatter`` workload).
SHARD_WORKERS = 2

#: Equivalence bar, volts (same as the full fig5 bench).
EQUIVALENCE_TOL = 1e-3


def _run_backend(backend, samples, batch_workers=None, chunksize=None):
    telemetry = Telemetry()
    watch = Stopwatch()
    points = scatter_analysis_parallel(
        samples, skews=[ns(t) for t in SKEWS_NS], options=ACCURATE_OPTIONS,
        backend=backend, n_workers=1, batch_workers=batch_workers,
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


def main():
    """Run the smoke comparison; exit non-zero on an equivalence miss."""
    samples = sample_population(N_SAMPLES, LOAD, seed=SEED)
    scalar_points, scalar_metrics = _run_backend("serial", samples)
    batch_points, batch_metrics = _run_backend(
        "batch", samples, batch_workers=1, chunksize=STACK_SIZE
    )
    deviations = np.array([
        abs(s.vmin - b.vmin) for s, b in zip(scalar_points, batch_points)
    ])
    speedup = batch_metrics["samples_per_s"] / scalar_metrics["samples_per_s"]
    record = {
        "options": {"dt_max": ACCURATE_OPTIONS.dt_max,
                    "reltol": ACCURATE_OPTIONS.reltol},
        "grid": {"samples": N_SAMPLES, "skews_ns": list(SKEWS_NS),
                 "seed": SEED},
        "scalar": scalar_metrics,
        "batch": batch_metrics,
        "speedup_batch_vs_serial": speedup,
        "vmin_deviation_max": float(deviations.max()),
    }

    sharded_points, sharded_metrics = _run_backend(
        "batch", samples, batch_workers=SHARD_WORKERS, chunksize=STACK_SIZE
    )
    shard_mismatches = sum(
        1 for b, s in zip(batch_points, sharded_points)
        if b.vmin != s.vmin  # bit-identity, not a tolerance
    )
    shard_speedup = (sharded_metrics["samples_per_s"]
                     / batch_metrics["samples_per_s"])
    record["batch_sharded"] = sharded_metrics
    record["shard_speedup"] = shard_speedup
    record["shard_vmin_mismatches"] = shard_mismatches
    print(f"smoke_batch: sharded x{SHARD_WORKERS} speedup "
          f"{shard_speedup:.2f}x, {shard_mismatches} bit mismatches")

    # Auto-tuned stack size on one worker: one warm stack across samples.
    auto_points, auto_metrics = _run_backend("batch", samples,
                                             batch_workers=1)
    auto_deviation = max(
        abs(s.vmin - a.vmin) for s, a in zip(scalar_points, auto_points)
    )
    record["batch_auto"] = auto_metrics
    record["auto_vmin_deviation_max"] = auto_deviation
    print(f"smoke_batch: auto stack {auto_metrics['batch_stack_size']}, "
          f"{auto_metrics['samples_per_s']:.2f} samples/s, "
          f"max |dVmin| {auto_deviation * 1e3:.3f} mV")

    write_bench_json("smoke_batch", record)
    print(f"smoke_batch: max |dVmin| {deviations.max() * 1e3:.3f} mV, "
          f"speedup {speedup:.2f}x, "
          f"fallbacks {batch_metrics['batch_fallbacks']}")
    if deviations.max() > EQUIVALENCE_TOL:
        print("FAIL: batch-vs-scalar deviation above 1 mV", file=sys.stderr)
        return 1
    if auto_deviation > EQUIVALENCE_TOL:
        print("FAIL: auto-sized batch deviates above 1 mV from scalar",
              file=sys.stderr)
        return 1
    if shard_mismatches:
        print("FAIL: sharded batch is not bit-identical to single-worker",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
