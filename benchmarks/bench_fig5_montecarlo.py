"""Fig. 5 - Monte Carlo scatterplot of Vmin vs skew.

Paper setup: uniform +/-15 % relative variation on circuit parameters and
load, clock slews uniform in [0.1, 0.4] ns, inputs independent.  Claim:
"the proposed circuit is slightly sensitive to parameters variations" -
the scatter stays narrow around the nominal curve and the error/no-error
separation survives.

This bench also doubles as the batched-engine acceptance check: the same
(sample, skew) grid is evaluated once through the scalar engine behind
``backend="process"`` and once through the lockstep vectorised engine
behind ``backend="batch"``, sharded over the process leg's workers.  Both
legs run warm and fork one checkpoint tier built before either is
timed, so neither integrates a prefix inside its wall and the two
differ in engine only (run cold, the process leg would build one prefix
per job and the batch leg one per sample and stack, mixing in-stack
prefix sharing into the engine ratio).  Every lockstep row steps its
own time grid, so the per-point ``Vmin`` values must be
**bit-identical**, and the measured throughputs land in
``out/BENCH_fig5_montecarlo.json``.  Every leg uses
:data:`_util.ACCURATE_OPTIONS`.

Two further *warm* legs run - warm-start is the campaign default, and
sharing the parent-built prefix with every shard is precisely what
sharding has to keep working: a single-worker warm leg and a warm leg
sharded over :data:`SHARD_WORKERS` processes at the same pinned stack
size.  The sharded leg's per-point ``Vmin`` must be **bit-identical** to
the warm single-worker leg (not merely within tolerance), its
``prefix_hit_rate`` must stay positive (shards fork the parent's
checkpoint instead of rebuilding it), and the throughput ratio lands in
the record as ``shard_speedup`` (the multiply of the SIMD and multicore
axes).

A cold leg runs at the batch leg's stack size and worker count, so
the two differ in warm start only.  A cold job builds its prefix on the
spot and forks the same suffix a warm job forks from the checkpoint
tier, so the cold leg's per-point ``Vmin`` must equal the scalar leg's
bit for bit; it lands in the record as ``batch_cold``, with
``warm_vs_cold_batch`` the batch leg's throughput over its own.

The ``prefix_planner`` leg measures the campaign planner's prefix
builds on their own, which the legs above cannot show (their
``samples_per_s`` folds the prefix builds into the whole wall).  For B
in :data:`PLANNER_SIZES` Monte Carlo samples it times building all B
prefixes one scalar transient at a time and as one lockstep stack - the
two ways
:func:`repro.runtime.prefix.build_prefixes` builds a missing group -
from an empty checkpoint tier, alternating which side runs first, under
:data:`_util.BENCH_OPTIONS` and
:data:`_util.ACCURATE_OPTIONS`.  The stacked checkpoints must equal the
scalar ones bit for bit.  The record keeps each side's median
milliseconds per prefix and the ``crossover``: the smallest B from
which the stack wins at every measured size - what
:data:`repro.runtime.prefix.PREFIX_STACK_MIN` quotes.
"""

import statistics
import time

import numpy as np

import repro.runtime.prefix as prefix
from repro.core.sensitivity import extract_tau_min
from repro.montecarlo.analysis import sample_job, scatter_analysis
from repro.montecarlo.sampling import sample_population
from repro.runtime import reset_cache, resolve_workers
from repro.units import VTH_INTERPRET, fF, ns, to_ns

from _util import (
    ACCURATE_OPTIONS,
    BENCH_OPTIONS,
    Stopwatch,
    Telemetry,
    emit,
    memory_only_caches,
    throughput_metrics,
    write_bench_json,
)

N_SAMPLES = 30
SKEWS_NS = (0.0, 0.05, 0.1, 0.15, 0.25, 0.4)
LOAD = fF(160)
SEED = 2024

#: Acceptance bar on batch-vs-process throughput.  Both legs fork the
#: checkpoint tier :func:`run` builds before timing either, so neither
#: builds a prefix inside its wall and they differ in engine only.
SPEEDUP_MIN = 5.0

#: Pinned samples per stack for the batch and cold legs: big enough for
#: the full SIMD win, small enough that a sharded pool stays balanced.
WIDE_STACK_SIZE = 30

#: Pinned samples per stack for the single-worker and sharded warm legs,
#: so the two differ in worker count only.  It is not the widest a warm
#: stack can be: the batch leg runs at ``WIDE_STACK_SIZE``.
WARM_STACK_SIZE = len(SKEWS_NS)

#: Shard processes of the sharded warm leg (the width of the
#: benchmark's ``mc_scatter`` workload).
SHARD_WORKERS = 2

#: Prefixes per planner pass in the ``prefix_planner`` leg (18 is one
#: ``mc_scatter`` campaign's).
PLANNER_SIZES = (1, 2, 3, 4, 6, 9, 18)
#: Timed builds per size and side; the leg reports medians.
PLANNER_REPEATS = 10


def _run_backend(backend, samples, max_workers=None, batch_workers=None,
                 chunksize=None, warm_start=False):
    """One fresh (cache-bypassing) scatter campaign; returns metrics too.

    ``max_workers=None`` defers to the runtime's default (half the CPUs);
    the metrics record the *effective* pool width either way.
    ``samples_per_s`` counts the whole wall, prefix builds included
    (see :func:`_util.throughput_metrics`); the warm legs fork the
    checkpoint tier :func:`run` builds first, so ``prefix_builds`` is
    zero on them.
    """
    effective_workers = resolve_workers(max_workers)
    telemetry = Telemetry()
    watch = Stopwatch()
    points = scatter_analysis(
        samples,
        skews=[ns(t) for t in SKEWS_NS],
        options=ACCURATE_OPTIONS,
        backend=backend,
        max_workers=max_workers,
        batch_workers=batch_workers,
        chunksize=chunksize,
        cache=None,
        telemetry=telemetry,
        warm_start=warm_start,
    )
    wall = watch.elapsed()
    lookups = telemetry.cache_hits + telemetry.cache_misses
    return points, {
        "backend": backend,
        "workers": effective_workers,
        "warm_start": warm_start,
        "jobs": len(points),
        "prefix_builds": telemetry.prefix_builds,
        "cache_hit_rate": telemetry.cache_hits / lookups if lookups else 0.0,
        "batched_samples": telemetry.batched_samples,
        "batch_fallbacks": telemetry.batch_fallbacks,
        "batch_stack_size": telemetry.batch_stack_size,
        "batch_workers": telemetry.batch_workers,
        "kernel": dict(telemetry.kernel),
        **throughput_metrics(telemetry, wall, len(points)),
    }


def _build_all(jobs, stacked):
    """``(seconds, checkpoints)`` of building every prefix of ``key ->
    job`` into an empty, memory-only checkpoint tier: the two ways
    :func:`repro.runtime.prefix.build_prefixes` builds a missing group,
    as one stack or one scalar transient each."""
    reset_cache()
    start = time.perf_counter()
    if stacked:
        built = prefix._stack_prefixes(jobs)
    else:
        built = {key: prefix.prefix_checkpoint(job)
                 for key, job in jobs.items()}
    elapsed = time.perf_counter() - start
    return elapsed, {key: checkpoint for key, (checkpoint, _) in built.items()}


def _same_bits(a, b):
    return (a.t == b.t and a.t_prev == b.t_prev
            and np.array_equal(a.state, b.state)
            and np.array_equal(a.state_prev, b.state_prev))


def _planner_leg(options):
    """Per-prefix build cost, scalar against stacked, at each planner
    size (see the module docstring)."""
    samples = sample_population(max(PLANNER_SIZES), LOAD, seed=SEED)
    rows = []
    for size in PLANNER_SIZES:
        jobs = {}
        for sample in samples[:size]:
            job = sample_job(sample, 0.0, options=options).resolved()
            jobs[prefix.prefix_key(job)] = job
        times = {False: [], True: []}
        built = {}
        for repeat in range(PLANNER_REPEATS):
            for stacked in ((False, True) if repeat % 2 else (True, False)):
                elapsed, built[stacked] = _build_all(jobs, stacked)
                times[stacked].append(elapsed / size)
        rows.append({
            "prefixes": size,
            "scalar_ms": statistics.median(times[False]) * 1e3,
            "stacked_ms": statistics.median(times[True]) * 1e3,
            "bit_mismatches": sum(
                1 for key in jobs
                if not _same_bits(built[True][key], built[False][key])),
        })
        rows[-1]["speedup"] = rows[-1]["scalar_ms"] / rows[-1]["stacked_ms"]
    crossover = None
    for row in reversed(rows):
        if row["speedup"] <= 1.0:
            break
        crossover = row["prefixes"]
    return {"options": {"dt_max": options.dt_max, "reltol": options.reltol},
            "repeats": PLANNER_REPEATS, "rows": rows, "crossover": crossover}


def prefix_planner():
    """The ``prefix_planner`` leg under both option sets, on a
    memory-only checkpoint tier."""
    with memory_only_caches():
        return {"bench": _planner_leg(BENCH_OPTIONS),
                "accurate": _planner_leg(ACCURATE_OPTIONS)}


def run():
    samples = sample_population(N_SAMPLES, LOAD, seed=SEED)
    # Every warm leg forks this tier, built before any leg is timed.
    prefix.prepare_prefixes([
        sample_job(sample, ns(tau), options=ACCURATE_OPTIONS)
        for sample in samples for tau in SKEWS_NS
    ])
    # Engine acceptance: the scalar reference goes through a genuine
    # process pool (>= 2 workers even on one CPU, so IPC costs are not
    # dodged); the batch leg shards its stacks over the same number of
    # workers.  Both fork the tier above and integrate each job's
    # suffix only, so the two legs differ in engine only.
    workers = max(2, resolve_workers())
    scalar_points, scalar_metrics = _run_backend(
        "process", samples, workers, warm_start=True
    )
    batch_points, batch_metrics = _run_backend(
        "batch", samples, batch_workers=workers, chunksize=WIDE_STACK_SIZE,
        warm_start=True,
    )
    # Warm vs cold at one stack size and worker count: the cold leg
    # builds every prefix it forks inside its own wall.
    cold = _run_backend(
        "batch", samples, batch_workers=workers, chunksize=WIDE_STACK_SIZE
    )
    # Shard acceptance, warm (the campaign default, and the case where
    # every shard must reuse the parent's prefix): a single-worker warm
    # leg and a sharded warm leg at the same pinned stack size,
    # bit-compared.
    warm_points, warm_metrics = _run_backend(
        "batch", samples, batch_workers=1, chunksize=WARM_STACK_SIZE,
        warm_start=True,
    )
    sharded_points, sharded_metrics = _run_backend(
        "batch", samples, batch_workers=SHARD_WORKERS,
        chunksize=WARM_STACK_SIZE, warm_start=True,
    )
    sharded = (warm_points, warm_metrics, sharded_points, sharded_metrics)
    return (scalar_points, scalar_metrics, batch_points, batch_metrics,
            cold, sharded, prefix_planner())


def test_fig5_scatterplot(benchmark):
    (scalar_points, scalar_metrics, batch_points, batch_metrics, cold,
     sharded, planner) = benchmark.pedantic(run, rounds=1, iterations=1)
    tau_nominal = extract_tau_min(
        LOAD, tolerance=ns(0.005), options=ACCURATE_OPTIONS
    )

    # Batched-engine acceptance: per-point bit identity and throughput.
    mismatches = sum(
        1 for s, b in zip(scalar_points, batch_points)
        if s.vmin != b.vmin  # bit-identity, not a tolerance
    )
    speedup = batch_metrics["samples_per_s"] / scalar_metrics["samples_per_s"]
    record = {
        "options": {"dt_max": ACCURATE_OPTIONS.dt_max,
                    "reltol": ACCURATE_OPTIONS.reltol},
        "grid": {"samples": N_SAMPLES, "skews_ns": list(SKEWS_NS),
                 "seed": SEED},
        "scalar": scalar_metrics,
        "batch": batch_metrics,
        "speedup_batch_vs_process": speedup,
        "speedup_min": SPEEDUP_MIN,
        "vmin_mismatches": mismatches,
    }
    warm_points, warm_metrics, sharded_points, sharded_metrics = sharded
    shard_mismatches = sum(
        1 for b, s in zip(warm_points, sharded_points)
        if b.vmin != s.vmin  # bit-identity, not a tolerance
    )
    record["batch_warm"] = warm_metrics
    record["batch_sharded"] = sharded_metrics
    record["shard_speedup"] = (sharded_metrics["samples_per_s"]
                               / warm_metrics["samples_per_s"])
    record["shard_vmin_mismatches"] = shard_mismatches
    cold_points, cold_metrics = cold
    cold_deviations = np.array([
        abs(s.vmin - c.vmin) for s, c in zip(scalar_points, cold_points)
    ])
    record["batch_cold"] = cold_metrics
    record["warm_vs_cold_vmin_deviation_max"] = float(cold_deviations.max())
    record["warm_vs_cold_batch"] = (batch_metrics["samples_per_s"]
                                    / cold_metrics["samples_per_s"])
    record["prefix_planner"] = planner
    write_bench_json("fig5_montecarlo", record)

    points = scalar_points
    lines = [
        "Fig. 5 reproduction: Monte Carlo scatter of Vmin vs tau "
        f"(nominal C = {LOAD * 1e15:.0f} fF, {N_SAMPLES} samples)",
        f"  parameter variation +/-15 % uniform; slews U[0.1, 0.4] ns",
        f"  nominal tau_min = {to_ns(tau_nominal):.3f} ns; "
        f"Vth = {VTH_INTERPRET:.2f} V",
        "",
        "  tau[ns]   Vmin: min    mean    max   sigma   flagged",
    ]
    spread_at = {}
    for tau_ns in SKEWS_NS:
        vmins = np.array([p.vmin for p in points if p.skew == ns(tau_ns)])
        flagged = int((vmins > VTH_INTERPRET).sum())
        spread_at[tau_ns] = vmins
        lines.append(
            f"  {tau_ns:6.2f}   {vmins.min():9.2f} {vmins.mean():7.2f} "
            f"{vmins.max():6.2f} {vmins.std():7.3f}   {flagged}/{len(vmins)}"
        )
    lines += [
        "",
        "  batched engine vs scalar (warm, prefixes built before timing, "
        f"{batch_metrics['batch_workers']} vs {scalar_metrics['workers']} "
        "workers):",
        f"    Vmin bit mismatches = {mismatches} of {len(batch_points)}",
        f"    throughput  = {batch_metrics['samples_per_s']:.2f} vs "
        f"{scalar_metrics['samples_per_s']:.2f} samples/s "
        f"-> {speedup:.2f}x (bar {SPEEDUP_MIN:.0f}x), prefix builds "
        f"{batch_metrics['prefix_builds']} and "
        f"{scalar_metrics['prefix_builds']}",
    ]
    lines += [
        f"    sharded warm= {sharded_metrics['samples_per_s']:.2f} "
        f"samples/s over {sharded_metrics['batch_workers']} workers "
        f"-> {record['shard_speedup']:.2f}x the warm single-worker "
        f"batch ({warm_metrics['samples_per_s']:.2f}), "
        f"{shard_mismatches} bit mismatches, prefix hit rate "
        f"{sharded_metrics['prefix_hit_rate']:.2f}",
        f"    cold batch  = {cold_metrics['samples_per_s']:.2f} samples/s "
        f"at stack {cold_metrics['batch_stack_size']} "
        f"({cold_metrics['prefix_builds']} prefix builds) -> the batch "
        f"leg is {record['warm_vs_cold_batch']:.2f}x it, max |dVmin| "
        f"{cold_deviations.max() * 1e3:.3f} mV against the scalar leg "
        "(bar: equal)",
    ]
    lines += ["", "  planner prefix builds, ms per prefix (median of "
              f"{PLANNER_REPEATS}), scalar vs one stack:"]
    for name, leg in planner.items():
        lines.append(f"    {name} options (dt_max "
                     f"{leg['options']['dt_max'] * 1e12:.0f} ps), "
                     f"crossover at {leg['crossover']} prefixes:")
        for row in leg["rows"]:
            lines.append(
                f"      {row['prefixes']:3d} prefixes  {row['scalar_ms']:7.2f} "
                f"vs {row['stacked_ms']:7.2f} -> {row['speedup']:.2f}x, "
                f"{row['bit_mismatches']} bit mismatches")
    emit("fig5_montecarlo", lines)

    # Shape claims: clean separation far from tau_min.  In the transition
    # region the population is bimodal (a sample's own parameter draw
    # decides its side of the threshold) - exactly the scatter the paper
    # shows - so only the far points admit hard assertions.
    assert np.mean(spread_at[0.0] > VTH_INTERPRET) <= 0.1, "false alarms at tau=0"
    assert np.mean(spread_at[0.4] > VTH_INTERPRET) >= 0.9, "misses at tau=0.4 ns"
    means = [spread_at[t].mean() for t in SKEWS_NS]
    assert means == sorted(means), "mean Vmin must rise with tau"

    # Batched-engine acceptance claims.
    assert mismatches == 0, (
        f"{mismatches} per-point Vmin bits differ between the batch and "
        "the scalar engine"
    )
    assert batch_metrics["batch_fallbacks"] == 0, "unexpected scalar fallbacks"
    assert cold_deviations.max() == 0.0, (
        f"cold batch deviates {cold_deviations.max() * 1e3:.3f} mV "
        "from the warm scalar leg"
    )
    assert scalar_metrics["prefix_builds"] == 0, (
        "the process leg built prefixes inside its wall"
    )
    assert batch_metrics["prefix_builds"] == 0, (
        "the batch leg built prefixes inside its wall"
    )
    assert speedup >= SPEEDUP_MIN, (
        f"batch speedup {speedup:.2f}x below the {SPEEDUP_MIN:.0f}x bar"
    )
    # Sharded acceptance: identical bits and live prefix sharing,
    # always; the >= 1.5x throughput bar lives in
    # tools/check_bench_regression.py (shard_speedup <= 1.0 is always
    # flagged) because wall-clock gain needs real cores, which a
    # one-CPU box cannot provide.
    assert shard_mismatches == 0, (
        f"{shard_mismatches} per-point Vmin bits differ between the "
        "sharded and single-worker warm batch paths"
    )
    assert sharded_metrics["prefix_hit_rate"] > 0, (
        "sharded warm leg never forked the parent's prefix"
    )
    # Planner acceptance: a stacked prefix is its scalar build, bit for
    # bit, at every size and under both option sets.
    for leg in planner.values():
        assert all(row["bit_mismatches"] == 0 for row in leg["rows"]), (
            "stacked prefix checkpoints differ from their scalar builds"
        )
