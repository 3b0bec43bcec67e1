"""Campaign observability: timings, cache accounting, engine statistics.

A :class:`Telemetry` object rides along a campaign (or any hand-rolled
loop) and records, per job, the wall time, the number of accepted
engine integration points, and whether the value came from cache.  It
exports a machine-readable JSON report (:meth:`Telemetry.to_json`) and a
human summary (:meth:`Telemetry.summary`), and its counters are what the
acceptance checks read to prove a warm-cache run performed *zero* new
transient integrations.

The module also hosts the small timing/printing helpers that used to be
duplicated across ``benchmarks/_util.py`` and ad-hoc scripts:
:class:`Stopwatch`, :func:`format_duration` and :func:`emit_block`.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

from repro.analog.kernels import fold_kernel_stat


def format_duration(seconds: float) -> str:
    """Human-friendly duration: ``738 us``, ``12.3 ms``, ``4.56 s``."""
    if seconds < 0:
        return f"-{format_duration(-seconds)}"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    return f"{seconds / 60.0:.1f} min"


class Stopwatch:
    """Tiny ``perf_counter`` wrapper used by benches and the executor."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction or the last :meth:`restart`."""
        return time.perf_counter() - self._t0

    def restart(self) -> float:
        """Return the elapsed seconds and restart the watch."""
        now = time.perf_counter()
        elapsed, self._t0 = now - self._t0, now
        return elapsed


def emit_block(name: str, lines: Iterable[str], out_dir: str) -> str:
    """Print a named result block and persist it as ``<out_dir>/<name>.txt``.

    The shared printing helper behind every ``benchmarks/bench_*.py``
    (previously a private copy in ``benchmarks/_util.py``).
    """
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}\n")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


@dataclass
class JobRecord:
    """Per-job telemetry sample.

    ``resumed`` marks a value replayed from a checkpoint journal;
    ``error`` holds the exception class name of a job that failed under
    ``on_error="collect"`` (``None`` for successes).
    """

    label: str
    wall: float
    steps: int = 0
    cached: bool = False
    resumed: bool = False
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of this record."""
        data = {
            "label": self.label,
            "wall_s": self.wall,
            "steps": self.steps,
            "cached": self.cached,
        }
        if self.resumed:
            data["resumed"] = True
        if self.error is not None:
            data["error"] = self.error
        return data


@dataclass
class Telemetry:
    """Accumulates campaign metrics; cheap enough to always carry."""

    records: List[JobRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Solver escalation-ladder tallies summed over jobs (rung -> count).
    ladder_rungs: Dict[str, int] = field(default_factory=dict)
    #: Campaign-level robustness counters: pool rebuild re-dispatches and
    #: worker-process deaths observed while producing the results.
    redispatches: int = 0
    worker_crashes: int = 0
    #: Batch-backend counters: samples whose result came out of the
    #: lockstep engine, and samples the lockstep engine masked out and
    #: re-dispatched to the scalar path (the fallback contract).
    batched_samples: int = 0
    batch_fallbacks: int = 0
    #: Resolved batch-dispatch shape: samples per lockstep stack, shard
    #: worker count, and whether the stack size came from the auto-tune
    #: heuristic (vs an explicit ``chunksize``).  Zero
    #: until a batch dispatch records its configuration.
    batch_stack_size: int = 0
    batch_workers: int = 0
    batch_size_auto: bool = False
    #: Hot-loop kernel counters summed over evaluated jobs
    #: (:meth:`repro.analog.kernels.KernelStats.as_dict` fields:
    #: assembles, factorizations, jacobian_reuses, per-phase seconds...).
    kernel: Dict[str, float] = field(default_factory=dict)
    #: Prefix warm-start counters: jobs that reused a shared/cached prefix
    #: checkpoint (``prefix_hits``), prefix transients actually integrated
    #: (``prefix_builds``), wall seconds spent building them, the
    #: steps and Newton iterations they integrated (kept apart from
    #: :attr:`steps_integrated` and :attr:`kernel`, which count the
    #: suffix runs), and the total *simulated* seconds the warm path
    #: skipped re-integrating.
    prefix_hits: int = 0
    prefix_builds: int = 0
    prefix_build_s: float = 0.0
    prefix_steps: int = 0
    prefix_newton_iterations: int = 0
    prefix_saved_time_s: float = 0.0
    #: Extra named durations recorded via :meth:`timer` (setup, report...).
    spans: Dict[str, float] = field(default_factory=dict)
    _wall = None  # type: Optional[Stopwatch]

    def __post_init__(self) -> None:
        self._wall = Stopwatch()

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #
    def record_job(
        self,
        label: str,
        wall: float,
        steps: int = 0,
        cached: bool = False,
        resumed: bool = False,
        error: Optional[str] = None,
        escalations: Optional[Mapping[str, int]] = None,
        kernel: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Record one finished job (fresh, cached, resumed or failed)."""
        self.records.append(
            JobRecord(label=label, wall=wall, steps=steps, cached=cached,
                      resumed=resumed, error=error)
        )
        if escalations:
            self.record_escalations(escalations)
        if kernel:
            self.record_kernel(kernel)

    def record_cache(self, hit: bool) -> None:
        """Count one cache lookup."""
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def record_escalations(self, rungs: Mapping[str, int]) -> None:
        """Fold a solver-ladder tally (rung -> count) into the totals."""
        for rung, count in rungs.items():
            self.ladder_rungs[rung] = self.ladder_rungs.get(rung, 0) + int(count)

    def record_redispatch(self, jobs: int = 1) -> None:
        """Count jobs re-dispatched after a worker-pool rebuild."""
        self.redispatches += jobs

    def record_worker_crash(self) -> None:
        """Count one observed worker-process death (pool breakage)."""
        self.worker_crashes += 1

    def record_kernel(self, stats: Mapping[str, float]) -> None:
        """Fold one run's hot-loop kernel counters into the totals, by
        :func:`~repro.analog.kernels.fold_kernel_stat` (the sparse
        gauges keep their largest value, the rest add).

        Counter fields stay integers; the ``*_s`` phase timings
        accumulate as float seconds.
        """
        for name, value in stats.items():
            total = fold_kernel_stat(name, self.kernel.get(name, 0), value)
            self.kernel[name] = float(total) if name.endswith("_s") else int(total)

    def record_prefix(self, stats: Mapping[str, float]) -> None:
        """Fold prefix warm-start counters into the totals.

        Accepts the keyed tuples/dicts the warm evaluator and the
        planner emit: ``hits`` / ``builds`` (counts), ``build_s`` (wall
        seconds spent integrating shared prefixes), ``steps`` /
        ``newton_iterations`` (the builds' integration work), ``saved_s``
        (simulated seconds the warm path did not re-integrate) and the
        builds' ``esc:<rung>`` solver-ladder counts, which join
        :attr:`ladder_rungs` - so each build's rungs count once, on
        whichever path built it.
        """
        stats = dict(stats)
        self.prefix_hits += int(stats.get("hits", 0))
        self.prefix_builds += int(stats.get("builds", 0))
        self.prefix_build_s += float(stats.get("build_s", 0.0))
        self.prefix_steps += int(stats.get("steps", 0))
        self.prefix_newton_iterations += int(stats.get("newton_iterations", 0))
        self.prefix_saved_time_s += float(stats.get("saved_s", 0.0))
        self.record_escalations({
            name[4:]: count for name, count in stats.items()
            if name.startswith("esc:")
        })

    def record_batch(self, samples: int, fallbacks: int = 0) -> None:
        """Count one batch-engine stack: ``samples`` results produced in
        lockstep and ``fallbacks`` samples re-dispatched to the scalar
        engine."""
        self.batched_samples += int(samples)
        self.batch_fallbacks += int(fallbacks)

    def record_batch_config(
        self, stack_size: int, workers: int, auto: bool = False
    ) -> None:
        """Record the resolved batch-dispatch shape: ``stack_size``
        samples per lockstep stack fanned out over ``workers`` shard
        processes; ``auto`` marks a stack size chosen by the dispatcher's
        fan-out heuristic rather than an explicit setting.  Benches
        read these back so BENCH JSON reports the size actually used."""
        self.batch_stack_size = int(stack_size)
        self.batch_workers = int(workers)
        self.batch_size_auto = bool(auto)

    @contextmanager
    def timer(self, label: str) -> Iterator[None]:
        """Time a named span: ``with telemetry.timer("report"): ...``."""
        watch = Stopwatch()
        try:
            yield
        finally:
            self.spans[label] = self.spans.get(label, 0.0) + watch.elapsed()

    # ------------------------------------------------------------------ #
    # Derived statistics.
    # ------------------------------------------------------------------ #
    @property
    def jobs_total(self) -> int:
        return len(self.records)

    @property
    def jobs_evaluated(self) -> int:
        """Jobs that actually ran a transient (neither cached nor
        replayed from a checkpoint journal)."""
        return sum(1 for r in self.records if not r.cached and not r.resumed)

    @property
    def jobs_resumed(self) -> int:
        """Jobs replayed from a checkpoint journal."""
        return sum(1 for r in self.records if r.resumed)

    @property
    def jobs_failed(self) -> int:
        """Jobs that ended in a collected :class:`~repro.errors.JobError`."""
        return sum(1 for r in self.records if r.error is not None)

    @property
    def steps_integrated(self) -> int:
        """Engine points accepted *in this run* (cached and journal-resumed
        jobs contribute 0 - their integration happened in an earlier run)."""
        return sum(r.steps for r in self.records if not r.cached and not r.resumed)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix lookups that reused an existing checkpoint."""
        lookups = self.prefix_hits + self.prefix_builds
        return self.prefix_hits / lookups if lookups else 0.0

    @property
    def wall_total(self) -> float:
        return sum(r.wall for r in self.records)

    def elapsed(self) -> float:
        """Wall time since this telemetry object was created."""
        return self._wall.elapsed() if self._wall else 0.0

    # ------------------------------------------------------------------ #
    # Export.
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, Any]:
        """The full machine-readable report (used by :meth:`to_json`)."""
        walls = sorted(r.wall for r in self.records if not r.cached)

        def pct(q: float) -> float:
            if not walls:
                return 0.0
            pos = min(len(walls) - 1, int(q * (len(walls) - 1) + 0.5))
            return walls[pos]

        return {
            "jobs": {
                "total": self.jobs_total,
                "evaluated": self.jobs_evaluated,
                "from_cache": sum(1 for r in self.records if r.cached),
                "resumed": self.jobs_resumed,
                "failed": self.jobs_failed,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "engine": {
                "steps_integrated": self.steps_integrated,
                "ladder_rungs": dict(self.ladder_rungs),
                "kernel": dict(self.kernel),
                "prefix": {
                    "hits": self.prefix_hits,
                    "builds": self.prefix_builds,
                    "hit_rate": self.prefix_hit_rate,
                    "build_wall_s": self.prefix_build_s,
                    "steps": self.prefix_steps,
                    "newton_iterations": self.prefix_newton_iterations,
                    "integrated_time_saved_s": self.prefix_saved_time_s,
                },
            },
            "executor": {
                "redispatches": self.redispatches,
                "worker_crashes": self.worker_crashes,
                "batched_samples": self.batched_samples,
                "batch_fallbacks": self.batch_fallbacks,
                "batch_stack_size": self.batch_stack_size,
                "batch_workers": self.batch_workers,
                "batch_size_auto": self.batch_size_auto,
            },
            "wall_s": {
                "jobs_total": self.wall_total,
                "elapsed": self.elapsed(),
                "job_p50": pct(0.50),
                "job_p95": pct(0.95),
                "job_max": walls[-1] if walls else 0.0,
            },
            "spans_s": dict(self.spans),
            "records": [r.as_dict() for r in self.records],
        }

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """JSON report; optionally written to ``path``."""
        text = json.dumps(self.as_dict(), indent=indent, sort_keys=True)
        if path:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        return text

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        data = self.as_dict()
        jobs, wall = data["jobs"], data["wall_s"]
        lines = [
            f"jobs      : {jobs['total']} total, {jobs['evaluated']} evaluated, "
            f"{jobs['from_cache']} from cache, {jobs['resumed']} resumed, "
            f"{jobs['failed']} failed",
            f"cache     : {self.cache_hits} hits, {self.cache_misses} misses",
            f"engine    : {data['engine']['steps_integrated']} integration "
            "points accepted this run",
        ]
        if self.kernel:
            k = self.kernel
            lines.append(
                f"kernel    : {int(k.get('newton_iterations', 0))} newton "
                f"iteration(s), {int(k.get('factorizations', 0))} "
                f"factorization(s), {int(k.get('jacobian_reuses', 0))} "
                f"jacobian reuse(s), {int(k.get('refactorizations', 0))} "
                "slowdown refactor(s)"
            )
            phases = ", ".join(
                f"{name[:-2]} {format_duration(k[name])}"
                for name in ("assemble_s", "factor_s", "solve_s", "accept_s")
                if k.get(name)
            )
            if phases:
                lines.append(f"kernel t  : {phases}")
        if self.prefix_hits or self.prefix_builds:
            lines.append(
                f"prefix    : {self.prefix_hits} warm fork(s), "
                f"{self.prefix_builds} prefix build(s) "
                f"({format_duration(self.prefix_build_s)} wall, "
                f"{self.prefix_steps} step(s), "
                f"{self.prefix_newton_iterations} newton iteration(s)), "
                f"{self.prefix_saved_time_s * 1e9:.1f} ns of simulated "
                "time not re-integrated"
            )
        if self.ladder_rungs:
            rungs = ", ".join(
                f"{rung}={count}"
                for rung, count in sorted(self.ladder_rungs.items())
            )
            lines.append(f"ladder    : {rungs}")
        if self.redispatches or self.worker_crashes:
            lines.append(
                f"executor  : {self.worker_crashes} worker crash(es), "
                f"{self.redispatches} job re-dispatch(es)"
            )
        if self.batched_samples or self.batch_fallbacks:
            shape = ""
            if self.batch_stack_size:
                source = "auto" if self.batch_size_auto else "set"
                shape = (
                    f" ({self.batch_stack_size} samples/stack [{source}], "
                    f"{self.batch_workers} worker(s))"
                )
            lines.append(
                f"batch     : {self.batched_samples} sample(s) in lockstep, "
                f"{self.batch_fallbacks} scalar fallback(s){shape}"
            )
        lines += [
            f"wall time : {format_duration(wall['elapsed'])} elapsed, "
            f"{format_duration(wall['jobs_total'])} in jobs "
            f"(p50 {format_duration(wall['job_p50'])}, "
            f"p95 {format_duration(wall['job_p95'])}, "
            f"max {format_duration(wall['job_max'])})",
        ]
        for label, seconds in sorted(self.spans.items()):
            lines.append(f"span      : {label} = {format_duration(seconds)}")
        return "\n".join(lines)

    def merge(self, other: "Telemetry") -> None:
        """Fold another telemetry object into this one."""
        self.records.extend(other.records)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.redispatches += other.redispatches
        self.worker_crashes += other.worker_crashes
        self.batched_samples += other.batched_samples
        self.batch_fallbacks += other.batch_fallbacks
        if other.batch_stack_size:
            self.batch_stack_size = other.batch_stack_size
            self.batch_workers = other.batch_workers
            self.batch_size_auto = other.batch_size_auto
        self.prefix_hits += other.prefix_hits
        self.prefix_builds += other.prefix_builds
        self.prefix_build_s += other.prefix_build_s
        self.prefix_steps += other.prefix_steps
        self.prefix_newton_iterations += other.prefix_newton_iterations
        self.prefix_saved_time_s += other.prefix_saved_time_s
        self.record_escalations(other.ladder_rungs)
        self.record_kernel(other.kernel)
        for label, seconds in other.spans.items():
            self.spans[label] = self.spans.get(label, 0.0) + seconds
