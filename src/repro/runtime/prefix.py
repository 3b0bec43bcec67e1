"""Prefix-shared warm-start evaluation of sensor jobs.

Every Fig. 4 / Table 1 data point re-integrates the sensing circuit from
``t = 0``, yet all samples sharing (load, slew-independent physics) are
*identical* until the skew-shifted clock edges: both clocks sit flat at
0 V over ``[0, settle + min(0, tau))``, so the only thing the skew (and
the slews, and the period) change about the early waveform is *when* it
ends.  This module exploits that:

1. **Fork time.**  Each job forks at ``fork = settle + min(0, tau) -
   PREFIX_GUARD``.  The guard keeps the checkpoint strictly before the
   first clock corner, so the prefix sees only flat sources; making the
   fork a *per-job deterministic* function (rather than a per-campaign
   ``min`` over the submitted taus) is what lets the sequential probes
   of a ``tau_min`` search - which arrive one at a time - share one
   cached prefix: every job with ``tau >= 0`` forks at exactly
   ``settle - PREFIX_GUARD``.

2. **Prefix key.**  The checkpoint is content-addressed on the
   skew-invariant job fields (loads, process, sizing, topology switches,
   engine options) plus the fork time - everything except ``tau``, the
   slews, the period and the interpretation threshold, none of which can
   influence the circuit before ``fork`` (the clocks' first breakpoints
   all lie at ``settle + min(0, tau)`` or later).  Keys live in the
   checkpoint tier of :mod:`repro.runtime.cache`, namespaced by the same
   physics fingerprint as results.

3. **Evaluation.**  A job fetches (or integrates) the prefix with
   ``checkpoint_at=fork``, then resumes from the checkpoint over the
   *measurement suffix only* ``[fork, fall_start]`` - every window of
   :func:`repro.core.response.measurement_windows` lies inside it, so
   the post-measurement half period is never integrated at all.  The
   restart uses the engine's backward-Euler-after-breakpoint rule, so
   the forked run is a legal grid continuation of the prefix.  This is
   the only evaluation of a sensor job: ``SensorJob.warm_start`` only
   says whether the prefix comes from (and goes to) the checkpoint
   tier or is built on the spot, so a job returns the same bits either
   way.  A job with no usable fork (:func:`warm_eligible` false) runs
   one transient from its operating point to ``fall_start``.

:func:`warm_plan` writes that plan once, for one job
(:func:`evaluate_job_warm`) and for a lockstep stack
(:func:`repro.batch.response.evaluate_jobs_batch`): it fetches or builds
each distinct prefix once and returns one checkpoint and one stop per
job, so one stack can hold the jobs of many samples, each row on its
own window.

Prefixes are built in one place, :func:`build_prefixes`.  A group of at
least :data:`PREFIX_STACK_MIN` missing prefixes that share one circuit
topology and one set of engine options integrates as one lockstep stack
(:func:`repro.batch.engine.batch_transient`, every row stopping at its
own fork and handing back its checkpoint there).  Every other prefix -
a smaller group, a ``"sparse"`` policy, a row the stack masked out - is
a scalar :func:`prefix_checkpoint` build.  Each stacked checkpoint is
its scalar build bit for bit, so which path built a cached prefix never
shows in a result.

A campaign plans the prefixes of its ``warm_start`` jobs once, before
dispatch, in one pass that keys each job's prefix once:
:func:`prepare_prefixes` builds the missing ones in the parent process
(the serial and process backends), and :func:`publish_prefixes` - the
batch dispatcher's pass - adds the disk re-put that serves shard
workers.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analog.engine import (
    TransientCheckpoint,
    resolve_jacobian_policy,
    transient,
)
from repro.core.response import measurement_windows, read_response
from repro.errors import SimulationError
from repro.runtime.cache import get_checkpoint_cache, stable_key
from repro.runtime.jobs import JobResult, SensorJob, job_circuit
from repro.runtime.telemetry import Stopwatch, Telemetry

#: Namespace of checkpoint-tier keys (never collides with job results).
PREFIX_NAMESPACE = "transient-prefix"

#: Seconds the fork is kept *before* the earliest clock corner.  The
#: guard absorbs the engine's breakpoint landing tolerance (a few ULPs at
#: the horizon scale, ~1e-23 s) with orders of magnitude to spare and
#: guarantees the checkpoint state is taken while every source is still
#: flat; 50 ps is also large enough that the post-restart dt ramp
#: (dt_start = 0.1 ps, growing 2x per accepted step) re-reaches the
#: pre-edge cruise step before the first clock corner, so the forked
#: grid meets the edge the same way an unforked run does.
PREFIX_GUARD = 50e-12

#: Don't bother forking when the prefix is shorter than this many
#: dt_start ramps - the checkpoint round-trip would cost more than the
#: handful of steps it saves.
_MIN_PREFIX_STEPS = 16.0

#: Fewest missing prefixes of one topology and option set that
#: :func:`build_prefixes` integrates as one lockstep stack instead of
#: one scalar transient each: the break-even the ``prefix_planner`` leg
#: of ``benchmarks/bench_fig5_montecarlo.py`` measures (``crossover``
#: of both option sets in ``benchmarks/out/BENCH_fig5_montecarlo.json``,
#: a 2-core x86 box).  Per prefix, a stack of 3 costs more than three
#: scalar builds (0.86x their speed under FAST options, 0.76x
#: grid-converged), a stack of 4 less (1.31x, 1.07x), and the gain
#: grows with the stack: one ``mc_scatter`` campaign's 18 prefixes
#: build 2.5x (FAST) and 3.6x faster.
PREFIX_STACK_MIN = 4

#: A prefix fetch: ``(checkpoint, stats)`` (see :func:`prefix_checkpoint`),
#: or the :class:`~repro.errors.SimulationError` its build raised.
Fetched = Union[Tuple[TransientCheckpoint, Dict[str, float]], SimulationError]


def fork_time(job: SensorJob) -> float:
    """Fork time of ``job``: just before its earliest clock corner.

    ``settle + min(0, tau) - PREFIX_GUARD``; deterministic per job (not
    per campaign) so search probes submitted one at a time still land
    on the same cached prefix when ``tau >= 0``.
    """
    resolved = job.resolved()
    return resolved.settle + min(0.0, resolved.skew) - PREFIX_GUARD


def warm_eligible(job: SensorJob) -> bool:
    """Whether ``job`` has a usable fork: one comfortably after ``t=0``.

    The suffix always starts after the fork: ``fall_start - fork`` is
    ``period / 2 - max(slew1, slew2) + PREFIX_GUARD``, and
    :class:`~repro.devices.sources.ClockSource` refuses a slew of half
    the period or more.
    """
    resolved = job.resolved()
    return fork_time(resolved) >= _MIN_PREFIX_STEPS * resolved.options.dt_start


def prefix_signature(job: SensorJob) -> Dict[str, object]:
    """The skew-invariant fields addressing a prefix checkpoint.

    Everything that shapes the circuit or the solver before the fork:
    loads, process corner, sizing, topology switches, engine options and
    the fork time itself.  Deliberately *excludes* ``skew``, ``slew1``/
    ``slew2``, ``period`` and ``threshold`` - both clocks are flat 0 V
    on ``[0, fork]`` (their first waveform corners lie at ``settle +
    min(0, tau) > fork``), so those fields cannot influence the prefix
    solution or its grid.
    """
    resolved = job.resolved()
    return {
        "load1": resolved.load1,
        "load2": resolved.load2,
        "process": resolved.process,
        "sizing": resolved.sizing,
        "full_swing": resolved.full_swing,
        "parasitics": resolved.parasitics,
        "options": resolved.options,
        "fork": fork_time(resolved),
    }


def prefix_key(job: SensorJob) -> str:
    """Content-address of ``job``'s prefix checkpoint."""
    return stable_key(prefix_signature(job), namespace=PREFIX_NAMESPACE)


def prefix_checkpoint(
    resolved: SensorJob,
) -> Tuple[TransientCheckpoint, Dict[str, float]]:
    """Fetch or integrate the shared prefix checkpoint of ``resolved``.

    Returns ``(checkpoint, stats)``: ``{"hits": 1}`` on a cache hit;
    after a fresh build, ``builds``, the wall seconds spent building
    (``build_s``), the build's accepted ``steps`` and
    ``newton_iterations``, and its solver-ladder counts (``esc:<rung>``
    entries, which :meth:`~repro.runtime.telemetry.Telemetry.record_prefix`
    folds into ``ladder_rungs``).  The checkpoint tier is read and
    written only for a ``warm_start`` job; any other job always builds.
    """
    fork = fork_time(resolved)
    if resolved.warm_start:
        key = prefix_key(resolved)
        cache = get_checkpoint_cache()
        payload = cache.get(key)
        if payload is not None:
            return TransientCheckpoint.from_payload(payload), {"hits": 1.0}
    watch = Stopwatch()
    sensor, netlist = job_circuit(resolved)
    result = transient(
        netlist,
        t_stop=fork,
        record=[],
        initial=sensor.dc_guess(),
        options=resolved.options,
        checkpoint_at=fork,
    )
    checkpoint = result.checkpoint
    if resolved.warm_start:
        cache.put(key, checkpoint.to_payload())
    stats: Dict[str, float] = {
        "builds": 1.0, "build_s": watch.elapsed(),
        "steps": float(len(result.times) - 1),
        "newton_iterations": float(result.kernel_stats["newton_iterations"]),
    }
    for rung, count in result.escalations.items():
        stats[f"esc:{rung}"] = float(count)
    return checkpoint, stats


def _stack_prefixes(
    group: Mapping[Hashable, SensorJob],
) -> Dict[Hashable, Tuple[TransientCheckpoint, Dict[str, float]]]:
    """Integrate the missing prefixes of ``group`` (one topology, one
    option set) as one lockstep stack; return every completed row's
    checkpoint, cached under its key when its job is ``warm_start``.

    Each row runs its own sensor from the scalar DC ladder to its own
    fork, so its checkpoint is its scalar build's bit for bit, and its
    stats are a scalar build's: ``builds``, its own ``steps``,
    ``newton_iterations`` and ``esc:<rung>`` counts, and an equal share
    of the stack's wall as ``build_s``.  Returns
    nothing when the policy would run the scalar build on the sparse
    backend (a stack has none, and SuperLU rounds differently); a row
    the stack masks out is missing from the result.
    """
    # Imported lazily: repro.batch imports this module.
    from repro.batch.compile import compile_batch
    from repro.batch.engine import batch_transient

    watch = Stopwatch()
    jobs = list(group.values())
    circuits = [job_circuit(job) for job in jobs]
    batch = compile_batch([netlist for _, netlist in circuits])
    options = jobs[0].options
    if resolve_jacobian_policy(batch, options)[0] != "dense":
        return {}
    result = batch_transient(
        batch, t_stop=[fork_time(job) for job in jobs], record=[],
        initial=[sensor.dc_guess() for sensor, _ in circuits],
        options=options,
    )
    cache = get_checkpoint_cache()
    done = []
    for (key, job), checkpoint, times, iterations, rungs in zip(
        group.items(), result.checkpoints, result.times,
        result.row_counters["newton_iterations"], result.row_escalations,
    ):
        if checkpoint is not None:
            if job.warm_start:
                cache.put(key, checkpoint.to_payload())
            stats = {"steps": float(len(times) - 1),
                     "newton_iterations": float(iterations)}
            for rung, count in rungs.items():
                stats[f"esc:{rung}"] = float(count)
            done.append((key, checkpoint, stats))
    share = watch.elapsed() / max(1, len(done))
    return {key: (checkpoint, dict(stats, builds=1.0, build_s=share))
            for key, checkpoint, stats in done}


def build_prefixes(
    jobs: Mapping[Hashable, SensorJob],
) -> Dict[Hashable, Fetched]:
    """Fetch or build the prefix checkpoint of every ``key -> job`` of
    resolved, warm-eligible ``jobs``: ``key`` is the job's
    :func:`prefix_key` (its checkpoint-tier key) when the job is
    ``warm_start``, and any other name for a cold job's build.

    The one implementation of prefix building.  With at least
    :data:`PREFIX_STACK_MIN` keys, the ones the checkpoint tier cannot
    serve (a miss, or a job that is not ``warm_start``) are grouped by
    :func:`~repro.batch.response.batch_signature`, and every group of at
    least :data:`PREFIX_STACK_MIN` integrates as one lockstep stack
    (:func:`_stack_prefixes`).  Every other key - a hit, a smaller
    group, a policy whose scalar build runs the sparse backend, a row
    the stack masked out - goes through the scalar
    :func:`prefix_checkpoint`; a build that raises maps its key to the
    :class:`~repro.errors.SimulationError`.
    """
    fetched: Dict[Hashable, Fetched] = {}
    if len(jobs) >= PREFIX_STACK_MIN:
        # Imported lazily: repro.batch imports this module.
        from repro.batch.response import batch_signature

        cache = get_checkpoint_cache()
        groups: Dict[Hashable, Dict[Hashable, SensorJob]] = {}
        for key, job in jobs.items():
            if not (job.warm_start and key in cache):
                groups.setdefault(batch_signature(job), {})[key] = job
        for group in groups.values():
            if len(group) >= PREFIX_STACK_MIN:
                fetched.update(_stack_prefixes(group))
    for key, job in jobs.items():
        if key not in fetched:
            try:
                fetched[key] = prefix_checkpoint(job)
            except SimulationError as exc:
                fetched[key] = exc
    return fetched


def warm_plan(
    jobs: Sequence[SensorJob],
) -> Tuple[List[Optional[TransientCheckpoint]], List[float],
           Dict[str, float]]:
    """``(checkpoints, stops, stats)`` of the runs of resolved ``jobs``.

    ``checkpoints[i]`` is job ``i``'s prefix checkpoint: each distinct
    prefix is fetched or built once (:func:`build_prefixes`), a
    ``warm_start`` job's through the checkpoint tier and any other's on
    the spot, so the two never share a build.  A job with no usable
    fork, or whose prefix build raised
    :class:`~repro.errors.SimulationError`, gets ``None``; when no job
    gets a checkpoint the first such error is re-raised, so a single job
    fails as its build did.  ``stops[i]`` is job ``i``'s ``fall_start``,
    where every one of its measurement windows has ended.  ``stats``
    counts ``hits`` (every job with a checkpoint but those that paid a
    build), ``builds`` and ``saved_s``, the prefix span of every hit -
    so a plan's ``saved_s`` is the sum of its jobs' single-job plans'.
    The builds' own ``build_s``, ``steps``, ``newton_iterations`` and
    ``esc:<rung>`` counts ride along.
    """
    keys: List[Optional[Hashable]] = []
    for job in jobs:
        key = prefix_key(job) if warm_eligible(job) else None
        # A cold job's build is its own, never named as a tier entry.
        keys.append(key if key is None or job.warm_start else ("cold", key))
    distinct: Dict[Hashable, SensorJob] = {}
    for key, job in zip(keys, jobs):
        if key is not None:
            distinct.setdefault(key, job)
    fetched = build_prefixes(distinct)
    checkpoints: List[Optional[TransientCheckpoint]] = []
    stats: Dict[str, float] = {}
    error: Optional[SimulationError] = None
    hits = saved = 0.0
    seen = set()
    for key in keys:
        outcome = fetched.get(key)
        built = False
        if key is not None and key not in seen:  # first job carries it
            seen.add(key)
            if isinstance(outcome, SimulationError):
                error = error or outcome
            else:
                built = "builds" in outcome[1]
                for name, value in outcome[1].items():
                    stats[name] = stats.get(name, 0.0) + value
        checkpoint = None
        if outcome is not None and not isinstance(outcome, SimulationError):
            checkpoint = outcome[0]
            if not built:
                hits += 1.0
                saved += checkpoint.t
        checkpoints.append(checkpoint)
    if error is not None and all(c is None for c in checkpoints):
        raise error
    stops = [measurement_windows(job.skew, job.slew1, job.slew2, job.period,
                                 job.settle)[2] for job in jobs]
    stats.update(hits=hits, builds=stats.get("builds", 0.0), saved_s=saved)
    return checkpoints, stops, stats


def evaluate_job_warm(job: SensorJob) -> JobResult:
    """The evaluation of a sensor job: its prefix checkpoint, then the
    measurement suffix forked from it.

    Pure function of the job alone (the fork time and suffix horizon are
    per-job deterministic), so the result is cacheable under the job's
    key like any other, and a ``warm_start`` job (prefix from the
    checkpoint tier) and its twin without (prefix built on the spot)
    return the same bits.  A job with no usable fork runs one transient
    from its operating point to its ``fall_start``.  ``steps`` and
    ``escalations`` describe the run that reads the response, whether or
    not this call built the prefix; a build's counts travel in
    ``prefix``.
    """
    resolved = job.resolved()
    (checkpoint,), (t_stop,), prefix = warm_plan([resolved])
    sensor, netlist = job_circuit(resolved)
    result = transient(
        netlist,
        t_stop=t_stop,
        record=["phi1", "phi2", "y1", "y2"],
        initial=sensor.dc_guess(),
        options=resolved.options,
        resume_from=checkpoint,
    )
    vmin_y1, vmin_y2, code = read_response(
        result.wave("y1"), result.wave("y2"),
        resolved.skew, resolved.slew1, resolved.slew2,
        resolved.period, resolved.settle, resolved.threshold,
    )
    return JobResult(
        skew=resolved.skew,
        vmin_y1=vmin_y1,
        vmin_y2=vmin_y2,
        code=code,
        steps=len(result.times) - 1,
        escalations=tuple(sorted(result.escalations.items())),
        kernel=tuple(sorted(result.kernel_stats.items())),
        prefix=tuple(sorted(prefix.items())),
    )


def _plan_prefixes(
    jobs: Sequence[SensorJob], telemetry: Optional[Telemetry]
) -> Tuple[int, List[str]]:
    """The campaign's planner pass: key each warm job's prefix once and
    build the missing ones with :func:`build_prefixes`.  Returns the
    number built and every warm prefix key of ``jobs``."""
    cache = get_checkpoint_cache()
    keyed: Dict[str, SensorJob] = {}
    for job in jobs:
        resolved = job.resolved()
        if resolved.warm_start and warm_eligible(resolved):
            keyed.setdefault(prefix_key(resolved), resolved)
    missing = {key: job for key, job in keyed.items()
               if cache.get(key) is None}
    built = 0
    for outcome in build_prefixes(missing).values():
        if isinstance(outcome, SimulationError):
            continue
        if telemetry is not None:
            telemetry.record_prefix(outcome[1])
        built += 1
    return built, list(keyed)


def prepare_prefixes(
    jobs: Sequence[SensorJob], telemetry: Optional[Telemetry] = None
) -> int:
    """Build every missing warm prefix of ``jobs`` once, before dispatch.

    The campaign's planner pass, run *in the parent process* so
    fork-started worker pools inherit each checkpoint through the memory
    tier and serial evaluations hit it directly.  Each job's prefix is
    keyed once; keys the checkpoint tier already holds are skipped, and
    the rest go to :func:`build_prefixes` together, so a campaign of
    many samples builds its prefixes as one lockstep stack.  A failing
    build is left to the per-job evaluation, which surfaces it through
    the executor's retry/on_error machinery, and a worker that misses
    anyway builds its own - correctness never depends on this warm-up.
    Returns the number of prefixes built.
    """
    return _plan_prefixes(jobs, telemetry)[0]


def publish_prefixes(
    jobs: Sequence[SensorJob], telemetry: Optional[Telemetry] = None
) -> int:
    """:func:`prepare_prefixes`, then make sure every warm prefix of
    ``jobs`` is on disk too.

    The batch dispatcher's planner pass, in the same single pass over
    the jobs.  When a disk tier is configured, a checkpoint that only
    the parent's memory tier holds is re-``put``: forked shard workers
    inherit the memory tier either way, and the disk copy also serves
    spawn-context workers and later processes.  Returns the number of
    prefixes built or re-published.
    """
    published, keys = _plan_prefixes(jobs, telemetry)
    cache = get_checkpoint_cache()
    if not cache.disk_enabled:
        return published
    for key in keys:
        payload = cache.get(key)
        if payload is not None and not cache.on_disk(key):
            cache.put(key, payload)
            published += 1
    return published
