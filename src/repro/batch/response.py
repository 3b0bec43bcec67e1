"""Evaluating a stack of sensor jobs through the batch engine.

:func:`evaluate_jobs_batch` is the batched twin of
:func:`repro.runtime.jobs.evaluate_job`: it builds one netlist per job
with :func:`~repro.runtime.jobs.job_circuit` (each with its own clock
pair, loads, sizing and process corner), compiles the stack, runs one
lockstep transient and reads every sample with
:func:`repro.core.response.read_response` - the reading the scalar
paths use.  Every row steps its own window on its own time axis, so a
batch result is its scalar twin's bit for bit (``Vmin``, code and
``steps``), whatever else the stack holds (to rounding under
``jacobian_policy="sparse"``, whose scalar run factors with SuperLU).  A cold row spans
``[0, settle + period]``; a warm row runs the
:func:`repro.runtime.prefix.warm_plan` of the single-job warm path: it
forks from its own sample's checkpoint at its own fork time and stops
at its own ``fall_start``.

:func:`batch_signature` is the one statement of what a stack must share
(topology switches, engine options, warm or cold); the dispatcher
groups by it and :func:`evaluate_jobs_batch` refuses jobs that do not
share it.  Samples the engine masked out - and warm rows whose prefix
build failed (reason ``"prefix"``) - come back as ``None`` results for
the caller to re-dispatch to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

from repro.batch.compile import compile_batch
from repro.batch.engine import batch_transient
from repro.core.response import read_response
from repro.runtime.jobs import JobResult, SensorJob, job_circuit

#: Nodes recorded for the paper's response measurement.
RECORD_NODES = ("phi1", "phi2", "y1", "y2")


@dataclass
class BatchEvaluation:
    """Outcome of one :func:`evaluate_jobs_batch` call.

    ``results[i]`` is the :class:`~repro.runtime.jobs.JobResult` of
    ``jobs[i]``, or ``None`` when the engine masked the sample out
    (``fallback_reasons[i]`` says why) and it must be re-evaluated by
    the scalar engine.
    """

    results: List[Optional[JobResult]]
    escalations: Dict[str, int] = field(default_factory=dict)
    fallback_reasons: Dict[int, str] = field(default_factory=dict)
    #: Whole-stack hot-loop counters of the lockstep run
    #: (:meth:`repro.analog.kernels.KernelStats.as_dict`).  Kept at the
    #: stack level - the per-sample ``JobResult.kernel`` tallies stay
    #: empty for batch results so campaign telemetry never double-counts.
    kernel_stats: Dict[str, float] = field(default_factory=dict)
    #: Stack-level prefix warm-start accounting (the
    #: :func:`~repro.runtime.prefix.warm_plan` stats: ``hits``,
    #: ``builds``, ``saved_s``...); empty when the stack ran cold.  Like
    #: ``kernel_stats``, kept at the stack level so telemetry never
    #: double-counts.
    prefix: Dict[str, float] = field(default_factory=dict)

    @property
    def fallbacks(self) -> int:
        """Number of samples needing scalar re-dispatch."""
        return sum(1 for r in self.results if r is None)


def batch_signature(job: SensorJob) -> Hashable:
    """The fields every job of one lockstep stack must share.

    ``full_swing``/``parasitics`` fix the circuit topology, ``options``
    fixes the engine knobs, and warm-vs-cold fixes how the rows start
    (from their own prefix checkpoints, or from operating points).
    Everything else (skew, slews, period, settle, loads, sizing,
    process corner, threshold, fork time) may vary per sample: each row
    steps its own window on its own time axis.  A warm-start job the
    warm path does not apply to runs cold, so it stacks with cold jobs.
    """
    from repro.runtime.prefix import warm_eligible

    resolved = job.resolved()
    return (
        resolved.full_swing,
        resolved.parasitics,
        resolved.options,
        resolved.warm_start and warm_eligible(resolved),
    )


def evaluate_jobs_batch(jobs: Sequence[SensorJob]) -> BatchEvaluation:
    """Evaluate ``jobs`` as one lockstep batch.

    Every job is resolved, its sensor netlist built with its own clock
    pair, and the stack compiled and integrated once, each row over its
    own window.  Jobs must share one :func:`batch_signature`; a mismatch
    raises ``ValueError``.  A warm job whose prefix build fails leaves
    the stack with fallback reason ``"prefix"`` and a ``None`` result.
    """
    if not jobs:
        return BatchEvaluation(results=[])
    resolved = [job.resolved() for job in jobs]
    signatures = {batch_signature(job) for job in resolved}
    if len(signatures) > 1:
        raise ValueError(
            "jobs in one batch must share one batch_signature (full_swing, "
            "parasitics, options, warm or cold)"
        )
    warm = signatures.pop()[-1]  # the signature's warm-or-cold field

    from repro.runtime.prefix import warm_plan

    rows = list(range(len(resolved)))
    resume_from = None
    fallback_reasons: Dict[int, str] = {}
    if warm:
        # Warm stack: every row forks from its own prefix checkpoint and
        # integrates up to its own fall_start.
        checkpoints, stops, prefix_stats = warm_plan(resolved)
        rows = [i for i in rows if checkpoints[i] is not None]
        resume_from = [checkpoints[i] for i in rows]
        t_stop = [stops[i] for i in rows]
        fallback_reasons = {
            i: "prefix" for i, c in enumerate(checkpoints) if c is None
        }
    else:
        t_stop = [job.settle + job.period for job in resolved]
        prefix_stats = {}

    circuits = [job_circuit(resolved[i]) for i in rows]
    batch = compile_batch([netlist for _, netlist in circuits])
    result = batch_transient(
        batch, t_stop=t_stop, record=list(RECORD_NODES),
        initial=[sensor.dc_guess() for sensor, _ in circuits],
        options=resolved[0].options, resume_from=resume_from,
    )

    results: List[Optional[JobResult]] = [None] * len(resolved)
    for row, index in enumerate(rows):
        if not result.ok[row]:
            continue
        job = resolved[index]
        vmin_y1, vmin_y2, code = read_response(
            result.wave("y1", row), result.wave("y2", row),
            job.skew, job.slew1, job.slew2, job.period, job.settle,
            job.threshold,
        )
        # Counted as the scalar twin counts: a cold run's points
        # including t = 0, a warm run's suffix steps.
        results[index] = JobResult(
            skew=job.skew, vmin_y1=vmin_y1, vmin_y2=vmin_y2, code=code,
            steps=len(result.times[row]) - int(warm),
        )
    for row, reason in result.fallback_reasons.items():
        fallback_reasons[rows[row]] = reason
    return BatchEvaluation(
        results=results,
        escalations=dict(result.escalations),
        fallback_reasons=fallback_reasons,
        kernel_stats=dict(result.kernel_stats),
        prefix=prefix_stats,
    )
