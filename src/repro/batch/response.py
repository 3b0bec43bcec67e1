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
``jacobian_policy="sparse"``, whose scalar run factors with SuperLU).
Every row runs the :func:`repro.runtime.prefix.warm_plan` of the scalar
path: it forks from its own sample's checkpoint at its own fork time and
stops at its own ``fall_start``.

:func:`batch_signature` is the one statement of what a stack must share
(topology switches and engine options); the dispatcher groups by it and
:func:`evaluate_jobs_batch` refuses jobs that do not share it.  Samples
the engine masked out - and rows with no checkpoint, because the job
has no usable fork or its prefix build failed (reason ``"prefix"``) -
come back as ``None`` results for the caller to re-dispatch to the
scalar path.
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
    #: Stack-level prefix accounting (the
    #: :func:`~repro.runtime.prefix.warm_plan` stats: ``hits``,
    #: ``builds``, ``saved_s``...).  Like ``kernel_stats``, kept at the
    #: stack level so telemetry never double-counts.
    prefix: Dict[str, float] = field(default_factory=dict)

    @property
    def fallbacks(self) -> int:
        """Number of samples needing scalar re-dispatch."""
        return sum(1 for r in self.results if r is None)


def batch_signature(job: SensorJob) -> Hashable:
    """The fields every job of one lockstep stack must share.

    ``full_swing``/``parasitics`` fix the circuit topology and
    ``options`` fixes the engine knobs.  Everything else (skew, slews,
    period, settle, loads, sizing, process corner, threshold, fork time,
    ``warm_start``) may vary per sample: each row starts from its own
    prefix checkpoint and steps its own window on its own time axis.
    """
    resolved = job.resolved()
    return resolved.full_swing, resolved.parasitics, resolved.options


def evaluate_jobs_batch(jobs: Sequence[SensorJob]) -> BatchEvaluation:
    """Evaluate ``jobs`` as one lockstep batch.

    Every job is resolved, its sensor netlist built with its own clock
    pair, and the stack compiled and integrated once, each row from its
    own prefix checkpoint over its own window.  Jobs must share one
    :func:`batch_signature`; a mismatch raises ``ValueError``.  A job
    with no checkpoint (no usable fork, or a failed prefix build) leaves
    the stack with fallback reason ``"prefix"`` and a ``None`` result.
    """
    if not jobs:
        return BatchEvaluation(results=[])
    resolved = [job.resolved() for job in jobs]
    if len({batch_signature(job) for job in resolved}) > 1:
        raise ValueError(
            "jobs in one batch must share one batch_signature (full_swing, "
            "parasitics, options)"
        )

    from repro.runtime.prefix import warm_plan

    checkpoints, stops, prefix_stats = warm_plan(resolved)
    rows = [i for i, c in enumerate(checkpoints) if c is not None]
    fallback_reasons = {
        i: "prefix" for i, c in enumerate(checkpoints) if c is None
    }
    results: List[Optional[JobResult]] = [None] * len(resolved)
    if not rows:
        return BatchEvaluation(results=results,
                               fallback_reasons=fallback_reasons,
                               prefix=prefix_stats)
    batch = compile_batch([job_circuit(resolved[i])[1] for i in rows])
    result = batch_transient(
        batch, t_stop=[stops[i] for i in rows], record=list(RECORD_NODES),
        options=resolved[0].options,
        resume_from=[checkpoints[i] for i in rows],
    )

    for row, index in enumerate(rows):
        if not result.ok[row]:
            continue
        job = resolved[index]
        vmin_y1, vmin_y2, code = read_response(
            result.wave("y1", row), result.wave("y2", row),
            job.skew, job.slew1, job.slew2, job.period, job.settle,
            job.threshold,
        )
        results[index] = JobResult(
            skew=job.skew, vmin_y1=vmin_y1, vmin_y2=vmin_y2, code=code,
            steps=len(result.times[row]) - 1,
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
