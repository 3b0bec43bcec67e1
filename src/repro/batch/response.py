"""Evaluating a stack of sensor jobs through the batch engine.

:func:`evaluate_jobs_batch` is the batched twin of
:func:`repro.runtime.jobs.evaluate_job`: it builds one netlist per job
with :func:`~repro.runtime.jobs.job_circuit` (each with its own clock
pair, loads, sizing and process corner), compiles the stack, runs one
lockstep transient and reads every sample with
:func:`repro.core.response.read_response` - the reading the scalar
paths use - so a batch result is the scalar result up to
integration-grid differences (bounded by the engine's LTE control; the
equivalence suite pins it below 1 mV on ``Vmin``).  A cold stack spans
``[0, settle + period]``; a warm stack runs the
:func:`repro.runtime.prefix.warm_plan` of the single-job warm path: each
row forks from its own sample's checkpoint at the shared fork time, and
the stack stops at the latest ``fall_start``.

:func:`batch_signature` is the one statement of what a stack must share
(horizon, topology switches, engine options and, for warm jobs, the
fork time); the dispatcher groups by it and :func:`evaluate_jobs_batch`
refuses jobs that do not share it.  Samples the engine masked out - and
warm rows whose prefix build failed (reason ``"prefix"``) - come back as
``None`` results for the caller to re-dispatch to the scalar path.
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
    steps: int = 0
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

    ``period``/``settle`` fix the shared time horizon, ``full_swing``/
    ``parasitics`` fix the circuit topology, and ``options`` fixes the
    engine knobs.  Everything else (skew, slews, loads, sizing, process
    corner, threshold) may vary per sample - that is the point.

    Warm-start jobs additionally carry their fork time: every row of a
    warm stack resumes from its own prefix checkpoint, and the rows
    must share the time they resume at.  Every job with ``tau >= 0``
    forks at ``settle - PREFIX_GUARD``, so the warm jobs of a whole
    Monte Carlo campaign share one signature.  Warm and cold jobs (and
    warm jobs the warm path does not apply to) never share a stack.
    """
    from repro.runtime.prefix import fork_time, warm_eligible

    resolved = job.resolved()
    fork = None
    if resolved.warm_start:
        fork = fork_time(resolved) if warm_eligible(resolved) else "cold"
    return (
        resolved.period,
        resolved.settle,
        resolved.full_swing,
        resolved.parasitics,
        resolved.options,
        fork,
    )


def evaluate_jobs_batch(jobs: Sequence[SensorJob]) -> BatchEvaluation:
    """Evaluate ``jobs`` as one lockstep batch.

    Every job is resolved, its sensor netlist built with its own clock
    pair, and the stack compiled and integrated once.  Jobs must share
    one :func:`batch_signature`; a mismatch raises ``ValueError``.  A
    warm job whose prefix build fails leaves the stack with fallback
    reason ``"prefix"`` and a ``None`` result.
    """
    if not jobs:
        return BatchEvaluation(results=[])
    resolved = [job.resolved() for job in jobs]
    if len({batch_signature(job) for job in resolved}) > 1:
        raise ValueError(
            "jobs in one batch must share one batch_signature (period, "
            "settle, full_swing, parasitics, options, warm fork time)"
        )
    head = resolved[0]

    from repro.runtime.prefix import warm_eligible, warm_plan

    rows = list(range(len(resolved)))
    resume_from = None
    fallback_reasons: Dict[int, str] = {}
    if head.warm_start and warm_eligible(head):
        # Warm stack: every row forks from its own prefix checkpoint at
        # the shared fork time and integrates only up to the latest
        # row's fall_start.
        checkpoints, t_stop, prefix_stats = warm_plan(resolved)
        rows = [i for i in rows if checkpoints[i] is not None]
        resume_from = [checkpoints[i] for i in rows]
        fallback_reasons = {
            i: "prefix" for i, c in enumerate(checkpoints) if c is None
        }
    else:
        t_stop, prefix_stats = head.settle + head.period, {}

    circuits = [job_circuit(resolved[i]) for i in rows]
    batch = compile_batch([netlist for _, netlist in circuits])
    result = batch_transient(
        batch, t_stop=t_stop, record=list(RECORD_NODES),
        initial=[sensor.dc_guess() for sensor, _ in circuits],
        options=head.options, resume_from=resume_from,
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
        results[index] = JobResult(
            skew=job.skew, vmin_y1=vmin_y1, vmin_y2=vmin_y2, code=code,
            steps=len(result),
        )
    for row, reason in result.fallback_reasons.items():
        fallback_reasons[rows[row]] = reason
    return BatchEvaluation(
        results=results,
        escalations=dict(result.escalations),
        fallback_reasons=fallback_reasons,
        steps=len(result),
        kernel_stats=dict(result.kernel_stats),
        prefix=prefix_stats,
    )
