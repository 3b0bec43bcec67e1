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
``[0, settle + period]``; a warm stack, whose samples share one prefix
key, runs the :func:`repro.runtime.prefix.warm_plan` of the single-job
warm path: fork from one checkpoint, stop at the latest ``fall_start``.

Jobs in one call must share the horizon-defining and engine-defining
fields (``period``, ``settle``, ``full_swing``, ``parasitics``,
``options``) - that is what
:func:`repro.batch.dispatch.batch_signature` groups by.  Samples the
engine masked out come back as ``None`` results for the caller to
re-dispatch to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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


def evaluate_jobs_batch(jobs: Sequence[SensorJob]) -> BatchEvaluation:
    """Evaluate ``jobs`` as one lockstep batch.

    Every job is resolved, its sensor netlist built with its own clock
    pair, and the stack compiled and integrated once.  Jobs must agree
    on ``period``, ``settle``, ``full_swing``, ``parasitics`` and
    ``options`` (grouped upstream by
    :func:`repro.batch.dispatch.batch_signature`); a mismatch raises
    ``ValueError``.
    """
    if not jobs:
        return BatchEvaluation(results=[])
    resolved = [job.resolved() for job in jobs]
    head = resolved[0]
    if len({(job.period, job.settle, job.full_swing, job.parasitics,
             job.options) for job in resolved}) > 1:
        raise ValueError(
            "jobs in one batch must share period/settle/full_swing/"
            "parasitics/options (group with batch_signature first)"
        )

    circuits = [job_circuit(job) for job in resolved]
    batch = compile_batch([netlist for _, netlist in circuits])

    # Warm stack: when every sample shares one prefix key, the whole
    # stack forks from a single scalar checkpoint (broadcast by
    # batch_transient) and integrates only up to the latest sample's
    # fall_start.
    from repro.runtime.prefix import prefix_key, warm_eligible, warm_plan

    if (
        all(job.warm_start and warm_eligible(job) for job in resolved)
        and len({prefix_key(job) for job in resolved}) == 1
    ):
        checkpoint, t_stop, prefix_stats = warm_plan(resolved)
        start = {"resume_from": checkpoint}
    else:
        t_stop, prefix_stats = head.settle + head.period, {}
        start = {"initial": [sensor.dc_guess() for sensor, _ in circuits]}
    result = batch_transient(
        batch, t_stop=t_stop, record=list(RECORD_NODES),
        options=head.options, **start,
    )

    results: List[Optional[JobResult]] = []
    for index, job in enumerate(resolved):
        if not result.ok[index]:
            results.append(None)
            continue
        vmin_y1, vmin_y2, code = read_response(
            result.wave("y1", index), result.wave("y2", index),
            job.skew, job.slew1, job.slew2, job.period, job.settle,
            job.threshold,
        )
        results.append(JobResult(
            skew=job.skew, vmin_y1=vmin_y1, vmin_y2=vmin_y2, code=code,
            steps=len(result),
        ))
    return BatchEvaluation(
        results=results,
        escalations=dict(result.escalations),
        fallback_reasons=dict(result.fallback_reasons),
        steps=len(result),
        kernel_stats=dict(result.kernel_stats),
        prefix=prefix_stats,
    )
