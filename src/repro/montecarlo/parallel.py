"""Process-parallel Monte Carlo evaluation.

The Fig.-5 / Tab.-1 analyses run hundreds of independent transients; they
parallelise perfectly.  :func:`scatter_analysis_parallel` routes the
(sample, skew) grid of :func:`scatter_grid` through
:func:`repro.runtime.run_campaign`: each grid point becomes a picklable
:class:`~repro.runtime.SensorJob`, results come back in deterministic
sample-major order regardless of worker scheduling, previously computed
points are replayed from the content-addressed cache, and per-job
timings land in an optional :class:`~repro.runtime.Telemetry`
accumulator.  The service's ``montecarlo`` spec runs the same grid.

The worker count is ``n_workers`` (half the CPUs when omitted), and the
process pool always receives an explicit ``chunksize`` so large grids do
not pay one IPC round-trip per point.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analog.engine import TransientOptions
from repro.core.sensing import SensorSizing
from repro.montecarlo.analysis import ScatterPoint
from repro.montecarlo.sampling import MonteCarloSample
from repro.runtime import SensorJob, Telemetry, resolve_workers, run_campaign


def default_workers() -> int:
    """Default worker count: half the CPUs."""
    return resolve_workers(None)


def sample_job(
    sample: MonteCarloSample,
    skew: float,
    sizing: Optional[SensorSizing] = None,
    options: Optional[TransientOptions] = None,
    warm_start: Optional[bool] = None,
) -> SensorJob:
    """The runtime job of one Monte Carlo (sample, skew) grid point.

    ``warm_start=None`` means on: warm jobs reuse the pre-skew prefix
    across the skews of one sample (and across reruns, through the
    checkpoint cache tier); ``False`` builds it per job, with the same
    result.
    """
    return SensorJob(
        skew=skew,
        load1=sample.load1,
        load2=sample.load2,
        slew1=sample.slew1,
        slew2=sample.slew2,
        process=sample.process,
        sizing=sizing or SensorSizing(),
        options=options,
        warm_start=True if warm_start is None else warm_start,
    )


def scatter_grid(
    samples: Sequence[MonteCarloSample],
    skews: Sequence[float],
    sizing: Optional[SensorSizing] = None,
    options: Optional[TransientOptions] = None,
    warm_start: Optional[bool] = None,
) -> Tuple[List[SensorJob], Callable[[Sequence[Any]], List[ScatterPoint]]]:
    """The Fig.-5 grid as ``(jobs, fold)``.

    One :func:`sample_job` per (sample, skew), sample-major;
    ``fold(results)`` turns the job-ordered results into one
    :class:`ScatterPoint` each, a failed point (a
    :class:`~repro.errors.JobError`) reading as NaN.
    """
    skew_list = [float(tau) for tau in skews]
    jobs = [
        sample_job(sample, tau, sizing=sizing, options=options,
                   warm_start=warm_start)
        for sample in samples
        for tau in skew_list
    ]

    def fold(results: Sequence[Any]) -> List[ScatterPoint]:
        return [
            ScatterPoint(
                skew=job.skew,
                vmin=getattr(result, "vmin_late", float("nan")),
                sample_index=flat // len(skew_list),
            )
            for flat, (job, result) in enumerate(zip(jobs, results))
        ]

    return jobs, fold


def scatter_analysis_parallel(
    samples: Sequence[MonteCarloSample],
    skews: Sequence[float],
    sizing: Optional[SensorSizing] = None,
    options: Optional[TransientOptions] = None,
    n_workers: Optional[int] = None,
    batch_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    backend: str = "process",
    cache: Any = "default",
    telemetry: Optional[Telemetry] = None,
    on_error: str = "raise",
    checkpoint: Optional[str] = None,
    resume: bool = False,
    warm_start: Optional[bool] = None,
) -> List[ScatterPoint]:
    """Parallel equivalent of :func:`scatter_analysis`.

    Results are returned in the same deterministic order (sample-major,
    then skew) regardless of worker scheduling, and are bit-identical to
    the serial analysis: workers rebuild the sensor from the job payload
    exactly as :func:`~repro.core.response.simulate_sensor` would locally.

    Parameters beyond the original signature expose the runtime layer:
    ``chunksize`` (process-pool chunk size, or samples per stack for the
    batch backend), ``batch_workers`` (shard worker count of the batch
    backend - whole lockstep stacks fan out over this many processes, so
    the SIMD and multicore axes multiply; defaults to the worker count),
    ``backend`` (``"process"``, ``"serial"``, or ``"batch"`` - the
    lockstep vectorised engine, the fastest choice for exactly this
    workload of many same-topology variants), ``cache`` (``None``
    disables result reuse), ``telemetry``, and the robustness knobs of
    :func:`repro.runtime.run_campaign`: ``on_error="collect"`` records a
    NaN-``vmin`` scatter point for a failed grid point instead of
    aborting the whole campaign, and ``checkpoint``/``resume`` journal
    completed grid points so an interrupted Monte Carlo run restarts
    where it died.
    """
    jobs, fold = scatter_grid(
        samples, skews, sizing=sizing, options=options, warm_start=warm_start
    )
    workers = n_workers if n_workers is not None else default_workers()
    if backend == "process" and (workers <= 1 or len(jobs) <= 1):
        # The pool backend degenerates to serial without real parallelism;
        # "batch" stays: its speed-up comes from vectorisation, not from
        # worker processes, so it is worth keeping even on one CPU.
        backend = "serial"
    campaign = run_campaign(
        jobs,
        backend=backend,
        max_workers=workers,
        batch_workers=batch_workers,
        chunksize=chunksize,
        cache=cache,
        telemetry=telemetry,
        on_error=on_error,
        checkpoint=checkpoint,
        resume=resume,
    )
    return fold(campaign.results)
