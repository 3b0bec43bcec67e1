"""Monte Carlo scatter (Fig. 5) and error probabilities (Tab. 1).

The scatter is one job grid, :func:`scatter_grid`: one
:class:`~repro.runtime.SensorJob` per (sample, skew), sample-major,
and a fold to one :class:`ScatterPoint` per job.
:func:`scatter_analysis` runs it through
:func:`repro.runtime.run_campaign` (cached, on any backend); the
service's ``montecarlo`` spec runs the same grid.

Definitions from Sec. 2 of the paper, relative to the *nominal*
sensitivity ``tau_min`` of the considered load:

* ``p_loose`` - probability of **losing** an error indication:
  ``tau > tau_min`` but the sample's ``Vmin`` stays below the threshold
  (the skew was real, the perturbed sensor missed it);
* ``p_false`` - probability of a **false** error indication:
  ``tau < tau_min`` but ``Vmin`` rises above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analog.engine import TransientOptions
from repro.core.sensing import SensorSizing
from repro.montecarlo.sampling import MonteCarloSample
from repro.runtime import SensorJob, Telemetry, run_campaign
from repro.units import VTH_INTERPRET


@dataclass(frozen=True)
class ScatterPoint:
    """One (sample, skew) evaluation - a dot of the Fig.-5 scatterplot."""

    skew: float
    vmin: float
    sample_index: int

    def flags_error(self, threshold: float = VTH_INTERPRET) -> bool:
        """Whether this point reads as an error indication."""
        return self.vmin > threshold


def sample_job(
    sample: MonteCarloSample,
    skew: float,
    sizing: Optional[SensorSizing] = None,
    options: Optional[TransientOptions] = None,
    warm_start: bool = True,
) -> SensorJob:
    """The runtime job of one Monte Carlo (sample, skew) grid point."""
    return SensorJob(
        skew=skew,
        load1=sample.load1,
        load2=sample.load2,
        slew1=sample.slew1,
        slew2=sample.slew2,
        process=sample.process,
        sizing=sizing or SensorSizing(),
        options=options,
        warm_start=warm_start,
    )


def scatter_grid(
    samples: Sequence[MonteCarloSample],
    skews: Sequence[float],
    sizing: Optional[SensorSizing] = None,
    options: Optional[TransientOptions] = None,
    warm_start: bool = True,
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


def scatter_analysis(
    samples: Sequence[MonteCarloSample],
    skews: Sequence[float],
    sizing: Optional[SensorSizing] = None,
    options: Optional[TransientOptions] = None,
    backend: str = "serial",
    cache: Any = "default",
    telemetry: Optional[Telemetry] = None,
    max_workers: Optional[int] = None,
    batch_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    warm_start: bool = True,
) -> List[ScatterPoint]:
    """``Vmin`` of every (sample, skew) combination, sample-major.

    :func:`scatter_grid` run as one :func:`repro.runtime.run_campaign`,
    to which the runtime arguments pass, then folded.  Every backend
    returns the same bits: ``"process"`` fans the points out over
    ``max_workers`` processes, and ``"batch"`` integrates the
    same-topology samples in lockstep stacks of ``chunksize``, sharded
    over ``batch_workers`` processes.  The skews may themselves be
    randomised by the caller; the paper sweeps a deterministic grid per
    sample.
    """
    jobs, fold = scatter_grid(
        samples, skews, sizing=sizing, options=options, warm_start=warm_start
    )
    campaign = run_campaign(
        jobs, backend=backend, cache=cache, telemetry=telemetry,
        max_workers=max_workers, batch_workers=batch_workers,
        chunksize=chunksize,
    )
    return fold(campaign.results)


@dataclass(frozen=True)
class ErrorProbabilities:
    """The Tab.-1 row for one nominal load."""

    nominal_load: float
    tau_min: float
    p_loose: float
    p_false: float
    n_loose_trials: int
    n_false_trials: int

    def as_row(self) -> str:
        """Formatted like the paper's table."""
        return (
            f"{self.nominal_load * 1e15:6.0f} fF   "
            f"p_loose = {self.p_loose:.3f}   p_false = {self.p_false:.3f}"
        )


def error_probabilities(
    points: Sequence[ScatterPoint],
    nominal_load: float,
    tau_min: float,
    threshold: float = VTH_INTERPRET,
    guard_band: float = 0.0,
) -> ErrorProbabilities:
    """Classify scatter points into the Tab.-1 probabilities.

    Parameters
    ----------
    points:
        Output of :func:`scatter_analysis`.
    tau_min:
        Nominal sensitivity of the considered load (from
        :func:`repro.core.sensitivity.extract_tau_min`).
    guard_band:
        Half-width of an excluded band around ``tau_min``; points with
        ``|tau - tau_min| <= guard_band`` are ambiguous by definition and
        counted in neither probability.  The paper uses no guard band.
    """
    loose_bad = loose_all = false_bad = false_all = 0
    for point in points:
        if point.skew > tau_min + guard_band:
            loose_all += 1
            if point.vmin < threshold:
                loose_bad += 1
        elif point.skew < tau_min - guard_band:
            false_all += 1
            if point.vmin > threshold:
                false_bad += 1
    return ErrorProbabilities(
        nominal_load=nominal_load,
        tau_min=tau_min,
        p_loose=loose_bad / loose_all if loose_all else float("nan"),
        p_false=false_bad / false_all if false_all else float("nan"),
        n_loose_trials=loose_all,
        n_false_trials=false_all,
    )
