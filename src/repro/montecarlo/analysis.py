"""Monte Carlo scatter (Fig. 5) and error probabilities (Tab. 1).

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
from typing import List, Optional, Sequence

from repro.analog.engine import TransientOptions
from repro.core.sensing import SensorSizing
from repro.montecarlo.sampling import MonteCarloSample
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


def scatter_analysis(
    samples: Sequence[MonteCarloSample],
    skews: Sequence[float],
    sizing: Optional[SensorSizing] = None,
    options: Optional[TransientOptions] = None,
    warm_start: Optional[bool] = None,
) -> List[ScatterPoint]:
    """Evaluate ``Vmin`` for every (sample, skew) combination.

    The skews may themselves be randomised by the caller; the paper sweeps
    a deterministic grid per sample.

    The serial, uncached call of
    :func:`repro.montecarlo.parallel.scatter_analysis_parallel` (with the
    same ``warm_start`` default, on), so the two analyses stay
    bit-identical - as they are whichever way the switch is set.
    """
    from repro.montecarlo.parallel import scatter_analysis_parallel

    return scatter_analysis_parallel(
        samples, skews, sizing=sizing, options=options, backend="serial",
        cache=None, warm_start=warm_start,
    )


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
