"""Sensitivity analysis: the ``Vmin(tau)`` curves of Fig. 4.

For each load capacitance and clock slew, the skew ``tau`` is swept and the
minimum voltage reached by the late output is recorded.  The *sensitivity*
``tau_min`` is the skew at which ``Vmin`` crosses the interpretation
threshold: larger skews are flagged, smaller ones tolerated.  The paper
observes ``tau_min`` growing with load capacitance and nearly independent of
clock slew.

:func:`extract_tau_min` finds that crossing with a search seeded by the
closed-form :func:`repro.core.model.estimate_tau_min`: it probes the
estimate, steps off it by the excess that probe read over a slope
:data:`SLOPE_SHALLOWING` times shallower than the model implies,
doubles the step while a sign check fails, and closes the bracket with
Illinois (modified regula falsi) steps to no wider than ``tolerance``.
On the Fig. 4 grid that takes 2-4 probes.  The model only places the
probes; the answer rests on the probes alone.

All evaluations route through :mod:`repro.runtime`: every operating point
is content-addressed in the result cache (so a repeated sweep or a
search revisiting a point costs a lookup, not a transient), and
:func:`sensitivity_family` accepts a ``backend`` to fan the independent
points out over worker processes or stack them into lockstep batches;
it runs the grid of :func:`sensitivity_grid`, as does the service's
``sensitivity`` spec.  The runtime imports happen lazily inside the
functions - ``repro.runtime`` itself imports from ``repro.core``, and
the package initialisers would otherwise cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analog.engine import TransientOptions
from repro.core.model import estimate_tau_min, race_swing
from repro.core.sensing import SensorSizing  # noqa: F401 (re-exported legacy name)
from repro.devices.process import ProcessParams
from repro.units import VTH_INTERPRET, ns

#: How much shallower than the closed-form model implies the search
#: assumes ``Vmin(tau)`` rises at the crossing, so that its second probe
#: lands just past it.  The model spends the race swing ``Vth - VTn``
#: over one estimated ``tau_min``; the slope measured across the
#: crossing is 2.9-3.2x shallower on the Fig. 4 grid (the search leg of
#: ``benchmarks/bench_fig4_sensitivity.py``: ``slope_ratio_max`` 3.18
#: under ``search.contexts.fig4`` in
#: ``benchmarks/out/BENCH_fig4_sensitivity.json``, a 2-core x86 box),
#: and 4 is the next whole factor.  Below the ratio the second probe
#: falls short and the step doubles; far above it the second probe
#: lands far past the crossing and the bracket closes more slowly.
SLOPE_SHALLOWING = 4.0


@dataclass
class SensitivityCurve:
    """One ``Vmin`` vs ``tau`` curve (fixed load and slew)."""

    load: float
    slew: float
    skews: np.ndarray
    vmins: np.ndarray
    threshold: float = VTH_INTERPRET

    @property
    def tau_min(self) -> Optional[float]:
        """Skew at which ``Vmin`` first exceeds the threshold.

        Linear interpolation between sweep points; ``None`` when the curve
        never crosses (sweep range too small).
        """
        above = self.vmins > self.threshold
        if not above.any():
            return None
        first = int(np.argmax(above))
        if first == 0:
            return float(self.skews[0])
        v0, v1 = self.vmins[first - 1], self.vmins[first]
        t0, t1 = self.skews[first - 1], self.skews[first]
        if v1 == v0:
            return float(t1)
        return float(t0 + (self.threshold - v0) * (t1 - t0) / (v1 - v0))


def sensitivity_grid(
    loads: Sequence[float],
    slews: Sequence[float],
    skews: Sequence[float],
    process: Optional[ProcessParams] = None,
    sizing: Optional[SensorSizing] = None,
    threshold: float = VTH_INTERPRET,
    options: Optional[TransientOptions] = None,
    warm_start: bool = True,
) -> Tuple[List[Any], Callable[[Sequence[Any]], List[SensitivityCurve]]]:
    """The Fig.-4 grid as ``(jobs, fold)``.

    One :func:`~repro.runtime.sensitivity_job` per (load, slew, skew),
    load-major; ``fold(results)`` cuts the job-ordered results into one
    curve per (load, slew), a failed point (a
    :class:`~repro.errors.JobError`) reading as NaN.
    """
    from repro.runtime import sensitivity_job

    skew_array = np.asarray(list(skews), dtype=float)
    pairs = [(load, slew) for load in loads for slew in slews]
    jobs = [
        sensitivity_job(
            load, slew, float(tau),
            process=process, sizing=sizing, options=options,
            warm_start=warm_start,
        )
        for load, slew in pairs
        for tau in skew_array
    ]
    width = len(skew_array)

    def fold(results: Sequence[Any]) -> List[SensitivityCurve]:
        return [
            SensitivityCurve(
                load=load, slew=slew, skews=skew_array,
                vmins=np.array([
                    getattr(result, "vmin_late", float("nan"))
                    for result in results[block * width:(block + 1) * width]
                ]),
                threshold=threshold,
            )
            for block, (load, slew) in enumerate(pairs)
        ]

    return jobs, fold


def vmin_for_skew(
    skew: float,
    load: float,
    slew: float,
    process: Optional[ProcessParams] = None,
    sizing: Optional[SensorSizing] = None,
    options: Optional[TransientOptions] = None,
    slew2: Optional[float] = None,
    load2: Optional[float] = None,
    cache: Any = "default",
    telemetry: Any = None,
    warm_start: bool = True,
) -> float:
    """``Vmin`` of the late output for a single operating point.

    ``slew2`` / ``load2`` default to the symmetric values; the Monte Carlo
    analysis passes independent ones ("both the input slews and the load
    have been considered independent, in order to account for asymmetric
    conditions").  The point is content-addressed in the runtime cache;
    pass ``cache=None`` to force a fresh transient.

    ``warm_start`` (on by default) forks a cached pre-skew prefix
    checkpoint and integrates only the measurement suffix (see
    :mod:`repro.runtime.prefix`); ``False`` builds the prefix on the
    spot instead, with the same result.
    """
    from repro.runtime import evaluate_cached, sensitivity_job

    job = sensitivity_job(
        load, slew, skew,
        process=process, sizing=sizing, options=options,
        slew2=slew2, load2=load2, warm_start=warm_start,
    )
    return evaluate_cached(job, cache=cache, telemetry=telemetry).vmin_late


def extract_tau_min(
    load: float,
    slew: float = ns(0.2),
    process: Optional[ProcessParams] = None,
    sizing: Optional[SensorSizing] = None,
    threshold: float = VTH_INTERPRET,
    tau_hi: float = ns(2.0),
    tolerance: float = ns(0.002),
    options: Optional[TransientOptions] = None,
    cache: Any = "default",
    telemetry: Any = None,
    warm_start: bool = True,
) -> float:
    """Sensitivity ``tau_min``: the skew in ``(0, tau_hi]`` where ``Vmin``
    crosses ``threshold``.

    More precise than reading it off a coarse sweep; used wherever a single
    number per load is needed (Tab. 1 classification, ablations).  The
    search (:func:`_crossing`) probes the closed-form
    :func:`repro.core.model.estimate_tau_min` first and sizes its next
    step from the excess read there, over the model-implied slope made
    :data:`SLOPE_SHALLOWING` times shallower.  The model only places
    the probes: a wrong estimate, or one that raises (``threshold`` at
    or below ``VTn``; the search then steps by a fixed fraction from
    ``tau_hi / 2``), costs probes, never accuracy.  The final bracket
    is no wider than ``tolerance`` and its midpoint is returned;
    ``tau = 0`` is never probed.  Every probe is a :func:`vmin_for_skew`
    call, so it is cached and forks the warm prefix, and repeated
    extractions replay instead of re-integrating.

    Raises ``ValueError`` for ``tolerance <= 0`` or ``tau_hi <= 0``
    (before any probe), and when ``Vmin`` at ``tau_hi`` does not exceed
    ``threshold``.
    """
    if tolerance <= 0 or tau_hi <= 0:
        raise ValueError(
            f"tolerance ({tolerance:.3e} s) and tau_hi ({tau_hi:.3e} s) "
            "must be positive"
        )
    try:
        guess = estimate_tau_min(load, sizing, process, threshold)
        slope = race_swing(process, threshold) / (SLOPE_SHALLOWING * guess)
    except ValueError:
        guess, slope = 0.5 * tau_hi, None

    def excess(tau: float) -> float:
        return vmin_for_skew(
            tau, load, slew, process=process, sizing=sizing, options=options,
            cache=cache, telemetry=telemetry, warm_start=warm_start,
        ) - threshold

    return _crossing(excess, guess, tau_hi, tolerance, slope)


def _crossing(
    excess: Callable[[float], float],
    guess: float,
    tau_hi: float,
    tolerance: float,
    slope: Optional[float] = None,
) -> float:
    """Where the increasing ``excess`` turns positive in ``(0, tau_hi]``.

    Probes ``guess`` (clamped to ``[tolerance, tau_hi]``) first, then
    steps towards the root by the excess it read over the assumed
    ``slope`` (a fifth of that first probe when ``slope`` is None),
    the step held within ``[tolerance / 2, first probe / 2]`` and
    doubled while the sign check fails.  A step down never goes below
    half the lowest probe that read positive, so ``excess(0)`` is taken
    as non-positive and never probed.  Illinois (modified regula falsi)
    steps then close the bracket, each landing at least
    ``tolerance / 2`` inside it, so once a step falls next to the root,
    one probe on its other side ends the search.  Returns the midpoint
    of a bracket no wider than ``tolerance`` (floored at four float
    spacings of ``tau_hi``, so every step moves an end and the search
    ends); raises ``ValueError`` when ``excess(tau_hi)`` is not
    positive.
    """
    tolerance = max(tolerance, 4.0 * math.ulp(tau_hi))
    x = min(max(guess, tolerance), tau_hi)
    f = excess(x)
    step = 0.2 * x if slope is None else abs(f) / slope
    step = min(max(step, 0.5 * tolerance), 0.5 * x)
    lo, f_lo, hi, f_hi = 0.0, None, tau_hi, None
    while True:
        if f > 0:
            hi, f_hi = x, f
            if f_lo is not None or hi <= tolerance:
                break
            x = max(hi - step, 0.5 * hi)
        else:
            if x >= tau_hi:
                raise ValueError(
                    f"no crossing up to tau_hi = {tau_hi:.3e} s (Vmin - "
                    f"threshold there is {f:.3f} V); increase tau_hi"
                )
            lo, f_lo = x, f
            if f_hi is not None:
                break
            x = min(lo + step, tau_hi)
        step *= 2.0
        f = excess(x)
    kept = None  # the end the previous step kept: "lo" or "hi"
    while hi - lo > tolerance:
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        x = min(max(x, lo + 0.5 * tolerance), hi - 0.5 * tolerance)
        f = excess(x)
        if f > 0:
            hi, f_hi = x, f
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo = x, f
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
    return 0.5 * (lo + hi)


def sensitivity_family(
    loads: Sequence[float],
    slews: Sequence[float],
    skews: Sequence[float],
    process: Optional[ProcessParams] = None,
    sizing: Optional[SensorSizing] = None,
    threshold: float = VTH_INTERPRET,
    options: Optional[TransientOptions] = None,
    backend: str = "serial",
    cache: Any = "default",
    telemetry: Any = None,
    max_workers: Optional[int] = None,
    batch_workers: Optional[int] = None,
    warm_start: bool = True,
) -> List[SensitivityCurve]:
    """The full Fig.-4 family: one curve per (load, slew) combination.

    :func:`sensitivity_grid` run as one
    :func:`repro.runtime.run_campaign`, to which the runtime arguments
    pass, then folded into per-(load, slew) curves; one curve is
    ``sensitivity_family([load], [slew], skews)[0]``.  A parallel
    backend sees every independent point at once: ``"process"`` fans
    them out ``max_workers`` wide, and ``"batch"`` stacks the whole
    grid into lockstep transients, sharded over ``batch_workers``
    processes.
    """
    from repro.runtime import run_campaign

    jobs, fold = sensitivity_grid(
        loads, slews, skews, process=process, sizing=sizing,
        threshold=threshold, options=options, warm_start=warm_start,
    )
    campaign = run_campaign(
        jobs, backend=backend, cache=cache, telemetry=telemetry,
        max_workers=max_workers, batch_workers=batch_workers,
    )
    return fold(campaign.results)
