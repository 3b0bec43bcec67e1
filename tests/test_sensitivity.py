"""Sensitivity analysis (Fig. 4 machinery)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sensitivity
from repro.core.sensitivity import (
    SensitivityCurve,
    _crossing,
    extract_tau_min,
    sensitivity_family,
    vmin_for_skew,
)
from repro.runtime import Telemetry
from repro.units import VTH_INTERPRET, fF, ns

TAU_HI = ns(2.0)
TOLERANCE = ns(0.002)


def bisection_tau_min(load, slew, options):
    """The oracle: plain bisection of the ``Vmin`` crossing on
    ``[0, TAU_HI]`` down to ``TOLERANCE``."""
    lo, hi = 0.0, TAU_HI
    while hi - lo > TOLERANCE:
        mid = 0.5 * (lo + hi)
        if vmin_for_skew(mid, load, slew, options=options) > VTH_INTERPRET:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_curve_tau_min_interpolates():
    curve = SensitivityCurve(
        load=fF(160),
        slew=ns(0.2),
        skews=np.array([0.0, 1e-10, 2e-10]),
        vmins=np.array([1.0, 2.0, 4.0]),
        threshold=2.75,
    )
    # Crossing between 1e-10 (2.0 V) and 2e-10 (4.0 V).
    expected = 1e-10 + (2.75 - 2.0) / 2.0 * 1e-10
    assert curve.tau_min == pytest.approx(expected)


def test_curve_tau_min_none_when_never_crossing():
    curve = SensitivityCurve(
        load=fF(160), slew=ns(0.2),
        skews=np.array([0.0, 1e-10]), vmins=np.array([1.0, 2.0]),
    )
    assert curve.tau_min is None


def test_curve_tau_min_at_first_point():
    curve = SensitivityCurve(
        load=fF(160), slew=ns(0.2),
        skews=np.array([1e-10, 2e-10]), vmins=np.array([3.0, 4.0]),
    )
    assert curve.tau_min == pytest.approx(1e-10)


def test_vmin_monotone_in_skew(fast_options):
    """The Fig.-4 curves rise monotonically with tau."""
    taus = [0.0, ns(0.1), ns(0.25), ns(0.5)]
    vmins = [
        vmin_for_skew(t, fF(160), ns(0.2), options=fast_options) for t in taus
    ]
    assert all(a < b for a, b in zip(vmins, vmins[1:]))


def test_zero_skew_vmin_below_threshold(fast_options):
    assert vmin_for_skew(0.0, fF(160), ns(0.2), options=fast_options) < VTH_INTERPRET


def test_large_skew_vmin_near_vdd(fast_options):
    assert vmin_for_skew(ns(2.0), fF(160), ns(0.2), options=fast_options) > 4.5


def test_sweep_returns_curve(fast_options):
    taus = [0.0, ns(0.2), ns(0.5)]
    (curve,) = sensitivity_family([fF(80)], [ns(0.2)], taus,
                                  options=fast_options)
    assert curve.load == fF(80)
    assert len(curve.vmins) == 3
    assert curve.tau_min is not None
    assert 0.0 < curve.tau_min < ns(0.5)


def test_tau_min_grows_with_load(fast_options):
    """The paper's central sensitivity trend: heavier load -> slower y1
    fall -> larger minimum detectable skew."""
    tm = {
        c: extract_tau_min(
            fF(c), tolerance=ns(0.01), options=fast_options
        )
        for c in (80, 240)
    }
    assert tm[80] < tm[240]


def test_tau_min_in_subnanosecond_band(fast_options):
    """Sensitivities land in the paper's sub-0.25 ns band."""
    tau = extract_tau_min(fF(160), tolerance=ns(0.01), options=fast_options)
    assert ns(0.03) < tau < ns(0.25)


def test_tau_min_insensitive_to_slew(fast_options):
    """Fig. 4: 'the circuit is rather unsensitive to the slope of clock
    signal waveforms' - a 4x slew change moves tau_min by < 20 %."""
    fast = extract_tau_min(
        fF(160), slew=ns(0.1), tolerance=ns(0.005), options=fast_options
    )
    slow = extract_tau_min(
        fF(160), slew=ns(0.4), tolerance=ns(0.005), options=fast_options
    )
    assert abs(slow - fast) / fast < 0.2


def test_extract_tau_min_validates_bracket(fast_options):
    with pytest.raises(ValueError):
        extract_tau_min(fF(160), tau_hi=ns(0.001), options=fast_options)


@pytest.mark.parametrize("bad", [
    dict(tolerance=0.0),
    dict(tolerance=-TOLERANCE),
    dict(tau_hi=-ns(1.0)),
    dict(tau_hi=0.0),
])
def test_extract_tau_min_rejects_bad_search_range(bad, fast_options):
    """A non-positive tolerance or tau_hi raises before any probe: a zero
    tolerance never closes the bracket, and a negative tau_hi would
    yield a negative tau_min."""
    telemetry = Telemetry()
    with pytest.raises(ValueError):
        extract_tau_min(
            fF(160), options=fast_options, telemetry=telemetry, **bad
        )
    assert telemetry.jobs_total == 0


#: An assumed slope as a multiple of the true one, or None (no model
#: slope: the fixed-fraction step).
SLOPE_RATIOS = st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3))


def _assumed_slope(slope_ratio, width):
    """The assumed slope of ``tanh((tau - root) / width)``, whose true
    slope at the root is ``1 / width``."""
    return None if slope_ratio is None else slope_ratio / width


@settings(max_examples=200, deadline=None)
@given(
    root=st.floats(min_value=0.0, max_value=TAU_HI,
                   exclude_min=True, exclude_max=True),
    width=st.floats(min_value=1e-15, max_value=1e-9),
    seed_ratio=st.floats(min_value=1e-3, max_value=10.0),
    tolerance=st.floats(min_value=1e-13, max_value=1e-11),
    slope_ratio=SLOPE_RATIOS,
)
def test_crossing_brackets_root_of_monotone_curve(
    root, width, seed_ratio, tolerance, slope_ratio,
):
    """Whatever the seed and the assumed slope, the answer is within
    tolerance / 2 of the root, and every probe lies in (0, tau_hi]."""
    probes = []

    def excess(tau):
        probes.append(tau)
        return math.tanh((tau - root) / width)

    tau = _crossing(excess, seed_ratio * root, TAU_HI, tolerance,
                    _assumed_slope(slope_ratio, width))
    assert abs(tau - root) <= 0.5 * tolerance + math.ulp(TAU_HI)
    assert all(0.0 < probe <= TAU_HI for probe in probes)


@pytest.mark.parametrize("seed_ratio", [0.7, 0.8, 0.95, 1.05, 1.3, 1.8])
def test_crossing_steps_by_the_measured_excess(seed_ratio):
    """On a straight line, with the slope assumed a quarter as steep as
    it is, the second probe lands past the root from any estimate within
    0.7-1.8x of it (the step is capped at half the estimate), and the
    search ends in four probes.  A step that ignores the excess the
    first probe read needs more somewhere."""
    root, slope = ns(0.15), 6e9  # 6 mV/ps, as Fig. 4 measures
    probes = []

    def excess(tau):
        probes.append(tau)
        return slope * (tau - root)

    tau = _crossing(excess, seed_ratio * root, TAU_HI, TOLERANCE,
                    slope / 4.0)
    assert abs(tau - root) <= 0.5 * TOLERANCE
    assert (probes[1] - root) * (probes[0] - root) < 0
    assert len(probes) <= 4


def test_crossing_ends_below_float_resolution():
    """A tolerance finer than the float spacing near tau_hi ends at that
    spacing instead of probing the same float forever."""
    root = ns(0.123)
    tau = _crossing(
        lambda tau: math.tanh((tau - root) / ns(0.01)), root, TAU_HI, 1e-30,
    )
    assert abs(tau - root) <= 4 * math.ulp(TAU_HI)


@settings(max_examples=50, deadline=None)
@given(
    root=st.floats(min_value=TAU_HI, max_value=10 * TAU_HI),
    width=st.floats(min_value=1e-15, max_value=1e-9),
    seed_ratio=st.floats(min_value=1e-3, max_value=10.0),
    slope_ratio=SLOPE_RATIOS,
)
def test_crossing_raises_without_crossing(root, width, seed_ratio,
                                          slope_ratio):
    with pytest.raises(ValueError):
        _crossing(
            lambda tau: math.tanh((tau - root) / width),
            seed_ratio * root, TAU_HI, TOLERANCE,
            _assumed_slope(slope_ratio, width),
        )


@pytest.mark.parametrize("slew_ns", [0.1, 0.4])
@pytest.mark.parametrize("load_ff", [80, 160, 240])
def test_seeded_search_matches_bisection(load_ff, slew_ns, fast_options):
    """Over the Fig. 4 loads, the seeded search agrees with bisection
    within tolerance, in at most 4 probes (bisection takes 11)."""
    telemetry = Telemetry()
    tau = extract_tau_min(
        fF(load_ff), ns(slew_ns), options=fast_options, cache=None,
        telemetry=telemetry,
    )
    oracle = bisection_tau_min(fF(load_ff), ns(slew_ns), fast_options)
    assert abs(tau - oracle) <= TOLERANCE
    assert telemetry.jobs_total <= 4


def _raise_value_error(*args, **kwargs):
    raise ValueError("no estimate")


@pytest.mark.parametrize("estimate", [
    lambda *args, **kwargs: TOLERANCE,
    lambda *args, **kwargs: 0.99 * TAU_HI,
    _raise_value_error,
], ids=["tolerance", "near-tau_hi", "raises"])
def test_wrong_estimate_costs_probes_not_accuracy(
    estimate, monkeypatch, fast_options,
):
    oracle = bisection_tau_min(fF(160), ns(0.2), fast_options)
    monkeypatch.setattr(sensitivity, "estimate_tau_min", estimate)
    tau = extract_tau_min(fF(160), options=fast_options)
    assert abs(tau - oracle) <= TOLERANCE
