"""Electrical behaviour of the sensor (Figs. 2 and 3)."""

import numpy as np
import pytest

from repro.analog.waveform import Waveform
from repro.core.response import (
    ERROR_NONE,
    ERROR_PHI1_LATE,
    ERROR_PHI2_LATE,
    evaluate_response,
    measurement_windows,
    read_response,
    simulate_sensor,
)
from repro.core.sensing import SkewSensor
from repro.devices.process import nominal_process
from repro.units import VTH_INTERPRET, fF, ns


def test_no_skew_outputs_fall_together(no_skew_response):
    """Fig. 2: both outputs leave the high level after the edges."""
    assert no_skew_response.code == ERROR_NONE
    assert no_skew_response.vmin_y1 < VTH_INTERPRET
    assert no_skew_response.vmin_y2 < VTH_INTERPRET


def test_no_skew_clamps_near_nmos_threshold(no_skew_response):
    """Fig. 2: 'the voltage of y1 and y2 cannot fall below the n-channel
    conductance threshold, because of the feedback'."""
    vtn = nominal_process().nmos.vt0
    assert no_skew_response.vmin_y1 > 0.8 * vtn
    assert no_skew_response.vmin_y1 < 2.0 * vtn
    assert no_skew_response.vmin_y2 == pytest.approx(
        no_skew_response.vmin_y1, abs=0.05
    )


def test_no_skew_outputs_recover_high(no_skew_response):
    """After the falling clock edges the outputs return to VDD."""
    y1 = no_skew_response.wave("y1")
    assert y1.final_value() == pytest.approx(5.0, abs=0.1)


def test_phi2_late_gives_01(skewed_response):
    """Fig. 3: y1 completes its transition, y2 holds high."""
    assert skewed_response.code == ERROR_PHI2_LATE
    assert skewed_response.vmin_y1 < 0.5
    assert skewed_response.vmin_y2 > VTH_INTERPRET
    assert skewed_response.error_detected


def test_phi1_late_gives_10(sensor, fast_options):
    response = simulate_sensor(sensor, skew=-ns(1.0), options=fast_options)
    assert response.code == ERROR_PHI1_LATE
    assert response.vmin_late == response.vmin_y1
    assert response.error_detected


def test_skew_is_refused_once_phi2_would_rise_at_or_before_t0(
        sensor, fast_options):
    """A negative skew advances phi2: with the 2 ns settle, -1.5 ns still
    reads phi1 late, while -3 ns would start the run with phi2 high and
    read the opposite error, so it is refused, as is a non-finite skew."""
    response = simulate_sensor(sensor, skew=-ns(1.5), options=fast_options)
    assert response.code == ERROR_PHI1_LATE
    for skew in (-ns(3.0), -ns(2.0), float("nan"), float("inf")):
        with pytest.raises(ValueError, match="at or before t = 0|finite"):
            simulate_sensor(sensor, skew=skew, options=fast_options)


def test_vmin_late_selects_correct_output(sensor, fast_options):
    pos = simulate_sensor(sensor, skew=ns(0.5), options=fast_options)
    assert pos.vmin_late == pos.vmin_y2
    neg = simulate_sensor(sensor, skew=-ns(0.5), options=fast_options)
    assert neg.vmin_late == neg.vmin_y1


def test_error_indication_persists_half_period(sensor, fast_options):
    """Sec. 2: the 01 indication 'holds for a time long enough (half of
    the clock period)'."""
    response = simulate_sensor(
        sensor, skew=ns(1.0), period=ns(20), settle=ns(2), options=fast_options
    )
    y2 = response.wave("y2")
    # From the late edge to just before the falling edge, y2 stays high.
    assert y2.window_min(ns(4.0), ns(11.5)) > VTH_INTERPRET


def test_error_clears_after_falling_edge(sensor, fast_options):
    """The static indication ends when the clocks fall (hence the latching
    indicators downstream)."""
    response = simulate_sensor(sensor, skew=ns(1.0), options=fast_options)
    y1 = response.wave("y1")
    assert y1.final_value() == pytest.approx(5.0, abs=0.1)


def test_symmetric_skews_give_mirror_vmins(sensor, fast_options):
    pos = simulate_sensor(sensor, skew=ns(0.3), options=fast_options)
    neg = simulate_sensor(sensor, skew=-ns(0.3), options=fast_options)
    assert pos.vmin_y2 == pytest.approx(neg.vmin_y1, abs=0.05)


def test_full_swing_variant_reaches_ground(fast_options):
    """The keeper option pulls the outputs fully low in the no-skew case."""
    sensor = SkewSensor(load1=fF(160), load2=fF(160), full_swing=True)
    response = simulate_sensor(sensor, skew=0.0, options=fast_options)
    assert response.vmin_y1 < 0.3
    assert response.code == ERROR_NONE


def test_evaluate_response_criterion():
    assert evaluate_response(3.0) is True
    assert evaluate_response(2.0) is False
    assert evaluate_response(2.0, threshold=1.5) is True


def test_asymmetric_loads_still_detect(fast_options):
    sensor = SkewSensor(load1=fF(80), load2=fF(240))
    response = simulate_sensor(sensor, skew=ns(1.0), options=fast_options)
    assert response.code == ERROR_PHI2_LATE


# --------------------------------------------------------------------- #
# The single waveform reading, on hand-built waveforms.
# --------------------------------------------------------------------- #
SETTLE, PERIOD, SLEW = ns(2.0), ns(20.0), ns(0.2)


def _blip(base, t_mid, value, half=ns(0.01)):
    """Flat ``base`` that sits at ``value`` on ``t_mid +- half`` only."""
    ramp = half / 10
    times = [0.0, t_mid - half - ramp, t_mid - half, t_mid + half,
             t_mid + half + ramp, SETTLE + PERIOD]
    values = [base, base, value, value, base, base]
    return Waveform(np.array(times), np.array(values))


def _read(y1, y2, tau, threshold=VTH_INTERPRET):
    return read_response(y1, y2, tau, SLEW, SLEW, PERIOD, SETTLE, threshold)


@pytest.mark.parametrize("tau", [ns(0.3), ns(-0.3)])
def test_read_response_vmin_window(tau):
    """``Vmin`` spans ``[settle + min(0, tau), fall_start]``: a dip just
    inside either end counts, one just outside is ignored."""
    start = SETTLE + min(0.0, tau)
    fall = SETTLE + PERIOD / 2 - SLEW + min(0.0, tau)
    edge_start, _, fall_start, _ = measurement_windows(
        tau, SLEW, SLEW, PERIOD, SETTLE
    )
    assert (edge_start, fall_start) == (start, fall)
    near = ns(0.05)
    for t_dip in (start + near, fall - near):
        vmin_y1, vmin_y2, _ = _read(_blip(5.0, t_dip, 1.0),
                                    _blip(5.0, t_dip, 0.5), tau)
        assert (vmin_y1, vmin_y2) == (1.0, 0.5)
    for t_dip in (start - near, fall + near):
        vmin_y1, vmin_y2, _ = _read(_blip(5.0, t_dip, 1.0),
                                    _blip(5.0, t_dip, 0.5), tau)
        assert (vmin_y1, vmin_y2) == (5.0, 5.0)


def test_read_response_code_sampled_at_t_sample():
    """The code reads each output at ``t_sample`` against ``threshold``."""
    tau = ns(0.3)
    t_sample = measurement_windows(tau, SLEW, SLEW, PERIOD, SETTLE)[3]
    high_there = _blip(0.0, t_sample, 5.0)
    low_there = _blip(5.0, t_sample, 0.0)
    assert _read(high_there, low_there, tau)[2] == (1, 0)
    assert _read(low_there, high_there, tau)[2] == (0, 1)
    level = _blip(3.0, t_sample, 3.0)
    assert _read(level, level, tau, threshold=2.75)[2] == (1, 1)
    assert _read(level, level, tau, threshold=3.5)[2] == (0, 0)
