"""Independent sources: DC, PWL, pulse, clock pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.sources import (
    ClockSource,
    DCSource,
    PulseSource,
    PWLSource,
    clock_pair,
)
from repro.units import ns


def test_dc_source_constant():
    src = DCSource(3.3)
    assert src.value(0.0) == 3.3
    assert src.value(1.0) == 3.3
    assert src.breakpoints(0.0, 1.0) == []


def test_pwl_interpolation():
    src = PWLSource([0.0, 1.0, 2.0], [0.0, 5.0, 5.0])
    assert src.value(0.5) == 2.5
    assert src.value(1.5) == 5.0


def test_pwl_clamps_outside_range():
    src = PWLSource([1.0, 2.0], [1.0, 3.0])
    assert src.value(0.0) == 1.0
    assert src.value(5.0) == 3.0


def test_pwl_breakpoints_filtered():
    src = PWLSource([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1])
    assert src.breakpoints(0.5, 2.5) == [1.0, 2.0]


def test_pwl_rejects_non_monotone_times():
    with pytest.raises(ValueError):
        PWLSource([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        PWLSource([1.0, 0.5], [1.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(0, 100), st.floats(-10, 10)),
        min_size=2, max_size=8, unique_by=lambda p: p[0],
    ),
    t=st.floats(0, 100),
)
def test_pwl_value_within_envelope(data, t):
    """Interpolation never exceeds the waveform's value range."""
    data = sorted(data)
    times = [p[0] for p in data]
    values = [p[1] for p in data]
    src = PWLSource(times, values)
    v = src.value(t)
    assert min(values) - 1e-9 <= v <= max(values) + 1e-9


def test_pulse_phases():
    src = PulseSource(
        v0=0.0, v1=5.0, delay=1e-9, rise=0.1e-9, fall=0.1e-9,
        width=3.9e-9, period=10e-9,
    )
    assert src.value(0.0) == 0.0
    assert src.value(1e-9) == 0.0          # edge start
    assert np.isclose(src.value(1.05e-9), 2.5)  # mid rise
    assert src.value(2e-9) == 5.0          # high
    assert src.value(6e-9) == 0.0          # back low
    assert src.value(11.05e-9) == pytest.approx(2.5)  # next period


def test_pulse_rejects_impossible_period():
    with pytest.raises(ValueError):
        PulseSource(0, 5, 0, rise=1, fall=1, width=1, period=2.5)


def test_pulse_breakpoints_cover_edges():
    src = PulseSource(
        v0=0.0, v1=5.0, delay=1e-9, rise=0.1e-9, fall=0.1e-9,
        width=3.9e-9, period=10e-9,
    )
    bps = src.breakpoints(0.0, 10e-9)
    for expected in (1e-9, 1.1e-9, 5e-9, 5.1e-9):
        assert any(np.isclose(expected, b) for b in bps)


def test_clock_levels_and_edges():
    clk = ClockSource(period=ns(20), slew=ns(0.2), vdd=5.0, delay=ns(2))
    assert clk.value(0.0) == 0.0
    assert clk.value(ns(2)) == 0.0
    assert np.isclose(clk.value(ns(2.1)), 2.5)
    assert clk.value(ns(5)) == 5.0
    assert clk.value(ns(15)) == 0.0


def test_clock_skew_shifts_edges():
    clk = ClockSource(period=ns(20), slew=ns(0.2), skew=ns(1), delay=ns(2))
    assert clk.value(ns(2.1)) == 0.0           # not risen yet
    assert np.isclose(clk.value(ns(3.1)), 2.5)  # mid edge, 1 ns later
    assert clk.rising_edge(0) == pytest.approx(ns(3))
    assert clk.rising_edge(1) == pytest.approx(ns(23))


def test_clock_negative_skew():
    clk = ClockSource(period=ns(20), slew=ns(0.2), skew=-ns(1), delay=ns(2))
    assert clk.rising_edge(0) == pytest.approx(ns(1))
    assert clk.value(ns(0.5)) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    period_ns=st.floats(1.0, 50.0),
    slew_frac=st.floats(0.01, 0.45),
    skew_ns=st.floats(-2.0, 2.0),
    delay_ns=st.floats(0.0, 5.0),
    index=st.integers(0, 5),
)
def test_clock_falling_edge_is_a_breakpoint(period_ns, slew_frac, skew_ns,
                                            delay_ns, index):
    """A run that stops at ``falling_edge(k)`` stops on a corner every
    longer run lands on: the value is a member of ``breakpoints()`` bit
    for bit, not merely close to one."""
    clk = ClockSource(period=ns(period_ns), slew=slew_frac * ns(period_ns),
                      skew=ns(skew_ns), delay=ns(delay_ns))
    edge = clk.falling_edge(index)
    assert edge in clk.breakpoints(clk.rising_edge(index),
                                   clk.rising_edge(index + 1))
    assert edge == pytest.approx(clk.rising_edge(index) + clk.period / 2)


def test_clock_validation():
    with pytest.raises(ValueError):
        ClockSource(period=ns(1), slew=ns(0.6))
    with pytest.raises(ValueError):
        ClockSource(period=-ns(1), slew=ns(0.1))


def test_clock_pair_convention():
    """Positive skew delays phi2 (the paper's tau)."""
    phi1, phi2 = clock_pair(ns(20), ns(0.2), ns(0.2), skew=ns(0.5), delay=ns(2))
    assert phi1.rising_edge(0) < phi2.rising_edge(0)
    assert phi2.rising_edge(0) - phi1.rising_edge(0) == pytest.approx(ns(0.5))


def test_clock_pair_independent_slews():
    phi1, phi2 = clock_pair(ns(20), ns(0.1), ns(0.4), skew=0.0)
    assert phi1.slew == ns(0.1)
    assert phi2.slew == ns(0.4)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0, 100e-9))
def test_clock_bounded_by_rails(t):
    clk = ClockSource(period=ns(20), slew=ns(0.3), delay=ns(1), vdd=5.0)
    assert 0.0 <= clk.value(t) <= 5.0
