"""Independent voltage sources: DC, piecewise-linear, pulse, and clocks.

Every source drives one netlist node to a known voltage as a function of
time.  Sources expose their *breakpoints* (corner times of the waveform) so
the transient engine can land integration steps exactly on them and restart
with a small step, which is what keeps sharp clock edges accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


@dataclass
class DCSource:
    """A constant voltage (supply rails, stuck-at ties)."""

    voltage: float

    def value(self, t: float) -> float:
        """Voltage at time ``t`` (constant)."""
        return self.voltage

    def breakpoints(self, t0: float, t1: float) -> List[float]:
        """A DC source has no waveform corners."""
        return []


@dataclass
class PWLSource:
    """A piecewise-linear voltage waveform.

    ``times`` must be strictly increasing; the waveform holds its first
    value before ``times[0]`` and its last value after ``times[-1]``.
    """

    times: Sequence[float]
    values: Sequence[float]
    _t: np.ndarray = field(init=False, repr=False)
    _v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ValueError("PWLSource: times and values must be equal-length 1-D")
        if np.any(np.diff(t) <= 0):
            raise ValueError("PWLSource: times must be strictly increasing")
        self._t = t
        self._v = v

    def value(self, t: float) -> float:
        """Linearly interpolated voltage at time ``t``."""
        return float(np.interp(t, self._t, self._v))

    def breakpoints(self, t0: float, t1: float) -> List[float]:
        """Corner times falling inside ``[t0, t1]``."""
        mask = (self._t >= t0) & (self._t <= t1)
        return [float(x) for x in self._t[mask]]


@dataclass
class PulseSource:
    """A SPICE-style periodic pulse source.

    Parameters follow the SPICE ``PULSE`` card: initial value ``v0``, pulsed
    value ``v1``, ``delay`` before the first edge, ``rise`` / ``fall`` edge
    durations, ``width`` of the pulsed level, and ``period``.
    """

    v0: float
    v1: float
    delay: float
    rise: float
    fall: float
    width: float
    period: float

    def __post_init__(self) -> None:
        if self.rise <= 0 or self.fall <= 0:
            raise ValueError("PulseSource: rise and fall must be positive")
        if self.period <= self.rise + self.width + self.fall:
            raise ValueError("PulseSource: period shorter than one full pulse")

    def _phase_value(self, tau: float) -> float:
        """Voltage as a function of time-within-period ``tau``."""
        if tau < 0:
            return self.v0
        if tau < self.rise:
            return self.v0 + (self.v1 - self.v0) * tau / self.rise
        if tau < self.rise + self.width:
            return self.v1
        if tau < self.rise + self.width + self.fall:
            frac = (tau - self.rise - self.width) / self.fall
            return self.v1 + (self.v0 - self.v1) * frac
        return self.v0

    def value(self, t: float) -> float:
        """Voltage at time ``t``."""
        if t < self.delay:
            return self.v0
        tau = (t - self.delay) % self.period
        return self._phase_value(tau)

    def breakpoints(self, t0: float, t1: float) -> List[float]:
        """All edge corners inside ``[t0, t1]``."""
        points: List[float] = []
        if t0 <= self.delay <= t1:
            points.append(self.delay)
        k = max(0, int((t0 - self.delay) // self.period) - 1)
        while True:
            base = self.delay + k * self.period
            if base > t1:
                break
            for corner in (
                base,
                base + self.rise,
                base + self.rise + self.width,
                base + self.rise + self.width + self.fall,
            ):
                if t0 <= corner <= t1:
                    points.append(corner)
            k += 1
        return sorted(set(points))


@dataclass
class ClockSource:
    """A clock waveform with an explicit skew term.

    This is the stimulus used throughout the reproduction: a 50 %-duty
    square clock with linear edges, whose every edge is displaced by
    ``skew`` seconds relative to the reference clock.  ``skew`` may be
    negative (an *early* clock).

    Attributes
    ----------
    period:
        Clock period in seconds.
    slew:
        0-to-100 % edge duration in seconds (the paper calls this the clock
        "slope" or "slew"; it sweeps 0.1 ns to 0.4 ns).
    skew:
        Displacement of this clock's edges relative to nominal, seconds.
    delay:
        Time of the nominal first rising edge.
    vdd:
        High level; low level is 0 V.
    """

    period: float
    slew: float
    skew: float = 0.0
    delay: float = 0.0
    vdd: float = 5.0

    _pulse: PulseSource = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.period <= 0 or self.slew <= 0:
            raise ValueError("ClockSource: period and slew must be positive")
        if self.slew >= self.period / 2:
            raise ValueError("ClockSource: slew must be shorter than half period")
        high = self.period / 2 - self.slew
        self._pulse = PulseSource(
            v0=0.0,
            v1=self.vdd,
            delay=self.delay + self.skew,
            rise=self.slew,
            fall=self.slew,
            width=high,
            period=self.period,
        )

    def value(self, t: float) -> float:
        """Voltage at time ``t``."""
        if t < self.delay + self.skew:
            return 0.0
        return self._pulse.value(t)

    def breakpoints(self, t0: float, t1: float) -> List[float]:
        """Edge corners inside ``[t0, t1]``."""
        return self._pulse.breakpoints(t0, t1)

    def rising_edge(self, index: int) -> float:
        """Start time of the ``index``-th rising edge (0-based)."""
        return self.delay + self.skew + index * self.period

    def falling_edge(self, index: int) -> float:
        """Start time of the ``index``-th falling edge (0-based).

        Computed with the pulse's own corner arithmetic, so the value is
        bit-equal to the corner :meth:`breakpoints` lists: a run that
        stops here stops on a point every longer run lands on too.
        """
        pulse = self._pulse
        return pulse.delay + index * pulse.period + pulse.rise + pulse.width


def jittery_clock(
    period: float,
    slew: float,
    n_cycles: int,
    rms_jitter: float,
    rng,
    delay: float = 0.0,
    skew: float = 0.0,
    vdd: float = 5.0,
) -> PWLSource:
    """A clock whose every edge carries independent Gaussian timing noise.

    Unlike a static skew (a *systematic* displacement the paper's sensor
    targets), jitter is a per-edge random displacement; a sensor tolerance
    set too close to the jitter floor raises false alarms.  The waveform
    is materialised as a PWL source over ``n_cycles`` periods; individual
    edge offsets are clipped to ``period / 8`` so edges stay ordered.

    Parameters
    ----------
    rms_jitter:
        Standard deviation of each edge's displacement, seconds.
    rng:
        ``numpy.random.Generator`` supplying the noise (seed it for
        reproducibility).
    skew:
        Static displacement added to every edge (combine with jitter to
        study the mixed case).
    """
    if n_cycles < 1:
        raise ValueError("need at least one cycle")
    if rms_jitter < 0:
        raise ValueError("rms_jitter must be non-negative")
    clip = period / 8.0
    times: List[float] = [0.0]
    values: List[float] = [0.0]
    for k in range(n_cycles):
        base = delay + skew + k * period
        jit_r = float(np.clip(rng.normal(0.0, rms_jitter), -clip, clip))
        jit_f = float(np.clip(rng.normal(0.0, rms_jitter), -clip, clip))
        rise = base + jit_r
        fall = base + period / 2.0 + jit_f
        for t, v in ((rise, 0.0), (rise + slew, vdd),
                     (fall, vdd), (fall + slew, 0.0)):
            if t > times[-1]:
                times.append(t)
                values.append(v)
    times.append(delay + n_cycles * period + period)
    values.append(0.0)
    return PWLSource(times=times, values=values)


def clock_pair(
    period: float,
    slew1: float,
    slew2: float,
    skew: float,
    delay: float = 0.0,
    vdd: float = 5.0,
) -> Tuple[ClockSource, ClockSource]:
    """Build the two monitored clocks ``(phi1, phi2)`` of the paper.

    ``skew > 0`` delays ``phi2`` relative to ``phi1`` (the Fig. 3 case where
    ``y1`` falls and ``y2`` holds, producing the error code ``01``);
    ``skew < 0`` delays ``phi1``.
    """
    phi1 = ClockSource(period=period, slew=slew1, skew=0.0, delay=delay, vdd=vdd)
    phi2 = ClockSource(period=period, slew=slew2, skew=skew, delay=delay, vdd=vdd)
    return phi1, phi2
