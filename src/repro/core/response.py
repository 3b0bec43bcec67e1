"""Simulation and logic interpretation of the sensor response.

The paper interprets the sensor outputs through a gate with logic threshold
``VDD/2`` derated 10 % for parameter variation (2.75 V at 5 V supply):
after the monitored rising edges, ``(y1, y2)`` equal to ``11`` (both held
high by an undischarged block) never occurs in fault-free operation, ``00``
(well, the sub-threshold clamp) is the no-error response, and ``01`` / ``10``
flag a late ``phi2`` / late ``phi1`` respectively.

The full-period :func:`simulate_sensor` (Figs. 2/3 and ``repro waves``),
the sensor-job evaluation of :mod:`repro.runtime.prefix` and the
lockstep stacks all drive the sensor through :func:`clocked_netlist` and
read it through :func:`read_response`, each written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analog.engine import TransientOptions, TransientResult, transient
from repro.analog.waveform import Waveform
from repro.circuit.netlist import Netlist
from repro.core.sensing import SkewSensor
from repro.devices.sources import clock_pair
from repro.units import VTH_INTERPRET, ns

#: Error codes as (y1, y2) logic pairs.
ERROR_NONE = (0, 0)
ERROR_PHI2_LATE = (0, 1)
ERROR_PHI1_LATE = (1, 0)


def measurement_windows(
    skew: float, slew1: float, slew2: float, period: float, settle: float
) -> Tuple[float, float, float, float]:
    """The evaluation-window times of one sensor cycle.

    Returns ``(edge_start, late_edge_end, fall_start, t_sample)``:
    ``Vmin`` is taken over ``[edge_start, fall_start]`` (first rising
    edge to the start of the falling edge - the half period during which
    the paper says the error indication holds) and the logic code is
    sampled at ``t_sample`` (see :func:`read_response`).  Sensor-job
    evaluations stop integrating at ``fall_start``, where every window
    ends.
    """
    edge_start = settle + min(0.0, skew)
    late_edge_end = settle + max(0.0, skew) + max(slew1, slew2)
    fall_start = settle + period / 2.0 - max(slew1, slew2) + min(0.0, skew)
    t_sample = min(late_edge_end + (fall_start - late_edge_end) * 0.75, fall_start)
    return edge_start, late_edge_end, fall_start, t_sample


def read_response(
    y1: Waveform, y2: Waveform, skew: float, slew1: float, slew2: float,
    period: float, settle: float, threshold: float,
) -> Tuple[float, float, Tuple[int, int]]:
    """``(vmin_y1, vmin_y2, code)`` read off one cycle's output waveforms.

    ``Vmin`` is each output's minimum over ``[edge_start, fall_start]``
    of :func:`measurement_windows`; the ``(y1, y2)`` code is sampled at
    ``t_sample`` - after the late edge has fully propagated, comfortably
    inside the high phase - against ``threshold``.
    """
    edge_start, _, fall_start, t_sample = measurement_windows(
        skew, slew1, slew2, period, settle
    )
    code = (
        1 if y1.at(t_sample) > threshold else 0,
        1 if y2.at(t_sample) > threshold else 0,
    )
    return (y1.window_min(edge_start, fall_start),
            y2.window_min(edge_start, fall_start), code)


def check_skew(skew: float, settle: float) -> None:
    """Refuse a ``skew`` no run can carry, with a :class:`ValueError`.

    A negative skew advances ``phi2``, whose first rising edge then
    starts at ``settle + skew``.  At or before ``t = 0``, where every run
    starts, the run would begin with ``phi2`` already high and read the
    opposite error.  A non-finite skew is refused too.
    """
    if not math.isfinite(skew):
        raise ValueError(f"skew must be a finite number, got {skew!r}")
    if settle + min(0.0, skew) <= 0.0:
        raise ValueError(f"skew {skew / ns(1.0):g} ns starts phi2's rising "
                         "edge at or before t = 0, where the run starts")


def clocked_netlist(
    sensor: SkewSensor, skew: float, slew1: float, slew2: float,
    period: float, settle: float,
) -> Netlist:
    """The sensor's netlist driven by one clock pair carrying ``skew``
    (refused by :func:`check_skew` when no run can carry it)."""
    check_skew(skew, settle)
    phi1, phi2 = clock_pair(
        period=period, slew1=slew1, slew2=slew2, skew=skew,
        delay=settle, vdd=sensor.vdd,
    )
    return sensor.build(phi1=phi1, phi2=phi2)


@dataclass(frozen=True)
class SensorResponse:
    """Measured response of one sensor simulation.

    Attributes
    ----------
    vmin_y1, vmin_y2:
        Minimum output voltages over the evaluation window following the
        monitored rising edges (the paper's ``Vmin`` is the one on the
        *late* output).
    code:
        ``(y1, y2)`` logic pair sampled at threshold mid-way through the
        high phase of the clocks.
    skew:
        The applied skew ``tau`` (positive = ``phi2`` late).
    result:
        The raw transient result, for waveform inspection.
    """

    vmin_y1: float
    vmin_y2: float
    code: Tuple[int, int]
    skew: float
    result: TransientResult

    @property
    def error_detected(self) -> bool:
        """True when the sensor flags an abnormal skew."""
        return self.code != ERROR_NONE

    @property
    def vmin_late(self) -> float:
        """``Vmin`` of the output associated with the later clock edge.

        For ``tau >= 0`` (``phi2`` late) that is ``y2``; the paper's Fig. 4
        and Fig. 5 plot this quantity.
        """
        return self.vmin_y2 if self.skew >= 0 else self.vmin_y1

    def wave(self, node: str) -> Waveform:
        """Waveform of a recorded node."""
        return self.result.wave(node)


def simulate_sensor(
    sensor: SkewSensor,
    skew: float,
    slew1: float = ns(0.2),
    slew2: float = ns(0.2),
    period: float = ns(20.0),
    settle: float = ns(2.0),
    threshold: float = VTH_INTERPRET,
    options: Optional[TransientOptions] = None,
    record_currents: bool = False,
) -> SensorResponse:
    """Drive the sensor with one clock cycle carrying skew ``tau``.

    The clocks rise at ``settle`` (plus ``skew`` for ``phi2``); the run
    covers one full period so the evaluation window (rising edge to the
    start of the falling edge - the half period during which the paper says
    the error indication holds) is fully observed.

    Parameters
    ----------
    sensor:
        Circuit builder (carries process, sizing, loads).
    skew:
        ``tau`` in seconds; positive delays ``phi2``.
    slew1, slew2:
        Clock edge durations (the paper sweeps 0.1-0.4 ns, independently
        per input in the Monte Carlo analysis).
    period:
        Clock period.
    settle:
        Quiet time before the first rising edge, letting the operating
        point hold visibly.
    threshold:
        Logic interpretation threshold for the error code.
    """
    # Idle state with both clocks low: the guess steers the operating
    # point away from the metastable mid-rail equilibrium of the
    # output/keeper feedback loops.
    result = transient(
        clocked_netlist(sensor, skew, slew1, slew2, period, settle),
        t_stop=settle + period,
        record=["phi1", "phi2", "y1", "y2"],
        record_currents=["vdd"] if record_currents else None,
        initial=sensor.dc_guess(),
        options=options,
    )
    vmin_y1, vmin_y2, code = read_response(
        result.wave("y1"), result.wave("y2"),
        skew, slew1, slew2, period, settle, threshold,
    )
    return SensorResponse(
        vmin_y1=vmin_y1, vmin_y2=vmin_y2, code=code, skew=skew, result=result
    )


def evaluate_response(
    vmin_late: float, threshold: float = VTH_INTERPRET
) -> bool:
    """The paper's detection criterion on the analog measurement.

    An abnormal skew is flagged when the late output's minimum voltage
    stays *above* the interpretation threshold (its falling transition was
    incomplete or absent).
    """
    return vmin_late > threshold
