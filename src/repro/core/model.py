"""First-order analytic model of the sensor's sensitivity.

Sec. 2 defines the mechanism: the skew is detected when it exceeds "the
delay (d) required by the output signal y1 to reach a low value" - low
enough that the feedback transistor ``l`` stops block B's discharge before
``y2`` falls through the interpretation threshold.

A hand calculation of that delay:

* while ``phi1`` is high and ``phi2`` still low, ``y1`` discharges through
  the series stack ``d``/``e``.  Both are initially in saturation with
  full overdrive ``Vov = VDD - VTn``; a two-transistor series stack
  conducts roughly half a single device's saturation current, so

  ``I_fall ~= 0.25 * beta_n * (VDD - VTn)^2``

  (``0.25 = 0.5`` from the square-law times ``0.5`` for the stack);

* while ``y1`` is still above ``VTn`` the feedback transistor ``l``
  conducts and ``y2`` keeps dipping even after the overlap ends; the
  dip is cut short once ``y1`` crosses ``l``'s cutoff.  Setting the
  allowed dip (``VDD - Vth``) against ``y1``'s total excursion
  (``VDD - VTn``) leaves the *effective* race swing

  ``Delta V ~= Vth - VTn``

  - larger skews eat into it linearly, which also gives the correct
  direction for the paper's Vth knob (lower threshold, finer
  sensitivity);

* the capacitance being discharged is the external load plus the lumped
  junction/gate parasitics on ``y1``.

Hence ``tau_min ~= C_total * (VDD - Vth) / I_fall``.  The model is
validated against the transistor-level simulator across loads and sizings
(see ``tests/test_analytic_model.py``); it is the designer's back-of-the-
envelope for picking W and Vth before running any simulation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.sensing import SensorSizing, SkewSensor
from repro.devices.process import ProcessParams, nominal_process
from repro.units import VTH_INTERPRET

#: Series-stack current derating: two stacked devices carry about half a
#: single device's saturation current during the fall.
STACK_FACTOR = 0.5

#: Post-overlap conduction correction.  The single-interval picture above
#: pretends y2 stops discharging the instant phi2's edge ends the overlap;
#: in reality ``l`` keeps conducting (weakening) until ``y1`` is well
#: below VTn, so a much smaller skew already produces the threshold-deep
#: dip in ``y2``.  Calibrated once against the transistor-level simulator;
#: remarkably constant (within 4 %) across the paper's full load and
#: sizing sweep because it multiplies the same RC/I expression.
RACE_FACTOR = 1.0 / 5.24


def effective_output_capacitance(
    load: float,
    sizing: Optional[SensorSizing] = None,
    process: Optional[ProcessParams] = None,
) -> float:
    """Total capacitance discharged at an output node.

    External load plus the junction/gate parasitics the sensor itself
    hangs on ``y1``: drains of ``b``, ``c``, ``d`` and the gates of ``h``
    and ``l`` (the cross-coupled inputs of the other block).
    """
    sensor = SkewSensor(
        process=process, sizing=sizing or SensorSizing(),
        load1=load, load2=load,
    )
    netlist = sensor.build()
    total = load
    for m in netlist.mosfets:
        if m.drain == "y1" or m.source == "y1":
            total += m.junction_capacitance
        if m.gate == "y1":
            total += m.gate_capacitance
    return total


def estimate_fall_current(
    sizing: Optional[SensorSizing] = None,
    process: Optional[ProcessParams] = None,
) -> float:
    """First-order discharge current of the series NMOS stack, amperes."""
    sizing = sizing or SensorSizing()
    process = process or nominal_process()
    beta = process.nmos.kp * sizing.w_n / sizing.length
    overdrive = process.vdd - process.nmos.vt0
    return STACK_FACTOR * 0.5 * beta * overdrive**2


def estimate_tau_min(
    load: float,
    sizing: Optional[SensorSizing] = None,
    process: Optional[ProcessParams] = None,
    threshold: float = VTH_INTERPRET,
) -> float:
    """Closed-form sensitivity estimate, seconds.

    ``tau_min ~= RACE_FACTOR * C_total * (Vth - VTn) / I_fall``.  It
    seeds the crossing search of
    :func:`repro.core.sensitivity.extract_tau_min`, which measures the
    value; a wrong estimate there costs probes, not accuracy.

    The model also implies a slope: ``Vmin`` rises by about the race
    swing ``Vth - VTn`` (:func:`race_swing`) over one ``tau_min``.  The
    slope measured across the crossing is 2.9-3.2x shallower than that
    on the Fig. 4 grid, 1.8x at ``Vth`` = 2.25 V and 4.1x at 3.25 V
    (the search leg of ``benchmarks/bench_fig4_sensitivity.py``), so
    the search assumes a slope
    :data:`~repro.core.sensitivity.SLOPE_SHALLOWING` times shallower.

    Validity: within ~10 % across the paper's load (80-240 fF) and
    sizing (1.2-8 um) sweeps at the nominal threshold; the Vth
    *direction* is correct but its slope is underpredicted (the
    effective stack current varies along the dip), so quantitative Vth
    tuning measures ``Vmin`` instead
    (:func:`repro.clocktree.budget.tune_threshold`).
    """
    process = process or nominal_process()
    swing = race_swing(process, threshold)
    c_total = effective_output_capacitance(load, sizing, process)
    current = estimate_fall_current(sizing, process)
    return RACE_FACTOR * c_total * swing / current


def race_swing(
    process: Optional[ProcessParams] = None,
    threshold: float = VTH_INTERPRET,
) -> float:
    """The effective race swing ``Vth - VTn``, volts.

    Raises ``ValueError`` when ``threshold`` is at or below ``VTn``.
    """
    swing = threshold - (process or nominal_process()).nmos.vt0
    if swing <= 0:
        raise ValueError("threshold at or below VTn leaves no race swing")
    return swing
