"""The paper's primary contribution: the clock-skew sensing circuit.

``repro.core`` builds the 10-transistor sensor of Fig. 1, evaluates its
response to a pair of (possibly skewed) clocks, and runs the sensitivity
analysis of Fig. 4 (``Vmin`` vs skew, ``tau_min`` extraction).
"""

from repro.core.sensing import SensorSizing, SkewSensor
from repro.core.response import (
    ERROR_NONE,
    ERROR_PHI1_LATE,
    ERROR_PHI2_LATE,
    SensorResponse,
    evaluate_response,
    simulate_sensor,
)
from repro.core.sensitivity import (
    SensitivityCurve,
    extract_tau_min,
    sensitivity_family,
    vmin_for_skew,
)
from repro.core.dual import DualSkewSensor, simulate_dual_sensor
from repro.core.model import (
    effective_output_capacitance,
    estimate_fall_current,
    estimate_tau_min,
)
from repro.core.overhead import (
    SchemeOverhead,
    SensorOverhead,
    scheme_overhead,
    sensor_overhead,
)

__all__ = [
    "SkewSensor",
    "SensorSizing",
    "SensorResponse",
    "simulate_sensor",
    "evaluate_response",
    "ERROR_NONE",
    "ERROR_PHI1_LATE",
    "ERROR_PHI2_LATE",
    "SensitivityCurve",
    "vmin_for_skew",
    "extract_tau_min",
    "sensitivity_family",
    "DualSkewSensor",
    "simulate_dual_sensor",
    "SensorOverhead",
    "SchemeOverhead",
    "sensor_overhead",
    "scheme_overhead",
    "estimate_tau_min",
    "estimate_fall_current",
    "effective_output_capacitance",
]
