"""The paper's primary contribution: the clock-skew sensing circuit.

``repro.core`` builds the 10-transistor sensor of Fig. 1, evaluates its
response to a pair of (possibly skewed) clocks, and runs the sensitivity
analysis of Fig. 4 (``Vmin`` vs skew, ``tau_min`` extraction).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".sensing": ("SkewSensor", "SensorSizing"),
    ".response": ("SensorResponse", "simulate_sensor", "evaluate_response",
                  "ERROR_NONE", "ERROR_PHI1_LATE", "ERROR_PHI2_LATE"),
    ".sensitivity": ("SensitivityCurve", "vmin_for_skew", "extract_tau_min",
                     "sensitivity_family"),
    ".dual": ("DualSkewSensor", "simulate_dual_sensor"),
    ".overhead": ("SensorOverhead", "SchemeOverhead", "sensor_overhead",
                  "scheme_overhead"),
    ".model": ("estimate_tau_min", "estimate_fall_current",
               "effective_output_capacitance"),
})
