"""The testing scheme built around the sensing circuit.

Off-line use: sensor responses are latched by compact error indicators and
shifted out through a scan path.  On-line (self-checking) use: indicator
outputs feed a two-rail checker.  This package also contains the Sec.-3
testability analysis of the sensor itself.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".indicator": ("ErrorIndicator",),
    ".checker": ("TwoRailChecker",),
    ".scanpath": ("ScanPath",),
    ".scheme": ("ClockTestingScheme", "SensorPlacement"),
    ".coverage": ("coverage", "CoverageSummary"),
    ".testability": ("FaultVerdict", "TestabilityReport",
                     "analyze_sensor_testability"),
})
