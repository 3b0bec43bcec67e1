"""Reproduction of *Testing scheme for IC's clocks* (Favalli & Metra,
ED&TC 1997).

The paper proposes a compact CMOS sensing circuit that detects abnormal
skew between two clock signals branching from the same generator, for both
off-line testing and on-line self-checking operation.  This library
rebuilds the full system:

* :mod:`repro.core` - the sensing circuit, its response and sensitivity;
* :mod:`repro.analog` - the electrical-level transient simulator;
* :mod:`repro.devices` / :mod:`repro.circuit` - device models and netlists;
* :mod:`repro.faults` / :mod:`repro.testing` - fault models, the Sec.-3
  testability analysis, indicators, checker, scan path and the full
  Fig.-6 scheme;
* :mod:`repro.clocktree` - buffered H-trees, zero-skew DME routing,
  Elmore timing, tree-level fault injection;
* :mod:`repro.logicsim` - gate-level simulation for the Sec.-1 motivation;
* :mod:`repro.montecarlo` - the Fig.-5 / Tab.-1 variability analysis;
* :mod:`repro.runtime` - campaign orchestration: content-addressed
  result cache, serial/process/batch executor, telemetry.

Quickstart::

    from repro.core import SkewSensor, simulate_sensor
    from repro.units import ns, fF

    sensor = SkewSensor(load1=fF(160), load2=fF(160))
    response = simulate_sensor(sensor, skew=ns(0.5))
    assert response.code == (0, 1)   # phi2 late -> error indication
"""

from repro.core import SkewSensor, simulate_sensor
from repro.units import VDD, VTH_INTERPRET, fF, ns, ps, um

__version__ = "1.0.0"

__all__ = [
    "SkewSensor",
    "simulate_sensor",
    "VDD",
    "VTH_INTERPRET",
    "ns",
    "ps",
    "fF",
    "um",
    "__version__",
]
