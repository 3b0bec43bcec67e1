"""Fault models and fault-universe machinery.

The paper analyses the sensor's testability against "a set of realistic
faults, including stuck-ats, transistor faults and bridgings" (ref. [10],
Abraham & Fuchs).  This package provides:

* fault descriptors that inject themselves into a *copy* of a netlist;
* fault-universe enumeration over a netlist;
* the IDDQ observable (quiescent supply current) used for the faults that
  escape logic detection.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".models": ("Fault", "NodeStuckAt", "TransistorStuckOpen",
                "TransistorStuckOn", "BridgingFault"),
    ".universe": ("FaultUniverse", "enumerate_faults",
                  "apply_layout_hardening"),
    ".iddq": ("IddqProbe", "quiescent_current"),
})
