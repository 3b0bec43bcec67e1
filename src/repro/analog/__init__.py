"""Electrical-level transient simulator.

This package replaces the SPICE-class simulator the paper used.  It compiles
a :class:`~repro.circuit.Netlist` into dense numpy arrays and integrates the
nodal equations ``C dv/dt + i(v, t) = 0`` with Newton-Raphson iterations and
an adaptive trapezoidal / backward-Euler scheme, landing steps exactly on
source breakpoints (clock edge corners).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".compile": ("CompiledCircuit",),
    ".dcop": ("dc_operating_point",),
    ".engine": ("transient", "TransientOptions", "TransientResult"),
    ".waveform": ("Waveform",),
    ".measure": ("crossing_time", "delay_between", "skew_between",
                 "logic_value"),
    ".sweep": ("dc_sweep", "switching_threshold"),
})
