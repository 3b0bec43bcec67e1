"""Event-driven gate-level logic simulation.

Substrate for the paper's Sec.-1 motivation: a clock-distribution fault
that delays a flip-flop's sampling "cannot be immediately assimilated to
delay faults inside the combinational part of the circuit, because a
delayed flip-flop's response may be masked by its delayed sampling".  The
simulator models combinational gates with transport delays and edge-
triggered D flip-flops with per-flop clock arrival times, setup/hold
checking, and clk-to-q delay - enough to demonstrate masking quantitatively
and to host the on-line checker demo.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".gates": ("Gate", "GateType"),
    ".flipflop": ("DFlipFlop", "TimingViolation"),
    ".circuit": ("LogicCircuit", "SimulationTrace"),
    ".synth": ("build_pipeline", "delay_chain"),
})
