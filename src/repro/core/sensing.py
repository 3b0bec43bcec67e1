"""The Fig.-1 skew sensing circuit.

Two symmetric CMOS blocks in a feedback loop monitor the clocks ``phi1`` and
``phi2``.  Transistor roles (reconstructed from the behavioural description
in Sec. 2; see DESIGN.md for the consistency argument):

Block A (output ``y1``)::

    vdd --[ a: PMOS, gate phi2 ]-- nA --[ b: PMOS, gate phi1 ]-- y1
                                   nA --[ c: PMOS, gate y2   ]-- y1
    y1  --[ d: NMOS, gate phi1 ]-- pA --[ e: NMOS, gate y2   ]-- gnd

Block B (output ``y2``) is the mirror image::

    vdd --[ f: PMOS, gate phi1 ]-- nB --[ g: PMOS, gate phi2 ]-- y2
                                   nB --[ h: PMOS, gate y1   ]-- y2
    y2  --[ i: NMOS, gate phi2 ]-- pB --[ l: NMOS, gate y1   ]-- gnd

Behaviour:

* both clocks low: ``a, b`` (and ``f, g``) conduct, outputs high;
* simultaneous rising edges: both pull-downs conduct, the outputs fall
  together and clamp near the NMOS threshold because each block's bottom
  pull-down transistor is gated by the other block's falling output;
* ``phi2`` late by more than the block delay: ``y1`` completes its fall
  first, turning ``l`` off, so ``y2`` cannot discharge and the pair reads
  ``(y1, y2) = (0, 1)`` - the error indication - for half a clock period;
* the optional *full-swing* variant adds, per block, a feedback inverter
  driving a weak pull-down NMOS, exactly as suggested in the paper for
  applications that cannot accept the threshold clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuit.netlist import Netlist
from repro.devices.mosfet import MosfetType
from repro.devices.process import ProcessParams, nominal_process
from repro.units import fF, um

#: Instance names of the ten sensor transistors, in paper order.
SENSOR_TRANSISTORS = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "l")

#: The four parallel pull-up transistors called out in Sec. 3 as the
#: stuck-on escapes.
PARALLEL_PULLUPS = ("b", "c", "g", "h")


@dataclass(frozen=True)
class SensorSizing:
    """Transistor sizing of the sensor.

    The defaults give a 1.2 um implementation whose sensitivity lands in
    the paper's 0.1-0.2 ns band for the 80-240 fF load sweep.
    """

    w_n: float = um(1.8)
    w_p: float = um(3.6)
    length: float = um(1.2)
    #: Width of the weak full-swing keeper NMOS (used only when enabled).
    w_keeper: float = um(1.6)
    #: Sizing of the keeper's feedback inverter.
    w_inv_n: float = um(2.4)
    w_inv_p: float = um(4.8)


@dataclass
class SkewSensor:
    """Builder for the sensing-circuit netlist.

    Parameters
    ----------
    process:
        Model cards; defaults to the nominal 1.2 um corner.
    sizing:
        Transistor sizes.
    load1, load2:
        External load capacitance on ``y1`` / ``y2`` (the paper sweeps a
        common value over 80 / 160 / 240 fF).
    full_swing:
        Add the feedback-inverter + weak-pull-down keeper per block.
    parasitics:
        Lump gate-oxide and junction capacitance estimates onto the nodes
        (recommended; the paper's electrical simulations include layout
        parasitics implicitly).
    """

    process: Optional[ProcessParams] = None
    sizing: SensorSizing = SensorSizing()
    load1: float = fF(160)
    load2: float = fF(160)
    full_swing: bool = False
    parasitics: bool = True

    def __post_init__(self) -> None:
        if self.process is None:
            self.process = nominal_process()
        if not (0.0 <= self.load1 < math.inf
                and 0.0 <= self.load2 < math.inf):
            # A NaN load would otherwise build as no load at all.
            raise ValueError("load capacitances must be finite and "
                             f"non-negative, got {self.load1!r} and "
                             f"{self.load2!r}")

    # ------------------------------------------------------------------ #
    @property
    def vdd(self) -> float:
        """Supply voltage of the chosen process."""
        return self.process.vdd

    def transistor_specs(self) -> List[Tuple[str, str, str, str, MosfetType]]:
        """The ten (name, drain, gate, source, type) tuples of Fig. 1."""
        p, n = MosfetType.PMOS, MosfetType.NMOS
        return [
            # Block A.
            ("a", "nA", "phi2", "vdd", p),
            ("b", "y1", "phi1", "nA", p),
            ("c", "y1", "y2", "nA", p),
            ("d", "y1", "phi1", "pA", n),
            ("e", "pA", "y2", "0", n),
            # Block B.
            ("f", "nB", "phi1", "vdd", p),
            ("g", "y2", "phi2", "nB", p),
            ("h", "y2", "y1", "nB", p),
            ("i", "y2", "phi2", "pB", n),
            ("l", "pB", "y1", "0", n),
        ]

    def build(self, phi1: object = None, phi2: object = None) -> Netlist:
        """Build the sensor netlist, optionally attaching clock sources.

        When ``phi1`` / ``phi2`` are omitted the clock nodes are left as
        free inputs and must be driven before simulation.
        """
        netlist = Netlist(name="skew-sensor")
        netlist.drive_dc("vdd", self.vdd)
        if phi1 is not None:
            netlist.drive("phi1", phi1)
        if phi2 is not None:
            netlist.drive("phi2", phi2)

        for name, drain, gate, source, mtype in self.transistor_specs():
            card = self.process.polarity(mtype is MosfetType.PMOS)
            width = self.sizing.w_p if mtype is MosfetType.PMOS else self.sizing.w_n
            netlist.add_mosfet(
                name, drain, gate, source, mtype, width, self.sizing.length, card
            )

        if self.load1 > 0:
            netlist.add_capacitor("cload1", "y1", "0", self.load1)
        if self.load2 > 0:
            netlist.add_capacitor("cload2", "y2", "0", self.load2)

        if self.full_swing:
            self._add_keeper(netlist, "1", "y1")
            self._add_keeper(netlist, "2", "y2")

        if self.parasitics:
            self._add_parasitics(netlist)
        return netlist

    def dc_guess(self) -> Dict[str, float]:
        """Idle-state voltages (both clocks low) for every circuit node.

        Seeds the operating-point solve: with the clocks low the pull-ups
        conduct, so the outputs and internal pull-up nodes sit at VDD, the
        pull-down stack internals at ground, and the keeper inverters (if
        present) at their consistent values.  Without this seed, Newton
        can settle on the metastable mid-rail equilibrium of the
        output/keeper feedback loops.
        """
        guess = {
            "y1": self.vdd, "y2": self.vdd,
            "nA": self.vdd, "nB": self.vdd,
            "pA": 0.0, "pB": 0.0,
        }
        if self.full_swing:
            guess["z1"] = 0.0
            guess["z2"] = 0.0
        return guess

    # ------------------------------------------------------------------ #
    def _add_keeper(self, netlist: Netlist, suffix: str, output: str) -> None:
        """Full-swing keeper: inverter from ``output`` drives a weak NMOS
        that finishes pulling ``output`` to ground."""
        inv_out = f"z{suffix}"
        netlist.add_mosfet(
            f"kp{suffix}", inv_out, output, "vdd",
            MosfetType.PMOS, self.sizing.w_inv_p, self.sizing.length,
            self.process.pmos,
        )
        netlist.add_mosfet(
            f"kn{suffix}", inv_out, output, "0",
            MosfetType.NMOS, self.sizing.w_inv_n, self.sizing.length,
            self.process.nmos,
        )
        netlist.add_mosfet(
            f"kw{suffix}", output, inv_out, "0",
            MosfetType.NMOS, self.sizing.w_keeper, self.sizing.length,
            self.process.nmos,
        )

    def _add_parasitics(self, netlist: Netlist) -> None:
        """Lump gate and junction capacitance estimates onto circuit nodes.

        Clock input loading is deliberately *not* added to ``phi1/phi2``
        (they are driven by ideal sources), matching the paper's framing
        where the explicit load capacitor represents "different loading
        conditions" at the outputs.
        """
        accumulated: Dict[str, float] = {}

        def lump(node: str, value: float) -> None:
            if node in ("vdd", "0", "phi1", "phi2"):
                return
            accumulated[node] = accumulated.get(node, 0.0) + value

        for m in netlist.mosfets:
            lump(m.gate, m.gate_capacitance)
            lump(m.drain, m.junction_capacitance)
            lump(m.source, m.junction_capacitance)
        for node, value in sorted(accumulated.items()):
            netlist.add_capacitor(f"cpar_{node}", node, "0", value)
