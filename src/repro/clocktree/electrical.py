"""Transistor/RC-level co-simulation of clock-tree paths.

The Elmore model in :mod:`repro.clocktree.rc` is the design-time view; this
module lowers selected root-to-sink paths into an electrical netlist -
distributed RC ladders for the wires, CMOS inverter pairs for the buffers,
lumped capacitances for the side branches - and simulates them with the
:mod:`repro.analog` engine.  Two uses:

* **validation** - electrical sink arrival times track the Elmore ordering
  (Elmore is a first-order upper-bound-flavoured estimate; crossovers
  between similar paths are possible, large skews agree);
* **full-stack demonstration** - the sensing circuit can be attached
  *directly* to two electrical sink nodes, closing the loop of Fig. 6 at
  transistor level: clock generator -> buffered RC tree (with an injected
  defect) -> sensing circuit -> error indication, in one netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analog.engine import TransientOptions, TransientResult, transient
from repro.circuit.compose import graft, prefixed_guess
from repro.circuit.netlist import Netlist
from repro.clocktree.rc import WireModel, subtree_capacitance
from repro.clocktree.tree import Buffer, ClockTree, TreeNode
from repro.core.sensing import SkewSensor
from repro.devices.mosfet import MosfetType
from repro.devices.process import ProcessParams, nominal_process
from repro.devices.sources import ClockSource
from repro.units import VTH_INTERPRET, ns


@dataclass(frozen=True)
class InverterSizing:
    """CMOS inverter geometry realising a buffer's drive strength."""

    w_n: float
    w_p: float
    length: float = 1.2e-6


def buffer_inverter_sizing(
    buffer: Buffer, process: ProcessParams
) -> InverterSizing:
    """Size an inverter whose effective pull resistance matches ``buffer``.

    First-order: a conducting MOSFET averaged over a rail-to-rail output
    transition presents ``R ~= 1 / (beta * (VDD - VT))``; solve for W.
    The PMOS is widened by the mobility ratio so rise and fall match.
    """
    vdd = process.vdd
    length = 1.2e-6
    overdrive_n = vdd - process.nmos.vt0
    w_n = length / (
        process.nmos.kp * overdrive_n * buffer.drive_resistance
    )
    ratio = process.nmos.kp / process.pmos.kp
    return InverterSizing(w_n=w_n, w_p=w_n * ratio, length=length)


class TreeNetlistBuilder:
    """Lower root-to-sink paths of a clock tree into a netlist.

    Only the nodes on the requested paths are expanded; every off-path
    branch is represented by its exact Elmore-equivalent lumped
    capacitance (wire + subtree), so the loading seen by the expanded
    paths matches the full tree.
    """

    def __init__(
        self,
        tree: ClockTree,
        sinks: List[str],
        process: Optional[ProcessParams] = None,
        model: Optional[WireModel] = None,
        segments_per_wire: int = 3,
        source_resistance: float = 100.0,
    ) -> None:
        if segments_per_wire < 1:
            raise ValueError(
                f"segments_per_wire must be >= 1, got {segments_per_wire}"
            )
        self.tree = tree
        self.sink_names = list(sinks)
        self.process = process or nominal_process()
        self.model = model or WireModel()
        self.segments = segments_per_wire
        self.source_resistance = source_resistance
        self.netlist = Netlist(name=f"{tree.name}-electrical")
        self.sink_nodes: Dict[str, str] = {}
        self._counter = 0

    # ------------------------------------------------------------------ #
    def _name(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}{self._counter}"

    def _add_wire_ladder(self, a: str, b: str, node: TreeNode) -> None:
        """Distributed RC ladder for the wire feeding ``node``."""
        r_total = self.model.segment_r(node)
        c_total = self.model.segment_c(node)
        n = self.segments
        current = a
        for k in range(n):
            nxt = b if k == n - 1 else self._name("w")
            self.netlist.add_resistor(
                self._name("r"), current, nxt, max(r_total / n, 1e-3)
            )
            # pi-ish ladder: half-caps at both segment ends.
            self.netlist.add_capacitor(
                self._name("c"), current, "0", c_total / (2 * n)
            )
            self.netlist.add_capacitor(
                self._name("c"), nxt, "0", c_total / (2 * n)
            )
            current = nxt

    def _add_buffer(self, a: str, b: str, buffer: Buffer) -> None:
        """Non-inverting buffer: two cascaded CMOS inverters."""
        sizing = buffer_inverter_sizing(buffer, self.process)
        mid = self._name("bufmid")
        for stage_in, stage_out in ((a, mid), (mid, b)):
            self.netlist.add_mosfet(
                self._name("mp"), stage_out, stage_in, "vdd",
                MosfetType.PMOS, sizing.w_p, sizing.length, self.process.pmos,
            )
            self.netlist.add_mosfet(
                self._name("mn"), stage_out, stage_in, "0",
                MosfetType.NMOS, sizing.w_n, sizing.length, self.process.nmos,
            )

    # ------------------------------------------------------------------ #
    def build(self, clock: ClockSource) -> Netlist:
        """Expand the paths and return the netlist.

        ``clock`` drives the generator node through the source resistance.
        Sink electrical nodes are recorded in :attr:`sink_nodes`.
        """
        self.netlist.drive_dc("vdd", self.process.vdd)
        self.netlist.drive("clkgen", clock)

        wanted = {name: self.tree.node(name) for name in self.sink_names}
        on_path: set = set()
        for node in wanted.values():
            for step in self.tree.path_to(node):
                on_path.add(id(step))

        root_node = self._name("n_root")
        self.netlist.add_resistor(
            self._name("r"), "clkgen", root_node, self.source_resistance
        )

        self._expand(self.tree.root, root_node, on_path)
        return self.netlist

    def _expand(self, node: TreeNode, electrical: str, on_path: set) -> None:
        """Recursively expand ``node`` whose input point is ``electrical``."""
        if node.buffer is not None:
            out = self._name("n_buf")
            self._add_buffer(electrical, out, node.buffer)
            electrical = out
        if node.sink_capacitance > 0:
            self.netlist.add_capacitor(
                self._name("c"), electrical, "0", node.sink_capacitance
            )
        if node.name in self.sink_names:
            self.sink_nodes[node.name] = electrical

        for child in node.children:
            if id(child) in on_path:
                child_node = self._name("n_" + child.name)
                self._add_wire_ladder(electrical, child_node, child)
                self._expand(child, child_node, on_path)
            else:
                # Off-path branch: exact lumped load at the tap point.
                lumped = self.model.segment_c(child) + subtree_capacitance(
                    child, self.model
                )
                if lumped > 0:
                    self.netlist.add_capacitor(
                        self._name("c"), electrical, "0", lumped
                    )


def electrical_sink_arrivals(
    tree: ClockTree,
    sinks: List[str],
    process: Optional[ProcessParams] = None,
    model: Optional[WireModel] = None,
    period: float = ns(20.0),
    slew: float = ns(0.2),
    settle: float = ns(2.0),
    level: Optional[float] = None,
    segments_per_wire: int = 3,
    source_resistance: float = 100.0,
    options: Optional[TransientOptions] = None,
) -> Dict[str, float]:
    """Electrically measured arrival time of the first rising edge.

    Returns, per sink, the time its waveform first crosses ``level``
    (default VDD/2) minus the generator edge start - directly comparable
    to the Elmore insertion delays of :func:`repro.clocktree.rc.sink_delays`
    up to the model-order difference.
    """
    process = process or nominal_process()
    clock = ClockSource(period=period, slew=slew, delay=settle, vdd=process.vdd)
    builder = TreeNetlistBuilder(
        tree, sinks, process=process, model=model,
        segments_per_wire=segments_per_wire,
        source_resistance=source_resistance,
    )
    netlist = builder.build(clock)
    result = transient(
        netlist,
        t_stop=settle + period / 2.0,
        record=list(builder.sink_nodes.values()),
        options=options,
    )
    level = process.vdd / 2.0 if level is None else level
    arrivals: Dict[str, float] = {}
    for sink, node in builder.sink_nodes.items():
        crossing = result.wave(node).first_crossing(level, rising=True)
        if crossing is None:
            raise RuntimeError(f"sink {sink} never crossed {level} V")
        arrivals[sink] = crossing - settle
    return arrivals


def cosimulate_pair_with_sensor(
    tree: ClockTree,
    sink_a: str,
    sink_b: str,
    sensor: Optional[SkewSensor] = None,
    process: Optional[ProcessParams] = None,
    model: Optional[WireModel] = None,
    period: float = ns(20.0),
    slew: float = ns(0.2),
    settle: float = ns(2.0),
    threshold: float = VTH_INTERPRET,
    segments_per_wire: int = 3,
    source_resistance: float = 100.0,
    options: Optional[TransientOptions] = None,
) -> Tuple[Tuple[int, int], TransientResult, Dict[str, str]]:
    """Full-stack Fig. 6 at transistor level.

    Builds ONE netlist containing the clock generator, the buffered RC
    paths to ``sink_a`` and ``sink_b`` (side branches lumped), and the
    sensing circuit wired to those two electrical nodes (``sink_a`` ->
    ``phi1``, ``sink_b`` -> ``phi2``), then simulates a full clock period.

    Returns ``(code, result, node_map)`` where ``code`` is the sensor's
    threshold-interpreted ``(y1, y2)`` pair sampled mid-high-phase and
    ``node_map`` maps logical names (sinks, sensor outputs) to netlist
    node names.
    """
    process = process or nominal_process()
    sensor = sensor or SkewSensor(process=process)
    clock = ClockSource(period=period, slew=slew, delay=settle, vdd=process.vdd)

    builder = TreeNetlistBuilder(
        tree, [sink_a, sink_b], process=process, model=model,
        segments_per_wire=segments_per_wire,
        source_resistance=source_resistance,
    )
    netlist = builder.build(clock)
    node_a = builder.sink_nodes[sink_a]
    node_b = builder.sink_nodes[sink_b]

    # Graft the sensor onto the tree nodes: its clock inputs are the
    # electrical sink nodes themselves (the "balanced connection").
    mapping = graft(
        netlist, sensor.build(), prefix="sens",
        connections={"phi1": node_a, "phi2": node_b},
    )
    y1, y2 = mapping["y1"], mapping["y2"]
    initial = prefixed_guess(sensor.dc_guess(), mapping)
    result = transient(
        netlist,
        t_stop=settle + period,
        record=[node_a, node_b, y1, y2],
        initial=initial,
        options=options,
    )

    t_sample = settle + 0.4 * period
    code = (
        1 if result.wave(y1).at(t_sample) > threshold else 0,
        1 if result.wave(y2).at(t_sample) > threshold else 0,
    )
    node_map = {
        sink_a: node_a, sink_b: node_b, "y1": y1, "y2": y2,
    }
    return code, result, node_map

