"""Whole-chip clock distribution with N sensing circuits, one netlist.

The per-pair co-simulation of :mod:`repro.clocktree.electrical` expands
only the two monitored root-to-sink paths and lumps every side branch.
This module drops that approximation: the **entire** buffered tree is
lowered to transistor/RC level (every sink expanded - requesting all
sinks makes :class:`~repro.clocktree.electrical.TreeNetlistBuilder`'s
off-path lumping vacuous) and ``N`` sensing circuits are grafted onto
symmetric sink pairs chosen by the paper's placement criteria.  The
result is the paper's Fig. 6 at full-chip scale: one netlist, thousands
of nodes, clock generator through distribution network through sensors,
integrated by the sparse MNA path of :mod:`repro.sparse`.

Two topologies:

* :class:`WholeTreeNetlistBuilder` - the buffered H-tree (or any
  :class:`~repro.clocktree.tree.ClockTree`), fully expanded;
* :class:`GridNetlistBuilder` - a TRIX-style redundant clock *grid*
  (Wiederhake & Lenzen, see PAPERS.md): a rows x cols wire mesh fed by
  several buffered injection drivers, so every sink is reached over
  multiple paths and a dead driver degrades skew instead of killing a
  region - the setting where skew-sensing placement is genuinely
  interesting because faults shift skews without opening the network.

:func:`simulate_whole_tree` is the end-to-end driver (also behind the
``repro whole-tree`` CLI subcommand and the ``whole_tree`` campaign
kind): build, inject faults/variation, integrate, and read back per-pair
electrical skews plus per-sensor error codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analog.compile import CompiledCircuit
from repro.analog.engine import (
    FAST_OPTIONS, TransientOptions, TransientResult, transient,
)
from repro.analog.kernels import KernelStats
from repro.circuit.compose import graft, prefixed_guess
from repro.circuit.netlist import Netlist
from repro.clocktree.electrical import TreeNetlistBuilder, buffer_inverter_sizing
from repro.clocktree.faults import ResistiveOpen, TreeFault, perturb_tree
from repro.clocktree.htree import build_h_tree
from repro.clocktree.rc import WireModel
from repro.clocktree.skew import CriticalPair, select_critical_pairs
from repro.clocktree.tree import Buffer, ClockTree, manhattan
from repro.core.sensing import SkewSensor
from repro.devices.mosfet import MosfetType
from repro.devices.process import ProcessParams, nominal_process
from repro.devices.sources import ClockSource
from repro.units import VTH_INTERPRET, ns


@dataclass(frozen=True)
class SensorPlacement:
    """One grafted sensing circuit and where to find it.

    ``sink_a``/``sink_b`` are the logical (tree or grid) names of the
    monitored pair; ``node_a``/``node_b`` the electrical nodes the
    sensor's ``phi1``/``phi2`` are wired to; ``y1``/``y2`` the grafted
    output nodes; ``prefix`` the graft namespace.
    """

    sink_a: str
    sink_b: str
    node_a: str
    node_b: str
    y1: str
    y2: str
    prefix: str

    @property
    def label(self) -> str:
        """Stable ``"a|b"`` key used in result dictionaries."""
        return f"{self.sink_a}|{self.sink_b}"


def select_sensor_pairs(
    tree: ClockTree,
    n_sensors: int,
    max_distance: Optional[float] = None,
    model: Optional[WireModel] = None,
    source_resistance: float = 100.0,
    max_nominal_skew: Optional[float] = None,
) -> List[CriticalPair]:
    """The ``n_sensors`` most critical *disjoint* sink pairs.

    :func:`~repro.clocktree.skew.select_critical_pairs` applies the
    paper's two placement criteria; on top, a greedy filter keeps each
    sink monitored by at most one sensor (a sink wired into two sensing
    circuits would see double clock-pin load, unbalancing the tree the
    scheme is supposed to watch).  ``max_distance`` defaults to the full
    die span, i.e. unconstrained.
    """
    if max_distance is None:
        sinks = tree.sinks()
        max_distance = max(
            (manhattan(a.position, b.position)
             for a in sinks for b in sinks),
            default=1.0,
        ) + 1e-9
    ranked = select_critical_pairs(
        tree, max_distance=max_distance, model=model,
        source_resistance=source_resistance,
        max_nominal_skew=max_nominal_skew,
    )
    chosen: List[CriticalPair] = []
    used: set = set()
    for pair in ranked:
        if pair.sink_a in used or pair.sink_b in used:
            continue
        chosen.append(pair)
        used.add(pair.sink_a)
        used.add(pair.sink_b)
        if len(chosen) == n_sensors:
            return chosen
    raise ValueError(
        f"tree offers only {len(chosen)} disjoint sensor pairs "
        f"({n_sensors} requested)"
    )


def attach_sensors(
    netlist: Netlist,
    pairs: Sequence[Tuple[str, str, str, str]],
    process: Optional[ProcessParams] = None,
    sensor: Optional[SkewSensor] = None,
) -> Tuple[List[SensorPlacement], Dict[str, float]]:
    """Graft one sensing circuit per ``(name_a, node_a, name_b, node_b)``.

    Each sensor's clock inputs are wired directly to the two electrical
    nodes (the balanced connection of Fig. 6); instances live in
    ``sens<k>`` namespaces.  Returns the placements and the merged DC
    initial-guess dict for the grafted internals (the sensor latch is
    bistable - without the guess the operating point can land on the
    wrong branch).
    """
    sensor = sensor or SkewSensor(process=process or nominal_process())
    placements: List[SensorPlacement] = []
    initial: Dict[str, float] = {}
    for k, (name_a, node_a, name_b, node_b) in enumerate(pairs):
        prefix = f"sens{k}"
        mapping = graft(
            netlist, sensor.build(), prefix=prefix,
            connections={"phi1": node_a, "phi2": node_b},
        )
        initial.update(prefixed_guess(sensor.dc_guess(), mapping))
        placements.append(SensorPlacement(
            sink_a=name_a, sink_b=name_b, node_a=node_a, node_b=node_b,
            y1=mapping["y1"], y2=mapping["y2"], prefix=prefix,
        ))
    return placements, initial


class WholeTreeNetlistBuilder(TreeNetlistBuilder):
    """Lower the *entire* clock tree - every sink expanded.

    A thin specialisation of
    :class:`~repro.clocktree.electrical.TreeNetlistBuilder`: requesting
    all sinks puts every branch on-path, so nothing is lumped and the
    netlist is the full distribution network.  :meth:`attach_sensors`
    then grafts the monitoring plane on top.
    """

    def __init__(
        self,
        tree: ClockTree,
        process: Optional[ProcessParams] = None,
        model: Optional[WireModel] = None,
        segments_per_wire: int = 3,
        source_resistance: float = 100.0,
    ) -> None:
        super().__init__(
            tree, sorted(s.name for s in tree.sinks()),
            process=process, model=model,
            segments_per_wire=segments_per_wire,
            source_resistance=source_resistance,
        )
        self.placements: List[SensorPlacement] = []
        self.initial_guess: Dict[str, float] = {}

    def attach_sensors(
        self,
        pairs: Sequence[CriticalPair],
        sensor: Optional[SkewSensor] = None,
    ) -> List[SensorPlacement]:
        """Graft one sensing circuit per critical pair (post-:meth:`build`)."""
        specs = [
            (p.sink_a, self.sink_nodes[p.sink_a],
             p.sink_b, self.sink_nodes[p.sink_b])
            for p in pairs
        ]
        placements, initial = attach_sensors(
            self.netlist, specs, process=self.process, sensor=sensor,
        )
        self.placements.extend(placements)
        self.initial_guess.update(initial)
        return placements


class GridNetlistBuilder:
    """TRIX-style redundant clock grid, lowered to RC mesh + drivers.

    A ``rows x cols`` mesh of wire segments covers the die; the clock is
    injected through buffered drivers at several symmetric points
    (default: the four corners), so every grid node is reached over
    multiple paths.  Unlike a tree, a single dead driver or resistive
    segment does not disconnect anything - it *shifts skews*, which is
    exactly the failure mode the sensing circuits are placed to catch.

    Grid nodes are named ``g<row>_<col>`` in :attr:`sink_nodes`; mirrored
    pairs across the vertical axis have zero nominal skew by symmetry
    (the grid analogue of the H-tree's balanced paths).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        chip_size: float = 10e-3,
        process: Optional[ProcessParams] = None,
        model: Optional[WireModel] = None,
        sink_capacitance: float = 50e-15,
        buffer: Optional[Buffer] = None,
        source_resistance: float = 100.0,
        injections: Sequence[Tuple[int, int]] = (),
    ) -> None:
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2 x 2 nodes")
        self.rows = rows
        self.cols = cols
        self.chip_size = chip_size
        self.process = process or nominal_process()
        self.model = model or WireModel()
        self.sink_capacitance = sink_capacitance
        self.buffer = buffer or Buffer()
        self.source_resistance = source_resistance
        self.injections: List[Tuple[int, int]] = list(injections) or [
            (0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1),
        ]
        self.netlist = Netlist(name=f"clock-grid-{rows}x{cols}")
        self.sink_nodes: Dict[str, str] = {}
        #: Per-injection-point transistor names (fault hooks: marking
        #: them ``stuck_open`` kills that driver, leaving the mesh to
        #: the surviving ones - the TRIX redundancy experiment).
        self.driver_devices: Dict[Tuple[int, int], List[str]] = {}
        self._counter = 0

    def _name(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}{self._counter}"

    def node_name(self, row: int, col: int) -> str:
        """Canonical mesh-node name."""
        return f"g{row}_{col}"

    def build(
        self,
        clock: ClockSource,
        dead_injections: Sequence[Tuple[int, int]] = (),
    ) -> Netlist:
        """Assemble the mesh, the injection drivers and the supplies.

        ``dead_injections`` names injection points whose driver
        transistors are compiled as ``stuck_open`` (a completely failed
        driver); the mesh stays connected through the others.
        """
        net = self.netlist
        net.drive_dc("vdd", self.process.vdd)
        net.drive("clkgen", clock)
        root = "n_root"
        net.add_resistor(self._name("r"), "clkgen", root,
                         self.source_resistance)

        pitch_x = self.chip_size / (self.cols - 1)
        pitch_y = self.chip_size / (self.rows - 1)
        r_per = self.model.resistance_per_length
        c_per = self.model.capacitance_per_length

        for row in range(self.rows):
            for col in range(self.cols):
                node = self.node_name(row, col)
                self.sink_nodes[node] = node
                net.add_capacitor(self._name("c"), node, "0",
                                  self.sink_capacitance)

        def mesh_edge(a: str, b: str, length: float) -> None:
            net.add_resistor(self._name("r"), a, b,
                             max(r_per * length, 1e-3))
            half = c_per * length / 2.0
            net.add_capacitor(self._name("c"), a, "0", half)
            net.add_capacitor(self._name("c"), b, "0", half)

        for row in range(self.rows):
            for col in range(self.cols):
                here = self.node_name(row, col)
                if col + 1 < self.cols:
                    mesh_edge(here, self.node_name(row, col + 1), pitch_x)
                if row + 1 < self.rows:
                    mesh_edge(here, self.node_name(row + 1, col), pitch_y)

        dead = {tuple(p) for p in dead_injections}
        sizing = buffer_inverter_sizing(self.buffer, self.process)
        for point in self.injections:
            row, col = point
            out = self.node_name(row, col)
            mid = self._name("drvmid")
            devices: List[str] = []
            for stage_in, stage_out in (("n_root", mid), (mid, out)):
                mp = self._name("mp")
                mn = self._name("mn")
                net.add_mosfet(mp, stage_out, stage_in, "vdd",
                               MosfetType.PMOS, sizing.w_p, sizing.length,
                               self.process.pmos)
                net.add_mosfet(mn, stage_out, stage_in, "0",
                               MosfetType.NMOS, sizing.w_n, sizing.length,
                               self.process.nmos)
                devices.extend((mp, mn))
            self.driver_devices[point] = devices
            if tuple(point) in dead:
                for name in devices:
                    net.find_mosfet(name).stuck_open = True
        return net

    def mirrored_pairs(
        self, n_sensors: int
    ) -> List[Tuple[str, str, str, str]]:
        """``n_sensors`` sensor specs on column-mirrored grid nodes.

        Rows are spread evenly over the grid; each pair couples column 0
        with column ``cols - 1`` of its row - maximal unshared path,
        zero nominal skew when the injection points are symmetric.
        :func:`check_scenario` refuses more sensors than rows.
        """
        picks = np.linspace(0, self.rows - 1, n_sensors)
        pairs: List[Tuple[str, str, str, str]] = []
        for row in sorted({int(round(r)) for r in picks}):
            a = self.node_name(row, 0)
            b = self.node_name(row, self.cols - 1)
            pairs.append((a, a, b, b))
        return pairs


def check_scenario(
    topology: str,
    levels: int = 2,
    tree: Optional[ClockTree] = None,
    fault: Optional[TreeFault] = None,
    variation: float = 0.0,
    dead_injections: Sequence[Tuple[int, int]] = (),
    n_sensors: int = 2,
    grid_shape: Tuple[int, int] = (6, 6),
) -> None:
    """The refusals of :func:`simulate_whole_tree` and the
    ``whole_tree`` kind: ``ValueError`` for a tree ``fault`` or a
    ``variation`` on a grid, ``dead_injections`` on an H-tree or off the
    grid's drivers, a ``fault`` that does not apply to ``tree`` (the
    H-tree of ``levels`` when omitted), such as an open on the root, and
    ``n_sensors`` past the network's disjoint sink pairs (counted)."""
    if topology == "grid":
        if fault is not None:
            raise ValueError("a tree fault needs topology 'htree': a grid "
                             "has no tree node to open")
        if variation:
            raise ValueError("variation needs topology 'htree': a grid is "
                             "built without process variation")
        rows, cols = grid_shape
        drivers = GridNetlistBuilder(rows, cols).injections
        for point in dead_injections:
            if tuple(point) not in drivers:
                raise ValueError(f"no driver to kill at {tuple(point)}; the "
                                 f"drivers are at "
                                 f"{' '.join(map(str, drivers))}")
        network, offered = f"a grid of {rows} rows", rows
    elif topology == "htree":
        if dead_injections:
            raise ValueError("dead_injections need topology 'grid': an "
                             "H-tree has no injection drivers")
        if fault is not None:
            tree = tree or build_h_tree(levels, buffer=Buffer())
            try:
                fault.apply(tree)
            except (KeyError, ValueError) as error:
                wired = " ".join(n.name for n in tree.walk()
                                 if n.wire is not None)
                raise ValueError(f"{error.args[0]}; the nodes a wire feeds "
                                 f"are {wired}") from None
        sinks = len(tree.sinks()) if tree is not None else 4 ** levels
        network, offered = f"an H-tree of {sinks} sinks", sinks // 2
    else:
        raise ValueError(f"topology must be 'htree' or 'grid', "
                         f"got {topology!r}")
    if not 1 <= n_sensors <= offered:
        raise ValueError(f"sensors must be 1..{offered}: {network} offers "
                         f"{offered} disjoint sink pairs, got {n_sensors}")


@dataclass
class WholeTreeRun:
    """One end-to-end whole-chip simulation and its readouts.

    ``skews`` maps each placement label (``"a|b"``) to the electrically
    measured skew ``t(b) - t(a)`` in seconds (``inf`` when a monitored
    sink never crosses vdd/2 inside the window); ``codes`` to the sensor's
    threshold-interpreted ``(y1, y2)`` pair (``(0, 0)`` healthy,
    anything else an error indication); ``arrivals`` holds the rising
    edge's arrival per monitored sink, from the settle time.
    ``n_nodes`` is the MNA system size - the scaling observable of the
    sparse path.

    ``result`` ends where the clock starts to fall, unless a monitored
    sink had not arrived by then: that run goes on to the end of the
    clock period (see :func:`simulate_whole_tree`).
    """

    result: TransientResult
    placements: List[SensorPlacement]
    skews: Dict[str, float] = field(default_factory=dict)
    codes: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    arrivals: Dict[str, float] = field(default_factory=dict)
    n_nodes: int = 0
    #: Time the sensor outputs were threshold-sampled at (mid high phase).
    t_sample: float = 0.0

    @property
    def worst_skew(self) -> float:
        """Largest absolute monitored skew, seconds."""
        return max((abs(s) for s in self.skews.values()), default=0.0)

    @property
    def flagged(self) -> bool:
        """True when any sensor raised an error indication."""
        return any(code != (0, 0) for code in self.codes.values())


def simulate_whole_tree(
    levels: int = 2,
    topology: str = "htree",
    n_sensors: int = 2,
    tree: Optional[ClockTree] = None,
    fault: Optional[TreeFault] = None,
    variation: float = 0.0,
    seed: int = 0,
    grid_shape: Tuple[int, int] = (6, 6),
    dead_injections: Sequence[Tuple[int, int]] = (),
    period: float = ns(20.0),
    slew: float = ns(0.2),
    settle: float = ns(2.0),
    segments_per_wire: int = 3,
    process: Optional[ProcessParams] = None,
    model: Optional[WireModel] = None,
    source_resistance: float = 100.0,
    threshold: float = VTH_INTERPRET,
    options: Optional[TransientOptions] = None,
) -> WholeTreeRun:
    """Build, integrate and read out one whole-chip clock network.

    ``topology="htree"`` lowers a fully buffered H-tree of ``levels``
    (``4**levels`` sinks; pass ``tree`` to supply any other
    :class:`~repro.clocktree.tree.ClockTree`), applies process
    ``variation`` (:func:`~repro.clocktree.faults.perturb_tree` with
    ``seed``) and an optional tree ``fault``, and attaches ``n_sensors``
    sensing circuits on the most critical disjoint pairs.
    ``topology="grid"`` builds the TRIX-style mesh of ``grid_shape``
    with column-mirrored sensor pairs; ``dead_injections`` kills
    drivers.  An input the topology has no use for, a fault that does
    not apply or more sensors than the network has disjoint sink pairs
    raises ``ValueError`` (:func:`check_scenario`).
    The default engine options select the Jacobian policy by node
    count (``"auto"``), so whole-chip instances run sparse.

    The readouts are each monitored sink's rising-edge arrival and each
    sensor's code, sampled mid-high-phase at ``settle + 0.4 * period``,
    exactly like the per-pair co-simulation this supersedes.  So the run
    integrates from the operating point to the clock's fall start
    (:meth:`~repro.devices.sources.ClockSource.falling_edge`), a
    breakpoint a full-period run lands on too, and keeps a checkpoint
    there.  A monitored sink still below vdd/2 at that point (a severe
    resistive open) makes the run resume from the checkpoint to
    ``settle + period`` - the grid a full-period run walks past that
    breakpoint - and ``result`` joins both segments.  Either way every
    readout equals a full-period run's bit for bit.
    """
    process = process or nominal_process()
    clock = ClockSource(period=period, slew=slew, delay=settle,
                        vdd=process.vdd)
    if options is None:
        options = replace(FAST_OPTIONS, jacobian_policy="auto")

    check_scenario(topology, levels, tree=tree, fault=fault,
                   variation=variation, dead_injections=dead_injections,
                   n_sensors=n_sensors, grid_shape=grid_shape)
    if topology == "htree":
        tree = tree or build_h_tree(levels, buffer=Buffer())
        if variation:
            tree = perturb_tree(
                tree, np.random.default_rng(seed),
                relative_variation=variation,
            )
        if fault is not None:
            tree = fault.apply(tree)
        builder = WholeTreeNetlistBuilder(
            tree, process=process, model=model,
            segments_per_wire=segments_per_wire,
            source_resistance=source_resistance,
        )
        netlist = builder.build(clock)
        pairs = select_sensor_pairs(tree, n_sensors, model=model,
                                    source_resistance=source_resistance)
        placements = builder.attach_sensors(pairs)
        initial = builder.initial_guess
    else:
        rows, cols = grid_shape
        grid = GridNetlistBuilder(
            rows, cols, process=process, model=model,
            source_resistance=source_resistance,
        )
        netlist = grid.build(clock, dead_injections=dead_injections)
        placements, initial = attach_sensors(
            netlist, grid.mirrored_pairs(n_sensors), process=process,
        )

    record = sorted({node for p in placements
                     for node in (p.node_a, p.node_b, p.y1, p.y2)})
    circuit = CompiledCircuit.compile(netlist)
    fall_start = clock.falling_edge(0)
    head = transient(
        netlist, t_stop=fall_start, record=record, initial=initial,
        options=options, compiled=circuit, checkpoint_at=fall_start,
    )
    readout = dict(
        placements=placements, n_nodes=len(netlist.nodes()), settle=settle,
        t_sample=settle + 0.4 * period, level=process.vdd / 2.0,
        threshold=threshold,
    )
    run = _read_out(head, **readout)
    if all(np.isfinite(a) for a in run.arrivals.values()):
        return run
    # A monitored sink still lags vdd/2: go on to the period's end.
    tail = transient(
        netlist, t_stop=settle + period, record=record, options=options,
        compiled=circuit, resume_from=head.checkpoint,
    )
    return _read_out(_join(head, tail), **readout)


def _read_out(
    result: TransientResult,
    placements: List[SensorPlacement],
    n_nodes: int,
    settle: float,
    t_sample: float,
    level: float,
    threshold: float,
) -> WholeTreeRun:
    """Arrivals, skews and codes of ``placements`` from ``result``."""
    run = WholeTreeRun(result=result, placements=placements,
                       n_nodes=n_nodes, t_sample=t_sample)
    for placement in placements:
        label = placement.label
        arrivals: Dict[str, float] = {}
        for sink, node in ((placement.sink_a, placement.node_a),
                           (placement.sink_b, placement.node_b)):
            crossing = result.wave(node).first_crossing(level, rising=True)
            # A sink that never reaches vdd/2 (e.g. behind a severe
            # resistive open) has effectively infinite arrival - report
            # it rather than fail, so fault campaigns stay total.
            arrivals[sink] = (
                np.inf if crossing is None else crossing - settle
            )
            run.arrivals[sink] = arrivals[sink]
        skew = arrivals[placement.sink_b] - arrivals[placement.sink_a]
        run.skews[label] = skew if np.isfinite(skew) else np.inf
        run.codes[label] = (
            1 if result.wave(placement.y1).at(t_sample) > threshold else 0,
            1 if result.wave(placement.y2).at(t_sample) > threshold else 0,
        )
    return run


def _join(head: TransientResult, tail: TransientResult) -> TransientResult:
    """One result from a run and its resumption at the run's last point.

    ``tail`` starts with that point again, so its first sample is
    dropped.  Escalations and kernel counters add up; the sparse gauges
    are the tail's, as a whole run reports its last factorization.
    """
    counters = {f.name for f in fields(KernelStats)}
    kernel = {
        name: head.kernel_stats[name] + value if name in counters else value
        for name, value in tail.kernel_stats.items()
    }
    return TransientResult(
        times=np.concatenate([head.times, tail.times[1:]]),
        voltages={node: np.concatenate([wave, tail.voltages[node][1:]])
                  for node, wave in head.voltages.items()},
        escalations={
            rung: head.escalations.get(rung, 0) + tail.escalations.get(rung, 0)
            for rung in {**head.escalations, **tail.escalations}
        },
        kernel_stats=kernel,
        checkpoint=head.checkpoint,
    )


# --------------------------------------------------------------------- #
# Campaign job layer (the ``whole_tree`` service kind).
# --------------------------------------------------------------------- #

#: Cache/checkpoint namespace of whole-tree jobs (never collides with the
#: per-sensor ``sensor-response`` family).
WHOLE_TREE_NAMESPACE = "whole-tree"


@dataclass(frozen=True)
class WholeTreeJob:
    """One whole-chip simulation, fully specified and hashable.

    The campaign unit of the ``whole_tree`` service kind: one seed of a
    variation population (or one fault scenario) per job, so a campaign
    sweeps a seed list exactly like the Monte-Carlo kind sweeps samples.
    ``fault`` is a hashable ``("resistive_open", node, extra_ohms)``
    description rather than a fault object so the job survives
    :func:`~repro.runtime.cache.stable_key` and checkpoint journals.
    """

    topology: str = "htree"
    levels: int = 2
    rows: int = 6
    cols: int = 6
    n_sensors: int = 2
    variation: float = 0.0
    seed: int = 0
    fault: Optional[Tuple[str, str, float]] = None
    dead_injections: Tuple[Tuple[int, int], ...] = ()
    segments_per_wire: int = 3
    period: float = ns(20.0)
    slew: float = ns(0.2)
    settle: float = ns(2.0)
    options: Optional[TransientOptions] = None

    def key(self) -> str:
        """Content-address of this job (checkpoint/journal identity)."""
        from repro.runtime.cache import stable_key

        return stable_key(self, namespace=WHOLE_TREE_NAMESPACE)

    def tree_fault(self) -> Optional[TreeFault]:
        """The :class:`~repro.clocktree.faults.TreeFault` of ``fault``."""
        if self.fault is None:
            return None
        kind, node, value = self.fault
        if kind != "resistive_open":
            raise ValueError(f"unknown whole-tree fault kind {kind!r}")
        return ResistiveOpen(node=node, extra_resistance=float(value))


def evaluate_whole_tree_job(job: WholeTreeJob) -> "JobResult":  # noqa: F821
    """Run one :class:`WholeTreeJob` and fold it into a ``JobResult``.

    The compact result reuses the campaign record shape of the per-sensor
    jobs so the scheduler, checkpoint journal and telemetry need no new
    cases: ``skew`` is the monitored skew of largest magnitude (sign
    kept, magnitude clamped to one period so a never-arriving sink stays
    JSON-finite), ``vmin_y1``/``vmin_y2`` the strongest sensor-output
    indication at the sample instant, and ``code`` the OR over all
    sensing circuits - ``(0, 0)`` means the whole monitoring plane stayed
    quiet.  ``pairs`` and ``n_nodes`` carry the per-sensor readout.
    """
    from repro.runtime.jobs import JobResult

    run = simulate_whole_tree(
        levels=job.levels,
        topology=job.topology,
        n_sensors=job.n_sensors,
        fault=job.tree_fault(),
        variation=job.variation,
        seed=job.seed,
        grid_shape=(job.rows, job.cols),
        dead_injections=job.dead_injections,
        period=job.period,
        slew=job.slew,
        settle=job.settle,
        segments_per_wire=job.segments_per_wire,
        options=job.options,
    )

    worst_label = max(run.skews, key=lambda k: abs(run.skews[k]))
    worst = run.skews[worst_label]
    if not np.isfinite(worst):
        worst = job.period
    elif abs(worst) > job.period:
        worst = np.sign(worst) * job.period
    y1 = max(
        run.result.wave(p.y1).at(run.t_sample) for p in run.placements
    )
    y2 = max(
        run.result.wave(p.y2).at(run.t_sample) for p in run.placements
    )
    code = (
        max(c[0] for c in run.codes.values()),
        max(c[1] for c in run.codes.values()),
    )
    return JobResult(
        skew=float(worst),
        vmin_y1=float(y1),
        vmin_y2=float(y2),
        code=code,
        steps=len(run.result),
        escalations=tuple(sorted(run.result.escalations.items())),
        kernel=tuple((run.result.kernel_stats or {}).items()),
        pairs=tuple((label, float(skew) if np.isfinite(skew) else None,
                     run.codes[label]) for label, skew in run.skews.items()),
        n_nodes=run.n_nodes,
    )
