"""Event-driven simulation of gate + flip-flop circuits."""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logicsim.flipflop import DFlipFlop, TimingViolation
from repro.logicsim.gates import Gate, GateType


@dataclass
class SimulationTrace:
    """Recorded result of one logic simulation.

    ``changes[net]`` is the time-ordered list of ``(time, value)``
    transitions (including the initial value at the start time).
    """

    changes: Dict[str, List[Tuple[float, int]]] = field(default_factory=dict)
    violations: List[TimingViolation] = field(default_factory=list)
    sampled: Dict[str, List[Tuple[float, int]]] = field(default_factory=dict)

    def value_at(self, net: str, t: float) -> int:
        """Net value at time ``t`` (value set at exactly ``t`` included)."""
        history = self.changes.get(net)
        if not history:
            raise KeyError(f"net {net!r} has no recorded activity")
        times = [time for time, _ in history]
        index = bisect_right(times, t) - 1
        if index < 0:
            return history[0][1]
        return history[index][1]

    def final(self, net: str) -> int:
        """Last recorded value of ``net``."""
        return self.changes[net][-1][1]

    def transition_count(self, net: str) -> int:
        """Number of value changes (excluding the initial value)."""
        return max(0, len(self.changes.get(net, [])) - 1)


class LogicCircuit:
    """A netlist of combinational gates and D flip-flops.

    Nets are identified by name; any net that is not a gate/flop output is
    a primary input and must be driven by the stimuli passed to
    :meth:`simulate`.
    """

    def __init__(self, name: str = "logic") -> None:
        self.name = name
        self.gates: List[Gate] = []
        self.flops: List[DFlipFlop] = []
        self._drivers: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    def _claim_output(self, net: str, owner: str) -> None:
        if net in self._drivers:
            raise ValueError(
                f"net {net!r} already driven by {self._drivers[net]!r}"
            )
        self._drivers[net] = owner

    def add_gate(
        self,
        name: str,
        gtype: GateType,
        inputs: Sequence[str],
        output: str,
        delay: float,
    ) -> Gate:
        """Add a combinational gate."""
        gate = Gate(
            name=name, gtype=gtype, inputs=tuple(inputs), output=output, delay=delay
        )
        self._claim_output(output, name)
        self.gates.append(gate)
        return gate

    def add_flop(self, flop: DFlipFlop) -> DFlipFlop:
        """Add a D flip-flop."""
        self._claim_output(flop.q, flop.name)
        self.flops.append(flop)
        return flop

    def nets(self) -> List[str]:
        """All net names (sorted)."""
        names = set(self._drivers)
        for gate in self.gates:
            names.update(gate.inputs)
        for flop in self.flops:
            names.add(flop.d)
        return sorted(names)

    def primary_inputs(self) -> List[str]:
        """Nets not driven by any gate or flop."""
        return [n for n in self.nets() if n not in self._drivers]

    # ------------------------------------------------------------------ #
    def simulate(
        self,
        stimuli: Dict[str, Sequence[Tuple[float, int]]],
        clock_edges: Sequence[float],
        t_end: float,
        initial: Optional[Dict[str, int]] = None,
    ) -> SimulationTrace:
        """Run the circuit.

        Parameters
        ----------
        stimuli:
            Per-net ``(time, value)`` lists for the primary inputs.
        clock_edges:
            Nominal rising-edge times; each flop samples at
            ``edge + clock_offset``.
        t_end:
            Simulation horizon.
        initial:
            Optional initial net values (default 0); flop outputs start at
            the flop's ``init``.
        """
        values: Dict[str, int] = {net: 0 for net in self.nets()}
        if initial:
            values.update(initial)
        for flop in self.flops:
            flop.state = flop.init
            values[flop.q] = flop.init

        # Zero-time combinational settling: iterate gate evaluation to a
        # fixed point so initial values are consistent (e.g. an inverter
        # of a low input starts high instead of emitting a spurious t=0
        # transition).
        for _ in range(len(self.gates) + 1):
            settled = True
            for gate in self.gates:
                out = gate.evaluate([values[n] for n in gate.inputs])
                if values[gate.output] != out:
                    values[gate.output] = out
                    settled = False
            if settled:
                break

        trace = SimulationTrace()
        for net, value in values.items():
            trace.changes[net] = [(0.0, value)]

        fanout: Dict[str, List[Gate]] = {}
        for gate in self.gates:
            for net in gate.inputs:
                fanout.setdefault(net, []).append(gate)

        heap: List[Tuple[float, int, int, str, int]] = []
        seq = 0
        SET, SAMPLE = 0, 1

        def push(t: float, kind: int, net: str, value: int) -> None:
            nonlocal seq
            heapq.heappush(heap, (t, kind, seq, net, value))
            seq += 1

        for net, waveform in stimuli.items():
            if net not in values:
                raise KeyError(f"stimulus drives unknown net {net!r}")
            for t, value in waveform:
                push(t, SET, net, value)

        samplers: Dict[str, DFlipFlop] = {f.name: f for f in self.flops}
        for edge in clock_edges:
            for flop in self.flops:
                t_sample = flop.sample_time(edge)
                if 0.0 <= t_sample <= t_end:
                    push(t_sample, SAMPLE, flop.name, 0)

        while heap:
            t, kind, _, target, value = heapq.heappop(heap)
            if t > t_end:
                break
            if kind == SET:
                if values[target] == value:
                    continue
                values[target] = value
                trace.changes[target].append((t, value))
                for gate in fanout.get(target, ()):
                    out = gate.evaluate([values[n] for n in gate.inputs])
                    push(t + gate.delay, SET, gate.output, out)
            else:
                flop = samplers[target]
                # Sample the value present strictly before the edge - the
                # deterministic pessimistic choice for edge-coincident data.
                history = trace.changes[flop.d]
                sampled = history[0][1]
                last_change: Optional[float] = None
                for change_t, change_v in history:
                    if change_t < t:
                        sampled = change_v
                        if change_t > 0.0:
                            last_change = change_t
                    else:
                        break
                violation = flop.check_window(t - flop.clock_offset, last_change)
                if violation is not None:
                    trace.violations.append(violation)
                trace.sampled.setdefault(flop.name, []).append((t, sampled))
                if flop.state != sampled:
                    flop.state = sampled
                    push(t + flop.clk_to_q, SET, flop.q, sampled)

        # Hold violations are visible only after the edge: post-pass.
        for flop in self.flops:
            for t_sample, _ in trace.sampled.get(flop.name, ()):
                for change_t, _ in trace.changes[flop.d]:
                    if t_sample < change_t < t_sample + flop.hold:
                        trace.violations.append(
                            TimingViolation(
                                flop=flop.name,
                                edge_time=t_sample,
                                data_change_time=change_t,
                                kind="hold",
                            )
                        )
        return trace
