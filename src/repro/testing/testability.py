"""Sec.-3 testability analysis of the sensing circuit.

The key constraint, stated by the paper, is that *the clock signals cannot
be controlled independently from each other*: the only available stimulus is
the fault-free clock pair itself.  A fault is **logically detected** when,
under that stimulus, the threshold-interpreted ``(y1, y2)`` samples differ
from the fault-free circuit in at least one clock phase.  Faults that escape
are re-examined with the **IDDQ** observable (quiescent supply current), and
the undetected stuck-opens are additionally checked for the paper's claim
that they *do not mask* the detection of genuine skews.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analog.engine import TransientOptions, TransientResult, transient
from repro.circuit.netlist import Netlist
from repro.core.response import clocked_netlist
from repro.core.sensing import SkewSensor
from repro.faults.iddq import DEFAULT_IDDQ_THRESHOLD, quiescent_current
from repro.faults.models import Fault
from repro.faults.universe import FaultUniverse, enumerate_faults
from repro.units import VTH_INTERPRET, ns


@dataclass(frozen=True)
class ClockStimulus:
    """The fault-free clock stimulus and its derived observation plan."""

    period: float = ns(20.0)
    slew: float = ns(0.2)
    settle: float = ns(2.0)
    cycles: int = 2
    skew: float = 0.0

    @property
    def t_stop(self) -> float:
        """End of the simulated interval."""
        return self.settle + self.cycles * self.period

    def phase_boundaries(self) -> List[float]:
        """Times separating clock phases (start of each half-period)."""
        bounds = [self.settle]
        for k in range(self.cycles * 2):
            bounds.append(self.settle + (k + 1) * self.period / 2.0)
        return bounds

    def sample_times(self) -> List[float]:
        """One observation instant per clock phase (at 80 % of the phase,
        after the error indication of that phase is established)."""
        bounds = self.phase_boundaries()
        return [t0 + 0.8 * (t1 - t0) for t0, t1 in zip(bounds[:-1], bounds[1:])]

    def quiescent_windows(self) -> List[Tuple[float, float]]:
        """Last 25 % of each phase: settled, next edge not begun."""
        bounds = self.phase_boundaries()
        return [
            (t1 - 0.25 * (t1 - t0), t1) for t0, t1 in zip(bounds[:-1], bounds[1:])
        ]


@dataclass
class FaultVerdict:
    """Outcome of simulating one fault."""

    fault: Fault
    detected_logic: bool
    detected_iddq: bool
    iddq_current: float
    codes: List[Tuple[int, int]]
    masks_skew: Optional[bool] = None

    @property
    def detected(self) -> bool:
        """Detected by either observable."""
        return self.detected_logic or self.detected_iddq


@dataclass
class TestabilityReport:
    """Aggregate of all fault verdicts, grouped by fault kind."""

    verdicts: Dict[str, List[FaultVerdict]] = field(default_factory=dict)
    reference_codes: List[Tuple[int, int]] = field(default_factory=list)

    def coverage(self, kind: str, with_iddq: bool = False) -> float:
        """Detected fraction for one fault kind."""
        group = self.verdicts.get(kind, [])
        if not group:
            return float("nan")
        hits = sum(
            1 for v in group if (v.detected if with_iddq else v.detected_logic)
        )
        return hits / len(group)

    def undetected(self, kind: str, with_iddq: bool = False) -> List[FaultVerdict]:
        """Verdicts that escaped detection for one fault kind."""
        return [
            v
            for v in self.verdicts.get(kind, [])
            if not (v.detected if with_iddq else v.detected_logic)
        ]

    def summary_rows(self) -> List[Tuple[str, int, float, float]]:
        """``(kind, universe size, logic coverage, coverage with IDDQ)``."""
        return [
            (kind, len(group), self.coverage(kind), self.coverage(kind, True))
            for kind, group in self.verdicts.items()
        ]


def _simulate(
    netlist: Netlist,
    sensor: SkewSensor,
    stimulus: ClockStimulus,
    options: Optional[TransientOptions],
    with_currents: bool,
) -> TransientResult:
    return transient(
        netlist,
        t_stop=stimulus.t_stop,
        record=["y1", "y2"],
        record_currents=["vdd"] if with_currents else None,
        # Clocks start low -> pull-ups on -> outputs high (steers the
        # operating point to the idle state, not a metastable one).
        initial=sensor.dc_guess(),
        options=options,
    )


def _codes(
    result: TransientResult, stimulus: ClockStimulus, threshold: float
) -> List[Tuple[int, int]]:
    y1 = result.wave("y1")
    y2 = result.wave("y2")
    return [
        (1 if y1.at(t) > threshold else 0, 1 if y2.at(t) > threshold else 0)
        for t in stimulus.sample_times()
    ]


def analyze_sensor_testability(
    sensor: Optional[SkewSensor] = None,
    stimulus: Optional[ClockStimulus] = None,
    universe: Optional[FaultUniverse] = None,
    threshold: float = VTH_INTERPRET,
    iddq_threshold: float = DEFAULT_IDDQ_THRESHOLD,
    check_skew_masking: bool = True,
    masking_skew: float = ns(1.0),
    options: Optional[TransientOptions] = None,
) -> TestabilityReport:
    """Run the full Sec.-3 analysis.

    Parameters
    ----------
    sensor:
        Sensor under analysis; defaults to the nominal one.
    stimulus:
        Fault-free clock stimulus; defaults to two 20 ns cycles.
    universe:
        Fault universe; defaults to :func:`enumerate_faults` on the sensor
        netlist (parasitic-capacitor-only nodes excluded implicitly since
        faults target transistors and circuit nodes).
    check_skew_masking:
        For stuck-open faults that escape logic detection, also simulate a
        genuine skew of ``masking_skew`` and record whether the faulty
        sensor still flags it (the paper's claim: it does).
    """
    sensor = sensor or SkewSensor()
    stimulus = stimulus or ClockStimulus()
    golden_netlist = clocked_netlist(sensor, stimulus.skew, stimulus.slew,
                                     stimulus.slew, stimulus.period,
                                     stimulus.settle)
    if universe is None:
        universe = enumerate_faults(golden_netlist)

    golden = _simulate(golden_netlist, sensor, stimulus, options,
                       with_currents=False)
    reference = _codes(golden, stimulus, threshold)

    report = TestabilityReport(reference_codes=reference)
    for kind in ("stuck-at", "stuck-open", "stuck-on", "bridging"):
        report.verdicts[kind] = []
        for fault in universe.by_kind(kind):
            verdict = _judge_fault(
                fault, golden_netlist, sensor, stimulus, reference,
                threshold, iddq_threshold, options,
            )
            if (
                check_skew_masking
                and kind == "stuck-open"
                and not verdict.detected_logic
            ):
                verdict.masks_skew = _masks_skew(
                    fault, sensor, stimulus, masking_skew, threshold, options
                )
            report.verdicts[kind].append(verdict)
    return report


def _judge_fault(
    fault: Fault,
    golden_netlist: Netlist,
    sensor: SkewSensor,
    stimulus: ClockStimulus,
    reference: Sequence[Tuple[int, int]],
    threshold: float,
    iddq_threshold: float,
    options: Optional[TransientOptions],
) -> FaultVerdict:
    faulty = fault.inject(golden_netlist)
    result = _simulate(faulty, sensor, stimulus, options, with_currents=True)
    codes = _codes(result, stimulus, threshold)
    detected_logic = codes != list(reference)
    iddq = quiescent_current(result, stimulus.quiescent_windows())
    return FaultVerdict(
        fault=fault,
        detected_logic=detected_logic,
        detected_iddq=iddq > iddq_threshold,
        iddq_current=iddq,
        codes=codes,
    )


def _masks_skew(
    fault: Fault,
    sensor: SkewSensor,
    stimulus: ClockStimulus,
    skew: float,
    threshold: float,
    options: Optional[TransientOptions],
) -> bool:
    """True when the fault *prevents* detection of a genuine skew."""
    skewed = ClockStimulus(
        period=stimulus.period,
        slew=stimulus.slew,
        settle=stimulus.settle,
        cycles=1,
        skew=skew,
    )
    netlist = fault.inject(clocked_netlist(
        sensor, skew, skewed.slew, skewed.slew, skewed.period, skewed.settle))
    result = _simulate(netlist, sensor, skewed, options, with_currents=False)
    y2 = result.wave("y2")
    edge = skewed.settle
    fall = skewed.settle + skewed.period / 2.0 - skewed.slew
    vmin_late = y2.window_min(edge, fall)
    return not vmin_late > threshold
