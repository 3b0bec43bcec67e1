"""Paper-claims acceptance suite.

Each claim of the paper that the reproduction stands on is one test with
an explicit threshold, run through the path a user of the package gets
by default, so a performance change that moves the physics fails here.

- A1 (Fig. 4): ``Vmin`` of the late output rises strictly with the skew
  ``tau`` on all 12 (load, slew) curves, read through the lockstep batch
  engine.
- A2 (Fig. 4): ``tau_min`` rises with load at every slew, and its spread
  across the four slews stays under a bar per load.
- A3 (Sec. 3): under the fault-free clocks alone, the measured coverage
  of the sensor's structural fault universe - every node stuck-at, 8 of
  10 stuck-opens (escapes c and h, neither masking a genuine skew), 6 of
  10 stuck-ons (escapes the parallel pull-ups b, c, g, h), 16 of 24
  bridges logically and 18 of 24 with IDDQ, the y1-y2 bridge escaping
  both.  The paper's 75 % -> 89 % bridging is measured on a
  layout-extracted universe (EXPERIMENTS.md deviation 4), so it is not
  a threshold here.
- A5 (Fig. 6): on the electrical whole tree - a fully expanded buffered
  H-tree with sensing circuits grafted on its most critical sink pairs -
  the sensor on the pair an injected resistive open unbalances raises
  an error code, the other sensor stays quiet, the healthy tree raises
  nothing, and the measured skew agrees with the Elmore prediction the
  behavioural campaign uses.

A4 (Table 1's error probabilities) is still asserted piecemeal in the
benches.
"""

import numpy as np

from repro.analog.engine import TransientOptions
from repro.clocktree import Buffer, ResistiveOpen, build_h_tree, sink_delays
from repro.clocktree.whole_tree import select_sensor_pairs, simulate_whole_tree
from repro.core.sensitivity import extract_tau_min, sensitivity_family
from repro.sparse.linalg import scipy_available
from repro.testing.testability import analyze_sensor_testability
from repro.units import fF, ns

#: The Fig. 4 grid (``benchmarks/bench_fig4_sensitivity.py``).
LOADS_FF = (80, 160, 240)
SLEWS_NS = (0.1, 0.2, 0.3, 0.4)
SKEWS_NS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)

#: ``extract_tau_min``'s default tolerance: each answer is the midpoint
#: of a bracket this wide.
SEARCH_TOL = ns(0.002)

#: Slew-induced spread of ``tau_min`` per load, (max - min) / min over
#: the four slews, as measured under FAST options before the search
#: took its three-probe form (EXPERIMENTS.md rounds them to 10 / 4 /
#: 2 %).  A2's bar is this plus one search tolerance over the load's
#: smallest ``tau_min``: two answers may each move by half a tolerance.
SLEW_SPREAD = {80: 0.105, 160: 0.045, 240: 0.025}

#: Extra series resistance of the injected open, ohms (Fig. 6 bench).
OPEN_OHMS = 8000.0

#: Largest |electrical - Elmore| skew gap: Elmore is a pessimistic bound
#: on the 50 %-crossing delay, not the crossing itself.
ELMORE_GAP = ns(0.5)

#: Dense-vs-sparse waveform agreement bar, volts.
WAVEFORM_TOL = 1e-6


def _worst_deviation(a, b):
    """Max |a - b| over the recorded nodes, on ``a``'s time grid."""
    worst = 0.0
    for node, wave in a.voltages.items():
        other = np.interp(a.times, b.times, b.voltages[node])
        worst = max(worst, float(np.max(np.abs(other - wave))))
    return worst


class TestAcceptanceCriteria:
    """The paper's claims, each against its threshold."""

    def test_a1_vmin_rises_with_skew(self, fast_options):
        """A1: every Fig. 4 curve rises strictly with tau."""
        curves = sensitivity_family(
            [fF(c) for c in LOADS_FF], [ns(s) for s in SLEWS_NS],
            [ns(t) for t in SKEWS_NS], options=fast_options,
            backend="batch", cache=None,
        )
        assert len(curves) == len(LOADS_FF) * len(SLEWS_NS)
        for curve in curves:
            assert np.all(np.diff(curve.vmins) > 0), (
                f"Vmin not rising at {curve.load * 1e15:.0f} fF, "
                f"{curve.slew * 1e9:.1f} ns: {curve.vmins}"
            )

    def test_a2_tau_min_rises_with_load_not_slew(self, fast_options):
        """A2: tau_min grows with load at every slew; across the four
        slews it moves by less than ``SLEW_SPREAD`` plus one tolerance
        (the paper: the curves are "almost indistinguishable")."""
        taus = np.array([
            [extract_tau_min(fF(c), ns(s), tolerance=SEARCH_TOL,
                             options=fast_options)
             for s in SLEWS_NS]
            for c in LOADS_FF
        ])
        assert np.all(np.diff(taus, axis=0) > 0), taus
        for load, row in zip(LOADS_FF, taus):
            spread = row.max() - row.min()
            bar = SLEW_SPREAD[load] * row.min() + SEARCH_TOL
            assert spread < bar, (
                f"{load} fF: slew spread {spread / row.min():.1%} over "
                f"the {bar / row.min():.1%} bar"
            )

    def test_a3_sec3_fault_coverage(self, fast_options):
        """A3: the Sec.-3 coverage of the structural fault universe, as
        measured (``benchmarks/out/sec3_testability.txt``)."""
        report = analyze_sensor_testability(options=fast_options)
        detected = {
            kind: (len(group) - len(report.undetected(kind)), len(group))
            for kind, group in report.verdicts.items()
        }
        assert detected == {"stuck-at": (12, 12), "stuck-open": (8, 10),
                            "stuck-on": (6, 10), "bridging": (16, 24)}

        open_escapes = report.undetected("stuck-open")
        assert {v.fault.transistor for v in open_escapes} == {"c", "h"}
        assert [v.masks_skew for v in open_escapes] == [False, False]
        assert {v.fault.transistor for v in report.undetected("stuck-on")} \
            == {"b", "c", "g", "h"}

        assert report.coverage("bridging", with_iddq=True) == 18 / 24
        for with_iddq in (False, True):
            bridges = {frozenset((v.fault.node_a, v.fault.node_b))
                       for v in report.undetected("bridging", with_iddq)}
            assert frozenset(("y1", "y2")) in bridges

    def test_a5_whole_tree_sensor_flags_injected_open(self):
        """A5: the whole-tree leg of Fig. 6 flags an 8 kOhm open."""
        tree = build_h_tree(levels=2, buffer=Buffer())
        faulted_pair, quiet_pair = select_sensor_pairs(tree, 2)
        fault = ResistiveOpen(node=faulted_pair.sink_a,
                              extra_resistance=OPEN_OHMS)

        run = simulate_whole_tree(levels=2, n_sensors=2, fault=fault)
        if scipy_available():  # "auto" runs a 2-level H-tree sparse
            assert run.result.kernel_stats["sparse_nnz"] > 0
        assert run.flagged
        labels = [p.label for p in run.placements]
        assert labels == [f"{pair.sink_a}|{pair.sink_b}"
                          for pair in (faulted_pair, quiet_pair)]
        assert run.codes[labels[0]] != (0, 0)
        assert run.codes[labels[1]] == (0, 0)

        elmore = sink_delays(fault.apply(tree))
        for placement in run.placements:
            predicted = elmore[placement.sink_b] - elmore[placement.sink_a]
            measured = run.skews[placement.label]
            assert abs(measured - predicted) < ELMORE_GAP, placement.label
            if placement.label == labels[0]:
                assert np.sign(measured) == np.sign(predicted) != 0

        assert not simulate_whole_tree(levels=2, n_sensors=2).flagged

        # The dense reuse path reads the same codes from waveforms
        # within the dense-vs-sparse contract.
        dense = simulate_whole_tree(
            levels=2, n_sensors=2, fault=fault,
            options=TransientOptions(dt_max=200e-12, reltol=5e-3,
                                     jacobian_policy="reuse"),
        )
        assert dense.codes == run.codes
        assert _worst_deviation(dense.result, run.result) <= WAVEFORM_TOL
