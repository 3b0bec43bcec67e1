"""Paper-claims acceptance suite.

Each claim of the paper that the reproduction stands on is one test with
an explicit threshold, run through the path a user of the package gets
by default, so a performance change that moves the physics fails here.

- A5 (Fig. 6): on the electrical whole tree - a fully expanded buffered
  H-tree with sensing circuits grafted on its most critical sink pairs -
  the sensor on the pair an injected resistive open unbalances raises
  an error code, the other sensor stays quiet, the healthy tree raises
  nothing, and the measured skew agrees with the Elmore prediction the
  behavioural campaign uses.

A1-A4 (``Vmin(tau)`` monotonicity, ``tau_min`` against load and slew,
the Sec.-3 coverage fractions, Table 1's error probabilities) are still
asserted piecemeal in ``test_sensitivity.py``, ``test_testability.py``
and the benches.
"""

import numpy as np

from repro.analog.engine import TransientOptions
from repro.clocktree import Buffer, ResistiveOpen, build_h_tree, sink_delays
from repro.clocktree.whole_tree import select_sensor_pairs, simulate_whole_tree
from repro.sparse.linalg import scipy_available
from repro.units import ns

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
