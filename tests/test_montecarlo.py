"""Monte Carlo sampling and Tab.-1 classification logic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.montecarlo.analysis import (
    ErrorProbabilities,
    ScatterPoint,
    error_probabilities,
    scatter_analysis,
)
from repro.montecarlo.sampling import sample_population
from repro.units import fF, ns


def test_population_size_and_reproducibility():
    a = sample_population(5, fF(160), rng=np.random.default_rng(1))
    b = sample_population(5, fF(160), rng=np.random.default_rng(1))
    assert len(a) == 5
    assert a[0].load1 == b[0].load1
    assert a[3].slew2 == b[3].slew2


def test_population_rejects_empty():
    with pytest.raises(ValueError):
        sample_population(0, fF(160))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sample_bounds(seed):
    """Loads stay inside the +/-15 % band, slews inside [0.1, 0.4] ns."""
    samples = sample_population(
        8, fF(160), rng=np.random.default_rng(seed)
    )
    for s in samples:
        assert fF(160) * 0.85 <= s.load1 <= fF(160) * 1.15
        assert fF(160) * 0.85 <= s.load2 <= fF(160) * 1.15
        assert ns(0.1) <= s.slew1 <= ns(0.4)
        assert ns(0.1) <= s.slew2 <= ns(0.4)


def test_loads_and_slews_independent():
    """Asymmetric conditions: load1 != load2 and slew1 != slew2 in general."""
    samples = sample_population(20, fF(160), rng=np.random.default_rng(2))
    assert any(s.load1 != s.load2 for s in samples)
    assert any(s.slew1 != s.slew2 for s in samples)


# --------------------------------------------------------------------- #
# Classification (pure logic, synthetic points)
# --------------------------------------------------------------------- #

def pt(skew, vmin):
    return ScatterPoint(skew=skew, vmin=vmin, sample_index=0)


def test_error_probabilities_clean_population():
    tau_min = ns(0.1)
    points = [
        pt(ns(0.05), 1.0),   # small skew, low vmin: correct
        pt(ns(0.05), 2.0),
        pt(ns(0.3), 4.0),    # large skew, flagged: correct
        pt(ns(0.3), 4.5),
    ]
    probs = error_probabilities(points, fF(160), tau_min)
    assert probs.p_loose == 0.0
    assert probs.p_false == 0.0
    assert probs.n_loose_trials == 2
    assert probs.n_false_trials == 2


def test_error_probabilities_counts_misses_and_false_alarms():
    tau_min = ns(0.1)
    points = [
        pt(ns(0.3), 2.0),    # real skew missed -> loose
        pt(ns(0.3), 4.0),
        pt(ns(0.05), 3.0),   # tolerated skew flagged -> false
        pt(ns(0.05), 1.0),
    ]
    probs = error_probabilities(points, fF(160), tau_min)
    assert probs.p_loose == 0.5
    assert probs.p_false == 0.5


def test_error_probabilities_guard_band_excludes_ambiguous():
    tau_min = ns(0.1)
    points = [pt(ns(0.1), 3.0), pt(ns(0.3), 4.0)]
    probs = error_probabilities(points, fF(160), tau_min, guard_band=ns(0.02))
    assert probs.n_false_trials == 0
    assert math.isnan(probs.p_false)
    assert probs.n_loose_trials == 1


def test_error_probabilities_row_format():
    probs = ErrorProbabilities(
        nominal_load=fF(160), tau_min=ns(0.12),
        p_loose=0.01, p_false=0.02, n_loose_trials=10, n_false_trials=10,
    )
    row = probs.as_row()
    assert "160" in row and "0.010" in row and "0.020" in row


def test_scatter_point_flags_error():
    assert pt(0.0, 3.0).flags_error()
    assert not pt(0.0, 2.0).flags_error()


# --------------------------------------------------------------------- #
# End-to-end on a tiny population (electrical)
# --------------------------------------------------------------------- #

def test_scatter_analysis_small_population(fast_options):
    samples = sample_population(2, fF(160), rng=np.random.default_rng(3))
    points = scatter_analysis(
        samples, skews=[0.0, ns(0.5)], options=fast_options
    )
    assert len(points) == 4
    by_skew = {}
    for p in points:
        by_skew.setdefault(p.skew, []).append(p.vmin)
    # No-skew points clamp low; 0.5 ns skew points read as errors.
    assert all(v < 2.75 for v in by_skew[0.0])
    assert all(v > 2.75 for v in by_skew[ns(0.5)])


# --------------------------------------------------------------------- #
# Parallel execution
# --------------------------------------------------------------------- #

def test_parallel_matches_serial(fast_options):
    samples = sample_population(3, fF(160), rng=np.random.default_rng(9))
    skews = [0.0, ns(0.4)]
    serial = scatter_analysis(samples, skews, options=fast_options,
                              cache=None)
    parallel = scatter_analysis(
        samples, skews, options=fast_options, backend="process",
        max_workers=2, cache=None,
    )
    assert len(parallel) == len(serial)
    for a, b in zip(serial, parallel):
        assert a.sample_index == b.sample_index
        assert a.skew == b.skew
        assert a.vmin == pytest.approx(b.vmin, abs=1e-9)


def test_parallel_single_worker_path(fast_options):
    samples = sample_population(2, fF(160), rng=np.random.default_rng(10))
    points = scatter_analysis(
        samples, [ns(0.4)], options=fast_options, backend="process",
        max_workers=1, cache=None,
    )
    assert len(points) == 2
    assert all(p.vmin > 2.75 for p in points)
