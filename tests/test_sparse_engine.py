"""Sparse MNA engine tests: CSR assembly, factor reuse, whole trees.

The sparse subsystem (:mod:`repro.sparse`) re-implements the engine's
Newton matrix pipeline on a compile-time CSR pattern.  This module pins
the contract that makes it drop-in:

* **element-for-element assembly**: the CSR ``data`` vector equals the
  dense Newton matrix bit-for-bit on the shared pattern, on the same
  golden circuits the dense kernel is pinned on (sensing, stuck-on
  fault, buffered clock tree);
* **counter parity**: the (h, alpha)-keyed factor-reuse policy makes
  identical factor/reuse decisions through the sparse path;
* **no scipy, no sparse backend**: with scipy absent ``"sparse"`` and
  ``"auto"`` resolve to the dense backend and give the ``"reuse"`` bits
  (the tests that drive ``SparseLU`` itself skip);
* **factor layer**: ``SparseLU``'s once-per-pattern CSC layout hands
  SuperLU the matrix a per-call ``tocsc()`` would, bit for bit, a run's
  fill gauge is its last successful factorization's, and the package's
  SuperLU setting reads out perfbench ``tree_sparse``'s families as
  scipy's defaults do, with no more fill;
* **crossover**: ``"auto"`` runs the 10x10 grid and the 2-level H-tree
  of ``repro whole-tree`` sparse and a 1-level H-tree dense;
* **whole-tree equivalence**: a ~200-node full-chip netlist integrates
  to within 1 uV of the dense engine, and (slow tier) a 10^3-node tree
  completes on the sparse path;
* **whole-tree window**: ``simulate_whole_tree`` stops at the clock's
  fall start, or goes on to the period's end when a monitored sink has
  not arrived; either way every readout equals a full-period run's bit
  for bit (a tier-1 slice; the whole mix under ``slow``).
"""

import numpy as np
import pytest

from repro.analog.compile import CompiledCircuit
from repro.analog.engine import (
    SPARSE_AUTO_NODES,
    TransientOptions,
    resolve_jacobian_policy,
    transient,
)
from repro.clocktree import whole_tree
from repro.clocktree.electrical import TreeNetlistBuilder
from repro.clocktree.faults import ResistiveOpen
from repro.clocktree.htree import build_h_tree
from repro.clocktree.tree import Buffer
from repro.clocktree.whole_tree import (
    GridNetlistBuilder,
    WholeTreeNetlistBuilder,
    attach_sensors,
    select_sensor_pairs,
    simulate_whole_tree,
)
from repro.core.sensing import SkewSensor
from repro.devices.process import nominal_process
from repro.devices.sources import ClockSource, clock_pair
from repro.faults.models import TransistorStuckOn
from repro.sparse import csr_plan
from repro.sparse.csr import SparseKernel
from repro.sparse import linalg as slinalg
from repro.units import VTH_INTERPRET, fF, ns

FAST = TransientOptions(dt_max=ns(0.2), reltol=5e-3)

#: Dense-vs-sparse waveform agreement bar, volts (the subsystem's
#: contract; the golden circuits actually come out bit-identical).
WAVEFORM_TOL = 1e-6

#: Tests that drive ``SparseLU`` itself; tier-1 installs only numpy.
needs_scipy = pytest.mark.skipif(
    not slinalg.scipy_available(),
    reason="SparseLU needs scipy (pip install 'repro[sparse]')",
)


def _sensing_netlist(skew=0.15):
    sensor = SkewSensor(load1=fF(160), load2=fF(160))
    phi1, phi2 = clock_pair(
        period=ns(20.0), slew1=ns(0.2), slew2=ns(0.2),
        skew=ns(skew), delay=ns(2.0), vdd=sensor.vdd,
    )
    return sensor.build(phi1=phi1, phi2=phi2), sensor


def _stuck_on_netlist():
    netlist, _ = _sensing_netlist()
    return TransistorStuckOn(transistor=netlist.mosfets[0].name).inject(
        netlist
    )


def _clocktree_netlist():
    tree = build_h_tree(levels=1, buffer=Buffer())
    sinks = sorted(s.name for s in tree.sinks())[:2]
    clock = ClockSource(period=ns(20), slew=ns(0.2), delay=ns(2))
    return TreeNetlistBuilder(tree, sinks).build(clock)


GOLDEN = {
    "sensing": lambda: _sensing_netlist()[0],
    "stuck_on": _stuck_on_netlist,
    "clocktree": _clocktree_netlist,
}


def _run_policy(netlist, policy, initial=None, t_stop=ns(12.0)):
    options = TransientOptions(
        dt_max=FAST.dt_max, reltol=FAST.reltol, jacobian_policy=policy
    )
    return transient(netlist, t_stop=t_stop, initial=initial,
                     options=options)


def _assert_waveforms_close(dense, sparse, tol=WAVEFORM_TOL):
    t_dense = np.asarray(dense.times)
    t_sparse = np.asarray(sparse.times)
    for node in dense.voltages:
        v_dense = np.asarray(dense.voltages[node])
        v_sparse = np.asarray(sparse.voltages[node])
        if np.array_equal(t_dense, t_sparse):
            worst = np.max(np.abs(v_dense - v_sparse))
        else:  # grids microshifted: compare on the dense grid
            worst = np.max(np.abs(np.interp(t_dense, t_sparse, v_sparse)
                                  - v_dense))
        assert worst <= tol, f"{node}: {worst:.3e} V off the dense path"


def _counters(result):
    """A run's kernel counters without the wall-clock phase timings."""
    return {name: value for name, value in result.kernel_stats.items()
            if not name.endswith("_s")}


def _without_scipy(monkeypatch):
    """Make the sparse layer see scipy as absent (undone by the caller's
    ``slinalg.reset_backend()``)."""
    monkeypatch.setattr(slinalg, "_SPLU", None)
    monkeypatch.setattr(slinalg, "_SPLU_RESOLVED", True)
    assert not slinalg.scipy_available()


# --------------------------------------------------------------------- #
# Element-for-element CSR assembly equivalence.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csr_newton_matrix_matches_dense_bitwise(name):
    circuit = CompiledCircuit.compile(GOLDEN[name]())
    nf = circuit.n_free
    rng = np.random.default_rng(42)
    v = circuit.source_voltages(ns(2.1))
    v[:nf] = rng.uniform(0.0, 5.0, nf)

    f_dense, j_dense = circuit.device_currents(v)
    plan = csr_plan(circuit)
    kernel = SparseKernel(circuit, plan)
    f_sparse, jw = kernel.eval(v, with_jacobian=True)

    # Residuals agree to rounding (COO bincount vs dense einsum order).
    np.testing.assert_allclose(f_sparse, f_dense, atol=1e-9, rtol=0)

    # The Newton matrix data is bit-for-bit the dense assembly on the
    # pattern, for the same (h, alpha) scaling the engine applies.
    dev = plan.device_data(jw, np.zeros(plan.nnz))
    for h, alpha in ((1e-10, 1.0), (2.5e-11, 0.5)):
        data = alpha * dev
        ch = np.zeros(plan.nnz)
        ch[plan.c_pos] = plan.c_val * (1.0 / h)
        data += ch
        reference = (alpha * j_dense[:nf, :nf]
                     + circuit.C[:nf, :nf] * (1.0 / h))
        scattered = plan.scatter_dense(data)
        assert np.array_equal(scattered, reference)


def test_csr_pattern_covers_all_contributors():
    circuit = CompiledCircuit.compile(_sensing_netlist()[0])
    plan = csr_plan(circuit)
    nf = circuit.n_free
    # Diagonal always present (shunt homotopy lands there).
    diag = plan.scatter_dense(
        np.bincount(plan.diag_pos, minlength=plan.nnz).astype(float)
    )
    assert np.array_equal(np.diag(diag), np.ones(nf))
    # Discard bucket: stamps touching driven nodes map to index nnz.
    assert plan.m_pos.max() <= plan.nnz
    assert plan.nnz < nf * nf


# --------------------------------------------------------------------- #
# Golden transients: waveforms + factor-reuse counter parity.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sparse_transient_matches_dense(name):
    netlist = GOLDEN[name]()
    dense = _run_policy(netlist, "reuse")
    sparse = _run_policy(GOLDEN[name](), "sparse")
    _assert_waveforms_close(dense, sparse)


@needs_scipy
def test_factor_reuse_counter_parity():
    netlist, sensor = _sensing_netlist()
    dense = _run_policy(netlist, "reuse", initial=sensor.dc_guess())
    netlist2, sensor2 = _sensing_netlist()
    sparse = _run_policy(netlist2, "sparse", initial=sensor2.dc_guess())
    for counter in ("factorizations", "jacobian_reuses",
                    "newton_iterations", "assembles"):
        assert dense.kernel_stats[counter] == sparse.kernel_stats[counter], \
            counter
    assert sparse.kernel_stats["jacobian_reuses"] > 0
    assert sparse.kernel_stats["sparse_nnz"] > 0
    assert sparse.kernel_stats["sparse_fill_nnz"] >= \
        sparse.kernel_stats["sparse_nnz"]
    assert len(dense) == len(sparse)


def test_auto_policy_resolves_by_node_count(monkeypatch):
    class Stub:
        pass

    small, big = Stub(), Stub()
    small.n_free = SPARSE_AUTO_NODES - 1
    big.n_free = SPARSE_AUTO_NODES
    auto = TransientOptions(jacobian_policy="auto")
    explicit = TransientOptions(jacobian_policy="sparse")
    assert resolve_jacobian_policy(small, auto) == ("dense", True)
    if slinalg.scipy_available():
        assert resolve_jacobian_policy(big, auto) == ("sparse", True)
        assert resolve_jacobian_policy(small, explicit) == ("sparse", True)
    # Without scipy neither policy can reach the sparse backend.
    _without_scipy(monkeypatch)
    try:
        for options in (auto, explicit):
            for stub in (small, big):
                assert resolve_jacobian_policy(stub, options) == \
                    ("dense", True)
    finally:
        slinalg.reset_backend()


def test_dense_size_guard_counts():
    from repro.analog import compile as compile_mod

    before = compile_mod.dense_jacobian_warnings
    compile_mod.note_dense_jacobian(1000, "reuse")
    compile_mod.note_dense_jacobian(1000, "reuse")
    assert compile_mod.dense_jacobian_warnings == before + 2


# --------------------------------------------------------------------- #
# scipy absent: "sparse" and "auto" take the dense backend.
# --------------------------------------------------------------------- #
def test_numpy_fallback_without_scipy(monkeypatch):
    netlist, sensor = _sensing_netlist()
    dense = _run_policy(netlist, "reuse", initial=sensor.dc_guess())
    _without_scipy(monkeypatch)
    try:
        for policy in ("sparse", "auto"):
            netlist2, sensor2 = _sensing_netlist()
            circuit = CompiledCircuit.compile(netlist2)
            options = TransientOptions(jacobian_policy=policy)
            assert resolve_jacobian_policy(circuit, options) == \
                ("dense", True)
            run = _run_policy(netlist2, policy, initial=sensor2.dc_guess())
            # The dense reuse path itself: the "reuse" bits and the same
            # counters (so no sparse gauges either).
            assert np.array_equal(run.times, dense.times)
            for node in dense.voltages:
                assert np.array_equal(run.voltages[node],
                                      dense.voltages[node]), node
            assert _counters(run) == _counters(dense)
    finally:
        slinalg.reset_backend()


@needs_scipy
def test_singular_factor_reports_nonfinite_solve():
    lu = slinalg.SparseLU(
        indptr=np.array([0, 1, 2]), indices=np.array([0, 1]), n=2
    )
    lu.factor(np.zeros(2))  # singular: never raises
    out = lu.solve(np.ones(2), out=np.empty(2))
    assert not np.all(np.isfinite(out))


# --------------------------------------------------------------------- #
# Whole-tree scale.
# --------------------------------------------------------------------- #
def _whole_tree_netlist(levels, segments):
    tree = build_h_tree(levels, buffer=Buffer())
    builder = WholeTreeNetlistBuilder(tree, segments_per_wire=segments)
    clock = ClockSource(period=ns(4.0), slew=ns(0.2), delay=ns(1.0))
    netlist = builder.build(clock)
    builder.attach_sensors(select_sensor_pairs(tree, 2))
    return netlist, builder.initial_guess


def _grid_netlist(rows, cols):
    grid = GridNetlistBuilder(rows, cols)
    netlist = grid.build(ClockSource(period=ns(4.0), slew=ns(0.2),
                                     delay=ns(1.0)))
    attach_sensors(netlist, grid.mirrored_pairs(2))
    return netlist


# --------------------------------------------------------------------- #
# Factor layer: the fixed CSC layout and the once-per-run fill gauge.
# --------------------------------------------------------------------- #
def _reference_solve(plan, data, rhs):
    """The reference ``SparseLU`` must match: a fresh CSR matrix,
    converted with ``tocsc()`` and factored, on every call."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import splu

    matrix = csr_matrix((data, plan.indices, plan.indptr),
                        shape=(plan.nf, plan.nf))
    return splu(matrix.tocsc(), **slinalg.SPLU_SETTINGS).solve(rhs)


@needs_scipy
@pytest.mark.parametrize("name", sorted(GOLDEN) + ["htree2", "grid10"])
def test_sparse_lu_matches_per_call_tocsc_bitwise(name):
    netlist = {
        "htree2": lambda: _whole_tree_netlist(levels=2, segments=3)[0],
        "grid10": lambda: _grid_netlist(10, 10),
        **GOLDEN,
    }[name]()
    plan = csr_plan(CompiledCircuit.compile(netlist))
    lu = slinalg.SparseLU(plan.indptr, plan.indices, plan.nf)
    rng = np.random.default_rng(19)
    row_starts = plan.indptr[:-1]
    for _ in range(4):
        data = rng.uniform(-1.0, 1.0, plan.nnz)
        # Strict diagonal dominance keeps every draw well-posed.
        data[plan.diag_pos] = 0.0
        data[plan.diag_pos] = np.add.reduceat(np.abs(data), row_starts) + 1.0
        rhs = rng.standard_normal(plan.nf)
        lu.factor(data)
        out = lu.solve(rhs, out=np.empty(plan.nf))
        assert np.array_equal(out, _reference_solve(plan, data, rhs))


@needs_scipy
def test_fill_gauge_is_last_successful_factorization(monkeypatch):
    csc_matrix, splu = slinalg.scipy_splu()
    factors = []

    def recording_splu(matrix, **settings):
        factor = splu(matrix, **settings)
        factors.append(factor)
        return factor

    monkeypatch.setattr(slinalg, "_SPLU", (csc_matrix, recording_splu))
    netlist, initial = _whole_tree_netlist(levels=1, segments=3)
    run = _run_policy(netlist, "sparse", initial=initial, t_stop=ns(2.0))
    first, last = factors[0], factors[-1]
    assert run.kernel_stats["sparse_fill_nnz"] == last.L.nnz + last.U.nnz
    # The fill moves within a run, so "last" is not "first".
    assert first.L.nnz + first.U.nnz != last.L.nnz + last.U.nnz


#: perfbench ``tree_sparse``'s three families as ``simulate_whole_tree``
#: inputs (its healthy 10x10 grid is the first one without
#: ``dead_injections``).
TREE_SPARSE_FAMILIES = {
    "grid10-dead": {"topology": "grid", "grid_shape": (10, 10),
                    "dead_injections": [(0, 9)]},
    "grid16-dead": {"topology": "grid", "grid_shape": (16, 16),
                    "dead_injections": [(15, 15)]},
    "htree3-var": {"levels": 3, "variation": 0.1, "seed": 1},
}


@needs_scipy
@pytest.mark.parametrize("name", sorted(TREE_SPARSE_FAMILIES))
def test_package_splu_settings_keep_the_readout(monkeypatch, name):
    """SuperLU under the package settings and under scipy's defaults
    walks the same run: steps, Newton iterations, factorizations, codes
    and sensor pairs, arrivals within 1e-21 s, and never more fill."""
    case = TREE_SPARSE_FAMILIES[name]
    package = simulate_whole_tree(n_sensors=2, **case)
    monkeypatch.setattr(slinalg, "SPLU_SETTINGS", {})
    default = simulate_whole_tree(n_sensors=2, **case)
    assert list(package.codes.items()) == list(default.codes.items())
    assert len(package.result) == len(default.result)
    for counter in ("newton_iterations", "factorizations",
                    "jacobian_reuses"):
        assert package.result.kernel_stats[counter] == \
            default.result.kernel_stats[counter], counter
    assert package.arrivals.keys() == default.arrivals.keys()
    for sink, arrival in default.arrivals.items():
        assert abs(package.arrivals[sink] - arrival) <= 1e-21, sink
    assert package.result.kernel_stats["sparse_fill_nnz"] <= \
        default.result.kernel_stats["sparse_fill_nnz"]


def test_auto_policy_on_whole_trees():
    auto = TransientOptions(jacobian_policy="auto")
    expected = "sparse" if slinalg.scipy_available() else "dense"
    small = CompiledCircuit.compile(_whole_tree_netlist(levels=1,
                                                        segments=3)[0])
    assert small.n_free == 37
    assert resolve_jacobian_policy(small, auto) == ("dense", True)
    for netlist in (_grid_netlist(10, 10),
                    _whole_tree_netlist(levels=2, segments=3)[0]):
        circuit = CompiledCircuit.compile(netlist)
        assert resolve_jacobian_policy(circuit, auto) == (expected, True)


def test_whole_tree_200_nodes_within_microvolt():
    netlist, initial = _whole_tree_netlist(levels=2, segments=5)
    assert len(netlist.nodes()) >= 180
    dense = _run_policy(netlist, "reuse", initial=initial, t_stop=ns(2.0))
    netlist2, initial2 = _whole_tree_netlist(levels=2, segments=5)
    sparse = _run_policy(netlist2, "sparse", initial=initial2,
                         t_stop=ns(2.0))
    _assert_waveforms_close(dense, sparse)


def test_whole_tree_simulation_readout():
    run = simulate_whole_tree(levels=1, n_sensors=2)
    assert run.n_nodes > 0
    assert len(run.skews) == 2
    assert all(abs(s) < ns(0.05) for s in run.skews.values())
    assert not run.flagged


def test_grid_topology_dead_driver_flags():
    healthy = simulate_whole_tree(
        topology="grid", grid_shape=(4, 4), n_sensors=2
    )
    assert not healthy.flagged
    degraded = simulate_whole_tree(
        topology="grid", grid_shape=(4, 4), n_sensors=2,
        dead_injections=[(0, 0)],
    )
    assert degraded.flagged
    assert degraded.worst_skew > healthy.worst_skew


def test_whole_tree_rejects_inputs_its_topology_ignores():
    # Both used to run the unvaried grid / the healthy tree silently.
    with pytest.raises(ValueError, match="variation needs topology 'htree'"):
        simulate_whole_tree(topology="grid", grid_shape=(4, 4),
                            variation=0.3, seed=1)
    with pytest.raises(ValueError, match="dead_injections need topology"):
        simulate_whole_tree(levels=1, dead_injections=[(0, 0)])


# --------------------------------------------------------------------- #
# The whole-tree window: the run stops where the clock starts to fall.
# --------------------------------------------------------------------- #
def _open_s13(ohms):
    return {"levels": 2, "fault": ResistiveOpen(node="s13",
                                                extra_resistance=ohms)}


#: name -> (``simulate_whole_tree`` inputs, whether the run must go on
#: past the fall start because a monitored sink still lags vdd/2 there).
WINDOW_CASES = {
    "grid6": ({"topology": "grid", "grid_shape": (6, 6)}, False),
    "grid6-dead": ({"topology": "grid", "grid_shape": (6, 6),
                    "dead_injections": [(0, 0)]}, False),
    "grid10": ({"topology": "grid", "grid_shape": (10, 10)}, False),
    "grid10-dead": ({"topology": "grid", "grid_shape": (10, 10),
                     "dead_injections": [(9, 9)]}, False),
    "htree2": ({"levels": 2}, False),
    "htree2-var": ({"levels": 2, "variation": 0.1, "seed": 3}, False),
    "htree2-open8k": (_open_s13(8e3), False),
    # s13 crosses vdd/2 2.5 ns after the clock starts to fall.
    "htree2-open100k": (_open_s13(1e5), True),
    # s13 never arrives inside the period.
    "htree2-open1M": (_open_s13(1e6), True),
}
#: The tier-1 slice; the rest of the mix runs under ``slow``.
WINDOW_TIER1 = ("grid6-dead", "htree2-open8k", "htree2-open100k")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=() if name in WINDOW_TIER1 else pytest.mark.slow)
    for name in WINDOW_CASES
])
def test_whole_tree_window_reads_out_as_a_full_period_run(monkeypatch, name):
    """Every readout equals a full-period run's of the same netlist, bit
    for bit, read the way ``simulate_whole_tree`` reads them; the
    waveforms equal it on the integrated span, and a run that goes on
    past the fall start equals it entirely."""
    case, continues = WINDOW_CASES[name]
    calls = []

    def spy(netlist, **kwargs):
        calls.append((netlist, kwargs))
        return transient(netlist, **kwargs)

    monkeypatch.setattr(whole_tree, "transient", spy)
    run = simulate_whole_tree(n_sensors=2, **case)

    settle, period = ns(2.0), ns(20.0)
    netlist, kwargs = calls[0]
    clock = ClockSource(period=period, slew=ns(0.2), delay=settle)
    assert kwargs["t_stop"] == clock.falling_edge(0)
    full = transient(netlist, **{**kwargs, "t_stop": settle + period,
                                 "checkpoint_at": None})
    reference = whole_tree._read_out(
        full, run.placements, run.n_nodes, settle, run.t_sample,
        level=nominal_process().vdd / 2.0, threshold=VTH_INTERPRET,
    )
    assert run.arrivals == reference.arrivals
    assert run.skews == reference.skews
    assert run.codes == reference.codes
    assert run.flagged == reference.flagged
    for placement in run.placements:
        for node in (placement.y1, placement.y2):
            assert (run.result.wave(node).at(run.t_sample)
                    == full.wave(node).at(run.t_sample))

    n = len(run.result)
    assert np.array_equal(run.result.times, full.times[:n])
    for node, wave in run.result.voltages.items():
        assert np.array_equal(wave, full.voltages[node][:n]), node
    assert len(calls) == (2 if continues else 1)
    if continues:
        assert n == len(full)
        assert _counters(run.result) == _counters(full)
        assert run.result.escalations == full.escalations
    else:
        assert all(np.isfinite(a) for a in run.arrivals.values())
        assert run.result.times[-1] == pytest.approx(clock.falling_edge(0))


@pytest.mark.slow
@needs_scipy
def test_thousand_node_whole_tree_completes_sparse():
    run = simulate_whole_tree(levels=4, n_sensors=2, segments_per_wire=2)
    assert run.n_nodes >= 1000
    kernel = run.result.kernel_stats or {}
    assert kernel.get("sparse_nnz", 0) > 0
    assert len(run.result) > 0
    assert not run.flagged
