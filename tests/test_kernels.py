"""Kernel-layer tests: scatter plan, golden equivalence, telemetry.

The compiled kernels (:mod:`repro.analog.kernels`,
:mod:`repro.batch.kernels`) replace the original dense
``device_currents`` assembly and the per-iteration dense solve.  This
module pins them three ways:

* unit tests of :func:`build_mosfet_scatter` (index targets, incidence
  signs, degenerate self-connected devices);
* golden *assembly* equivalence: kernel output vs
  :func:`reference_device_currents` (the pre-change dense body, kept
  verbatim) on the sensing circuit, a stuck-on faulted variant and a
  buffered clock-tree electrical netlist;
* golden *waveform* equivalence: a full transient under the cached
  modified-Newton policy (``jacobian_policy="reuse"``) vs the dense
  per-iteration path (``"dense"``) stays within 1 uV on every node, and
  the reuse run reports nonzero ``jacobian_reuses``;
* the two level-1 stamp bodies: on sensor-sized circuits the scalar
  kernel's Python-float pass returns the numpy stamp's bits, and the
  device-count gate picks the body.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog import kernels
from repro.analog.compile import CompiledCircuit
from repro.analog.engine import TransientOptions, transient
from repro.analog.kernels import (
    KernelStats,
    ScalarKernel,
    build_mosfet_scatter,
    reference_device_currents,
)
from repro.batch.compile import compile_batch
from repro.clocktree.electrical import TreeNetlistBuilder
from repro.clocktree.htree import build_h_tree
from repro.clocktree.tree import Buffer
from repro.clocktree.whole_tree import (
    WholeTreeNetlistBuilder,
    select_sensor_pairs,
)
from repro.core.sensing import SkewSensor
from repro.devices.sources import ClockSource, clock_pair
from repro.faults.models import TransistorStuckOn, TransistorStuckOpen
from repro.units import fF, ns

FAST = TransientOptions(dt_max=ns(0.2), reltol=5e-3)

#: Acceptance bar on reuse-vs-dense waveform agreement, volts.
WAVEFORM_TOL = 1e-6


def _sensing_netlist(skew=0.15):
    sensor = SkewSensor(load1=fF(160), load2=fF(160))
    phi1, phi2 = clock_pair(
        period=ns(20.0), slew1=ns(0.2), slew2=ns(0.2),
        skew=ns(skew), delay=ns(2.0), vdd=sensor.vdd,
    )
    return sensor.build(phi1=phi1, phi2=phi2), sensor


def _stuck_on_netlist():
    netlist, _ = _sensing_netlist()
    name = netlist.mosfets[0].name
    return TransistorStuckOn(transistor=name).inject(netlist)


def _stuck_open_netlist():
    netlist, _ = _sensing_netlist()
    name = netlist.mosfets[-1].name
    return TransistorStuckOpen(transistor=name).inject(netlist)


def _full_swing_netlist():
    sensor = SkewSensor(load1=fF(160), load2=fF(160), full_swing=True)
    phi1, phi2 = clock_pair(
        period=ns(20.0), slew1=ns(0.2), slew2=ns(0.2),
        skew=ns(0.15), delay=ns(2.0), vdd=sensor.vdd,
    )
    return sensor.build(phi1=phi1, phi2=phi2)


def _clocktree_netlist():
    tree = build_h_tree(levels=1, buffer=Buffer())
    sinks = sorted(s.name for s in tree.sinks())[:2]
    clock = ClockSource(period=ns(20), slew=ns(0.2), delay=ns(2))
    return TreeNetlistBuilder(tree, sinks).build(clock)


# --------------------------------------------------------------------- #
# Scatter-plan unit tests.
# --------------------------------------------------------------------- #
def test_scatter_indices_target_drain_and_source_rows():
    m_d = np.array([0, 2])
    m_g = np.array([1, 1])
    m_s = np.array([3, 4])
    n = 5
    f_idx, j_idx, incidence = build_mosfet_scatter(m_d, m_g, m_s, n)
    assert f_idx.tolist() == [0, 2, 3, 4]
    # Row-major flat targets in stamp order (d,d) (d,g) (d,s) (s,d)
    # (s,g) (s,s), devices varying fastest within each stamp block.
    expected = np.concatenate([
        m_d * n + m_d, m_d * n + m_g, m_d * n + m_s,
        m_s * n + m_d, m_s * n + m_g, m_s * n + m_s,
    ])
    assert np.array_equal(j_idx, expected)
    assert incidence.shape == (n, 2)
    assert incidence[0, 0] == 1.0 and incidence[3, 0] == -1.0
    assert incidence[2, 1] == 1.0 and incidence[4, 1] == -1.0
    assert np.count_nonzero(incidence) == 4


def test_scatter_self_connected_device_cancels():
    f_idx, j_idx, incidence = build_mosfet_scatter(
        np.array([1]), np.array([0]), np.array([1]), 3
    )
    # Drain tied to source: the incidence column must cancel to zero so
    # the device contributes no net node current.
    assert np.all(incidence[:, 0] == 0.0)
    assert f_idx.tolist() == [1, 1]


def test_scatter_empty_circuit():
    f_idx, j_idx, incidence = build_mosfet_scatter(
        np.array([], dtype=int), np.array([], dtype=int),
        np.array([], dtype=int), 4
    )
    assert f_idx.size == 0 and j_idx.size == 0
    assert incidence.shape == (4, 0)


# --------------------------------------------------------------------- #
# Golden assembly equivalence vs the pre-change dense path.
# --------------------------------------------------------------------- #
@pytest.fixture(
    scope="module",
    params=["sensing", "stuck_on", "clocktree"],
)
def compiled(request):
    if request.param == "sensing":
        netlist, _ = _sensing_netlist()
    elif request.param == "stuck_on":
        netlist = _stuck_on_netlist()
    else:
        netlist = _clocktree_netlist()
    return CompiledCircuit.compile(netlist)


def _probe_voltages(circuit, n_probes=25, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 6.0, size=(n_probes, circuit.n_total))


def test_scalar_kernel_matches_reference(compiled):
    kernel = ScalarKernel(compiled)
    for v in _probe_voltages(compiled):
        f_ref, j_ref = reference_device_currents(compiled, v)
        f, j = kernel.eval(v)
        np.testing.assert_allclose(f, f_ref, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(j, j_ref, rtol=1e-12, atol=1e-15)


def test_scalar_kernel_residual_only_matches_reference(compiled):
    kernel = ScalarKernel(compiled)
    for v in _probe_voltages(compiled, n_probes=5, seed=11):
        f_ref, _ = reference_device_currents(compiled, v, with_jacobian=False)
        f, j = kernel.eval(v, with_jacobian=False)
        assert j is None
        np.testing.assert_allclose(f, f_ref, rtol=1e-12, atol=1e-15)


def test_kernel_reads_model_cards_per_eval(compiled):
    # Connectivity is frozen at kernel build; parameters are not - the
    # fault/poison injection tests mutate them post-compile.
    kernel = compiled.kernel()
    v = _probe_voltages(compiled, n_probes=1, seed=3)[0]
    f_before, _ = kernel.eval(v)
    f_before = f_before.copy()
    original = compiled.m_beta.copy()
    try:
        compiled.m_beta = compiled.m_beta * 2.0
        f_after, _ = kernel.eval(v)
        if compiled.m_d.size:
            assert not np.allclose(f_after, f_before)
        ref, _ = reference_device_currents(compiled, v, with_jacobian=False)
        np.testing.assert_allclose(f_after, ref, rtol=1e-12, atol=1e-15)
    finally:
        compiled.m_beta = original


def test_batch_kernel_single_sample_is_bit_identical_to_scalar():
    netlist, sensor = _sensing_netlist()
    scalar = CompiledCircuit.compile(netlist)
    batch = compile_batch([netlist])
    for v in _probe_voltages(scalar, n_probes=10, seed=5):
        f_s, j_s = scalar.kernel().eval(v)
        f_b, j_b = batch.kernel().eval(v[None, :])
        # Exact equality: the B == 1 batch must add in the scalar's
        # summation order (the engines' accept decisions depend on it).
        assert np.array_equal(f_b[0], f_s)
        assert np.array_equal(j_b[0], j_s)


def test_batch_kernel_heterogeneous_matches_per_sample_scalar():
    netlists = []
    for skew in (0.0, 0.2, 0.4):
        netlist, _ = _sensing_netlist(skew)
        netlists.append(netlist)
    batch = compile_batch(netlists)
    rng = np.random.default_rng(17)
    v = rng.uniform(-1.0, 6.0, size=(3, batch.n_total))
    f_b, j_b = batch.kernel().eval(v)
    for b, circuit in enumerate(batch.circuits):
        f_s, j_s = circuit.kernel().eval(v[b])
        assert np.array_equal(f_b[b], f_s)
        assert np.array_equal(j_b[b], j_s)


# --------------------------------------------------------------------- #
# The two stamp bodies: Python floats vs numpy rows.
# --------------------------------------------------------------------- #
_STAMP_VARIANTS = {
    "sensing": lambda: _sensing_netlist()[0],
    "stuck_on": _stuck_on_netlist,
    "stuck_open": _stuck_open_netlist,
    "full_swing": _full_swing_netlist,
}


@lru_cache(maxsize=None)
def _stamp_pair(variant):
    """``(circuit, float-stamp kernel, numpy-stamp kernel)`` of one
    sensor variant: the same kernel built under the gate and with the
    gate closed."""
    circuit = CompiledCircuit.compile(_STAMP_VARIANTS[variant]())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "FLOAT_STAMP_MAX_DEVICES", -1)
        rows = ScalarKernel(circuit)
    return circuit, ScalarKernel(circuit), rows


def _draw_voltages(data, circuit):
    """A node-voltage vector that hits the stamp's edges: signed zeros,
    devices with equal drain and source voltages or with ``vgs``
    exactly at ``vt``, and at most one NaN or infinite entry."""
    n, m = circuit.n_total, circuit.m_d.size
    v = data.draw(st.lists(
        st.one_of(st.floats(-1.0, 6.0), st.sampled_from([0.0, -0.0])),
        min_size=n, max_size=n,
    ))
    edges = st.tuples(st.integers(0, m - 1),
                      st.sampled_from(["tie", "at_vt"]), st.booleans())
    for k, edge, negative_zero in data.draw(st.lists(edges, max_size=4)):
        d, g, s = circuit.m_d[k], circuit.m_g[k], circuit.m_s[k]
        sign = circuit.m_sign[k]
        if edge == "tie":
            v[s] = v[d]
        else:  # model-space source at zero, gate at vt, drain above
            v[s] = -0.0 if negative_zero else 0.0
            v[g] = sign * circuit.m_vt[k]
            v[d] = sign * abs(v[d])
    bad = data.draw(st.one_of(st.none(), st.tuples(
        st.integers(0, n - 1),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )))
    if bad is not None:
        v[bad[0]] = bad[1]
    return np.array(v), bad is None


def _same_bits(a, b, finite):
    if finite:  # bit patterns, so signed zeros count too
        return np.array_equal(a.view(np.uint64), b.view(np.uint64))
    return np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("variant", sorted(_STAMP_VARIANTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_float_stamp_matches_numpy_stamp(variant, data):
    # The Python-float pass and level1_stamp run the same IEEE operations
    # in the same order: (f, J) agree bit for bit, and a NaN or inf input
    # gives NaN at the same entries.
    circuit, floats, rows = _stamp_pair(variant)
    v, finite = _draw_voltages(data, circuit)
    for with_jacobian in (True, False):
        f_a, j_a = floats.eval(v, with_jacobian=with_jacobian)
        with np.errstate(invalid="ignore", over="ignore"):
            f_b, j_b = rows.eval(v, with_jacobian=with_jacobian)
        assert _same_bits(f_a, f_b, finite)
        if with_jacobian:
            assert _same_bits(j_a, j_b, finite)
        else:
            assert j_a is None and j_b is None


def _two_level_htree_netlist():
    tree = build_h_tree(2, buffer=Buffer())
    builder = WholeTreeNetlistBuilder(tree)
    netlist = builder.build(ClockSource(period=ns(4), slew=ns(0.2),
                                        delay=ns(1)))
    builder.attach_sensors(select_sensor_pairs(tree, 2))
    return netlist


def test_float_stamp_gate_by_device_count(monkeypatch):
    calls = []
    stamp = kernels.level1_stamp

    def counted(*args, **kwargs):
        calls.append(1)
        return stamp(*args, **kwargs)

    monkeypatch.setattr(kernels, "level1_stamp", counted)
    sensor = CompiledCircuit.compile(_sensing_netlist()[0])
    tree = CompiledCircuit.compile(_two_level_htree_netlist())
    assert sensor.m_d.size <= kernels.FLOAT_STAMP_MAX_DEVICES
    assert tree.m_d.size == 64 > kernels.FLOAT_STAMP_MAX_DEVICES
    ScalarKernel(sensor).eval(np.zeros(sensor.n_total))
    assert not calls
    ScalarKernel(tree).eval(np.zeros(tree.n_total))
    assert calls


# --------------------------------------------------------------------- #
# Golden waveform equivalence: cached-factorization policy vs dense.
# --------------------------------------------------------------------- #
def _run_policies(netlist, initial=None):
    runs = {}
    for policy in ("dense", "reuse"):
        options = TransientOptions(
            dt_max=FAST.dt_max, reltol=FAST.reltol, jacobian_policy=policy
        )
        runs[policy] = transient(
            netlist, t_stop=ns(12.0), initial=initial, options=options
        )
    return runs["dense"], runs["reuse"]


def _assert_waveforms_close(dense, reuse, tol=WAVEFORM_TOL):
    t_dense = np.asarray(dense.times)
    t_reuse = np.asarray(reuse.times)
    for node in dense.voltages:
        v_dense = np.asarray(dense.voltages[node])
        v_reuse = np.asarray(reuse.voltages[node])
        if np.array_equal(t_dense, t_reuse):
            worst = np.max(np.abs(v_dense - v_reuse))
        else:  # grids microshifted: compare on the dense grid
            worst = np.max(np.abs(np.interp(t_dense, t_reuse, v_reuse)
                                  - v_dense))
        assert worst <= tol, f"{node}: {worst:.3e} V off the dense path"


def test_golden_waveforms_sensing():
    netlist, sensor = _sensing_netlist()
    dense, reuse = _run_policies(netlist, initial=sensor.dc_guess())
    _assert_waveforms_close(dense, reuse)
    assert reuse.kernel_stats["jacobian_reuses"] > 0
    assert dense.kernel_stats["jacobian_reuses"] == 0


def test_golden_waveforms_stuck_on_fault():
    dense, reuse = _run_policies(_stuck_on_netlist())
    _assert_waveforms_close(dense, reuse)
    assert reuse.kernel_stats["jacobian_reuses"] > 0


def test_golden_waveforms_clocktree():
    dense, reuse = _run_policies(_clocktree_netlist())
    _assert_waveforms_close(dense, reuse)
    assert reuse.kernel_stats["jacobian_reuses"] > 0


def test_reuse_policy_factors_less_than_dense():
    netlist, sensor = _sensing_netlist()
    dense, reuse = _run_policies(netlist, initial=sensor.dc_guess())
    assert reuse.kernel_stats["factorizations"] < \
        dense.kernel_stats["factorizations"]
    assert dense.kernel_stats["factorizations"] == \
        dense.kernel_stats["newton_iterations"]


# --------------------------------------------------------------------- #
# Source-plan and telemetry units.
# --------------------------------------------------------------------- #
def test_source_voltages_into_dynamic_split():
    netlist, _ = _sensing_netlist()
    circuit = CompiledCircuit.compile(netlist)
    t = ns(2.1)
    full = circuit.source_voltages(t)
    scratch = circuit.source_voltages(0.0).copy()
    circuit.source_voltages_into(t, scratch, dynamic_only=True)
    np.testing.assert_array_equal(scratch, full)


def test_batch_source_voltages_into_dynamic_split():
    netlist, _ = _sensing_netlist()
    batch = compile_batch([netlist, netlist.copy()])
    t = ns(2.1)
    full = batch.source_voltages(t)
    scratch = batch.source_voltages(0.0).copy()
    batch.source_voltages_into(t, scratch, dynamic_only=True)
    np.testing.assert_array_equal(scratch, full)


def test_kernel_stats_merge_and_dict():
    a = KernelStats(assembles=2, factorizations=1, jacobian_reuses=3,
                    newton_iterations=4, assemble_s=0.5)
    b = KernelStats(assembles=1, refactorizations=2, solve_s=0.25)
    a.merge(b)
    data = a.as_dict()
    assert data["assembles"] == 3
    assert data["refactorizations"] == 2
    assert data["jacobian_reuses"] == 3
    assert data["assemble_s"] == 0.5 and data["solve_s"] == 0.25


def test_telemetry_aggregates_kernel_counters():
    from repro.runtime.telemetry import Telemetry

    tel = Telemetry()
    tel.record_job("job[0]", wall=0.1, steps=10,
                   kernel={"newton_iterations": 7, "jacobian_reuses": 4,
                           "factorizations": 3, "solve_s": 0.01})
    tel.record_kernel({"newton_iterations": 3, "jacobian_reuses": 1,
                       "factorizations": 2, "solve_s": 0.02})
    other = Telemetry()
    other.record_kernel({"newton_iterations": 5, "factorizations": 5})
    tel.merge(other)
    engine = tel.as_dict()["engine"]["kernel"]
    assert engine["newton_iterations"] == 15
    assert engine["jacobian_reuses"] == 5
    assert engine["factorizations"] == 10
    assert engine["solve_s"] == pytest.approx(0.03)
    assert isinstance(engine["newton_iterations"], int)
    assert "jacobian reuse(s)" in tel.summary()
