"""Batched circuit stacking: shapes, source plans, topology guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analog.compile import CompiledCircuit
from repro.batch.compile import BatchTopologyError, compile_batch
from repro.core.sensing import SkewSensor
from repro.devices.process import nominal_process, perturbed_process
from repro.devices.sources import clock_pair
from repro.units import fF, ns


def _netlist(load=fF(160), skew=ns(0.0), slew=ns(0.2), process=None,
             full_swing=False):
    sensor = SkewSensor(
        process=process or nominal_process(), load1=load, load2=load,
        full_swing=full_swing,
    )
    phi1, phi2 = clock_pair(
        period=ns(20.0), slew1=slew, slew2=slew, skew=skew, delay=ns(2.0),
        vdd=sensor.vdd,
    )
    return sensor.build(phi1=phi1, phi2=phi2)


def test_stacked_shapes_and_param_variation():
    rng = np.random.default_rng(11)
    netlists = [
        _netlist(process=perturbed_process(rng, 0.15), load=fF(120 + 40 * k))
        for k in range(3)
    ]
    batch = compile_batch(netlists)
    scalar = CompiledCircuit.compile(netlists[0])
    n = scalar.n_total
    assert batch.batch_size == 3
    assert batch.G.shape == (3, n, n)
    assert batch.C.shape == (3, n, n)
    assert batch.m_vt.shape[0] == 3
    # Per-sample physics actually differs across the stack.
    assert not np.allclose(batch.m_vt[0], batch.m_vt[1])
    # Loads are femtofarads; compare with a zero absolute floor.
    assert not np.allclose(batch.C[0], batch.C[2], atol=0.0)
    # Shared connectivity is genuinely shared (one copy, not per sample).
    assert batch.m_d.ndim == 1


def test_source_voltages_match_scalar_sources():
    netlists = [_netlist(skew=ns(0.0)), _netlist(skew=ns(0.1))]
    batch = compile_batch(netlists)
    compiled = [CompiledCircuit.compile(nl) for nl in netlists]
    for t in (0.0, 2.05e-9, 2.17e-9, 2.31e-9, 7.5e-9, 12.1e-9):
        stacked = batch.source_voltages(t)
        for k, circuit in enumerate(compiled):
            expected = circuit.source_voltages(t)
            assert np.array_equal(stacked[k], expected), f"t={t}"


def test_source_voltages_at_per_row_times():
    """Each row of a stack reads its sources at its own time."""
    netlists = [_netlist(skew=ns(0.0)), _netlist(skew=ns(0.1))]
    batch = compile_batch(netlists)
    compiled = [CompiledCircuit.compile(nl) for nl in netlists]
    times = np.array([2.05e-9, 2.31e-9])
    stacked = batch.source_voltages_into(times, np.zeros((2, batch.n_total)))
    for k, circuit in enumerate(compiled):
        assert np.array_equal(stacked[k], circuit.source_voltages(times[k]))


def test_topology_mismatch_rejected():
    with pytest.raises(BatchTopologyError):
        compile_batch([_netlist(), _netlist(full_swing=True)])


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        compile_batch([])
