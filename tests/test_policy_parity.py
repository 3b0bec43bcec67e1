"""Policy x engine parity: one ``jacobian_policy`` decision for both loops.

The scalar :func:`~repro.analog.engine.transient` and the lockstep
:func:`~repro.batch.engine.batch_transient` resolve the policy through one
function and share the keep-stale/accept rules and the step-control law,
and every row of a stack steps its own time axis, so each row must take
its scalar run's decisions under every policy, from an operating point or
resumed from a checkpoint, whatever the other rows are: the same Newton
iteration, factorization and reuse counts and the same accepted time
grid.  (The stack has no sparse backend; ``"sparse"`` and ``"auto"`` run
its dense inverse with reuse, which on a sensor-sized circuit is what the
scalar engine does too.)  A stack resumes from one checkpoint per row,
each checked against the stack and each at its own time.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analog.engine import TransientOptions, transient
from repro.batch.compile import compile_batch
from repro.batch.engine import batch_transient
from repro.core.sensing import SkewSensor
from repro.devices.sources import clock_pair
from repro.montecarlo.analysis import sample_job
from repro.montecarlo.sampling import sample_population
from repro.runtime.jobs import job_circuit
from repro.units import fF, ns

COUNTERS = ("newton_iterations", "factorizations", "jacobian_reuses")

POLICIES = ["reuse", "auto", "sparse", "dense"]

#: Fork time of a warm resume: 50 ps before the clocks' first corner.
T_FORK = ns(2.0) - 50e-12


def _sensing_netlist():
    sensor = SkewSensor(load1=fF(160), load2=fF(160))
    phi1, phi2 = clock_pair(
        period=ns(20.0), slew1=ns(0.2), slew2=ns(0.2),
        skew=ns(0.15), delay=ns(2.0), vdd=sensor.vdd,
    )
    return sensor.build(phi1=phi1, phi2=phi2), sensor


def _options(policy):
    return TransientOptions(dt_max=ns(0.2), reltol=5e-3,
                            jacobian_policy=policy)


def _checkpoint(options, t_fork=T_FORK):
    """The sensing circuit's state at ``t_fork``, before its first clock
    corner."""
    netlist, sensor = _sensing_netlist()
    return transient(
        netlist, t_stop=t_fork, record=[], initial=sensor.dc_guess(),
        options=options, checkpoint_at=t_fork,
    ).checkpoint


def _sample_circuits(options):
    """Three Monte Carlo samples, each with its own skew, slews, loads
    and process corner: ``(sensor, netlist)`` pairs."""
    samples = sample_population(3, fF(160), seed=5)
    return [
        job_circuit(sample_job(sample, ns(tau), options=options).resolved())
        for sample, tau in zip(samples, (0.0, 0.1, -0.05))
    ]


def _assert_same_decisions(stack, scalar, policy, row=0):
    assert stack.ok[row]
    for counter in COUNTERS:
        assert stack.row_counters[counter][row] == \
            scalar.kernel_stats[counter], counter
    times = stack.times[row]
    assert len(times) == len(scalar.times)
    if policy == "sparse":
        # The scalar run factors with SparseLU, the stack inverts
        # densely: same decisions, solves equal to rounding.
        assert np.allclose(times, scalar.times, rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(times, scalar.times)
        assert np.array_equal(stack.voltages["y2"][row],
                              scalar.voltages["y2"])
    if policy == "dense":
        assert scalar.kernel_stats["jacobian_reuses"] == 0
    else:
        assert scalar.kernel_stats["jacobian_reuses"] > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_single_sample_stack_matches_scalar_counters(policy):
    options = _options(policy)
    netlist, sensor = _sensing_netlist()
    scalar = transient(netlist, t_stop=ns(12.0), record=["y2"],
                       initial=sensor.dc_guess(), options=options)
    netlist, sensor = _sensing_netlist()
    stack = batch_transient(
        compile_batch([netlist]), t_stop=ns(12.0), record=["y2"],
        initial=[sensor.dc_guess()], options=options,
    )
    _assert_same_decisions(stack, scalar, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_single_sample_warm_resume_matches_scalar_counters(policy):
    """A one-row stack resumed from a per-row checkpoint list takes the
    scalar resume's decisions."""
    options = _options(policy)
    checkpoint = _checkpoint(options)
    netlist, _ = _sensing_netlist()
    scalar = transient(netlist, t_stop=ns(12.0), record=["y2"],
                       options=options, resume_from=checkpoint)
    netlist, _ = _sensing_netlist()
    stack = batch_transient(
        compile_batch([netlist]), t_stop=ns(12.0), record=["y2"],
        options=options, resume_from=[checkpoint],
    )
    _assert_same_decisions(stack, scalar, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_mixed_stack_rows_match_their_scalar_runs(policy):
    """Three different samples with different stops in one stack: each
    row walks its own scalar run's grid."""
    options = _options(policy)
    stops = (ns(12.0), ns(10.0), ns(12.5))
    scalars = [
        transient(netlist, t_stop=stop, record=["y2"],
                  initial=sensor.dc_guess(), options=options)
        for (sensor, netlist), stop in zip(_sample_circuits(options), stops)
    ]
    circuits = _sample_circuits(options)
    stack = batch_transient(
        compile_batch([netlist for _, netlist in circuits]), t_stop=stops,
        record=["y2"], initial=[sensor.dc_guess() for sensor, _ in circuits],
        options=options,
    )
    for row, scalar in enumerate(scalars):
        _assert_same_decisions(stack, scalar, policy, row)


def test_batch_resume_validates_every_row():
    options = _options("reuse")
    checkpoint = _checkpoint(options)
    netlist, _ = _sensing_netlist()
    batch = compile_batch([netlist, netlist])
    kwargs = dict(t_stop=ns(12.0), record=["y2"], options=options)
    with pytest.raises(ValueError, match="one checkpoint per sample"):
        batch_transient(batch, resume_from=[checkpoint], **kwargs)
    reordered = replace(checkpoint, nodes=checkpoint.nodes[::-1])
    with pytest.raises(ValueError, match="node order"):
        batch_transient(batch, resume_from=[checkpoint, reordered], **kwargs)

    # Rows resumed at different times each walk their scalar resume.
    earlier = _checkpoint(options, T_FORK - ns(0.5))
    stack = batch_transient(batch, resume_from=[checkpoint, earlier],
                            **kwargs)
    for row, start in enumerate((checkpoint, earlier)):
        netlist, _ = _sensing_netlist()
        scalar = transient(netlist, resume_from=start, **kwargs)
        _assert_same_decisions(stack, scalar, "reuse", row)
