"""Policy x engine parity: one ``jacobian_policy`` decision for both loops.

The scalar :func:`~repro.analog.engine.transient` and the lockstep
:func:`~repro.batch.engine.batch_transient` resolve the policy through one
function and share the keep-stale/accept rules and the step-control law,
so a single-sample stack must take the scalar engine's decisions under
every policy, from an operating point or resumed from a checkpoint: the
same Newton iteration, factorization and reuse counts and the same
accepted time grid.  (The stack has no sparse backend; ``"sparse"`` and
``"auto"`` run its dense inverse with reuse, which on a sensor-sized
circuit is what the scalar engine does too.)  A stack resumes from one
checkpoint per row, each checked against the stack.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analog.engine import TransientOptions, transient
from repro.batch.compile import compile_batch
from repro.batch.engine import batch_transient
from repro.core.sensing import SkewSensor
from repro.devices.sources import clock_pair
from repro.units import fF, ns

COUNTERS = ("newton_iterations", "factorizations", "jacobian_reuses")

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


def _checkpoint(options):
    """The sensing circuit's state just before its first clock corner."""
    netlist, sensor = _sensing_netlist()
    return transient(
        netlist, t_stop=T_FORK, record=[], initial=sensor.dc_guess(),
        options=options, checkpoint_at=T_FORK,
    ).checkpoint


def _assert_same_decisions(stack, scalar, policy):
    assert stack.ok[0]
    for counter in COUNTERS:
        assert stack.kernel_stats[counter] == scalar.kernel_stats[counter], \
            counter
    assert len(stack.times) == len(scalar.times)
    if policy == "sparse":
        # The scalar run factors with SparseLU, the stack inverts
        # densely: same decisions, solves equal to rounding.
        assert np.allclose(stack.times, scalar.times, rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(stack.times, scalar.times)
    if policy == "dense":
        assert scalar.kernel_stats["jacobian_reuses"] == 0
    else:
        assert scalar.kernel_stats["jacobian_reuses"] > 0


@pytest.mark.parametrize("policy", ["reuse", "auto", "sparse", "dense"])
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


@pytest.mark.parametrize("policy", ["reuse", "auto", "sparse", "dense"])
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


def test_batch_resume_validates_every_row():
    checkpoint = _checkpoint(_options("reuse"))
    netlist, _ = _sensing_netlist()
    batch = compile_batch([netlist, netlist])
    kwargs = dict(t_stop=ns(12.0), record=["y2"], options=_options("reuse"))
    with pytest.raises(ValueError, match="one checkpoint per sample"):
        batch_transient(batch, resume_from=[checkpoint], **kwargs)
    later = replace(checkpoint, t=checkpoint.t + ns(0.01))
    with pytest.raises(ValueError, match="share one t"):
        batch_transient(batch, resume_from=[checkpoint, later], **kwargs)
