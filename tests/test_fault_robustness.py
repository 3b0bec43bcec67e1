"""Fault-injection robustness: campaigns survive hard solver failures.

Injects ``NodeStuckAt`` / ``TransistorStuckOn`` faults into the sensor and
runs the transients under tolerances no Newton update can satisfy, so
every evaluation dies in the solver after exhausting the escalation
ladder.  The campaign layer must finish anyway under
``on_error="collect"``, returning well-formed
:class:`~repro.errors.JobError` records whose diagnostics identify the
faulty circuit by name.
"""

from __future__ import annotations

import pytest

from repro.analog.engine import TransientOptions, transient
from repro.core.sensing import SkewSensor
from repro.devices.sources import clock_pair
from repro.errors import ConvergenceError, JobError, StepSizeUnderflowError
from repro.faults.models import NodeStuckAt, TransistorStuckOn
from repro.runtime import JobResult, SensorJob, Telemetry, run_campaign
from repro.units import ns

#: Tolerances no Newton update can meet (``vntol`` far below machine
#: epsilon with almost no iterations): every step fails, the escalation
#: ladder runs dry, and the transient dies deterministically.
BRUTAL = TransientOptions(dt_min=1e-15, dt_start=1e-13, max_newton=2,
                          vntol=1e-30)


# --------------------------------------------------------------------- #
# Module-level evaluations (picklable for the process backend).
# --------------------------------------------------------------------- #

def _faulty_transient(job, fault):
    """Simulate the sensor of ``job`` with ``fault`` injected; always fails."""
    sensor = SkewSensor(load1=job.load1, load2=job.load2)
    phi1, phi2 = clock_pair(
        period=job.period, slew1=job.slew1, slew2=job.slew2,
        skew=job.skew, delay=job.settle, vdd=sensor.vdd,
    )
    faulty = fault.inject(sensor.build(phi1=phi1, phi2=phi2))
    transient(faulty, t_stop=ns(1.0), options=BRUTAL)
    raise AssertionError("brutal tolerances are not supposed to converge")


def _evaluate_stuck_node(job):
    return _faulty_transient(job, NodeStuckAt("y1", 1))


def _evaluate_stuck_on(job):
    return _faulty_transient(job, TransistorStuckOn("e"))


def _ok(job):
    return JobResult(skew=job.skew, vmin_y1=1.0, vmin_y2=2.0, code=(0, 0),
                     steps=3)


def _evaluate_mixed(job):
    if job.skew > 0:
        return _evaluate_stuck_node(job)
    return _ok(job)


def _jobs(*skews_ns):
    return [SensorJob(skew=ns(t)) for t in skews_ns]


# --------------------------------------------------------------------- #
# Collect mode finishes the campaign and reports structured failures.
# --------------------------------------------------------------------- #

def test_stuck_at_campaign_collects_job_errors():
    jobs = _jobs(0.1, 0.4)
    telemetry = Telemetry()
    campaign = run_campaign(
        jobs, evaluate=_evaluate_stuck_node, on_error="collect",
        telemetry=telemetry,
    )
    assert len(campaign) == len(jobs)
    assert not campaign.ok
    assert telemetry.jobs_failed == len(jobs)
    for index, record in enumerate(campaign):
        assert isinstance(record, JobError)
        assert record.index == index
        assert record.job is jobs[index]
        assert isinstance(record.exception(), ConvergenceError)
        assert "stuck-at-1" in record.diagnostics["circuit"]
        assert "sim_time" in record.diagnostics


def test_stuck_on_campaign_collects_job_errors():
    campaign = run_campaign(
        _jobs(0.2), evaluate=_evaluate_stuck_on, on_error="collect",
    )
    (record,) = campaign.errors
    assert "transistor e stuck-on" in record.diagnostics["circuit"]
    assert isinstance(record.exception(), ConvergenceError)


def test_mixed_campaign_keeps_order_and_collects_only_failures():
    jobs = _jobs(-0.2, 0.3, -0.1)
    campaign = run_campaign(
        jobs, evaluate=_evaluate_mixed, on_error="collect",
    )
    assert [r.ok for r in campaign] == [True, False, True]
    (record,) = campaign.errors
    assert record.index == 1
    assert campaign[0].vmin_y1 == 1.0
    assert campaign[2].skew == jobs[2].skew


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_raise_mode_still_aborts_with_diagnostics(backend):
    # On the process backend the ConvergenceError comes back from the
    # worker inside its pickled Outcome, class and diagnostics intact.
    with pytest.raises(ConvergenceError) as excinfo:
        run_campaign(_jobs(0.1, 0.3), backend=backend, max_workers=2,
                     evaluate=_evaluate_stuck_node)
    assert type(excinfo.value) is StepSizeUnderflowError
    diag = excinfo.value.diagnostics
    assert "stuck-at-1" in diag.circuit
    assert diag.sim_time >= 0.0


def test_process_backend_ships_failures_across_the_pool():
    campaign = run_campaign(
        _jobs(0.1, 0.3), backend="process", max_workers=2,
        evaluate=_evaluate_stuck_node, on_error="collect",
    )
    assert len(campaign.errors) == 2
    for record in campaign.errors:
        assert "stuck-at-1" in record.diagnostics["circuit"]
        assert isinstance(record.exception(), ConvergenceError)


# --------------------------------------------------------------------- #
# Direct engine-level check: a faulty netlist fails with its mangled
# name in the diagnostics, so the failing fault is identifiable from the
# error alone.
# --------------------------------------------------------------------- #

def test_faulty_transient_failure_names_the_fault():
    job = SensorJob(skew=ns(0.2))
    with pytest.raises(ConvergenceError) as excinfo:
        _faulty_transient(job, TransistorStuckOn("e"))
    error = excinfo.value
    assert "stuck-on" in error.diagnostics.circuit
    assert "stuck-on" in str(error)
