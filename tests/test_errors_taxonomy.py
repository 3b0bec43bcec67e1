"""Error taxonomy: hierarchy, historical aliases, diagnostics, validation."""

from __future__ import annotations

import pickle

import pytest

from repro.circuit.netlist import Netlist
from repro.circuit.validate import NetlistError, validate
from repro.core.sensing import SkewSensor
from repro.devices.sources import clock_pair
from repro.errors import (
    MAX_STATE_NODES,
    ConvergenceError,
    JobError,
    NonFiniteStateError,
    SimulationDiagnostics,
    SimulationError,
    StepSizeUnderflowError,
    WorkerCrashError,
    rebuild_error,
)
from repro.faults.models import BridgingFault
from repro.units import ns


# --------------------------------------------------------------------- #
# Hierarchy and historical aliases.
# --------------------------------------------------------------------- #

def test_historical_import_sites_are_aliases():
    from repro.analog import dcop

    assert dcop.ConvergenceError is ConvergenceError
    assert dcop.NonFiniteStateError is NonFiniteStateError

    import repro.runtime as runtime

    assert runtime.SimulationError is SimulationError
    assert runtime.JobError is JobError
    assert runtime.WorkerCrashError is WorkerCrashError


def test_hierarchy():
    assert issubclass(SimulationError, RuntimeError)
    assert issubclass(ConvergenceError, SimulationError)
    assert issubclass(NonFiniteStateError, ConvergenceError)
    assert issubclass(StepSizeUnderflowError, ConvergenceError)
    assert issubclass(WorkerCrashError, SimulationError)


# --------------------------------------------------------------------- #
# Diagnostics records.
# --------------------------------------------------------------------- #

def _full_diagnostics():
    return SimulationDiagnostics(
        circuit="unit_test", sim_time=3.2e-9, newton_iteration=17,
        gmin_stage=1e-6, ladder_rung="gmin-restart",
        worst_residual_node="y1", worst_residual=4.5e-7,
        last_state={"y1": 4.9, "y2": 0.1}, extra={"note": "hello"},
    )


def test_diagnostics_dict_roundtrip():
    diag = _full_diagnostics()
    clone = SimulationDiagnostics.from_dict(diag.as_dict())
    assert clone == diag
    text = diag.describe()
    assert "unit_test" in text
    assert "gmin-restart" in text
    assert "y1" in text


def test_capture_state_truncates():
    diag = SimulationDiagnostics()
    node_index = {f"n{i:03d}": i for i in range(MAX_STATE_NODES + 20)}
    diag.capture_state(node_index, list(range(len(node_index))))
    assert len(diag.last_state) == MAX_STATE_NODES
    assert diag.last_state["n000"] == 0.0


@pytest.mark.parametrize(
    "cls", [SimulationError, ConvergenceError, NonFiniteStateError,
            StepSizeUnderflowError]
)
def test_errors_pickle_with_diagnostics(cls):
    error = cls("boom", diagnostics=_full_diagnostics())
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is cls
    assert clone.message == "boom"
    assert clone.diagnostics == error.diagnostics
    assert "unit_test" in str(clone)


def test_rebuild_error():
    diag = _full_diagnostics().as_dict()
    error = rebuild_error("StepSizeUnderflowError", "dt underflow", diag)
    assert type(error) is StepSizeUnderflowError
    assert error.diagnostics.circuit == "unit_test"
    # Unknown names degrade to the base class (old journals must load).
    assert type(rebuild_error("FutureError", "x", None)) is SimulationError


def test_rebuild_error_restores_crash_dispatches():
    original = WorkerCrashError("died", job=None, dispatches=3)
    clone = rebuild_error(
        "WorkerCrashError", original.message, original.diagnostics.as_dict(),
    )
    assert isinstance(clone, WorkerCrashError)
    assert clone.dispatches == 3
    # A journal written while per-job timeouts existed still loads.
    assert type(rebuild_error("CampaignTimeoutError", "late")) is SimulationError


def test_job_error_record():
    record = JobError(
        index=2, job=None, error="ConvergenceError", message="no solution",
        diagnostics={"circuit": "sensor", "sim_time": 1e-9},
    )
    assert record.ok is False
    error = record.exception()
    assert isinstance(error, ConvergenceError)
    assert "sensor" in str(error)
    data = record.as_dict()
    assert data["error"] == "ConvergenceError"
    assert data["diagnostics"]["circuit"] == "sensor"


# --------------------------------------------------------------------- #
# The engine attaches diagnostics to real failures (acceptance check).
# --------------------------------------------------------------------- #

#: Tolerances no Newton update can meet: every step fails, the whole
#: escalation ladder runs, and the transient dies deterministically.
BRUTAL_OPTIONS = dict(dt_min=1e-15, dt_start=1e-13, max_newton=2, vntol=1e-30)


def test_engine_failure_carries_diagnostics():
    from repro.analog.engine import TransientOptions, transient

    sensor = SkewSensor()
    phi1, phi2 = clock_pair(
        period=ns(20), slew1=ns(0.2), slew2=ns(0.2), skew=0.0,
        delay=ns(2), vdd=sensor.vdd,
    )
    netlist = sensor.build(phi1=phi1, phi2=phi2)
    with pytest.raises(ConvergenceError) as excinfo:
        transient(netlist, t_stop=ns(1.0),
                  options=TransientOptions(**BRUTAL_OPTIONS))
    diag = excinfo.value.diagnostics
    assert diag.circuit == netlist.name
    assert diag.sim_time >= 0.0
    assert diag.last_state  # usable as a retry's initial guess
    assert netlist.name in str(excinfo.value)


def test_successful_transient_records_dcop_rung():
    from repro.analog.engine import TransientOptions, transient

    sensor = SkewSensor()
    phi1, phi2 = clock_pair(
        period=ns(20), slew1=ns(0.2), slew2=ns(0.2), skew=0.0,
        delay=ns(2), vdd=sensor.vdd,
    )
    netlist = sensor.build(phi1=phi1, phi2=phi2)
    result = transient(
        netlist, t_stop=ns(0.5), record=["y1", "y2"],
        initial=sensor.dc_guess(),
        options=TransientOptions(dt_max=200e-12, reltol=5e-3),
    )
    rungs = [name for name in result.escalations if name.startswith("dcop:")]
    assert len(rungs) == 1


# --------------------------------------------------------------------- #
# Netlist validation rejects numerically poisonous parameters.
# --------------------------------------------------------------------- #

def _rc_netlist():
    net = Netlist("taxonomy_rc")
    net.drive_dc("vin", 5.0)
    net.add_resistor("r1", "vin", "out", 1e3)
    net.add_capacitor("c1", "out", "0", 1e-12)
    return net


def test_validate_accepts_healthy_netlist():
    validate(_rc_netlist())


def test_validate_rejects_nan_resistance():
    net = _rc_netlist()
    net.add_resistor("r_bad", "vin", "out", float("nan"))
    with pytest.raises(NetlistError, match="non-finite"):
        validate(net)


def test_validate_rejects_nonpositive_resistance():
    net = _rc_netlist()
    # Resistor.__post_init__ rejects <= 0 at construction; validation
    # must also catch values mutated after the fact (fault tooling).
    net.resistors[0].resistance = -5.0
    with pytest.raises(NetlistError, match="<= 0"):
        validate(net)


def test_validate_rejects_nonfinite_capacitance():
    net = _rc_netlist()
    net.capacitors[0].capacitance = float("inf")
    with pytest.raises(NetlistError, match="non-finite"):
        validate(net)


def test_validate_rejects_nonfinite_source():
    net = _rc_netlist()
    net.drive_dc("vin", float("nan"))
    with pytest.raises(NetlistError, match="non-finite"):
        validate(net)


def test_validate_rejects_nonfinite_mosfet_geometry():
    net = SkewSensor().build()
    net.mosfets[0].w = float("nan")
    with pytest.raises(NetlistError, match="non-finite"):
        validate(net)


def test_validate_rejects_nan_bridge_resistance():
    # BridgingFault's own guard only rejects <= 0; a NaN slips through
    # construction and must be caught by netlist validation instead.
    faulty = BridgingFault("y1", "y2", float("nan")).inject(SkewSensor().build())
    with pytest.raises(NetlistError, match="non-finite"):
        validate(faulty)
