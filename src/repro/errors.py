"""Simulation error taxonomy with structured diagnostics.

Every failure mode of the stack - solver non-convergence, numerical
blow-up, step-size underflow, worker crashes - derives from
:class:`SimulationError` and carries a :class:`SimulationDiagnostics`
record, so a failure buried in a thousand-job Monte Carlo campaign is
debuggable from its log line alone: which circuit, at what simulated time,
on which Newton iteration, at which gmin stage, with which node holding
the worst residual, and what the last accepted state vector was.

``repro.analog.dcop.ConvergenceError``, the historical home of the
solver's exception, re-exports it from here; it is still a
:class:`RuntimeError`.

A campaign's wall time is bounded by its cancel event, not per job, so
a late campaign ends in :class:`CampaignCancelledError`, never in a
simulation error.

Campaign-level error *records* (the ``on_error="collect"`` mode of
:func:`repro.runtime.run_campaign`) are :class:`JobError` dataclasses -
plain data, JSON-serialisable, safe to ship across process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Cap on how many node voltages a diagnostics record keeps; enough to
#: rebuild an initial guess for the paper's circuits, bounded so one log
#: line of a huge clock tree stays readable.
MAX_STATE_NODES = 64


@dataclass
class SimulationDiagnostics:
    """Structured context attached to every :class:`SimulationError`.

    Attributes
    ----------
    circuit:
        Name of the netlist being solved (fault injection mangles the
        name, so a faulty circuit is identifiable from here alone).
    sim_time:
        Simulated time in seconds at which the failure occurred (0.0 for
        DC operating-point failures at ``t = 0``).
    newton_iteration:
        Iteration count of the last Newton solve before giving up.
    gmin_stage:
        Shunt conductance of the gmin-homotopy stage that failed, if the
        failure happened inside the homotopy.
    ladder_rung:
        Name of the escalation-ladder rung that was being attempted when
        the solver finally gave up (``None`` when no ladder ran).
    worst_residual_node:
        Node carrying the largest KCL residual in the last iterate.
    worst_residual:
        That residual's magnitude, amperes.
    last_state:
        Last *accepted* state vector as a ``node -> voltage`` mapping
        (truncated to :data:`MAX_STATE_NODES` entries), usable as an
        initial guess for a follow-up run.
    extra:
        Free-form additional context (step sizes, dispatch counts...).
    """

    circuit: str = ""
    sim_time: float = 0.0
    newton_iteration: Optional[int] = None
    gmin_stage: Optional[float] = None
    ladder_rung: Optional[str] = None
    worst_residual_node: Optional[str] = None
    worst_residual: Optional[float] = None
    last_state: Optional[Dict[str, float]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (``None`` fields omitted)."""
        data: Dict[str, Any] = {"circuit": self.circuit, "sim_time": self.sim_time}
        for name in ("newton_iteration", "gmin_stage", "ladder_rung",
                     "worst_residual_node", "worst_residual"):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        if self.last_state is not None:
            data["last_state"] = dict(self.last_state)
        if self.extra:
            data["extra"] = dict(self.extra)
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SimulationDiagnostics":
        """Rebuild a record from its :meth:`as_dict` form."""
        return SimulationDiagnostics(
            circuit=str(data.get("circuit", "")),
            sim_time=float(data.get("sim_time", 0.0)),
            newton_iteration=data.get("newton_iteration"),
            gmin_stage=data.get("gmin_stage"),
            ladder_rung=data.get("ladder_rung"),
            worst_residual_node=data.get("worst_residual_node"),
            worst_residual=data.get("worst_residual"),
            last_state=data.get("last_state"),
            extra=dict(data.get("extra", {})),
        )

    def describe(self) -> str:
        """Compact one-line rendering for log/exception messages."""
        parts = []
        if self.circuit:
            parts.append(f"circuit={self.circuit!r}")
        parts.append(f"t={self.sim_time:.6e}s")
        if self.newton_iteration is not None:
            parts.append(f"newton_iter={self.newton_iteration}")
        if self.gmin_stage is not None:
            parts.append(f"gmin={self.gmin_stage:.1e}")
        if self.ladder_rung is not None:
            parts.append(f"rung={self.ladder_rung}")
        if self.worst_residual_node is not None:
            residual = (
                f"{self.worst_residual:.3e}A"
                if self.worst_residual is not None else "?"
            )
            parts.append(f"worst_node={self.worst_residual_node}({residual})")
        if self.last_state:
            parts.append(f"last_state={len(self.last_state)} nodes")
        for key, value in self.extra.items():
            parts.append(f"{key}={value}")
        return ", ".join(parts)

    def capture_state(self, node_index: Dict[str, int], vector: Any) -> None:
        """Record ``vector`` (indexable by node index) as the last-good
        state, truncated to :data:`MAX_STATE_NODES` nodes."""
        state: Dict[str, float] = {}
        for name in sorted(node_index):
            if len(state) >= MAX_STATE_NODES:
                break
            state[name] = float(vector[node_index[name]])
        self.last_state = state


class SimulationError(RuntimeError):
    """Base class of every failure raised by the simulation stack.

    Carries a :class:`SimulationDiagnostics` on ``.diagnostics``; the
    string form appends its one-line rendering so plain ``%s`` logging
    already contains the structured context.
    """

    def __init__(
        self,
        message: str = "",
        diagnostics: Optional[SimulationDiagnostics] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.diagnostics = diagnostics or SimulationDiagnostics()

    def __str__(self) -> str:
        detail = self.diagnostics.describe()
        return f"{self.message} [{detail}]" if detail else self.message

    def __reduce__(self):
        return (_rebuild_exception, (self.__class__, self.message, self.__dict__))


def _rebuild_exception(cls, message, state):
    """Unpickling helper restoring diagnostics and subclass attributes."""
    error = cls(message)
    error.__dict__.update(state)
    return error


class ConvergenceError(SimulationError):
    """Newton iteration failed to find a solution (DC or transient).

    Historically ``repro.analog.dcop.ConvergenceError``; that name is an
    alias of this class, and it is still a :class:`RuntimeError`.
    """


class NonFiniteStateError(ConvergenceError):
    """A NaN or Inf appeared in the solution vector.

    Raised by the per-step guards of the transient engine and the DC
    solver instead of letting the garbage propagate through downstream
    waveform analysis.
    """


class StepSizeUnderflowError(ConvergenceError):
    """The transient step size shrank below ``dt_min`` with every
    escalation rung exhausted."""


class WorkerCrashError(SimulationError):
    """A campaign worker process died (segfault, ``os._exit``, OOM kill).

    The campaign executor attributes the crash to a job by re-dispatching
    the in-flight set in isolation; ``.dispatches`` counts how many pools
    the job broke before being declared poison.
    """

    def __init__(
        self,
        message: str = "",
        job: Any = None,
        dispatches: int = 0,
        diagnostics: Optional[SimulationDiagnostics] = None,
    ) -> None:
        super().__init__(message, diagnostics)
        self.job = job
        self.dispatches = dispatches
        self.diagnostics.extra.setdefault("dispatches", dispatches)
        if job is not None:
            self.diagnostics.extra.setdefault("job", repr(job))


class InjectedFaultError(RuntimeError):
    """A deliberately injected infrastructure fault.

    Raised by the fault-injection sites of :mod:`repro.runtime.faults`
    that simulate *environment* failures (journal write errors, result
    publish errors) rather than simulation failures.  Deliberately not a
    :class:`SimulationError`: the components that can encounter the real
    failure (``OSError`` from a full or dying disk) must handle this
    class through exactly the same retry/degradation paths, so chaos
    tests prove the production behaviour, not a special case.
    """


class CampaignCancelledError(RuntimeError):
    """A campaign was cancelled via its ``cancel_event`` before finishing.

    Raised in the *parent* process by :func:`repro.runtime.run_campaign`
    when the caller-supplied :class:`threading.Event` is set mid-dispatch;
    it never crosses a process boundary and is deliberately not a
    :class:`SimulationError` - cancellation must abort the campaign even
    under ``on_error="collect"``.  Every job completed before the event
    fired has already been journalled/cached, so a re-run with
    ``resume=True`` continues where the cancellation struck.
    """

    def __init__(self, message: str = "", completed: int = 0) -> None:
        super().__init__(message)
        self.message = message
        self.completed = completed


#: Exception classes reconstructable from a :class:`JobError` record
#: (class name + message + diagnostics dict).
ERROR_CLASSES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        SimulationError,
        ConvergenceError,
        NonFiniteStateError,
        StepSizeUnderflowError,
        WorkerCrashError,
    )
}


def rebuild_error(
    name: str, message: str, diagnostics: Optional[Dict[str, Any]] = None
) -> SimulationError:
    """Reconstruct a :class:`SimulationError` from its serialised form.

    Unknown class names degrade to the base :class:`SimulationError` (the
    taxonomy may change; old journals must still load).
    """
    cls = ERROR_CLASSES.get(name, SimulationError)
    diag = SimulationDiagnostics.from_dict(diagnostics) if diagnostics else None
    error = cls(message, diagnostics=diag)
    if isinstance(error, WorkerCrashError):
        error.job = None
        error.dispatches = int(error.diagnostics.extra.get("dispatches", 0))
    return error


@dataclass
class JobError:
    """Per-job failure record returned by ``on_error="collect"`` campaigns.

    Plain data: everything a post-mortem needs, nothing that cannot cross
    a process boundary or a JSON file.

    Attributes
    ----------
    index:
        Position of the failed job in the campaign's job list.
    job:
        The job descriptor itself (``None`` if it could not be pickled).
    error:
        Exception class name (``"ConvergenceError"``, ...).
    message:
        The exception message.
    diagnostics:
        The :meth:`SimulationDiagnostics.as_dict` payload.
    wall:
        Wall time spent on the failing evaluation, seconds.
    """

    index: int
    job: Any
    error: str
    message: str
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    wall: float = 0.0

    #: Discriminates from JobResult without isinstance checks.
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Always ``False``; lets callers filter mixed result lists."""
        return False

    def exception(self) -> SimulationError:
        """Materialise the recorded failure as a raisable exception."""
        return rebuild_error(self.error, self.message, self.diagnostics)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the job is rendered via ``repr``)."""
        return {
            "index": self.index,
            "job": repr(self.job) if self.job is not None else None,
            "error": self.error,
            "message": self.message,
            "diagnostics": dict(self.diagnostics),
            "wall_s": self.wall,
        }
