"""Adaptive transient integration with a failure-escalation ladder.

The nodal system is ``C dv/dt + i(v, t) = 0`` on the free nodes, with driven
nodes following their sources exactly.  Two one-step methods are used:

* **backward Euler** for the first step after every source breakpoint (it is
  L-stable, so it damps the artificial ringing a corner would excite in the
  trapezoidal rule);
* **trapezoidal** everywhere else (second order - what SPICE uses).

Step control is the classic predictor/corrector comparison: the accepted
solution is compared against a linear extrapolation of history; the
normalised difference drives growth/shrink of ``h`` and step rejection.

When a step refuses to converge the engine escalates through a
three-rung ladder (:data:`ESCALATION_RUNGS`) instead of dying on the
first symptom:

1. ``"step-halving"`` - shrink ``h`` by 4x down to ``dt_min``;
2. ``"damped-newton"`` - retry the floored step with a heavily damped
   update and an enlarged iteration budget;
3. ``"gmin-restart"`` - solve the floored step through a gmin homotopy
   anchored at the last *accepted* state, stepping the shunt down.

Every accepted step passes a NaN/Inf guard; when the ladder is exhausted
the engine raises :class:`~repro.errors.StepSizeUnderflowError` (or
:class:`~repro.errors.NonFiniteStateError` if the failure was numerical
blow-up) carrying full :class:`~repro.errors.SimulationDiagnostics`.  The
rungs that fired are tallied in :attr:`TransientResult.escalations`, which
the campaign telemetry aggregates.

The engine also records, at every accepted point, the current delivered by
every source node - the IDDQ probe used by the Sec. 3 testability analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analog.compile import (
    DENSE_WARN_NODES,
    CompiledCircuit,
    note_dense_jacobian,
)
from repro.analog.dcop import dc_operating_point
from repro.analog.kernels import (
    KernelStats,
    c_einsum,
    keep_stale,
    newton_accepts,
    raw_inv,
)
from repro.analog.waveform import Waveform
from repro.circuit.netlist import Netlist
from repro.errors import (  # noqa: F401  (ConvergenceError: historical import site)
    ConvergenceError,
    NonFiniteStateError,
    SimulationDiagnostics,
    StepSizeUnderflowError,
)

#: Rungs the transient escalation ladder knows, in escalation order.
ESCALATION_RUNGS = ("step-halving", "damped-newton", "gmin-restart")

#: Cap on floor-level rescues per run: a circuit that needs more than
#: this many ladder interventions is not integrating, it is crawling at
#: ``dt_min``; fail with diagnostics instead of hanging the campaign.
MAX_RESCUES = 50

#: Free-node count at which ``jacobian_policy="auto"`` switches from the
#: dense modified-Newton path to the CSR/SparseLU path: the dense/sparse
#: break-even ``benchmarks/bench_whole_tree.py`` measures
#: (``crossover_free_nodes`` of ``benchmarks/out/BENCH_whole_tree.json``,
#: a power law fitted to the wall-time speedup of whole H-trees and
#: grids from 43 to 185 free nodes).  Up to 67 free nodes the two paths
#: lie within 14 % of each other either way; from 79 up sparse wins every
#: recorded case, a 2-level H-tree (125) by 2.6x.
SPARSE_AUTO_NODES = 58


def resolve_jacobian_policy(
    circuit: Any, options: "TransientOptions"
) -> Tuple[str, bool]:
    """``(backend, reuse)`` of a run under ``options.jacobian_policy``.

    ``backend`` is ``"dense"`` (cached Jacobian inverse) or ``"sparse"``
    (CSR + ``SparseLU``); ``reuse`` enables the modified-Newton factor
    cache, which only an explicit ``"dense"`` policy turns off.
    ``"auto"`` picks the sparse backend from :data:`SPARSE_AUTO_NODES`
    free nodes up; without scipy both run the dense backend.  A lockstep
    stack has no sparse backend and takes only ``reuse``, so there
    ``"sparse"`` and ``"auto"`` run the batched dense inverse with reuse -
    the decisions the scalar engine takes on sensor-sized circuits.
    """
    policy = options.jacobian_policy
    reuse = policy != "dense"
    if policy == "sparse" or (
        policy == "auto" and circuit.n_free >= SPARSE_AUTO_NODES
    ):
        from repro.sparse.linalg import scipy_available

        if scipy_available():
            return "sparse", reuse
    return "dense", reuse


@dataclass(frozen=True)
class TransientOptions:
    """Knobs of the transient engine.

    Attributes
    ----------
    dt_max:
        Hard cap on the step size, seconds.
    dt_min:
        Floor below which the engine escalates instead of shrinking
        further, seconds.
    dt_start:
        Step used right after ``t0`` and after every breakpoint.
    reltol, vabstol:
        Local-error normalisation: the error weight per node is
        ``reltol * |v| + vabstol``.
    max_newton:
        Newton iteration cap per step; non-convergence rejects the step.
    vntol:
        Newton update convergence threshold, volts.
    lte_reject:
        Normalised local error above which a step is rejected outright.
    jacobian_policy:
        ``"reuse"`` (default) enables the modified-Newton factorization
        cache: a stale Jacobian inverse is reapplied while the update
        norm keeps contracting (refactoring on slowdown), and
        convergence is accepted on stale iterations too - the
        contraction guard bounds the distance to the full-Newton fixed
        point by a fraction of ``vntol``, far below the local-error
        tolerances.  ``"dense"`` factors on every iteration - the
        reference behaviour the golden-waveform tests compare against.
        ``"sparse"`` routes the whole run - operating point, plain
        solves *and* rescue rungs - through the CSR/``SparseLU`` backend
        of :mod:`repro.sparse` with the same modified-Newton reuse
        policy; ``"auto"`` picks ``"sparse"`` when the circuit has at
        least :data:`SPARSE_AUTO_NODES` free nodes and ``"reuse"``
        otherwise; without scipy both run as ``"reuse"``.  Rescue rungs
        never reuse a factorization (they run damped or shunted systems)
        but use the run's backend.  See :func:`resolve_jacobian_policy`;
        lockstep stacks resolve ``"sparse"`` and ``"auto"`` to
        ``"reuse"``.
    """

    dt_max: float = 100e-12
    dt_min: float = 1e-18
    dt_start: float = 1e-13
    reltol: float = 2e-3
    vabstol: float = 1e-4
    max_newton: int = 50
    vntol: float = 1e-7
    lte_reject: float = 4.0
    jacobian_policy: str = "reuse"

    def __post_init__(self) -> None:
        if not 0 < self.dt_min <= self.dt_start <= self.dt_max:
            raise ValueError(
                "need 0 < dt_min <= dt_start <= dt_max "
                f"(got {self.dt_min}, {self.dt_start}, {self.dt_max})"
            )
        if self.reltol <= 0 or self.vabstol <= 0 or self.vntol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_newton < 2:
            raise ValueError("max_newton must be at least 2")
        if self.lte_reject <= 1.0:
            raise ValueError("lte_reject must exceed 1")
        if self.jacobian_policy not in ("reuse", "dense", "sparse", "auto"):
            raise ValueError(
                f"unknown jacobian_policy {self.jacobian_policy!r} "
                "(use 'reuse', 'dense', 'sparse' or 'auto')"
            )


#: The fast options of the CLI, the service specs, the whole-tree runs
#: and the benches.  On the Fig.-4 grid their ``Vmin`` lies within
#: 1.83 mV of a ``dt_max`` = 2 ps, ``reltol`` = 1e-3 reference.
FAST_OPTIONS = TransientOptions(dt_max=200e-12, reltol=5e-3)


@dataclass
class TransientCheckpoint:
    """Pure solver state of a transient at one accepted grid point.

    Captures exactly what the integration loop needs to continue from an
    accepted point ``t``: the full state vector there, plus the previous
    accepted point ``(t_prev, state_prev)`` that feeds the linear
    predictor.  Restarting from a checkpoint uses the engine's
    backward-Euler-after-breakpoint rule (``h = dt_start``, BE first
    step), so a resumed run walks the same grid a cold run would walk
    after a breakpoint at ``t`` - that is what makes a forked suffix a
    legal grid continuation (see ``tests/test_prefix_warm.py``).

    The record is RNG-free and engine-version-agnostic by construction;
    ``nodes`` (the node names in compiled order) is the legality guard a
    resume checks against the circuit it is applied to.  Instances
    pickle directly and round-trip bit-exactly through JSON via
    :meth:`to_payload` / :meth:`from_payload` (``json`` renders floats
    with ``repr``, which is exact).
    """

    t: float
    t_prev: float
    state: np.ndarray
    state_prev: np.ndarray
    nodes: Tuple[str, ...]

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable form (floats survive bit-exactly)."""
        return {
            "t": self.t,
            "t_prev": self.t_prev,
            "state": [float(x) for x in self.state],
            "state_prev": [float(x) for x in self.state_prev],
            "nodes": list(self.nodes),
        }

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "TransientCheckpoint":
        """Rebuild a checkpoint from its :meth:`to_payload` dict."""
        return TransientCheckpoint(
            t=float(payload["t"]),
            t_prev=float(payload["t_prev"]),
            state=np.asarray(payload["state"], dtype=float),
            state_prev=np.asarray(payload["state_prev"], dtype=float),
            nodes=tuple(str(n) for n in payload["nodes"]),
        )


def _node_order(circuit: Any) -> Tuple[str, ...]:
    """Node names of ``circuit`` (or a stack) in state-vector order."""
    return tuple(sorted(circuit.node_index, key=circuit.node_index.get))


def check_window(
    circuit: Any,
    record: Optional[Iterable[str]],
    resume_from: Optional[TransientCheckpoint],
    t_start: float,
    t_stop: float,
) -> Tuple[List[str], float]:
    """Validate a run's recorded nodes and resume checkpoint against
    ``circuit`` (a compiled circuit or stack); return ``(record,
    t_start)``, the start taken from the checkpoint when resuming."""
    record = list(record) if record is not None else sorted(circuit.node_index)
    for node in record:
        if node not in circuit.node_index:
            raise KeyError(f"cannot record unknown node {node!r}")
    if resume_from is not None:
        order = _node_order(circuit)
        if resume_from.nodes != order:
            raise ValueError(
                "checkpoint node order does not match circuit "
                f"(checkpoint {resume_from.nodes}, circuit {order})"
            )
        t_start = resume_from.t
    if t_stop <= t_start:
        raise ValueError(f"need t_stop > t_start (got {t_start} .. {t_stop})")
    return record, t_start


@dataclass
class TransientResult:
    """Waveforms of a transient run.

    ``escalations`` tallies solver-ladder events that fired during the
    run: per-rung counts (``"step-halving"``, ``"damped-newton"``,
    ``"gmin-restart"``) plus which DC operating-point rung succeeded
    (``"dcop:direct"`` / ``"dcop:gmin"`` / ``"dcop:source-stepping"``).
    An empty dict beyond the ``dcop:*`` entry means the integration never
    needed rescuing.

    ``kernel_stats`` is the hot-loop observability record of the run
    (:meth:`repro.analog.kernels.KernelStats.as_dict`): per-phase wall
    times and the modified-Newton ``jacobian_reuses`` /
    ``refactorizations`` tallies the campaign telemetry aggregates.
    """

    times: np.ndarray
    voltages: Dict[str, np.ndarray]
    source_currents: Dict[str, np.ndarray] = field(default_factory=dict)
    escalations: Dict[str, int] = field(default_factory=dict)
    kernel_stats: Dict[str, float] = field(default_factory=dict)
    #: Solver state captured at ``checkpoint_at`` (None unless requested).
    checkpoint: Optional[TransientCheckpoint] = None

    def wave(self, node: str) -> Waveform:
        """Voltage waveform of ``node``."""
        if node not in self.voltages:
            raise KeyError(f"node {node!r} was not recorded")
        return Waveform(times=self.times, values=self.voltages[node], name=node)

    def source_current(self, node: str) -> Waveform:
        """Current delivered *by* the source driving ``node`` (amperes).

        Positive values mean the source pushes current into the circuit.
        This is the IDDQ observable when applied to the VDD node in a
        quiescent interval.
        """
        if node not in self.source_currents:
            raise KeyError(f"source current for {node!r} was not recorded")
        return Waveform(
            times=self.times, values=self.source_currents[node], name=f"i({node})"
        )

    def delivered_charge(
        self, node: str, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> float:
        """Charge the source on ``node`` delivered over ``[t0, t1]``,
        coulombs (trapezoidal integral of the recorded current)."""
        wave = self.source_current(node)
        t0 = wave.t_start if t0 is None else t0
        t1 = wave.t_stop if t1 is None else t1
        window = wave.slice(t0, t1)
        return float(np.trapezoid(window.values, window.times))

    def delivered_energy(
        self,
        node: str,
        supply_voltage: float,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> float:
        """Energy drawn from a DC supply on ``node`` over ``[t0, t1]``,
        joules (``V * integral of i dt``; valid for constant-voltage
        rails, which is what VDD is here)."""
        return supply_voltage * self.delivered_charge(node, t0, t1)

    def __len__(self) -> int:
        return len(self.times)


class StepControl:
    """The step-control law of the scalar and the lockstep loop.

    Breakpoint schedule and walk, linear predictor, local-error norm,
    rejection and growth are written once here.  :func:`transient`
    steps one circuit with one instance;
    :func:`repro.batch.engine.batch_transient` gives every row of a
    stack its own instance over that row's circuit and window, calls
    the scalar methods per row, and runs :meth:`predict_into` and
    :meth:`lte` once over the ``(B, n)`` stack - so every row walks
    its scalar grid by construction.
    """

    def __init__(self, options: "TransientOptions", circuit: Any,
                 t_start: float, t_stop: float,
                 extra: Iterable[float] = ()) -> None:
        # Landing points: the source corners after ``t_start``, the
        # horizon and any ``extra`` times (a checkpoint).
        points = {b for b in circuit.breakpoints(t_start, t_stop) if b > t_start}
        points.add(t_stop)
        points.update(extra)
        self.options = options
        self.points = sorted(points)
        self.t_stop = t_stop
        # Time comparison tolerance: a few ULPs at the horizon's magnitude.
        self.eps_t = 64.0 * np.spacing(max(abs(t_stop), abs(t_start), 1e-12))
        self._next = 0

    def running(self, t: float) -> bool:
        """Whether the horizon still lies ahead of ``t``."""
        return t < self.t_stop - self.eps_t

    def clip(self, t: float, h: float) -> Tuple[float, bool]:
        """``(h, hit_bp)``: the proposed step clipped to ``dt_max``, the
        horizon and the next breakpoint, which it then lands on exactly."""
        points, eps_t = self.points, self.eps_t
        while self._next < len(points) and points[self._next] <= t + eps_t:
            self._next += 1
        next_bp = points[self._next] if self._next < len(points) else self.t_stop
        h = min(h, self.options.dt_max, self.t_stop - t)
        if t + h >= next_bp - eps_t:
            return next_bp - t, True
        return h, False

    def can_halve(self, h: float) -> bool:
        """Whether the step-halving rung may shrink ``h`` once more."""
        options = self.options
        return h * 0.25 >= options.dt_min

    @staticmethod
    def predict_into(v: np.ndarray, v_prev: np.ndarray, t: Any,
                     t_prev: Any, h: Any, out: np.ndarray) -> np.ndarray:
        """Linear extrapolation of the last two accepted points to
        ``t + h`` (same rounding order as ``v + slope * h``); a state
        without history (``t == t_prev``) predicts itself.  A stack
        passes ``(B,)`` arrays of per-row ``t``, ``t_prev`` and ``h``
        with ``(B, n)`` states, and each row takes the scalar
        arithmetic."""
        if isinstance(t, np.ndarray):
            ahead = t > t_prev
            np.subtract(v, v_prev, out=out)
            out /= np.where(ahead, t - t_prev, 1.0)[:, None]
            out *= h[:, None]
            out += v
            np.copyto(out, v, where=~ahead[:, None])
            return out
        if t > t_prev:
            np.subtract(v, v_prev, out=out)
            out /= t - t_prev
            out *= h
            out += v
        else:
            np.copyto(out, v)
        return out

    def lte(self, v_new: np.ndarray, v_pred: np.ndarray, weight: np.ndarray,
            err: np.ndarray, out: Optional[np.ndarray] = None) -> Any:
        """Normalised local error: the worst free node of each state,
        weighted by ``reltol * max(|v|, 1) + vabstol``, computed in the
        ``weight``/``err`` scratch (one row per sample for a stack)."""
        options = self.options
        n_free = weight.shape[-1]
        np.abs(v_new[..., :n_free], out=weight)
        np.maximum(weight, 1.0, out=weight)
        weight *= options.reltol
        weight += options.vabstol
        np.subtract(v_new[..., :n_free], v_pred[..., :n_free], out=err)
        np.abs(err, out=err)
        err /= weight
        return np.maximum.reduce(err, axis=-1, out=out, initial=0.0)

    def rejects(self, err: float, h: float, hit_bp: bool) -> bool:
        """Whether the local error rejects the step (shrink ``h`` 0.4x)."""
        options = self.options
        return err > options.lte_reject and not hit_bp and h > 4 * options.dt_min

    def advance(self, h: float, err: float, restart: bool) -> Tuple[float, bool]:
        """``(h, force_be)`` after an accepted step: a breakpoint or a
        rescue restarts at ``dt_start`` with backward Euler, otherwise
        the error drives growth clipped to ``[0.4, 2]``."""
        if restart:
            return self.options.dt_start, True
        grow = 0.9 * (1.0 / max(err, 1e-12)) ** (1.0 / 3.0)
        return h * float(min(max(grow, 0.4), 2.0)), False


class DenseBackend:
    """Dense linear algebra of the Newton loop: a cached ``raw_inv``
    inverse of ``alpha * J_ff + C/h``.

    Every product is a ``c_einsum`` so the bits match the lockstep
    engine's ``bij,bj->bi`` forms (BLAS matmul accumulates differently)
    - except :meth:`probe_charge`, the recorded-current probe, which has
    always been a matmul.  :class:`repro.sparse.newton.SparseBackend` is
    the CSR implementation of the same surface.
    """

    def __init__(self, circuit: CompiledCircuit) -> None:
        n, nf = circuit.n_total, circuit.n_free
        self.circuit = circuit
        self.kernel = circuit.kernel()
        self.stats = KernelStats()
        self.jac = np.empty((nf, nf))
        self.j_inv = np.empty((nf, nf))
        self.c_rows = circuit.C[:nf, :]
        self.c_over_h = np.empty((nf, n))
        self.h_scaled: Optional[float] = None

    def scale(self, h: float) -> None:
        """Refresh ``C[:n_free, :] / h`` when ``h`` changes."""
        if self.h_scaled != h:
            np.multiply(self.c_rows, 1.0 / h, out=self.c_over_h)
            self.h_scaled = h

    def scaled_charge(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The residual's ``(C/h) @ v`` term on the free rows."""
        return c_einsum("ij,j->i", self.c_over_h, v, out=out)

    def factor(self, j: np.ndarray, alpha: float, shunt: float) -> None:
        """Invert ``alpha * J_ff + C_ff/h (+ shunt * I)``.  A singular
        matrix yields a NaN inverse (see ``kernels.raw_inv``), which the
        Newton loop's non-finite step guard turns into a rejection."""
        jac = self.jac
        nf = jac.shape[0]
        np.multiply(j[:nf, :nf], alpha, out=jac)
        jac += self.c_over_h[:, :nf]
        if shunt:
            jac.reshape(-1)[:: nf + 1] += shunt
        raw_inv(jac, out=self.j_inv)

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Apply the last factorization to ``rhs``."""
        return c_einsum("ij,j->i", self.j_inv, rhs, out=out)

    def charge_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``C @ v`` (full length) for the outer loop's charge history."""
        return c_einsum("ij,j->i", self.circuit.C, v, out=out)

    def probe_charge(self, v: np.ndarray) -> np.ndarray:
        """``C @ v`` for the recorded source currents (fresh array)."""
        return self.circuit.C @ v

    def dcop_solver(self) -> None:
        """Operating-point hook: ``None`` keeps the dense ladder."""
        return None

    def kernel_stats(self) -> Dict[str, Any]:
        """The run's counter snapshot."""
        return self.stats.as_dict()


class _NewtonWork:
    """Per-run scratch of the Newton loop.

    Owns the reusable iterate/residual buffers (the hot loop allocates
    nothing per iteration beyond what the backend returns), the
    modified-Newton reuse state - a factorization keyed on the
    ``(h, alpha)`` system scaling that persists *across* time steps, so
    ``dt_max``-clamped stretches reuse one factorization for many steps -
    and the linear-algebra backend :func:`resolve_jacobian_policy` picks,
    whose kernel and :class:`~repro.analog.kernels.KernelStats` the
    engine shares.
    """

    def __init__(self, circuit: CompiledCircuit, options: TransientOptions) -> None:
        n, nf = circuit.n_total, circuit.n_free
        self.backend, self.reuse = resolve_jacobian_policy(circuit, options)
        if self.backend == "sparse":
            from repro.sparse.newton import SparseBackend

            self.lin = SparseBackend(circuit)
        else:
            self.lin = DenseBackend(circuit)
        self.kernel, self.stats = self.lin.kernel, self.lin.stats
        self.v = np.empty(n)
        self.qh = np.empty(nf)        # (C_rows / h) @ v scratch
        self.rhs0 = np.empty(nf)      # iteration-invariant residual part
        self.residual = np.empty(nf)  # holds the *negated* residual
        self.delta = np.empty(nf)
        self.tmp = np.empty(nf)
        self.abs_buf = np.empty(nf)
        self.valid = False
        self.key: Optional[Tuple[float, float]] = None
        self.info: Dict[str, object] = {
            "iterations": 0, "worst_index": None,
            "worst_residual": None, "nonfinite": False,
        }

    def note_worst(self, n_free: int, iterations: int) -> Dict[str, object]:
        """Record the worst-residual observation of the last iterate
        (deferred to return time: the argmax is failure diagnostics, not
        hot-loop work)."""
        self.info["iterations"] = iterations
        if n_free and iterations:
            worst = int(np.argmax(np.abs(self.residual)))
            self.info["worst_index"] = worst
            self.info["worst_residual"] = float(abs(self.residual[worst]))
        return self.info


def _newton_step(
    circuit: CompiledCircuit,
    v_guess: np.ndarray,
    v_sources: np.ndarray,
    q_prev: np.ndarray,
    f_prev: Optional[np.ndarray],
    h: float,
    alpha: float,
    options: TransientOptions,
    damping: float = 1.0,
    max_iter: Optional[int] = None,
    shunt: float = 0.0,
    shunt_target: Optional[np.ndarray] = None,
    work: Optional[_NewtonWork] = None,
) -> Tuple[Optional[np.ndarray], Dict[str, object]]:
    """Solve one implicit step; ``alpha = 1`` is BE, ``0.5`` trapezoidal.

    Residual on free nodes:
    ``(q(v) - q_prev) / h + alpha * f(v) + (1 - alpha) * f_prev
    + shunt * (v - shunt_target) = 0``.

    ``damping`` caps the per-iteration update magnitude (1.0 is the
    normal clip; the ladder's damped rung passes 0.1), and a non-zero
    ``shunt`` adds the gmin-restart homotopy term.  Returns
    ``(solution, info)`` where ``info`` carries the iteration count, the
    worst-residual observation and a ``nonfinite`` flag - the raw
    material of failure diagnostics.  This is the only scalar Newton
    iteration: the dense and the sparse backend differ only in
    ``work.lin``.

    Modified-Newton policy (every policy but ``"dense"``, see
    :func:`resolve_jacobian_policy`; only in plain solves - damped and
    shunted rescue solves always refactor): while a cached factorization
    for the same ``(h, alpha)`` scaling exists, each iteration first
    reapplies it and keeps the stale update by
    :func:`~repro.analog.kernels.keep_stale`, otherwise the Jacobian is
    refactored on the spot.  Convergence
    (:func:`~repro.analog.kernels.newton_accepts`) is accepted on stale
    iterations too: the contraction guard bounds the distance to the
    full-Newton fixed point by ``REUSE_SLOWDOWN * vntol`` - far inside
    the local-error tolerances, so waveforms stay within solver noise of
    the dense path (the golden-waveform tests pin this at the microvolt
    level).
    """
    n_free = circuit.n_free
    if work is None:
        work = _NewtonWork(circuit, options)
    kernel, stats, lin = work.kernel, work.stats, work.lin
    v = work.v
    np.copyto(v, v_guess)
    v[n_free:] = v_sources[n_free:]
    iters = max_iter if max_iter is not None else options.max_newton
    info = work.info
    info["iterations"] = 0
    info["worst_index"] = None
    info["worst_residual"] = None
    info["nonfinite"] = False

    modified = work.reuse and damping == 1.0 and shunt == 0.0
    if not (modified and work.valid and work.key == (h, alpha)):
        work.valid = False  # never reuse across a system-scaling change
    anchor = None
    if shunt:
        anchor = shunt_target if shunt_target is not None else v_guess
    neg_res, delta, tmp = work.residual, work.delta, work.tmp
    abs_buf, qh = work.abs_buf, work.qh
    max_reduce = np.maximum.reduce  # skips the ndarray.max wrapper chain
    is_be = alpha == 1.0
    lin.scale(h)
    # Iteration-invariant part of the negated residual:
    # ``q_prev / h - (1 - alpha) * f_prev``.
    rhs0 = work.rhs0
    np.multiply(q_prev[:n_free], 1.0 / h, out=rhs0)
    if f_prev is not None:
        np.multiply(f_prev[:n_free], 1.0 - alpha, out=tmp)
        rhs0 -= tmp
    step_prev = np.inf
    step = 0.0
    vntol = options.vntol
    can_predict = damping == 1.0
    # Hot-loop counters accumulate in locals; flushed in ``finally``.
    n_iters = n_assembles = n_factor = n_refactor = n_reuse = 0
    assemble_acc = factor_acc = solve_acc = 0.0

    try:
        for iteration in range(iters):
            try_stale = modified and work.valid
            t0 = perf_counter()
            f, j = kernel.eval(v, with_jacobian=not try_stale)
            n_iters += 1
            n_assembles += 1
            # Negated residual: rhs0 - (C/h) @ v - alpha * f(v).
            np.subtract(rhs0, lin.scaled_charge(v, qh), out=neg_res)
            if is_be:
                neg_res -= f[:n_free]
            else:
                np.multiply(f[:n_free], alpha, out=tmp)
                neg_res -= tmp
            if shunt:
                np.subtract(v[:n_free], anchor[:n_free], out=tmp)
                tmp *= shunt
                neg_res -= tmp
            assemble_acc += perf_counter() - t0

            fresh = not try_stale
            if try_stale:
                t0 = perf_counter()
                lin.solve(neg_res, delta)
                np.abs(delta, out=abs_buf)
                step = max_reduce(abs_buf) if n_free else 0.0
                solve_acc += perf_counter() - t0
                if keep_stale(step, step_prev):
                    n_reuse += 1
                else:
                    t0 = perf_counter()
                    f, j = kernel.eval(v, with_jacobian=True)
                    n_assembles += 1
                    assemble_acc += perf_counter() - t0
                    n_refactor += 1
                    fresh = True

            if fresh:
                t0 = perf_counter()
                lin.factor(j, alpha, shunt)
                n_factor += 1
                work.valid = modified
                work.key = (h, alpha)
                factor_acc += perf_counter() - t0
                t0 = perf_counter()
                lin.solve(neg_res, delta)
                np.abs(delta, out=abs_buf)
                step = max_reduce(abs_buf) if n_free else 0.0
                solve_acc += perf_counter() - t0

            if not step < np.inf:  # catches NaN and +inf in one comparison
                info["nonfinite"] = True
                work.valid = False
                return None, work.note_worst(n_free, n_iters)
            if step > damping:
                delta *= damping / step
            v[:n_free] += delta
            if newton_accepts(step, step_prev, vntol,
                              can_predict and iteration > 0):
                return v.copy(), info
            step_prev = step
        return None, work.note_worst(n_free, n_iters)
    finally:
        info["iterations"] = n_iters
        stats.newton_iterations += n_iters
        stats.assembles += n_assembles
        stats.factorizations += n_factor
        stats.refactorizations += n_refactor
        stats.jacobian_reuses += n_reuse
        stats.assemble_s += assemble_acc
        stats.factor_s += factor_acc
        stats.solve_s += solve_acc


def _rescue_step(
    circuit: CompiledCircuit,
    v_accepted: np.ndarray,
    v_sources: np.ndarray,
    q_prev: np.ndarray,
    h: float,
    options: TransientOptions,
    work: Optional[_NewtonWork] = None,
) -> Tuple[Optional[np.ndarray], Dict[str, object], Optional[str]]:
    """Escalation rungs beyond step-halving, tried at the step floor.

    Both rungs restart from the last *accepted* state (not the failed
    predictor) and use backward Euler (L-stable), per the ladder design:

    * ``damped-newton`` - update magnitude capped at 0.1 V with a 4x
      iteration budget;
    * ``gmin-restart`` - a shunt homotopy anchored at the accepted state,
      stepped from 1e-1 S down to 1e-12 S, then a clean confirming solve.

    Returns ``(solution, info, rung)`` - the rung that succeeded, or the
    info of the deepest failure for diagnostics.
    """
    solution, info = _newton_step(
        circuit, v_accepted.copy(), v_sources, q_prev, None, h, 1.0,
        options, damping=0.1, max_iter=4 * options.max_newton, work=work,
    )
    if solution is not None:
        return solution, info, "damped-newton"
    guess = v_accepted.copy()
    for exponent in (1, 3, 6, 9, 12):
        shunt = 10.0 ** (-exponent)
        attempt, info = _newton_step(
            circuit, guess, v_sources, q_prev, None, h, 1.0,
            options, max_iter=4 * options.max_newton,
            shunt=shunt, shunt_target=v_accepted, work=work,
        )
        if attempt is None:
            return None, info, None
        guess = attempt
    solution, info = _newton_step(
        circuit, guess, v_sources, q_prev, None, h, 1.0,
        options, max_iter=4 * options.max_newton, work=work,
    )
    if solution is not None:
        return solution, info, "gmin-restart"
    return None, info, None


def transient(
    netlist: Netlist,
    t_stop: float,
    t_start: float = 0.0,
    record: Optional[Iterable[str]] = None,
    record_currents: Optional[Iterable[str]] = None,
    initial: Optional[Dict[str, float]] = None,
    options: Optional[TransientOptions] = None,
    compiled: Optional[CompiledCircuit] = None,
    resume_from: Optional[TransientCheckpoint] = None,
    checkpoint_at: Optional[float] = None,
) -> TransientResult:
    """Integrate ``netlist`` from ``t_start`` to ``t_stop``.

    Parameters
    ----------
    netlist:
        Circuit to simulate (ignored when ``compiled`` is given).
    record:
        Node names whose voltages to keep; defaults to every node.
    record_currents:
        Driven nodes whose delivered source current to keep.
    initial:
        Initial-guess voltages per node, passed to the operating-point
        solve (useful to select a state of a bistable circuit).
    options:
        Engine knobs; see :class:`TransientOptions`.
    compiled:
        Reuse an already compiled circuit (Monte Carlo sweeps re-simulate
        the same topology with different stimuli).
    resume_from:
        Warm-start the run from a :class:`TransientCheckpoint` instead of
        solving the operating point: ``t_start`` is taken from the
        checkpoint and the first step uses the backward-Euler-after-
        breakpoint rule, so the resumed grid is bit-identical to the tail
        of a cold run that had a breakpoint at the checkpoint time.  The
        checkpoint's node order must match the circuit.  Note the first
        recorded source-current sample of a resumed run is static-only
        (the charge history before the checkpoint is not carried).
    checkpoint_at:
        Capture solver state at this time (inserted as a breakpoint so
        the grid lands on it exactly); the snapshot is returned as
        ``result.checkpoint``.  Must satisfy ``t_start < checkpoint_at
        <= t_stop``.

    Raises
    ------
    StepSizeUnderflowError
        A step refused to converge with the whole escalation ladder
        exhausted; diagnostics carry the circuit name, simulated time,
        Newton iteration, worst-residual node and last accepted state.
    NonFiniteStateError
        The failure was a NaN/Inf in the iterate rather than plain
        non-convergence.
    """
    options = options or TransientOptions()
    circuit = compiled or CompiledCircuit.compile(netlist)
    n_free = circuit.n_free

    record, t_start = check_window(circuit, record, resume_from, t_start, t_stop)
    current_nodes = list(record_currents or [])
    for node in current_nodes:
        if node not in circuit.netlist.sources:
            raise KeyError(f"cannot record source current of undriven node {node!r}")
    if checkpoint_at is not None and not t_start < checkpoint_at <= t_stop:
        raise ValueError(
            f"checkpoint_at must lie in (t_start, t_stop] "
            f"(got {checkpoint_at} for {t_start} .. {t_stop})"
        )

    escalations: Dict[str, int] = {}
    work = _NewtonWork(circuit, options)
    if work.backend == "dense" and n_free > DENSE_WARN_NODES:
        # A dense backend at this size allocates O(n^2) Jacobian
        # buffers and refactors at O(n^3); warn loudly (once) and leave
        # a trail in the escalation tallies.
        note_dense_jacobian(n_free, options.jacobian_policy)
        escalations["dense-jacobian-large-n"] = 1
    if resume_from is not None:
        v = resume_from.state.copy()
    else:
        dcop_stats: Dict[str, object] = {}
        v = dc_operating_point(
            circuit, t=t_start, initial=initial, stats=dcop_stats,
            solver=work.lin.dcop_solver(),
        )
        if "dcop_rung" in dcop_stats:
            escalations[f"dcop:{dcop_stats['dcop_rung']}"] = 1

    def _fail(kind: type, reason: str, h: float, step_info: Dict[str, object],
              rung: Optional[str]) -> None:
        worst_index = step_info.get("worst_index")
        worst_name = None
        if worst_index is not None:
            for name, i in circuit.node_index.items():
                if i == worst_index:
                    worst_name = name
                    break
        diagnostics = SimulationDiagnostics(
            circuit=circuit.netlist.name,
            sim_time=t,
            newton_iteration=step_info.get("iterations"),
            ladder_rung=rung,
            worst_residual_node=worst_name,
            worst_residual=step_info.get("worst_residual"),
            extra={"h": h, "reason": reason},
        )
        diagnostics.capture_state(circuit.node_index, v)
        raise kind(
            f"{reason} at t = {t:.3e} s in {circuit.netlist.name!r}",
            diagnostics=diagnostics,
        )

    kernel, stats, lin = work.kernel, work.stats, work.lin

    times: List[float] = [t_start]
    states: List[np.ndarray] = [v.copy()]
    currents: List[np.ndarray] = []
    if current_nodes:
        f_now, _ = kernel.eval(v, with_jacobian=False, stats=stats)
        currents.append(f_now.copy())

    t = t_start
    h = options.dt_start
    control = StepControl(
        options, circuit, t_start, t_stop,
        extra=() if checkpoint_at is None else (checkpoint_at,),
    )
    force_be = True  # first step after t0 behaves like after a breakpoint
    if resume_from is not None:
        # Restore the predictor history; h/force_be above already match
        # the post-breakpoint restart of a cold run, so from here on the
        # loop walks the exact grid the cold run would have walked.
        v_prev = resume_from.state_prev.copy()
        t_prev = resume_from.t_prev
    else:
        v_prev = v.copy()
        t_prev = t
    checkpoint: Optional[TransientCheckpoint] = None

    # Reusable step buffers: sources, predictor, charge history and the
    # LTE weight/error scratch - the outer loop allocates only the
    # accepted states it records.
    n_total = circuit.n_total
    v_sources = np.zeros(n_total)
    circuit.source_voltages_into(t_start, v_sources)  # constants written once
    v_pred = np.empty(n_total)
    q_prev = np.empty(n_total)
    weight = np.empty(n_free)
    err_buf = np.empty(n_free)

    while control.running(t):
        h, hit_bp = control.clip(t, h)
        if h < options.dt_min:
            _fail(StepSizeUnderflowError, "step size underflow", h, {}, None)

        t_new = t + h
        circuit.source_voltages_into(t_new, v_sources, dynamic_only=True)
        control.predict_into(v, v_prev, t, t_prev, h, v_pred)

        alpha = 1.0 if force_be else 0.5
        f_hist = None
        if not force_be:
            f_hist, _ = kernel.eval(v, with_jacobian=False, stats=stats)
        lin.charge_into(v, q_prev)

        rescued = False
        v_new, step_info = _newton_step(
            circuit, v_pred, v_sources, q_prev, f_hist, h, alpha, options,
            work=work,
        )
        if v_new is not None and not np.isfinite(v_new).all():
            step_info["nonfinite"] = True
            v_new = None
        if v_new is None:
            # Rung 1: step-halving down to the floor.
            if control.can_halve(h):
                escalations["step-halving"] = escalations.get("step-halving", 0) + 1
                h *= 0.25
                force_be = True
                continue
            # Floor reached: damped Newton, then gmin-restart, from the
            # last accepted state.
            nonfinite = bool(step_info.get("nonfinite"))
            rescues_used = sum(
                count for name, count in escalations.items()
                if name in ("damped-newton", "gmin-restart")
            )
            if rescues_used >= MAX_RESCUES:
                _fail(
                    StepSizeUnderflowError,
                    f"escalation budget exhausted ({MAX_RESCUES} rescues)",
                    h, step_info, ESCALATION_RUNGS[-1],
                )
            v_new, rescue_info, rung = _rescue_step(
                circuit, v, v_sources, q_prev, h, options, work=work
            )
            if v_new is not None and not np.isfinite(v_new).all():
                rescue_info["nonfinite"] = True
                v_new = None
            if v_new is None:
                nonfinite = nonfinite or bool(rescue_info.get("nonfinite"))
                _fail(
                    NonFiniteStateError if nonfinite else StepSizeUnderflowError,
                    "non-finite state" if nonfinite else "step size underflow",
                    h,
                    rescue_info or step_info,
                    ESCALATION_RUNGS[-1],
                )
            escalations[rung] = escalations.get(rung, 0) + 1
            rescued = True

        t_accept = perf_counter()
        err = control.lte(v_new, v_pred, weight, err_buf)
        if not rescued and control.rejects(err, h, hit_bp):
            h *= 0.4
            stats.accept_s += perf_counter() - t_accept
            continue

        # Finiteness was already guarded right after the solve above.
        v_prev, t_prev = v, t
        v, t = v_new, t_new
        times.append(t)
        states.append(v)  # _newton_step returned a fresh copy
        if (
            checkpoint_at is not None
            and checkpoint is None
            and abs(t - checkpoint_at) <= control.eps_t
        ):
            checkpoint = TransientCheckpoint(
                t=t, t_prev=t_prev, state=v.copy(), state_prev=v_prev.copy(),
                nodes=_node_order(circuit),
            )
        if current_nodes:
            f_now, _ = kernel.eval(v, with_jacobian=False, stats=stats)
            currents.append(f_now + (lin.probe_charge(v) - q_prev) / h)
        h, force_be = control.advance(h, err, hit_bp or rescued)
        stats.accept_s += perf_counter() - t_accept

    if checkpoint_at is not None and checkpoint is None:
        raise RuntimeError(
            f"transient never landed on checkpoint_at = {checkpoint_at!r} "
            "(breakpoint insertion failed - this is a bug)"
        )

    time_array = np.asarray(times)
    state_array = np.asarray(states)
    voltages = {
        node: state_array[:, circuit.node_index[node]].copy() for node in record
    }
    source_currents: Dict[str, np.ndarray] = {}
    if current_nodes:
        current_array = np.asarray(currents)
        for node in current_nodes:
            source_currents[node] = current_array[:, circuit.node_index[node]].copy()
    return TransientResult(
        times=time_array, voltages=voltages, source_currents=source_currents,
        escalations=escalations, kernel_stats=lin.kernel_stats(),
        checkpoint=checkpoint,
    )
