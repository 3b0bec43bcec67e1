"""Lockstep transient integration of a stacked circuit batch.

:func:`batch_transient` advances every sample of a
:class:`~repro.batch.compile.BatchCompiledCircuit` along *one shared
time axis*: the step size ``h``, breakpoint schedule and BE/trapezoidal
switching are common to the batch, while Newton convergence, local
truncation error and liveness are tracked per sample.

Mask semantics
--------------
Three per-sample masks drive the loop:

* ``alive`` - samples still integrated in lockstep.  Dead samples keep
  their last accepted state frozen (their recorded waveform stops being
  meaningful at the time of death) and are excluded from every residual,
  error and growth computation.
* ``converged`` (inside the Newton solve) - samples the shared accept
  rule (:func:`~repro.analog.kernels.newton_accepts`) passed; they
  freeze while the stragglers iterate on.
* ``failed`` (inside the Newton solve) - samples whose linear solve went
  singular or produced NaN/Inf; their inverse comes back as NaNs from
  the batched factorization (see :func:`repro.analog.kernels.raw_inv`),
  the non-finite step guard freezes them at the last finite iterate,
  and they cannot poison their batchmates (each sample owns its own
  cached inverse).

What this loop shares with the scalar engine, rather than mirrors:
:func:`~repro.analog.engine.resolve_jacobian_policy` (a stack has no
sparse backend, so ``"sparse"`` and ``"auto"`` run the batched dense
inverse with reuse), the keep-stale and accept rules of
:mod:`repro.analog.kernels`, the level-1 stamp body, the per-sample
operating points (the scalar DC ladder) and
:class:`~repro.analog.engine.StepControl`, applied to the worst active
sample: any active sample rejecting a step shrinks ``h`` for the whole
batch, and growth follows the largest active error.  A single-sample
stack therefore walks the scalar grid by construction, with the same
Newton counters under every policy (``tests/test_policy_parity.py``).
What stays separate is the masked, vectorised Newton iteration itself:
a ``B = 1`` stack measured 2.0-2.3x slower than the scalar loop on the
sensing transient (e.g. 141 ms vs 71 ms; four medians of 15 runs on a
2-core x86 box), so the scalar loop cannot become its ``B = 1`` case.

Resuming
--------
``resume_from`` takes one
:class:`~repro.analog.engine.TransientCheckpoint` per sample, so a warm
stack can hold rows of different Monte Carlo samples, each forked from
its own prefix.  The rows carry their own ``state``/``state_prev`` and
``t_prev``, and must share one ``t``: the stack restarts there with the
scalar backward-Euler-after-breakpoint rule, and each row's first
predictor is the scalar predictor from its own ``t_prev``.  A ``B = 1``
resume therefore takes the scalar resume's decisions too.

Fallback contract
-----------------
The in-batch escalation ladder is *step-halving only*.  A sample that
still refuses to converge at the ``dt_min`` floor (or goes non-finite,
or fails its operating point) is masked out with a recorded reason -
never rescued half-heartedly in batch - and the caller re-dispatches it
to the scalar engine, which owns the full damped-Newton/gmin-restart
ladder and the failure diagnostics of PR 2.  ``ok`` on the result marks
the samples whose lockstep integration completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analog.dcop import dc_operating_point
from repro.analog.engine import (
    StepControl,
    TransientCheckpoint,
    TransientOptions,
    check_window,
    resolve_jacobian_policy,
)
from repro.analog.kernels import (
    KernelStats,
    c_einsum,
    keep_stale,
    newton_accepts,
    raw_inv,
)
from repro.analog.waveform import Waveform
from repro.batch.compile import BatchCompiledCircuit
from repro.errors import ConvergenceError

#: Breakpoints of different samples closer than this are merged into one
#: restart (seconds).  Clock slews are >= 100 ps in every paper
#: workload, so a 1 ps merge cannot blur distinct waveform corners.
BREAKPOINT_MERGE_TOL = 1e-12


@dataclass
class BatchTransientResult:
    """Waveforms and masks of one lockstep run.

    Attributes
    ----------
    times:
        Shared accepted time points, ``(T,)``.
    voltages:
        Per recorded node, a ``(T, B)`` array; column ``b`` is sample
        ``b``'s waveform.  Columns of samples with ``ok[b] == False``
        are frozen at their last accepted value from the moment the
        sample was masked out and must not be interpreted.
    ok:
        ``(B,)`` bool; True where the sample completed in lockstep.
    escalations:
        Batch-level solver tally: ``"step-halving"`` events (each event
        shrank the shared step once) and the ``"dcop:*"`` rung counts of
        the per-sample operating points.
    fallback_reasons:
        ``sample index -> reason`` for every masked-out sample (the
        caller's re-dispatch list).
    kernel_stats:
        Hot-loop observability record of the run
        (:meth:`repro.analog.kernels.KernelStats.as_dict`).
        ``newton_iterations``/``factorizations``/``jacobian_reuses``
        count *per sample* (so ratios are comparable with the scalar
        engine's); ``assembles`` counts whole-stack kernel calls.
    """

    times: np.ndarray
    voltages: Dict[str, np.ndarray]
    ok: np.ndarray
    escalations: Dict[str, int] = field(default_factory=dict)
    fallback_reasons: Dict[int, str] = field(default_factory=dict)
    kernel_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        """Number of samples ``B``."""
        return int(self.ok.shape[0])

    def wave(self, node: str, sample: int) -> Waveform:
        """Waveform of ``node`` for one sample."""
        if node not in self.voltages:
            raise KeyError(f"node {node!r} was not recorded")
        return Waveform(
            times=self.times,
            values=self.voltages[node][:, sample],
            name=f"{node}[{sample}]",
        )

    def __len__(self) -> int:
        return len(self.times)


class _BatchNewtonWork:
    """Per-run scratch of the lockstep Newton loop.

    Owns the reusable ``(B, n_free)`` residual buffers, the per-sample
    cached Jacobian inverses of the modified-Newton policy - keyed on the
    shared ``(h, alpha)`` scaling and persisting across time steps, with
    a per-sample ``valid`` mask - and the
    :class:`~repro.analog.kernels.KernelStats` counters.
    """

    def __init__(
        self, batch: BatchCompiledCircuit, options: TransientOptions
    ) -> None:
        B, n, nf = batch.batch_size, batch.n_total, batch.n_free
        self.kernel = batch.kernel()
        self.stats = KernelStats()
        # No sparse backend for stacks: only the reuse flag applies.
        _, self.reuse = resolve_jacobian_policy(batch, options)
        self.qh = np.empty((B, nf))
        self.rhs0 = np.empty((B, nf))
        self.neg_res = np.empty((B, nf))
        self.delta = np.empty((B, nf))
        self.tmp = np.empty((B, nf))
        self.abs_buf = np.empty((B, nf))
        self.j_inv = np.empty((B, nf, nf))
        self.step = np.empty(B)
        self.step_prev = np.empty(B)
        self.c_rows = batch.C[:, :nf, :]
        self.c_over_h = np.empty((B, nf, n))
        self.h_scaled: Optional[float] = None
        self.valid = np.zeros(B, dtype=bool)
        self.key: Optional[Tuple[float, float]] = None

    def scaled_c(self, h: float) -> np.ndarray:
        """``C[:, :n_free, :] / h``, recomputed only when ``h`` changes."""
        if self.h_scaled != h:
            np.multiply(self.c_rows, 1.0 / h, out=self.c_over_h)
            self.h_scaled = h
        return self.c_over_h


def _newton_step_batch(
    batch: BatchCompiledCircuit,
    v_guess: np.ndarray,
    v_sources: np.ndarray,
    q_prev: np.ndarray,
    f_prev: Optional[np.ndarray],
    h: float,
    alpha: float,
    options: TransientOptions,
    active: np.ndarray,
    work: Optional[_BatchNewtonWork] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One implicit step for the whole stack; ``alpha=1`` BE, ``0.5`` trap.

    Solves the scalar residual
    ``(q - q_prev)/h + alpha*f + (1-alpha)*f_prev = 0`` per sample, with
    the unit damping clip and the modified-Newton factorization cache of
    :func:`repro.analog.engine._newton_step`, deciding reuse and
    acceptance per sample through the same
    :func:`~repro.analog.kernels.keep_stale` and
    :func:`~repro.analog.kernels.newton_accepts` calls - so a
    single-sample batch takes exactly the scalar decision sequence.
    Samples converge (and freeze) individually; a sample whose solve
    goes non-finite is frozen at the last finite iterate with its cached
    factorization invalidated.

    Returns ``(v_new, converged)``; ``converged`` is a subset of
    ``active`` - the samples whose step succeeded.  Rows of
    non-converged samples hold their last iterate and must not be
    accepted.
    """
    n_free = batch.n_free
    if work is None:
        work = _BatchNewtonWork(batch, options)
    kernel, stats = work.kernel, work.stats
    v = v_guess.copy()
    v[:, n_free:] = v_sources[:, n_free:]

    modified = work.reuse
    if not (modified and work.key == (h, alpha)):
        work.valid[:] = False  # never reuse across a system-scaling change
    valid = work.valid
    j_inv = work.j_inv
    c_over_h = work.scaled_c(h)
    # Iteration-invariant part of the negated residual:
    # ``q_prev / h - (1 - alpha) * f_prev``.
    rhs0, tmp = work.rhs0, work.tmp
    np.multiply(q_prev[:, :n_free], 1.0 / h, out=rhs0)
    if f_prev is not None:
        np.multiply(f_prev[:, :n_free], 1.0 - alpha, out=tmp)
        rhs0 -= tmp

    neg_res, delta, qh = work.neg_res, work.delta, work.qh
    abs_buf, step, step_prev = work.abs_buf, work.step, work.step_prev
    step_prev[:] = np.inf
    step[:] = 0.0
    vntol = options.vntol
    is_be = alpha == 1.0
    converged = np.zeros(batch.batch_size, dtype=bool)
    live = active.copy()

    # Hot-loop counters accumulate in locals; flushed in ``finally``.
    n_iters = n_assembles = n_factor = n_refactor = n_reuse = 0
    assemble_acc = factor_acc = solve_acc = 0.0

    try:
        for iteration in range(options.max_newton):
            if not live.any():
                break
            need_fresh = live & ~valid
            t0 = perf_counter()
            f, j = kernel.eval(v, with_jacobian=bool(need_fresh.any()))
            n_iters += int(np.count_nonzero(live))
            n_assembles += 1
            # Negated residual: rhs0 - (C/h) @ v - alpha * f(v).
            c_einsum("bij,bj->bi", c_over_h, v, out=qh)
            np.subtract(rhs0, qh, out=neg_res)
            if is_be:
                neg_res -= f[:, :n_free]
            else:
                np.multiply(f[:, :n_free], alpha, out=tmp)
                neg_res -= tmp
            assemble_acc += perf_counter() - t0

            try_stale = live & valid
            if try_stale.any():
                t0 = perf_counter()
                c_einsum("bij,bj->bi", j_inv, neg_res, out=delta)
                if n_free:
                    np.abs(delta, out=abs_buf)
                    np.maximum.reduce(abs_buf, axis=1, out=step)
                else:
                    step[:] = 0.0
                solve_acc += perf_counter() - t0
                reuse = try_stale & keep_stale(step, step_prev)
                n_reuse += int(np.count_nonzero(reuse))
                n_refactor += int(np.count_nonzero(try_stale & ~reuse))
                fresh = live & ~reuse
            else:
                fresh = need_fresh

            if fresh.any():
                if j is None:
                    t0 = perf_counter()
                    f, j = kernel.eval(v, with_jacobian=True)
                    n_assembles += 1
                    assemble_acc += perf_counter() - t0
                t0 = perf_counter()
                sub = np.flatnonzero(fresh)
                jac = j[sub][:, :n_free, :n_free] * alpha
                jac += c_over_h[sub][:, :, :n_free]
                # Singular jac -> NaN inverse (see kernels.raw_inv); the
                # non-finite step guard below freezes the sample.
                inv_sub = raw_inv(jac)
                j_inv[sub] = inv_sub
                valid[sub] = modified
                work.key = (h, alpha)
                n_factor += len(sub)
                factor_acc += perf_counter() - t0
                t0 = perf_counter()
                delta[sub] = c_einsum("bij,bj->bi", inv_sub, neg_res[sub])
                if n_free:
                    np.abs(delta, out=abs_buf)
                    np.maximum.reduce(abs_buf, axis=1, out=step)
                else:
                    step[:] = 0.0
                solve_acc += perf_counter() - t0

            # Catches NaN and +inf in one comparison, before the update
            # is applied - the frozen iterate stays finite.
            bad = live & ~(step < np.inf)
            if bad.any():
                valid &= ~bad
                live &= ~bad
                if not live.any():
                    break

            over = live & (step > 1.0)
            if over.any():
                delta[over] *= (1.0 / step[over])[:, None]
            v[live, :n_free] += delta[live]

            done = live & newton_accepts(step, step_prev, vntol, iteration > 0)
            converged |= done
            live &= ~done
            np.copyto(step_prev, step, where=live)
    finally:
        stats.newton_iterations += n_iters
        stats.assembles += n_assembles
        stats.factorizations += n_factor
        stats.refactorizations += n_refactor
        stats.jacobian_reuses += n_reuse
        stats.assemble_s += assemble_acc
        stats.factor_s += factor_acc
        stats.solve_s += solve_acc
    return v, converged


def _batch_dcop(
    batch: BatchCompiledCircuit,
    t: float,
    initial: Optional[Sequence[Optional[Dict[str, float]]]],
    escalations: Dict[str, int],
    fallback_reasons: Dict[int, str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Operating points for the whole stack at time ``t``.

    Each sample runs the scalar :func:`~repro.analog.dcop.dc_operating_point`
    ladder on its own compiled circuit, so a stack starts from exactly
    the states the scalar engine would; a sample the ladder rejects is
    masked out with reason ``"dcop"`` (its row keeps the source
    voltages).  The rungs that succeeded are tallied as ``"dcop:*"``.

    Returns ``(v, alive)`` with ``v`` of shape ``(B, n_total)``.
    """
    v = batch.source_voltages(t)
    alive = np.ones(batch.batch_size, dtype=bool)
    for b, circuit in enumerate(batch.circuits):
        stats: Dict[str, object] = {}
        try:
            v[b] = dc_operating_point(
                circuit, t=t, stats=stats,
                initial=initial[b] if initial is not None else None,
            )
        except ConvergenceError:
            alive[b] = False
            fallback_reasons[b] = "dcop"
            continue
        rung = f"dcop:{stats['dcop_rung']}"
        escalations[rung] = escalations.get(rung, 0) + 1
    return v, alive


def merge_breakpoints(points: Iterable[float], tol: float) -> List[float]:
    """Coalesce sorted breakpoints closer than ``tol`` into their first
    representative, bounding the number of ``dt_start`` restarts the
    merged schedule forces on the batch."""
    merged: List[float] = []
    for point in sorted(points):
        if not merged or point - merged[-1] > tol:
            merged.append(point)
    return merged


def batch_transient(
    batch: BatchCompiledCircuit,
    t_stop: float,
    t_start: float = 0.0,
    record: Optional[Iterable[str]] = None,
    initial: Optional[Sequence[Optional[Dict[str, float]]]] = None,
    options: Optional[TransientOptions] = None,
    resume_from: Optional[Sequence[TransientCheckpoint]] = None,
) -> BatchTransientResult:
    """Integrate every sample of ``batch`` in lockstep over
    ``[t_start, t_stop]``.

    Parameters
    ----------
    batch:
        Stacked circuits from :func:`~repro.batch.compile.compile_batch`.
    record:
        Node names whose voltages to keep; defaults to every node.
    initial:
        Per-sample initial-guess dicts for the operating point (length
        ``B``; entries may be ``None``).  Ignored with ``resume_from``.
    options:
        Scalar-engine knobs, shared by the batch; the in-batch ladder
        honours only the ``"step-halving"`` rung (see the module
        docstring's fallback contract).
    resume_from:
        One :class:`~repro.analog.engine.TransientCheckpoint` per sample
        (length ``B``; see *Resuming* in the module docstring).  Every
        row must carry the stack's node order (its ``nodes`` guard) and
        one shared ``t``, which becomes ``t_start``; the per-sample
        operating-point solves are skipped.  A stack forking from one
        prefix passes the same checkpoint in every row.

    Unlike the scalar :func:`~repro.analog.engine.transient`, this never
    raises on a non-convergent sample: the sample is masked out
    (``ok[b] = False``, reason recorded) and the survivors continue.
    """
    options = options or TransientOptions()
    B = batch.batch_size
    n_free = batch.n_free

    first = None
    if resume_from is not None:
        resume_from = list(resume_from)
        if len(resume_from) != B:
            raise ValueError(
                f"resume_from needs one checkpoint per sample "
                f"(got {len(resume_from)} for a stack of {B})"
            )
        first = resume_from[0]
    record, t_start = check_window(batch, record, first, t_start, t_stop)
    for row in resume_from or ():
        if check_window(batch, record, row, t_start, t_stop)[1] != t_start:
            raise ValueError(
                f"per-row checkpoints must share one t "
                f"(got {row.t!r} and {t_start!r})"
            )

    raw = [b for b in batch.breakpoints(t_start, t_stop) if b > t_start]
    raw.append(t_stop)
    breakpoints = merge_breakpoints(raw, BREAKPOINT_MERGE_TOL)

    escalations: Dict[str, int] = {}
    fallback_reasons: Dict[int, str] = {}
    if resume_from is not None:
        v = np.array([row.state for row in resume_from], dtype=float)
        alive = np.ones(B, dtype=bool)
    else:
        v, alive = _batch_dcop(
            batch, t_start, initial, escalations, fallback_reasons
        )

    work = _BatchNewtonWork(batch, options)
    kernel, stats = work.kernel, work.stats

    times: List[float] = [t_start]
    states: List[np.ndarray] = [v.copy()]

    t = t_start
    h = options.dt_start
    control = StepControl(options, breakpoints, t_start, t_stop)
    force_be = True
    if resume_from is not None:
        v_prev = np.array([row.state_prev for row in resume_from], dtype=float)
        t_prev = np.array([row.t_prev for row in resume_from])
    else:
        v_prev = v.copy()
        t_prev = t

    # Reusable step buffers, mirroring the scalar engine's workspaces:
    # sources, predictor, charge history and the LTE weight/error
    # scratch - the lockstep loop allocates only the accepted states it
    # records and the Newton iterate it hands back.
    n_total = batch.n_total
    v_sources = np.zeros((B, n_total))
    batch.source_voltages_into(t_start, v_sources)  # constants written once
    v_pred = np.empty((B, n_total))
    q_prev = np.empty((B, n_total))
    weight = np.empty((B, n_free))
    err_buf = np.empty((B, n_free))
    err_all = np.zeros(B)

    def _mask(samples: np.ndarray, reason: str) -> None:
        for b in np.flatnonzero(samples):
            alive[b] = False
            fallback_reasons[b] = reason

    while control.running(t) and alive.any():
        h, hit_bp = control.clip(t, h)
        if h < options.dt_min:
            _mask(alive.copy(), "step-underflow")
            break

        t_new = t + h
        batch.source_voltages_into(t_new, v_sources, dynamic_only=True)
        if np.ndim(t_prev):
            # First step after per-row checkpoints: each row runs the
            # scalar predictor from its own t_prev (which branches on
            # ``t > t_prev``), until the first accept makes t_prev shared.
            for row in range(B):
                control.predict_into(v[row], v_prev[row], t, t_prev[row], h,
                                     v_pred[row])
        else:
            control.predict_into(v, v_prev, t, t_prev, h, v_pred)

        alpha = 1.0 if force_be else 0.5
        f_hist = None
        if not force_be:
            f_hist, _ = kernel.eval(v, with_jacobian=False, stats=stats)
        c_einsum("bij,bj->bi", batch.C, v, out=q_prev)

        v_new, converged = _newton_step_batch(
            batch, v_pred, v_sources, q_prev, f_hist, h, alpha, options,
            alive, work=work,
        )
        blown = converged & ~np.isfinite(v_new).all(axis=1)
        converged &= ~blown
        stuck = alive & ~converged
        masked_now = False
        if stuck.any():
            if control.can_halve(h):
                # The whole batch retries at the failing samples' pace.
                escalations["step-halving"] = (
                    escalations.get("step-halving", 0) + 1
                )
                h *= 0.25
                force_be = True
                continue
            # Floor reached: mask the stragglers out, keep the rest.
            _mask(stuck, "non-finite" if blown.any() else "newton-floor")
            masked_now = True
            if not alive.any():
                break

        t_accept = perf_counter()
        # Per-sample LTE; the worst active sample drives the shared step.
        control.lte(v_new, v_pred, weight, err_buf, out=err_all)
        err_active = err_all[alive]
        err_worst = float(err_active.max()) if err_active.size else 0.0

        if not masked_now and control.rejects(err_worst, h, hit_bp):
            h *= 0.4  # any rejecting sample shrinks the shared step
            stats.accept_s += perf_counter() - t_accept
            continue

        # Accept: dead samples carry their last state forward frozen.
        np.copyto(v_new, v, where=~alive[:, None])
        v_prev, t_prev = v, t
        v, t = v_new, t_new
        times.append(t)
        states.append(v)  # _newton_step_batch returned a fresh array
        h, force_be = control.advance(h, err_worst, hit_bp or masked_now)
        stats.accept_s += perf_counter() - t_accept

    time_array = np.asarray(times)
    state_array = np.asarray(states)  # (T, B, n)
    voltages = {
        node: state_array[:, :, batch.node_index[node]].copy() for node in record
    }
    return BatchTransientResult(
        times=time_array,
        voltages=voltages,
        ok=alive.copy(),
        escalations=escalations,
        fallback_reasons=fallback_reasons,
        kernel_stats=stats.as_dict(),
    )
