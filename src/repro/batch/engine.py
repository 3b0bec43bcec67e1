"""Lockstep transient integration of a stacked circuit batch.

:func:`batch_transient` advances every sample of a
:class:`~repro.batch.compile.BatchCompiledCircuit` on *its own time
axis*: each row carries its own ``t``, ``t_prev``, step ``h``,
BE/trapezoidal flag, breakpoints and stop, stepped by its own
:class:`~repro.analog.engine.StepControl` - the scalar law, called per
row for ``running``/``clip``/``rejects``/``advance``.  One loop
iteration makes one step attempt for every unfinished row; each row
rejects, halves or accepts on its own, and a finished row idles until
the stack's last row stops.  The work stays vectorised: one stack
kernel call per Newton iteration, per-row ``C/h``, the masked Newton
loop, the local-error norm and the linear predictor.

Every row therefore takes its scalar run's decisions on its scalar
run's bits - the same times, waveforms and Newton counters as
:func:`~repro.analog.engine.transient` on that row's circuit, whatever
the stack's other rows are (``tests/test_policy_parity.py``,
``tests/test_batch_engine.py``); under ``"sparse"`` the scalar run
factors with SuperLU, so there the values agree to rounding.  Three things make the bits carry
over: every batched operation is elementwise or a per-row contraction
(``c_einsum``, the batched ``raw_inv``); a backward-Euler row takes the
scalar BE residual exactly (no ``0 * f_prev`` term); and the growth law
runs per row on the scalar's float types (vectorised ``np.power``
differs from the scalar ``**`` in the last bit).

Mask semantics
--------------
Three per-sample masks drive the loop:

* ``alive`` - samples still integrated in lockstep.  A dead sample stops
  recording at its last accepted point (its waveform must not be
  interpreted) and is excluded from every residual, error and growth
  computation.
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
:class:`~repro.analog.engine.StepControl`.  What stays separate is the
masked, vectorised Newton iteration itself: a ``B = 1`` stack measured
2.0-2.3x slower than the scalar loop on the sensing transient (e.g.
141 ms vs 71 ms; four medians of 15 runs on a 2-core x86 box), so the
scalar loop cannot become its ``B = 1`` case.

Checkpoints
-----------
``resume_from`` takes one
:class:`~repro.analog.engine.TransientCheckpoint` per sample, so a warm
stack can hold rows of different Monte Carlo samples forked at
different times.  Each row restarts at its own checkpoint's ``t`` with
the scalar backward-Euler-after-breakpoint rule and its own
``state_prev``/``t_prev`` predictor history - the scalar resume's
decisions, row by row.

The other way round, every completed row hands back the checkpoint of
its own stop (``checkpoints[b]``): its last two accepted points, which
the loop holds anyway.  That is the checkpoint the scalar run takes
with ``checkpoint_at`` equal to its ``t_stop``, bit for bit, so a stack
of prefix runs, each stopping at its own fork, builds every prefix of a
campaign at once (:func:`repro.runtime.prefix.build_prefixes`).

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analog.dcop import dc_operating_point
from repro.analog.engine import (
    StepControl,
    TransientCheckpoint,
    TransientOptions,
    _node_order,
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

#: The Newton counters a stack keeps per row (``KernelStats`` fields).
ROW_COUNTERS = (
    "newton_iterations", "factorizations", "refactorizations",
    "jacobian_reuses",
)


@dataclass
class BatchTransientResult:
    """Waveforms and masks of one lockstep run.

    Attributes
    ----------
    times:
        Per sample, its accepted time points (the start included).
    voltages:
        Per recorded node, one array per sample, aligned with
        ``times[b]``.  A sample with ``ok[b] == False`` stops at its
        last accepted point before it was masked out and must not be
        interpreted.
    ok:
        ``(B,)`` bool; True where the sample completed in lockstep.
    escalations:
        Stack solver tally: the ``"step-halving"`` events of all rows
        and the ``"dcop:*"`` rung counts of the per-sample operating
        points (the sums of :attr:`row_escalations`).
    fallback_reasons:
        ``sample index -> reason`` for every masked-out sample (the
        caller's re-dispatch list).
    kernel_stats:
        Hot-loop observability record of the run
        (:meth:`repro.analog.kernels.KernelStats.as_dict`).
        ``newton_iterations``/``factorizations``/``jacobian_reuses``
        count *per sample* (the sums of :attr:`row_counters`, so ratios
        are comparable with the scalar engine's); ``assembles`` counts
        whole-stack kernel calls.
    row_counters:
        Per :data:`ROW_COUNTERS` name, a ``(B,)`` array of each
        sample's own count - what its scalar run reports.
    row_escalations:
        Per sample, its own ``escalations`` tally - what its scalar run
        reports while it needs no rung beyond step-halving.
    checkpoints:
        Per sample, the :class:`~repro.analog.engine.TransientCheckpoint`
        at its own stop (``None`` where ``ok[b]`` is False).
    """

    times: List[np.ndarray]
    voltages: Dict[str, List[np.ndarray]]
    ok: np.ndarray
    escalations: Dict[str, int] = field(default_factory=dict)
    fallback_reasons: Dict[int, str] = field(default_factory=dict)
    kernel_stats: Dict[str, float] = field(default_factory=dict)
    row_counters: Dict[str, np.ndarray] = field(default_factory=dict)
    row_escalations: List[Dict[str, int]] = field(default_factory=list)
    checkpoints: List[Optional[TransientCheckpoint]] = field(
        default_factory=list)

    @property
    def batch_size(self) -> int:
        """Number of samples ``B``."""
        return int(self.ok.shape[0])

    def wave(self, node: str, sample: int) -> Waveform:
        """Waveform of ``node`` for one sample."""
        if node not in self.voltages:
            raise KeyError(f"node {node!r} was not recorded")
        return Waveform(
            times=self.times[sample],
            values=self.voltages[node][sample],
            name=f"{node}[{sample}]",
        )


class _BatchNewtonWork:
    """Per-run scratch of the lockstep Newton loop.

    Owns the reusable ``(B, n_free)`` residual buffers, the per-row
    ``C/h`` scaling, the per-sample cached Jacobian inverses of the
    modified-Newton policy - each keyed on its own row's ``(h, alpha)``
    and persisting across time steps, with a per-sample ``valid`` mask -
    and the per-row Newton counters.
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
        self.h_scaled = np.full(B, np.nan)
        self.valid = np.zeros(B, dtype=bool)
        self.key_h = np.full(B, np.nan)
        self.key_alpha = np.full(B, np.nan)
        self.counts = {name: np.zeros(B, dtype=np.int64) for name in ROW_COUNTERS}


def _newton_step_batch(
    batch: BatchCompiledCircuit,
    v_guess: np.ndarray,
    v_sources: np.ndarray,
    q_prev: np.ndarray,
    f_prev: Optional[np.ndarray],
    h: np.ndarray,
    alpha: np.ndarray,
    options: TransientOptions,
    active: np.ndarray,
    work: _BatchNewtonWork,
) -> Tuple[np.ndarray, np.ndarray]:
    """One implicit step for every ``active`` row, at that row's own
    ``h`` and ``alpha`` (``(B,)``; ``1`` BE, ``0.5`` trapezoidal).

    Solves the scalar residual
    ``(q - q_prev)/h + alpha*f + (1-alpha)*f_prev = 0`` per sample, with
    the unit damping clip and the modified-Newton factorization cache of
    :func:`repro.analog.engine._newton_step`, deciding reuse and
    acceptance per sample through the same
    :func:`~repro.analog.kernels.keep_stale` and
    :func:`~repro.analog.kernels.newton_accepts` calls - so every row
    takes exactly its scalar decision sequence.  Samples converge (and
    freeze) individually; a sample whose solve goes non-finite is frozen
    at the last finite iterate with its cached factorization
    invalidated.

    Returns ``(v_new, converged)``; ``converged`` is a subset of
    ``active`` - the samples whose step succeeded.  Rows of
    non-converged samples hold their last iterate and must not be
    accepted.
    """
    n_free = batch.n_free
    kernel, stats, counts = work.kernel, work.stats, work.counts
    v = v_guess.copy()
    v[:, n_free:] = v_sources[:, n_free:]

    valid = work.valid
    # Never reuse across a change of a row's system scaling.
    valid &= (work.key_h == h) & (work.key_alpha == alpha)
    j_inv = work.j_inv
    inv_h = 1.0 / h
    c_over_h = work.c_over_h
    if (h != work.h_scaled).any():  # C/h, recomputed when an h changes
        np.multiply(work.c_rows, inv_h[:, None, None], out=c_over_h)
        work.h_scaled[:] = h
    alpha_col = alpha[:, None]
    # Iteration-invariant part of the negated residual:
    # ``q_prev / h - (1 - alpha) * f_prev`` - the last term on
    # trapezoidal rows only, so a BE row keeps the scalar BE residual.
    rhs0, tmp = work.rhs0, work.tmp
    np.multiply(q_prev[:, :n_free], inv_h[:, None], out=rhs0)
    if f_prev is not None:
        np.multiply(f_prev[:, :n_free], 1.0 - alpha_col, out=tmp)
        np.subtract(rhs0, tmp, out=rhs0, where=alpha_col != 1.0)

    neg_res, delta, qh = work.neg_res, work.delta, work.qh
    abs_buf, step, step_prev = work.abs_buf, work.step, work.step_prev
    step_prev[:] = np.inf
    step[:] = 0.0
    vntol = options.vntol
    converged = np.zeros(batch.batch_size, dtype=bool)
    live = active.copy()
    v_free = v[:, :n_free]
    iterations = counts["newton_iterations"]

    # Hot-loop counters accumulate in locals; flushed in ``finally``.
    n_assembles = 0
    assemble_acc = factor_acc = solve_acc = 0.0

    try:
        for iteration in range(options.max_newton):
            if not live.any():
                break
            need_fresh = live & ~valid
            t0 = perf_counter()
            f, j = kernel.eval(v, with_jacobian=bool(need_fresh.any()))
            iterations += live
            n_assembles += 1
            # Negated residual: rhs0 - (C/h) @ v - alpha * f(v)
            # (``f * 1.0`` is ``f`` exactly on BE rows).
            c_einsum("bij,bj->bi", c_over_h, v, out=qh)
            np.subtract(rhs0, qh, out=neg_res)
            np.multiply(f[:, :n_free], alpha_col, out=tmp)
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
                counts["jacobian_reuses"] += reuse
                counts["refactorizations"] += try_stale & ~reuse
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
                jac = j[sub][:, :n_free, :n_free] * alpha[sub][:, None, None]
                jac += c_over_h[sub][:, :, :n_free]
                # Singular jac -> NaN inverse (see kernels.raw_inv); the
                # non-finite step guard below freezes the sample.
                inv_sub = raw_inv(jac)
                j_inv[sub] = inv_sub
                valid[sub] = work.reuse
                work.key_h[sub] = h[sub]
                work.key_alpha[sub] = alpha[sub]
                counts["factorizations"][sub] += 1
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
            np.add(v_free, delta, out=v_free, where=live[:, None])

            done = live & newton_accepts(step, step_prev, vntol, iteration > 0)
            converged |= done
            live &= ~done
            np.copyto(step_prev, step, where=live)
    finally:
        stats.assembles += n_assembles
        stats.assemble_s += assemble_acc
        stats.factor_s += factor_acc
        stats.solve_s += solve_acc
    return v, converged


def _batch_dcop(
    batch: BatchCompiledCircuit,
    t: float,
    initial: Optional[Sequence[Optional[Dict[str, float]]]],
    row_escalations: List[Dict[str, int]],
    fallback_reasons: Dict[int, str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Operating points for the whole stack at time ``t``.

    Each sample runs the scalar :func:`~repro.analog.dcop.dc_operating_point`
    ladder on its own compiled circuit, so a stack starts from exactly
    the states the scalar engine would; a sample the ladder rejects is
    masked out with reason ``"dcop"`` (its row keeps the source
    voltages).  The rung that succeeded lands in the row's tally as
    ``"dcop:*"``.

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
        row_escalations[b][f"dcop:{stats['dcop_rung']}"] = 1
    return v, alive


def batch_transient(
    batch: BatchCompiledCircuit,
    t_stop: Union[float, Sequence[float]],
    t_start: float = 0.0,
    record: Optional[Iterable[str]] = None,
    initial: Optional[Sequence[Optional[Dict[str, float]]]] = None,
    options: Optional[TransientOptions] = None,
    resume_from: Optional[Sequence[TransientCheckpoint]] = None,
) -> BatchTransientResult:
    """Integrate every sample of ``batch`` over its own window, each on
    its own time axis (see the module docstring).

    Parameters
    ----------
    batch:
        Stacked circuits from :func:`~repro.batch.compile.compile_batch`.
    t_stop:
        One stop for every sample, or a sequence of per-sample stops.
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
        row must carry the stack's node order (its ``nodes`` guard); its
        ``t`` replaces ``t_start`` for that row, and the per-sample
        operating-point solves are skipped.

    Unlike the scalar :func:`~repro.analog.engine.transient`, this never
    raises on a non-convergent sample: the sample is masked out
    (``ok[b] = False``, reason recorded) and the survivors continue.
    Every completed row returns the checkpoint at its own stop
    (``checkpoints``; see *Checkpoints* in the module docstring).
    """
    options = options or TransientOptions()
    B = batch.batch_size
    n_free = batch.n_free

    checkpoints: List[Optional[TransientCheckpoint]] = [None] * B
    if resume_from is not None:
        checkpoints = list(resume_from)
        if len(checkpoints) != B:
            raise ValueError(
                f"resume_from needs one checkpoint per sample "
                f"(got {len(checkpoints)} for a stack of {B})"
            )
    stops = np.broadcast_to(np.asarray(t_stop, dtype=float), (B,)).tolist()
    record = list(record) if record is not None else None
    starts = []
    for checkpoint, stop in zip(checkpoints, stops):
        record, start = check_window(batch, record, checkpoint, t_start, stop)
        starts.append(start)
    controls = [
        StepControl(options, circuit, start, stop)
        for circuit, start, stop in zip(batch.circuits, starts, stops)
    ]

    row_escalations: List[Dict[str, int]] = [{} for _ in range(B)]
    fallback_reasons: Dict[int, str] = {}
    if resume_from is not None:
        v = np.array([row.state for row in checkpoints], dtype=float)
        v_prev = np.array([row.state_prev for row in checkpoints], dtype=float)
        t_prev = np.array([row.t_prev for row in checkpoints], dtype=float)
        alive = np.ones(B, dtype=bool)
    else:
        v, alive = _batch_dcop(
            batch, t_start, initial, row_escalations, fallback_reasons
        )
        v_prev = v.copy()
        t_prev = np.full(B, float(t_start))
    t = np.array(starts, dtype=float)

    work = _BatchNewtonWork(batch, options)
    kernel, stats = work.kernel, work.stats

    # Accepted points: the start, then each iteration's step attempt
    # (fresh arrays, never written again) with the mask of the rows
    # that accepted it.
    times_log: List[np.ndarray] = [t.copy()]
    states_log: List[np.ndarray] = [v.copy()]
    accepted_log: List[np.ndarray] = [np.ones(B, dtype=bool)]

    # Per-row step state, as Python scalars for the per-row control law.
    t_rows = list(starts)
    h_rows = [options.dt_start] * B
    force_be = [True] * B  # every row starts like after a breakpoint
    hit_bp = [False] * B
    stepping = alive & np.array(
        [control.running(start) for control, start in zip(controls, starts)]
    )

    # Reusable step buffers, mirroring the scalar engine's workspaces:
    # sources, predictor, charge history and the LTE weight/error
    # scratch - the lockstep loop allocates only the accepted states it
    # records and the Newton iterate it hands back.
    n_total = batch.n_total
    v_sources = np.zeros((B, n_total))
    batch.source_voltages_into(t, v_sources)  # constants written once
    v_pred = np.empty((B, n_total))
    q_prev = np.empty((B, n_total))
    weight = np.empty((B, n_free))
    err_buf = np.empty((B, n_free))
    err_all = np.zeros(B)
    lte = controls[0].lte  # the norm reads only the options all rows share
    dt_min = options.dt_min

    def _mask(b: int, reason: str) -> None:
        alive[b] = stepping[b] = False
        fallback_reasons[b] = reason

    while stepping.any():
        # One step attempt for every unfinished row, on its own axis.
        for b in stepping.nonzero()[0].tolist():
            h_rows[b], hit_bp[b] = controls[b].clip(t_rows[b], h_rows[b])
            if h_rows[b] < dt_min:
                _mask(b, "step-underflow")
        active = stepping.copy()
        if not active.any():
            break
        h = np.array(h_rows)
        t_new = t + h
        batch.source_voltages_into(t_new, v_sources, dynamic_only=True)
        StepControl.predict_into(v, v_prev, t, t_prev, h, v_pred)

        trapezoidal = active & ~np.array(force_be)
        alpha = np.where(trapezoidal, 0.5, 1.0)
        f_hist = None
        if trapezoidal.any():
            f_hist, _ = kernel.eval(v, with_jacobian=False, stats=stats)
        c_einsum("bij,bj->bi", batch.C, v, out=q_prev)

        v_new, converged = _newton_step_batch(
            batch, v_pred, v_sources, q_prev, f_hist, h, alpha, options,
            active, work,
        )
        blown = converged & ~np.isfinite(v_new).all(axis=1)
        converged &= ~blown

        t_accept = perf_counter()
        for b in (active & ~converged).nonzero()[0].tolist():
            if controls[b].can_halve(h_rows[b]):
                tally = row_escalations[b]
                tally["step-halving"] = tally.get("step-halving", 0) + 1
                h_rows[b] *= 0.25
                force_be[b] = True
            else:  # floor reached: the scalar ladder takes over
                _mask(b, "non-finite" if blown[b] else "newton-floor")

        rows = converged.nonzero()[0].tolist()
        if rows:
            lte(v_new, v_pred, weight, err_buf, out=err_all)
        accepted = []
        for b in rows:
            control, err = controls[b], err_all[b]
            if control.rejects(err, h_rows[b], hit_bp[b]):
                h_rows[b] *= 0.4
                continue
            accepted.append(b)
            h_rows[b], force_be[b] = control.advance(h_rows[b], err, hit_bp[b])
        if accepted:
            mask = np.zeros(B, dtype=bool)
            mask[accepted] = True
            np.copyto(v_prev, v, where=mask[:, None])
            np.copyto(v, v_new, where=mask[:, None])
            np.copyto(t_prev, t, where=mask)
            np.copyto(t, t_new, where=mask)
            times_log.append(t_new)
            states_log.append(v_new)
            accepted_log.append(mask)
            t_new_rows = t_new.tolist()
            for b in accepted:
                t_rows[b] = t_new_rows[b]
                stepping[b] = controls[b].running(t_rows[b])
        stats.accept_s += perf_counter() - t_accept

    escalations: Dict[str, int] = {}
    for tally in row_escalations:
        for rung, count in tally.items():
            escalations[rung] = escalations.get(rung, 0) + count
    for name, counts in work.counts.items():
        setattr(stats, name, int(counts.sum()))
    nodes = _node_order(batch)
    t_prev_rows = t_prev.tolist()
    checkpoints = [
        TransientCheckpoint(
            t=t_rows[b], t_prev=t_prev_rows[b], state=v[b].copy(),
            state_prev=v_prev[b].copy(), nodes=nodes,
        ) if alive[b] else None
        for b in range(B)
    ]

    time_grid = np.array(times_log)      # (K, B)
    state_grid = np.array(states_log)    # (K, B, n)
    accepted_grid = np.array(accepted_log)
    points = [np.flatnonzero(accepted_grid[:, b]) for b in range(B)]
    voltages = {
        node: [state_grid[k, b, batch.node_index[node]]
               for b, k in enumerate(points)]
        for node in record
    }
    return BatchTransientResult(
        times=[time_grid[k, b] for b, k in enumerate(points)],
        voltages=voltages,
        ok=alive.copy(),
        escalations=escalations,
        fallback_reasons=fallback_reasons,
        kernel_stats=stats.as_dict(),
        row_counters={name: c.copy() for name, c in work.counts.items()},
        row_escalations=row_escalations,
        checkpoints=checkpoints,
    )
