"""Allocation-free compiled evaluation kernels and the Newton decisions.

The transient engine spends nearly all of its time in two places: the
per-iteration assembly of the device residual/Jacobian and the dense
linear solve.  This module removes the per-call allocations from the
first and makes the second factorization-aware:

* :class:`ScalarKernel` precomputes, once per compiled circuit, the flat
  scatter index arrays and the signed node/device incidence matrix that
  turn MOSFET stamping into one ``incidence @ weights`` product for the
  residual and one :func:`np.bincount` for the Jacobian - replacing the
  ``G.copy()`` plus six ``np.add.at`` calls the old
  :meth:`~repro.analog.compile.CompiledCircuit.device_currents` paid on
  every Newton iteration.  Output buffers are preallocated and reused.

* The **fixed-target scatter** is the enabling observation: although the
  drain/source swap (so the level-1 model only sees ``vds >= 0``)
  changes which physical node plays "drain" per evaluation, the scatter
  *targets* can stay the compile-time ``(m_d, m_s)`` pair with
  swap-adjusted weights.  With ``u = -1`` where swapped else ``+1``, the
  residual weight at ``m_d`` is ``u * sign * ids`` (and its negative at
  ``m_s``); the six Jacobian stamps become, in the fixed frame,
  ``gds' = where(swap, gsum, gds)`` and ``gsum' = where(swap, gds,
  gsum)`` (the swap exchanges ``gds`` and ``gsum``) plus ``u * gm`` on
  the gate column.  This is what makes the index arrays precomputable.

* The level-1 stamp has two bodies, one set of IEEE operations.
  :func:`level1_stamp` runs them as numpy ufuncs over ``(M,)`` or
  ``(B, M)`` rows: the batched (:mod:`repro.batch.kernels`) and the
  sparse (:mod:`repro.sparse.csr`) kernels call it, and so does
  :class:`ScalarKernel` above :data:`FLOAT_STAMP_MAX_DEVICES` devices.
  :func:`level1_stamp_floats` runs them on Python floats, one device at
  a time, for the scalar kernel of a sensor-sized circuit, where numpy's
  fixed per-call cost outweighs the arithmetic.  Both keep the same
  operand order, so their weights are bit-equal
  (``tests/test_kernels.py::test_float_stamp_matches_numpy_stamp``);
  each kernel adds only its own gather and scatter around them.

* :func:`keep_stale` and :func:`newton_accepts` are the modified-Newton
  policy's two decisions, called by the scalar and the lockstep Newton
  loop alike; :class:`KernelStats` carries the hot-loop observability
  counters the runtime telemetry aggregates: per-phase wall time
  (assemble / factor / solve / accept) and the policy tallies
  (``jacobian_reuses`` / ``refactorizations``).

:func:`reference_device_currents` preserves the pre-kernel dense
assembly verbatim; the golden equivalence tests pin the kernel against
it.  Kernel buffers are reused across calls, so a kernel (like the
compiled circuit that owns it) must not be shared across threads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # the C entry point skips np.einsum's python-level dispatch (~1.5 us)
    from numpy._core.multiarray import c_einsum
except ImportError:  # pragma: no cover - older numpy layout
    c_einsum = np.einsum

try:  # raw inv gufunc: same LAPACK path as np.linalg.inv (so scalar and
    # batch invocations stay bit-identical) minus ~4 us of python wrapper;
    # singular input yields NaNs instead of LinAlgError, which the Newton
    # loop's non-finite step guard already handles.
    from numpy.linalg._umath_linalg import inv as raw_inv
except ImportError:  # pragma: no cover - older numpy layout
    def raw_inv(a, out=None):
        try:
            result = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            result = np.full(np.shape(a), np.nan)
        if out is not None:
            out[...] = result
            return out
        return result

#: Largest device count whose :class:`ScalarKernel` stamps on Python
#: floats (:func:`level1_stamp_floats`); larger circuits take the numpy
#: :func:`level1_stamp`.  The float pass grows by ~1.7 us per device
#: with the Jacobian (~1.0 us without); numpy's calls cost a fixed ~45
#: us (~28 us) plus ~0.3 us (~0.15 us) per device.  The two cross where
#: ``benchmarks/bench_fig4_sensitivity.py`` fits them to: 24.9 devices
#: (``stamp.crossover_devices`` of
#: ``benchmarks/out/BENCH_fig4_sensitivity.json``, a 2-core x86 box;
#: the median of 9 rounds whose own crossings spread over 19-31).  The
#: 10-device sensor evaluates 2.0x faster on floats, the 1-level H-tree
#: (32 devices) 1.1x slower and the 2-level H-tree (64) 1.7x slower.
FLOAT_STAMP_MAX_DEVICES = 24

#: A stale factorization is kept only while the Newton update norm keeps
#: contracting by at least this factor per iteration; a slower stale
#: iteration triggers a refactorization instead.
REUSE_SLOWDOWN = 0.5


def keep_stale(step: Any, step_prev: Any) -> Any:
    """Keep-stale rule of the modified-Newton policy: a stale update is
    kept while its norm contracted to at most :data:`REUSE_SLOWDOWN`
    times the previous one (NaN fails the test, forcing a refactor).
    Works on floats (scalar loop) and ``(B,)`` arrays (lockstep loop).
    """
    return step <= REUSE_SLOWDOWN * step_prev


def newton_accepts(step: Any, step_prev: Any, vntol: float,
                   predict: bool) -> Any:
    """Accept rule of every Newton loop: ``step < vntol``, or - with
    ``predict`` - the contraction-predicted next update
    ``step**2 / step_prev`` already under ``vntol``.  The prediction
    puts the iterate within ~``vntol`` of the Newton fixed point - the
    same error contract as the plain test, one evaluate/solve round
    cheaper; callers pass ``predict=False`` on the first iteration
    (``step_prev = inf``) and for damped solves (a clipped update breaks
    the contraction estimate).  Works on floats and ``(B,)`` arrays.
    """
    done = step < vntol
    if predict:
        done = done | (step * step < vntol * step_prev)
    return done


@dataclass
class KernelStats:
    """Hot-loop counters of one engine run (scalar or batch).

    Wall times are cumulative seconds per phase: ``assemble`` is device
    evaluation plus f/J scatter, ``factor`` the Jacobian factorizations,
    ``solve`` the triangular/matvec applications, ``accept`` the
    step-acceptance bookkeeping of the outer loop.  ``jacobian_reuses``
    counts Newton iterations served by a stale factorization,
    ``refactorizations`` the slowdown-triggered refreshes (a subset of
    ``factorizations``).
    """

    assembles: int = 0
    factorizations: int = 0
    refactorizations: int = 0
    jacobian_reuses: int = 0
    newton_iterations: int = 0
    assemble_s: float = 0.0
    factor_s: float = 0.0
    solve_s: float = 0.0
    accept_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable counter snapshot (subclass fields included)."""
        return asdict(self)

    def merge(self, other: "KernelStats") -> None:
        """Fold another stats object's shared fields into this one, by
        :func:`fold_kernel_stat`."""
        for f in fields(self):
            if hasattr(other, f.name):
                setattr(self, f.name, fold_kernel_stat(
                    f.name, getattr(self, f.name), getattr(other, f.name)))


#: Kernel statistics that describe a run's matrix rather than count its
#: work: folding runs keeps their largest value.
KERNEL_GAUGES = frozenset({"sparse_nnz", "sparse_fill_nnz"})


def fold_kernel_stat(name: str, total: float, value: float) -> float:
    """The kernel statistic ``name`` of one more run folded into
    ``total``: a gauge (:data:`KERNEL_GAUGES`) keeps the larger, a
    counter or a ``*_s`` timing adds."""
    return max(total, value) if name in KERNEL_GAUGES else total + value


def mosfet_stamp_targets(
    m_d: np.ndarray, m_g: np.ndarray, m_s: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed residual/Jacobian scatter targets of ``M`` MOSFETs.

    ``f_idx`` is the ``(2M,)`` residual target vector
    (``[m_d..., m_s...]``); ``j_idx`` the ``(6M,)`` flattened row-major
    Jacobian targets in stamp order ``(d,d) (d,g) (d,s) (s,d) (s,g)
    (s,s)``.  These targets are compile-time constants - the
    drain/source swap changes stamp *weights*, never targets - which is
    what lets the sparse CSR plan (:mod:`repro.sparse.csr`) freeze its
    pattern per topology.  Shared by :func:`build_mosfet_scatter`
    (which adds the dense ``(n, M)`` incidence on top) and the sparse
    plan (which must not pay for that incidence at 10^4 nodes).
    """
    m_d = np.asarray(m_d, dtype=np.intp)
    m_g = np.asarray(m_g, dtype=np.intp)
    m_s = np.asarray(m_s, dtype=np.intp)
    f_idx = np.concatenate([m_d, m_s])
    j_idx = np.concatenate([
        m_d * n + m_d, m_d * n + m_g, m_d * n + m_s,
        m_s * n + m_d, m_s * n + m_g, m_s * n + m_s,
    ])
    return f_idx, j_idx


def build_mosfet_scatter(
    m_d: np.ndarray, m_g: np.ndarray, m_s: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compile-time scatter plan of ``M`` MOSFETs into an ``n``-node system.

    Returns
    -------
    (f_idx, j_idx, incidence):
        The fixed targets of :func:`mosfet_stamp_targets` plus
        ``incidence``, the signed ``(n, M)`` node/device incidence
        matrix (``+1`` at ``m_d``, ``-1`` at ``m_s`` - a self-connected
        device cancels to ``0``).
    """
    m_d = np.asarray(m_d, dtype=np.intp)
    m_s = np.asarray(m_s, dtype=np.intp)
    f_idx, j_idx = mosfet_stamp_targets(m_d, m_g, m_s, n)
    incidence = np.zeros((n, m_d.size))
    np.add.at(incidence, (m_d, np.arange(m_d.size)), 1.0)
    np.add.at(incidence, (m_s, np.arange(m_s.size)), -1.0)
    return f_idx, j_idx, incidence


@lru_cache(maxsize=256)
def _scatter_plan_cached(
    n: int, d: Tuple[int, ...], g: Tuple[int, ...], s: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return build_mosfet_scatter(
        np.asarray(d, dtype=np.intp), np.asarray(g, dtype=np.intp),
        np.asarray(s, dtype=np.intp), n,
    )


def mosfet_scatter_plan(
    m_d: np.ndarray, m_g: np.ndarray, m_s: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Memoized :func:`build_mosfet_scatter` keyed on the topology.

    ``tau_min`` searches and serial sweeps recompile the same sensor
    topology for every probe; the scatter plan depends only on
    connectivity, so one module-level LRU (shared by the scalar and
    batch kernels) hands the identical plan back.  The returned arrays
    are shared across kernels and must be treated as read-only - both
    kernels only gather from them.
    """
    return _scatter_plan_cached(
        int(n),
        tuple(int(x) for x in m_d),
        tuple(int(x) for x in m_g),
        tuple(int(x) for x in m_s),
    )


def reference_device_currents(
    circuit: Any, v: np.ndarray, with_jacobian: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The pre-kernel dense assembly, kept verbatim as the golden oracle.

    This is the original
    :meth:`~repro.analog.compile.CompiledCircuit.device_currents` body
    (``G.copy()`` + ``np.add.at`` scatter); the kernel-equivalence tests
    assert :meth:`ScalarKernel.eval` matches it to summation-order
    roundoff on every circuit family.
    """
    f = circuit.G @ v
    j = circuit.G.copy() if with_jacobian else None
    if circuit.m_d.size == 0:
        return f, j

    vd = v[circuit.m_d]
    vg = v[circuit.m_g]
    vs = v[circuit.m_s]
    sign = circuit.m_sign
    swap = sign * (vd - vs) < 0.0
    md = np.where(swap, circuit.m_s, circuit.m_d)
    ms = np.where(swap, circuit.m_d, circuit.m_s)
    vmd = np.where(swap, vs, vd)
    vms = np.where(swap, vd, vs)
    vds = sign * (vmd - vms)
    vgs = sign * (vg - vms)

    from repro.devices.mosfet import level1_ids

    ids, gm, gds = level1_ids(vgs, vds, circuit.m_vt, circuit.m_beta,
                              circuit.m_lam)

    np.add.at(f, md, sign * ids)
    np.add.at(f, ms, -sign * ids)

    if with_jacobian:
        gsum = gm + gds
        np.add.at(j, (md, md), gds)
        np.add.at(j, (md, circuit.m_g), gm)
        np.add.at(j, (md, ms), -gsum)
        np.add.at(j, (ms, md), -gds)
        np.add.at(j, (ms, circuit.m_g), -gm)
        np.add.at(j, (ms, ms), gsum)
    return f, j


def level1_gather(card: Any) -> Tuple[np.ndarray, np.ndarray]:
    """``(idx, sign3)`` of the combined ``(vd, vg, vs)`` gather.

    One combined gather plus a premultiplied polarity vector turns the
    three separate model-space transforms into a single elementwise
    product (sign is exactly +/-1, so premultiplying the gathered
    voltages is bit-identical to the reference).
    """
    idx = np.concatenate([np.asarray(card.m_d, dtype=np.intp),
                          np.asarray(card.m_g, dtype=np.intp),
                          np.asarray(card.m_s, dtype=np.intp)])
    return idx, np.tile(np.asarray(card.m_sign, dtype=float), 3)


def level1_stamp(
    sv: np.ndarray,
    card: Any,
    rows: np.ndarray,
    swap: np.ndarray,
    jw: Optional[Any] = None,
) -> np.ndarray:
    """The level-1 MOSFET stamp as numpy ufuncs over device rows.

    The batched and sparse kernels call it, and so does
    :class:`ScalarKernel` on a circuit of more than
    :data:`FLOAT_STAMP_MAX_DEVICES` devices; a smaller scalar circuit
    runs the same operations on Python floats
    (:func:`level1_stamp_floats`).

    ``sv`` is the sign-premultiplied ``(vd, vg, vs)`` gather with the
    three blocks along its last axis; ``card`` supplies the model cards
    (``m_vt``/``m_beta``/``m_lam``/``m_sign``), which broadcast against
    the ``(M,)`` rows of a circuit or the ``(B, M)`` rows of a batch.
    ``rows`` holds ten scratch rows of that shape and ``swap`` a bool row.

    Returns the residual weight row ``w``: ``+sign*ids`` at the fixed
    drain target, negated where the evaluation swapped drain and source
    (negating is exact).  With ``jw`` (six writable rows) the Jacobian
    stamp weights are written too, in the fixed-target stamp order
    ``(d,d) (d,g) (d,s) (s,d) (s,g) (s,s)``; ``gm``/``gds`` are skipped
    entirely on residual-only calls.

    This is :func:`repro.devices.mosfet.level1_ids` inlined with every
    intermediate in a preallocated row and the reference operand order
    kept, so currents stay bit-identical and derivatives within one ulp
    of :func:`reference_device_currents`.  Every operation is
    elementwise, so a batch row computes exactly the bits of the
    matching circuit row.
    """
    m = swap.shape[-1]
    svd = sv[..., :m]
    svg = sv[..., m:2 * m]
    svs = sv[..., 2 * m:]
    b = rows
    dv = np.subtract(svd, svs, out=b[0])
    np.less(dv, 0.0, out=swap)
    vds = np.abs(dv, out=b[1])
    # Model-space vgs, referenced to the post-swap source terminal:
    # ``where(swap, svd, svs)`` is exactly ``min(svd, svs)`` (swap means
    # svd < svs), and ``minimum`` is a plain ufunc - no python-level
    # ``np.where`` dispatch on the hot path.
    vmin = np.minimum(svd, svs, out=b[2])
    vgs = np.subtract(svg, vmin, out=b[2])
    vov = np.subtract(vgs, card.m_vt, out=b[3])
    np.maximum(vov, 0.0, out=vov)
    x = np.minimum(vds, vov, out=b[4])
    clm = np.multiply(card.m_lam, vds, out=b[5])
    clm += 1.0
    xx = np.multiply(x, x, out=b[6])
    xx *= 0.5  # power-of-2 scale: identical to the 0.5*x*x reference
    core = np.multiply(vov, x, out=b[7])
    core -= xx
    ids = np.multiply(card.m_beta, core, out=b[8])
    ids *= clm
    w = np.multiply(ids, card.m_sign, out=b[9])
    np.negative(w, out=w, where=swap)
    if jw is None:
        return w

    gm = np.multiply(card.m_beta, x, out=b[8])  # ids row is spent
    gm *= clm
    gds = np.subtract(vov, x, out=b[6])  # xx row is spent
    gds *= clm
    lamcore = core
    lamcore *= card.m_lam
    gds += lamcore
    gds *= card.m_beta
    # Fixed-frame stamps without ``np.where``'s dispatch cost: with
    # ``sg = swap * gm`` (exactly gm or 0.0), ``gds + sg`` is
    # ``where(swap, gds + gm, gds)`` and ``gds + (gm - sg)`` its mirror -
    # additions against an exact 0.0 / exact cancellation, so bit-equal
    # to the where() form.
    sg = np.multiply(swap, gm, out=b[1])
    sg2 = np.subtract(gm, sg, out=b[2])
    np.add(gds, sg, out=jw[0])  # swap exchanges gds <-> gsum
    np.add(gds, sg2, out=jw[5])
    jw1 = jw[1]
    jw1[...] = gm
    np.negative(jw1, out=jw1, where=swap)
    np.negative(jw[5], out=jw[2])
    np.negative(jw[0], out=jw[3])
    np.negative(jw1, out=jw[4])
    return w


def level1_stamp_floats(
    vl: List[float],
    devices: Sequence[Tuple[int, int, int, float]],
    card: Any,
    with_jacobian: bool,
) -> Tuple[List[float], Optional[List[float]]]:
    """:func:`level1_stamp` of one circuit, one device at a time on
    Python floats.

    ``vl`` is the node voltage vector as a list, ``devices`` each
    MOSFET's ``(d, g, s, polarity)``, the polarity premultiplying the
    gathered voltages; ``card`` supplies the model cards, read at every
    call.  Returns the residual weights ``w`` and, with the Jacobian,
    the ``(6M,)`` stamp weights in :func:`level1_stamp`'s row-major
    stamp order (``None`` without).

    Each value is the IEEE operation :func:`level1_stamp` performs, on
    the same operands in the same order, so both bodies return the same
    bits.  Its three ufunc selections become comparisons that keep
    numpy's picks: ``minimum``/``maximum`` return their second operand
    on a tie and propagate NaN.  (A NaN drain or source voltage picks a
    finite ``vmin`` and ``x`` here, but its NaN ``vds`` reaches every
    output through ``clm`` either way.)
    """
    w: List[float] = []
    if with_jacobian:
        dd: List[float] = []
        dg: List[float] = []
        ds: List[float] = []
        sd: List[float] = []
        sg: List[float] = []
        ss: List[float] = []
    for (d, g, s, p), vt, beta, lam, sign in zip(
        devices, card.m_vt.tolist(), card.m_beta.tolist(),
        card.m_lam.tolist(), card.m_sign.tolist(),
    ):
        svd = vl[d] * p
        svs = vl[s] * p
        dv = svd - svs
        swap = dv < 0.0
        vds = abs(dv)
        # vgs - vt, vgs referenced to min(svd, svs): svd exactly where
        # swap, svs on a tie.
        vov = vl[g] * p - (svd if swap else svs) - vt
        if vov <= 0.0:  # maximum(vov, 0.0): a tie gives +0.0, NaN stays
            vov = 0.0
        x = vds if vds < vov else vov
        clm = lam * vds + 1.0
        core = vov * x - x * x * 0.5
        ids = beta * core * clm * sign
        w.append(-ids if swap else ids)
        if with_jacobian:
            gm = beta * x * clm
            gds = ((vov - x) * clm + core * lam) * beta
            # The fixed-frame stamps with sg = swap * gm (1.0 * gm is gm).
            if swap:
                jdd = gds + gm
                jss = gds + (gm - gm)
                jdg = -gm
            else:
                zero = 0.0 * gm
                jdd = gds + zero
                jss = gds + (gm - zero)
                jdg = gm
            dd.append(jdd)
            dg.append(jdg)
            ds.append(-jss)
            sd.append(-jdd)
            sg.append(-jdg)
            ss.append(jss)
    if not with_jacobian:
        return w, None
    return w, dd + dg + ds + sd + sg + ss


class ScalarKernel:
    """Reusable-buffer device evaluation for one compiled circuit.

    Built lazily by :meth:`CompiledCircuit.kernel`.  Model-card arrays
    (``m_vt``/``m_beta``/``m_lam``) are read from the owning circuit at
    every call, so parameter mutations after compilation (the fault- and
    poison-injection tests rely on this) are honoured; only the
    *connectivity* (``m_d``/``m_g``/``m_s``) is frozen into the scatter
    plan.
    """

    def __init__(self, circuit: Any) -> None:
        self.circuit = circuit
        n = circuit.n_total
        m = circuit.m_d.size
        self.n = n
        self.m = m
        self.f_idx, self.j_idx, self.incidence = mosfet_scatter_plan(
            circuit.m_d, circuit.m_g, circuit.m_s, n
        )
        # Reused output/scratch buffers (not thread-safe, by design).
        self.f = np.empty(n)
        self.j = np.empty((n, n))
        self._j_flat = self.j.reshape(-1)
        self._fs = np.empty(n)        # incidence @ weights scratch
        self._nn = n * n
        # The stamp body: Python floats up to FLOAT_STAMP_MAX_DEVICES
        # devices, numpy rows (and their scratch) above.
        self._devices: Optional[Tuple[Tuple[int, int, int, float], ...]] = None
        if m <= FLOAT_STAMP_MAX_DEVICES:
            self._devices = tuple(zip(
                circuit.m_d.tolist(), circuit.m_g.tolist(),
                circuit.m_s.tolist(), circuit.m_sign.tolist(),
            ))
        else:
            self._jw = np.empty((6, m))   # Jacobian stamp weights, row-major
            self._jw_flat = self._jw.reshape(-1)
            self._b = np.empty((10, m))   # elementwise scratch rows
            self._swap = np.empty(m, dtype=bool)
            self._idx_all, self._sign3 = level1_gather(circuit)

    def eval(
        self,
        v: np.ndarray,
        with_jacobian: bool = True,
        stats: Optional[KernelStats] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Assemble ``(f, j)`` at ``v`` into the kernel's reused buffers.

        The returned arrays are owned by the kernel and overwritten by
        the next call; callers that keep them must copy (the public
        :meth:`CompiledCircuit.device_currents` does).

        The model math is :func:`level1_stamp_floats` up to
        :data:`FLOAT_STAMP_MAX_DEVICES` devices and :func:`level1_stamp`
        above, bit-equal bodies; this kernel adds the dense gather and the
        ``incidence @ w`` / ``bincount`` scatter, so results match
        :func:`reference_device_currents` up to the scatter summation
        order.
        """
        t0 = perf_counter() if stats is not None else 0.0
        circuit = self.circuit
        # c_einsum, not matmul: the batched kernel's ``bij,bj->bi`` form
        # is bit-identical to this ``ij,j->i`` per sample (same inner
        # summation loop), while BLAS matmul accumulates differently -
        # and the B == 1 batch/scalar equivalence pin needs identical
        # bits so the engines' accept decisions can never diverge.
        f = c_einsum("ij,j->i", circuit.G, v, out=self.f)
        j = None
        if with_jacobian:
            j = self.j
            j[...] = circuit.G
        if self.m:
            if self._devices is not None:
                w, jw = level1_stamp_floats(
                    v.tolist(), self._devices, circuit, with_jacobian
                )
            else:
                sv = v[self._idx_all]  # sign-premultiplied (vd, vg, vs)
                sv *= self._sign3
                w = level1_stamp(sv, circuit, self._b, self._swap,
                                 self._jw if with_jacobian else None)
                jw = self._jw_flat if with_jacobian else None
            f += c_einsum("nm,m->n", self.incidence, w, out=self._fs)
            if jw is not None:
                self._j_flat += np.bincount(
                    self.j_idx, weights=jw, minlength=self._nn
                )
        if stats is not None:
            stats.assembles += 1
            stats.assemble_s += perf_counter() - t0
        return f, j
