"""CSR assembly plan and allocation-light sparse device kernel.

The dense kernel's enabling observation (see
:mod:`repro.analog.kernels`) is that the MOSFET Jacobian scatter targets
are fixed at compile time - the drain/source swap changes *weights*, not
*targets*.  This module pushes that one step further: because the
targets never move, the union of

* the linear conductance pattern ``G`` (resistors, GMIN shunts),
* the capacitance pattern ``C`` (the ``C/h`` term of the Newton matrix),
* the six per-device MOSFET stamp targets of
  :func:`repro.analog.kernels.mosfet_stamp_targets`, and
* the diagonal (gmin-restart shunt homotopy),

restricted to the free-free block, is a CSR pattern that can be built
**once per topology**.  Every Newton iteration afterwards only rewrites
the ``data`` vector: scatter the gathered ``G`` values, add one
``np.bincount`` of the 6M stamp weights, scale by ``alpha`` and add the
``C/h`` data.  Element for element this performs the *same* float
operations in the same order as the dense assembly
(``j = G + bincount(stamps)``, then ``alpha * j + C/h``), so the CSR
data equals the dense Newton matrix bit-for-bit on the shared pattern -
which is exactly what ``tests/test_sparse_engine.py`` pins.

:class:`SparseKernel` is the matching device evaluator: residuals are
COO mat-vecs plus one bincount scatter (never an ``(n, n)`` or
``(n, M)`` array), and Jacobian calls return the raw ``(6M,)`` stamp
weights for :meth:`CsrPlan.device_data` instead of a dense matrix.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Optional, Tuple

import numpy as np

from repro.analog.kernels import (
    KernelStats,
    level1_gather,
    level1_stamp,
    mosfet_stamp_targets,
)


def csr_plan(circuit: Any) -> "CsrPlan":
    """The (cached) :class:`CsrPlan` of a compiled circuit.

    Campaigns re-integrate one compiled topology many times; the plan
    depends only on the compiled structure, so it is built once and
    stashed on the circuit - the sparse analogue of
    :meth:`repro.analog.compile.CompiledCircuit.kernel`.
    """
    plan = getattr(circuit, "_csr_plan", None)
    if plan is None:
        plan = CsrPlan(circuit)
        circuit._csr_plan = plan
    return plan


class CsrPlan:
    """Fixed CSR pattern of the free-free Newton matrix, plus the
    compile-time index maps that rewrite its ``data`` per iteration.

    Attributes
    ----------
    indptr, indices, nnz:
        CSR structure of the ``(n_free, n_free)`` system.
    diag_pos:
        Position of every diagonal slot in ``data`` (the GMIN stamps
        guarantee the diagonal is always in the pattern).
    m_pos:
        Per-stamp position of the ``(6M,)`` MOSFET weights; stamps whose
        row or column is a driven node map to the discard bucket ``nnz``.
    """

    def __init__(self, circuit: Any) -> None:
        self.circuit = circuit
        nf = int(circuit.n_free)
        n = int(circuit.n_total)
        self.nf = nf
        self.n = n
        G, C = circuit.G, circuit.C

        # --- free-free pattern sources (flat row-major in nf*nf space) --
        g_rows, g_cols = np.nonzero(G[:nf, :nf])
        c_rows, c_cols = np.nonzero(C[:nf, :nf])
        g_flat = g_rows * nf + g_cols
        c_flat = c_rows * nf + c_cols
        diag_flat = np.arange(nf, dtype=np.intp) * (nf + 1)

        # The same fixed Jacobian targets the dense scatter plan uses,
        # just without its (n, M) incidence matrix (which would defeat
        # the sparse memory budget at 10^4 nodes).
        f_idx, j_idx = mosfet_stamp_targets(
            circuit.m_d, circuit.m_g, circuit.m_s, n
        )
        self.f_idx = f_idx
        j_rows = j_idx // n
        j_cols = j_idx % n
        valid = (j_rows < nf) & (j_cols < nf)
        m_flat = j_rows[valid] * nf + j_cols[valid]

        union = np.unique(np.concatenate([g_flat, c_flat, diag_flat, m_flat]))
        self.nnz = int(union.size)
        self.indices = (union % nf).astype(np.intp)
        counts = np.bincount((union // nf).astype(np.intp), minlength=nf)
        self.indptr = np.concatenate(
            [[0], np.cumsum(counts)]
        ).astype(np.intp)

        # data positions of each contributor
        self.g_pos = np.searchsorted(union, g_flat).astype(np.intp)
        self.c_pos = np.searchsorted(union, c_flat).astype(np.intp)
        self.diag_pos = np.searchsorted(union, diag_flat).astype(np.intp)
        m_pos = np.full(j_idx.size, self.nnz, dtype=np.intp)
        m_pos[valid] = np.searchsorted(union, m_flat)
        self.m_pos = m_pos

        # flat gather indices into the (contiguous) dense G for the
        # free-free values; re-gathered per assembly so post-compile
        # parameter mutation of G is honoured like the dense kernel.
        self._g_src = (g_rows * n + g_cols).astype(np.intp)
        # C values on the pattern (C is not mutated post-compile).
        self.c_val = C[:nf, :nf][c_rows, c_cols].copy()

        # --- COO forms for residual / charge mat-vecs -------------------
        gr, gc = np.nonzero(G)
        self.g_coo_rows = gr.astype(np.intp)
        self.g_coo_cols = gc.astype(np.intp)
        self._g_coo_src = (gr * n + gc).astype(np.intp)
        cr, cc = np.nonzero(C)
        self.c_coo_rows = cr.astype(np.intp)
        self.c_coo_cols = cc.astype(np.intp)
        self.c_coo_val = C[cr, cc].copy()
        free = cr < nf
        self.cf_rows = cr[free].astype(np.intp)
        self.cf_cols = cc[free].astype(np.intp)
        self.cf_val = C[cr[free], cc[free]].copy()

    def scatter_dense(self, data: np.ndarray) -> np.ndarray:
        """Densify a data vector into ``(nf, nf)`` (tests, diagnostics)."""
        out = np.zeros((self.nf, self.nf))
        rows = np.repeat(
            np.arange(self.nf, dtype=np.intp), np.diff(self.indptr)
        )
        out[rows, self.indices] = data
        return out

    def device_data(
        self, jw_flat: Optional[np.ndarray], out: np.ndarray
    ) -> np.ndarray:
        """Assemble ``G_ff + MOSFET stamps`` into the CSR ``data`` slot.

        Performs the float operations of the dense assembly (``G`` value
        plus one bincount total per element, accumulated in the same
        weight order), so the result matches ``(G + stamps)[:nf, :nf]``
        bit-for-bit on the pattern.
        """
        out[:] = 0.0
        out[self.g_pos] = self.circuit.G.reshape(-1)[self._g_src]
        if jw_flat is not None and jw_flat.size:
            out += np.bincount(
                self.m_pos, weights=jw_flat, minlength=self.nnz + 1
            )[: self.nnz]
        return out


class SparseKernel:
    """Device evaluation without dense matrices.

    The model math is :func:`repro.analog.kernels.level1_stamp`, shared
    with the dense and batched kernels; only the scatter differs: the
    residual goes through ``np.bincount`` over the compile-time targets
    and a Jacobian call returns the raw ``(6M,)`` stamp weight vector -
    the caller maps it through :meth:`CsrPlan.device_data`.

    ``eval`` is signature-compatible with the dense kernel for
    residual-only calls (``with_jacobian=False``), which is how the
    transient outer loop uses it; the second return value is the weight
    vector, not a matrix, so Jacobian consumers must be sparse-aware.
    """

    def __init__(self, circuit: Any, plan: Optional[CsrPlan] = None) -> None:
        self.circuit = circuit
        self.plan = plan if plan is not None else csr_plan(circuit)
        n = circuit.n_total
        m = circuit.m_d.size
        self.n = n
        self.m = m
        self.f = np.empty(n)
        self._w2 = np.empty(2 * m)     # [w, -w] residual weights
        self._jw = np.empty((6, m))    # Jacobian stamp weights, row-major
        self._jw_flat = self._jw.reshape(-1)
        self._b = np.empty((10, m))    # elementwise scratch rows
        self._swap = np.empty(m, dtype=bool)
        self._idx_all, self._sign3 = level1_gather(circuit)

    def eval(
        self,
        v: np.ndarray,
        with_jacobian: bool = True,
        stats: Optional[KernelStats] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Assemble ``(f, stamp_weights)`` at ``v``.

        ``f`` is the full static current vector (length ``n_total``);
        the second element is the flat ``(6M,)`` Jacobian stamp weight
        vector when requested, else ``None``.  Buffers are reused across
        calls - copy to keep.
        """
        t0 = perf_counter() if stats is not None else 0.0
        circuit = self.circuit
        plan = self.plan
        # f = G @ v as a COO mat-vec (values gathered live, so fault /
        # poison mutation of G is honoured like the dense kernel).
        gv = circuit.G.reshape(-1)[plan._g_coo_src]
        gv *= v[plan.g_coo_cols]
        f = self.f
        f[:] = np.bincount(plan.g_coo_rows, weights=gv, minlength=self.n)
        jw_flat = self._jw_flat if with_jacobian else None
        if self.m:
            m = self.m
            sv = v[self._idx_all]  # sign-premultiplied (vd, vg, vs) gather
            sv *= self._sign3
            w = level1_stamp(sv, circuit, self._b, self._swap,
                             self._jw if with_jacobian else None)
            w2 = self._w2
            w2[:m] = w
            np.negative(w, out=w2[m:])
            f += np.bincount(plan.f_idx, weights=w2, minlength=self.n)
        if stats is not None:
            stats.assembles += 1
            stats.assemble_s += perf_counter() - t0
        return f, jw_flat
