"""Sparse linear algebra for the engine's one Newton loop.

:class:`SparseBackend` is the CSR implementation of the backend surface
the scalar Newton iteration (:func:`repro.analog.engine._newton_step`)
runs on: refresh ``C/h``, the ``(C/h) @ v`` residual term, factor
``alpha * J_ff + C/h`` (plus the shunt diagonal), solve, and ``C @ v``
for the outer loop.  The modified-Newton policy is not here - it is the
engine's, so the dense and sparse paths take the *same* iteration
decisions on the same trajectory and the factor/reuse counters agree
(``tests/test_sparse_engine.py`` pins the parity).  The engine selects
this backend only when scipy imports.

:class:`SparseStaticSolver` is the matching DC-operating-point hook:
``dcop._newton_static`` accepts it as its ``solver`` to evaluate and
factor sparsely while keeping the ladder logic untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.analog.kernels import KernelStats
from repro.sparse.csr import SparseKernel, csr_plan
from repro.sparse.linalg import SparseLU


@dataclass
class SparseKernelStats(KernelStats):
    """Kernel counters plus the sparse-path observables.

    ``sparse_nnz`` is the pattern size of the Newton matrix and
    ``sparse_fill_nnz`` the ``L + U`` fill of the run's last successful
    factorization (set once, by :meth:`SparseBackend.kernel_stats`).
    Both are gauges: :func:`~repro.analog.kernels.fold_kernel_stat`
    keeps their largest value when runs are folded, here and in
    :meth:`repro.runtime.Telemetry.record_kernel`.
    """

    sparse_nnz: int = 0
    sparse_fill_nnz: int = 0


class SparseBackend:
    """CSR linear algebra of the engine's Newton loop.

    The sparse implementation of the backend surface of
    :class:`repro.analog.engine.DenseBackend`: the Newton matrix lives
    as a CSR ``data`` vector on the fixed
    :class:`~repro.sparse.csr.CsrPlan` pattern, factored by
    :class:`~repro.sparse.linalg.SparseLU`, and the charge terms are COO
    mat-vecs.  Nothing ``(n, n)``-shaped is allocated.
    """

    def __init__(self, circuit: Any) -> None:
        self.circuit = circuit
        self.plan = plan = csr_plan(circuit)
        self.kernel = SparseKernel(circuit, plan)
        self.lu = SparseLU(plan.indptr, plan.indices, circuit.n_free)
        self.stats = SparseKernelStats(sparse_nnz=plan.nnz)
        self._dev = np.empty(plan.nnz)      # G_ff + device stamps
        self._data = np.empty(plan.nnz)     # alpha * dev + C/h (+ shunt diag)
        self._ch = np.zeros(plan.nnz)       # C/h data on the pattern
        self._cf_scaled = np.empty(plan.cf_val.size)
        self.h_scaled: Optional[float] = None

    def scale(self, h: float) -> None:
        """Refresh the ``C / h`` data vectors when ``h`` changes."""
        if self.h_scaled != h:
            plan = self.plan
            inv_h = 1.0 / h
            np.multiply(plan.cf_val, inv_h, out=self._cf_scaled)
            # Same elementwise op as the dense ``C_ff * (1/h)``, so the
            # assembled Newton data matches the dense matrix bit-for-bit.
            self._ch[plan.c_pos] = plan.c_val * inv_h
            self.h_scaled = h

    def scaled_charge(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The residual's ``(C/h) @ v`` term on the free rows."""
        plan = self.plan
        prod = self._cf_scaled * v[plan.cf_cols]
        out[:] = np.bincount(plan.cf_rows, weights=prod, minlength=out.size)
        return out

    def factor(self, jw: np.ndarray, alpha: float, shunt: float) -> None:
        """Factor ``alpha * (G_ff + stamps) + C_ff/h (+ shunt * I)`` from
        the kernel's stamp weights.  A singular system surfaces as a
        non-finite solve, which the step guard rejects."""
        plan, data = self.plan, self._data
        np.multiply(plan.device_data(jw, self._dev), alpha, out=data)
        data += self._ch
        if shunt:
            data[plan.diag_pos] += shunt
        self.lu.factor(data)

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Apply the last factorization to ``rhs``."""
        return self.lu.solve(rhs, out=out)

    def charge_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``C @ v`` (full length ``n_total``) as a COO mat-vec."""
        plan = self.plan
        prod = plan.c_coo_val * v[plan.c_coo_cols]
        out[:] = np.bincount(plan.c_coo_rows, weights=prod, minlength=out.size)
        return out

    def probe_charge(self, v: np.ndarray) -> np.ndarray:
        """``C @ v`` for the recorded source currents (fresh array)."""
        return self.charge_into(v, np.empty(self.circuit.n_total))

    def dcop_solver(self) -> "SparseStaticSolver":
        """The operating-point hook sharing this run's plan/kernel/LU."""
        return SparseStaticSolver(self)

    def kernel_stats(self) -> Dict[str, Any]:
        """The run's counter snapshot; the fill gauge is read here, once,
        from the last successful factorization."""
        self.stats.sparse_fill_nnz = self.lu.fill_nnz()
        return self.stats.as_dict()


class SparseStaticSolver:
    """Sparse evaluate/factor hook for ``dcop._newton_static``.

    The DC ladder's control flow (damping, shunt homotopy, source
    stepping) stays in :mod:`repro.analog.dcop`; this object replaces
    only its two dense operations - ``circuit.device_currents`` and
    ``np.linalg.solve`` - with the plan, kernel and LU of a run's
    :class:`SparseBackend`, keeping the counters untouched, as the dense
    ladder never fed :class:`KernelStats` either.
    """

    def __init__(self, backend: SparseBackend) -> None:
        self.plan, self.kernel, self.lu = backend.plan, backend.kernel, backend.lu
        self._jw: Optional[np.ndarray] = None
        self._dev = np.empty(self.plan.nnz)
        self._delta = np.empty(backend.circuit.n_free)

    def currents(self, v: np.ndarray) -> np.ndarray:
        """Static device currents at ``v`` (full length), keeping the
        Jacobian stamp weights for the following :meth:`solve`."""
        f, self._jw = self.kernel.eval(v, with_jacobian=True)
        return f

    def solve(self, shunt: float, residual: np.ndarray) -> np.ndarray:
        """``delta = -(J_ff + shunt * I)^-1 residual`` at the last
        :meth:`currents` iterate.  Singularity surfaces as a non-finite
        delta, which the caller's finite guard rejects - the same
        contract as the dense ``LinAlgError`` branch."""
        plan = self.plan
        data = plan.device_data(self._jw, self._dev)
        if shunt:
            data[plan.diag_pos] += shunt
        self.lu.factor(data)
        self.lu.solve(residual, out=self._delta)
        np.negative(self._delta, out=self._delta)
        return self._delta
