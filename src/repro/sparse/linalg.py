"""Sparse LU factor layer over ``scipy.sparse.linalg.splu``.

:class:`SparseLU` owns the linear-solve side of the sparse Newton path:
it is constructed once per topology from a fixed CSR pattern
(``indptr``/``indices``) and refactored from a fresh ``data`` vector
whenever the engine's modified-Newton policy decides the cached factor
went stale.  The CSR -> CSC layout is built once per pattern, so a
refactorization is one gather into a fixed CSC template plus SuperLU
(COLAMD ordering) from the ``repro[sparse]`` extra.  The fill gauge
:meth:`SparseLU.fill_nnz` (``L.nnz + U.nnz``) builds both triangles as
scipy matrices, so the engine reads it once per run.

Without scipy, :func:`repro.analog.engine.resolve_jacobian_policy`
routes ``"sparse"`` and ``"auto"`` to the dense backend and no
:class:`SparseLU` is built.  The import is resolved lazily through
:func:`scipy_splu`, so tests can hide scipy and call
:func:`reset_backend` without uninstalling anything.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

#: Resolved ``(csc_matrix, splu)`` pair, or ``None`` when scipy is
#: absent; ``_SPLU_RESOLVED`` gates the one-time import attempt.
_SPLU: Optional[Tuple[Any, Any]] = None
_SPLU_RESOLVED = False


def scipy_splu() -> Optional[Tuple[Any, Any]]:
    """``(csc_matrix, splu)`` from scipy, or ``None`` when unavailable.

    The import is attempted once per process (or per
    :func:`reset_backend`); after an ``ImportError`` every run resolves
    to the dense backend.
    """
    global _SPLU, _SPLU_RESOLVED
    if not _SPLU_RESOLVED:
        try:
            from scipy.sparse import csc_matrix
            from scipy.sparse.linalg import splu
        except ImportError:
            _SPLU = None
        else:
            _SPLU = (csc_matrix, splu)
        _SPLU_RESOLVED = True
    return _SPLU


def scipy_available() -> bool:
    """Whether the sparse backend can run (scipy imports)."""
    return scipy_splu() is not None


def reset_backend() -> None:
    """Forget the resolved backend so the next use re-imports scipy.

    Test hook: monkeypatch the import machinery, call this, and every
    run resolved afterwards takes the dense backend.
    """
    global _SPLU, _SPLU_RESOLVED
    _SPLU = None
    _SPLU_RESOLVED = False


class SparseLU:
    """LU factor/solve over a fixed CSR pattern.

    Parameters
    ----------
    indptr, indices:
        The CSR structure of the ``(n, n)`` Newton matrix; frozen for
        the object's lifetime (the fixed-target scatter guarantees the
        pattern never changes between iterations).
    n:
        System size (``n_free`` of the compiled circuit).

    The CSR -> CSC data permutation and the CSC index arrays are built
    once here; :meth:`factor` gathers a ``data`` vector laid out on the
    CSR pattern into the fixed CSC template and factors it, and
    :meth:`solve` applies the last factorization.  SuperLU receives the
    matrix ``csr_matrix(...).tocsc()`` would give it, bit for bit.  A
    singular system never raises from ``solve``: the solution comes back
    non-finite and the caller's step guard handles it, mirroring the
    dense engine's ``raw_inv``.  Raises ``ImportError`` when scipy is
    unavailable.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, n: int
    ) -> None:
        if not scipy_available():
            raise ImportError("SparseLU needs scipy (pip install 'repro[sparse]')")
        csc_matrix, self._splu = scipy_splu()
        self.n = n = int(n)
        indices = np.asarray(indices, dtype=np.intp)
        # A stable sort by column keeps each column's rows ascending:
        # the layout ``tocsc()`` builds, computed once per pattern.
        self._perm = np.argsort(indices, kind="stable")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        col_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(indices, minlength=n), out=col_ptr[1:])
        self._csc = csc_matrix(
            (np.zeros(indices.size), rows[self._perm], col_ptr), shape=(n, n)
        )
        self._factor: Any = None
        self._last: Any = None  # last successful factorization

    def factor(self, data: np.ndarray) -> None:
        """Factor the matrix whose CSR data is ``data``.

        Never raises on a singular system; the failure surfaces as a
        non-finite :meth:`solve` result instead.
        """
        if self.n == 0:
            self._factor = True
            return
        np.take(data, self._perm, out=self._csc.data)
        try:
            self._factor = self._last = self._splu(self._csc)
        except RuntimeError:  # singular matrix
            self._factor = None

    def fill_nnz(self) -> int:
        """``L.nnz + U.nnz`` of the last successful factorization (0
        before one).  Builds both triangles, so read it once per run."""
        if self._last is None:
            return 0
        return int(self._last.L.nnz + self._last.U.nnz)

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` with the last factorization into ``out``."""
        if self.n == 0:
            return out
        if self._factor is None:
            out[:] = np.nan
            return out
        out[:] = self._factor.solve(rhs)
        return out
