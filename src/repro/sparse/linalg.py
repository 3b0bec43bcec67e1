"""Sparse LU factor layer over ``scipy.sparse.linalg.splu``.

:class:`SparseLU` owns the linear-solve side of the sparse Newton path:
it is constructed once per topology from a fixed CSR pattern
(``indptr``/``indices``) and refactored from a fresh ``data`` vector
whenever the engine's modified-Newton policy decides the cached factor
went stale.  It factors with SuperLU (COLAMD ordering) from the
``repro[sparse]`` extra; :attr:`SparseLU.fill_nnz` (``L.nnz + U.nnz``)
feeds the kernel stats.

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

    :meth:`factor` consumes a ``data`` vector laid out on that pattern;
    :meth:`solve` applies the last factorization.  A singular system
    never raises from ``solve``: the solution comes back non-finite and
    the caller's step guard handles it, mirroring the dense engine's
    ``raw_inv``.  Raises ``ImportError`` when scipy is unavailable.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, n: int
    ) -> None:
        if not scipy_available():
            raise ImportError("SparseLU needs scipy (pip install 'repro[sparse]')")
        _, self._splu = scipy_splu()
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.nnz = int(self.indices.size)
        #: ``L.nnz + U.nnz`` of the last successful factorization - the
        #: fill-in telemetry.
        self.fill_nnz = 0
        self._factor: Any = None
        # Structure template reused every factorization; only its
        # ``data`` is rewritten before the CSR -> CSC conversion.
        from scipy.sparse import csr_matrix

        self._template = csr_matrix(
            (np.zeros(self.nnz), self.indices, self.indptr),
            shape=(self.n, self.n),
        )

    def factor(self, data: np.ndarray) -> None:
        """Factor the matrix whose CSR data is ``data``.

        Never raises on a singular system; the failure surfaces as a
        non-finite :meth:`solve` result instead.
        """
        if self.n == 0:
            self._factor = True
            self.fill_nnz = 0
            return
        template = self._template
        template.data[:] = data
        try:
            self._factor = self._splu(template.tocsc())
            self.fill_nnz = int(self._factor.L.nnz + self._factor.U.nnz)
        except RuntimeError:  # singular matrix
            self._factor = None

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` with the last factorization into ``out``."""
        if self.n == 0:
            return out
        if self._factor is None:
            out[:] = np.nan
            return out
        out[:] = self._factor.solve(rhs)
        return out
