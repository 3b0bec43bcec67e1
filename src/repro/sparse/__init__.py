"""Sparse MNA subsystem: whole-chip transients at 10^3-10^4 nodes.

The dense engine factors an ``(n_free, n_free)`` Jacobian per Newton
refresh - O(n^3) - which caps it at sensor-sized circuits.  This package
adds the sparse path of ROADMAP item 2:

* :mod:`repro.sparse.csr` - a compressed-sparse-row plan built *once*
  per topology from the compile-time scatter plans of
  :mod:`repro.analog.kernels` (the fixed-target property means the
  Jacobian's nonzero pattern never changes, so only the CSR ``data``
  vector is rewritten per Newton iteration), plus a
  :class:`~repro.sparse.csr.SparseKernel` that evaluates the level-1
  devices without ever touching an ``(n, n)`` array;
* :mod:`repro.sparse.linalg` - the :class:`~repro.sparse.linalg.SparseLU`
  factor layer over ``scipy.sparse.linalg.splu``, from the
  ``repro[sparse]`` extra;
* :mod:`repro.sparse.newton` - :class:`~repro.sparse.newton.SparseBackend`,
  the CSR linear algebra the engine's one Newton loop runs on under
  ``jacobian_policy="sparse"`` (the modified-Newton policy itself stays
  in :mod:`repro.analog.engine`, shared with the dense backend), plus
  the DC operating-point hook.

Select it with ``TransientOptions(jacobian_policy="sparse")`` or let
``"auto"`` pick it by node count.  Without scipy both policies run on
the engine's dense backend, so tier-1 stays numpy-only.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".csr": ("CsrPlan", "SparseKernel", "csr_plan"),
    ".linalg": ("SparseLU", "scipy_available"),
    ".newton": ("SparseBackend", "SparseKernelStats", "SparseStaticSolver"),
})
