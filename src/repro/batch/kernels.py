"""Batched device kernel: the shared stamp body over ``(B, M)`` rows.

:class:`BatchKernel` assembles the device residual and Jacobian of a
whole :class:`~repro.batch.compile.BatchCompiledCircuit` stack into
preallocated buffers.  The level-1 model math is
:func:`repro.analog.kernels.level1_stamp` - the same function the scalar
and sparse kernels call - evaluated on ``(B, M)`` rows; this module only
owns the stacked gather and scatter.  Every stamp operation is
elementwise, and the flattened Jacobian scatter indexes sample-major
with the scalar's six-block stamp order inside each sample - so a batch
of size one adds its weights in exactly the scalar sequence and stays
bit-identical to the scalar kernel (``tests/test_kernels.py`` pins it).

Model-card arrays (``m_vt``/``m_beta``/``m_lam``) are read from the
owning batch at every call, so post-compile parameter mutations (fault
poisoning in the mask-semantics tests) are honoured; only connectivity
is frozen into the scatter plan.  Buffers are reused across calls - a
kernel must not be shared across threads.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Optional, Tuple

import numpy as np

from repro.analog.kernels import (
    KernelStats,
    c_einsum,
    level1_gather,
    level1_stamp,
    mosfet_scatter_plan,
)


class BatchKernel:
    """Reusable-buffer device evaluation for one compiled batch.

    Built lazily by :meth:`BatchCompiledCircuit.kernel`.  All scratch is
    sized ``(B, M)`` at construction; the evaluation itself allocates
    only what :func:`np.bincount` returns.
    """

    def __init__(self, batch: Any) -> None:
        self.batch = batch
        B = batch.batch_size
        n = batch.n_total
        m = batch.m_d.size
        self.B = B
        self.n = n
        self.m = m
        self.f_idx, self.j_idx, self.incidence = mosfet_scatter_plan(
            batch.m_d, batch.m_g, batch.m_s, n
        )
        #: Sample-major flattened Jacobian targets: sample ``b``'s block
        #: keeps the scalar six-stamp order, so the ``B == 1`` bincount
        #: accumulates in the scalar kernel's exact sequence.
        self._j_idx_all = (
            np.arange(B, dtype=np.intp)[:, None] * (n * n)
            + self.j_idx[None, :]
        ).ravel()
        # Reused output/scratch buffers (not thread-safe, by design).
        self.f = np.empty((B, n))
        self.j = np.empty((B, n, n))
        self._j_flat = self.j.reshape(-1)
        self._fs = np.empty((B, n))
        self._jw = np.empty((B, 6, m))
        self._jw_flat = self._jw.reshape(-1)
        self._jw_rows = self._jw.swapaxes(0, 1)  # stamp k -> (B, M) view
        self._nnB = B * n * n
        self._b = np.empty((10, B, m))
        self._swap = np.empty((B, m), dtype=bool)
        self._sv = np.empty((B, 3 * m))
        self._idx_all, self._sign3 = level1_gather(batch)

    def eval(
        self,
        v: np.ndarray,
        with_jacobian: bool = True,
        stats: Optional[KernelStats] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Assemble ``(f, j)`` at ``v`` (``(B, n)``) into reused buffers.

        The returned arrays are owned by the kernel and overwritten by
        the next call; callers that keep them must copy (the public
        :meth:`BatchCompiledCircuit.device_currents` does).
        """
        t0 = perf_counter() if stats is not None else 0.0
        batch = self.batch
        f = c_einsum("bij,bj->bi", batch.G, v, out=self.f)
        j = None
        if with_jacobian:
            j = self.j
            j[...] = batch.G
        if self.m:
            sv = np.take(v, self._idx_all, axis=1, out=self._sv)
            sv *= self._sign3
            jw = self._jw_rows if with_jacobian else None
            w = level1_stamp(sv, batch, self._b, self._swap, jw)
            f += c_einsum("nm,bm->bn", self.incidence, w, out=self._fs)
            if jw is not None:
                self._j_flat += np.bincount(
                    self._j_idx_all, weights=self._jw_flat, minlength=self._nnB
                )
        if stats is not None:
            stats.assembles += 1
            stats.assemble_s += perf_counter() - t0
        return f, j
