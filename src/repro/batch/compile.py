"""Stacking N parameter variants of one topology into batched MNA tensors.

:func:`compile_batch` lowers each netlist through the scalar
:meth:`repro.analog.compile.CompiledCircuit.compile` (so validation,
fault semantics, GMIN/CMIN conditioning and node ordering are exactly
the scalar engine's), verifies the samples are *structurally identical*
(same node set and ordering, same device connectivity and polarity -
only parameter values may differ), and stacks the results along a
leading batch axis:

==================  ===========  ========================================
array               shape        meaning
==================  ===========  ========================================
``G``, ``C``        ``(B,n,n)``  per-sample linear conductance/capacitance
``m_vt`` etc.       ``(B,M)``    per-sample MOSFET model cards
``m_d/m_g/m_s``     ``(M,)``     shared connectivity (indices into nodes)
==================  ===========  ========================================

Device evaluation mirrors :meth:`CompiledCircuit.device_currents` but
runs once for the whole stack, in the compiled
:class:`~repro.batch.kernels.BatchKernel` (lazy, see :meth:`kernel`):
the scalar engine's level-1 stamp body evaluates elementwise on
``(B, M)`` scratch rows and the node scatter is one flattened-index
``np.bincount`` for all samples, so a single-sample batch stays
bit-identical to the scalar engine.

Source evaluation is grouped per driven node at compile time: a node
driven by :class:`~repro.devices.sources.DCSource` in every sample
becomes one precomputed constant column; a node driven by
:class:`~repro.devices.sources.ClockSource` everywhere evaluates the
pulse waveform closed-form over ``(B,)`` parameter arrays; anything else
falls back to a per-sample Python loop (correct, just not vectorized).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analog.compile import CompiledCircuit
from repro.circuit.netlist import Netlist
from repro.devices.sources import ClockSource, DCSource


class BatchTopologyError(ValueError):
    """Raised when netlists handed to :func:`compile_batch` differ in
    structure (node set, ordering, device connectivity or polarity) and
    therefore cannot share one stacked tensor layout."""


@dataclass
class _ClockGroup:
    """Vectorized parameters of one driven node that is a clock in every
    sample: the SPICE-pulse decomposition of
    :class:`~repro.devices.sources.ClockSource` as ``(B,)`` arrays."""

    node: int
    delay: np.ndarray  # first-edge time (clock delay + skew), (B,)
    slew: np.ndarray
    width: np.ndarray
    period: np.ndarray
    vdd: np.ndarray

    def values(self, t: Union[float, np.ndarray]) -> np.ndarray:
        """Clock voltages of all samples at time ``t`` - one time, or a
        ``(B,)`` array of per-sample times (closed form)."""
        tau = np.mod(t - self.delay, self.period)
        r, w = self.slew, self.width
        v = np.where(
            tau < r,
            self.vdd * tau / r,
            np.where(
                tau < r + w,
                self.vdd,
                np.where(
                    tau < r + w + r,
                    # Same operation order as PulseSource._phase_value so
                    # the batched stimulus is bit-identical to the scalar.
                    self.vdd + (0.0 - self.vdd) * ((tau - r - w) / r),
                    0.0,
                ),
            ),
        )
        return np.where(t < self.delay, 0.0, v)


@dataclass
class BatchCompiledCircuit:
    """``B`` structurally identical circuits lowered to stacked arrays.

    The scalar :class:`~repro.analog.compile.CompiledCircuit` objects are
    kept in :attr:`circuits` so masked-out samples can be re-dispatched
    to the scalar engine without recompiling.
    """

    circuits: List[CompiledCircuit]
    node_index: Dict[str, int] = field(default_factory=dict)
    n_free: int = 0
    n_total: int = 0

    #: Linear parts, stacked: ``(B, n_total, n_total)``.
    G: np.ndarray = field(default=None, repr=False)
    C: np.ndarray = field(default=None, repr=False)

    #: Shared MOSFET connectivity ``(M,)`` and per-sample cards ``(B, M)``.
    m_d: np.ndarray = field(default=None, repr=False)
    m_g: np.ndarray = field(default=None, repr=False)
    m_s: np.ndarray = field(default=None, repr=False)
    m_sign: np.ndarray = field(default=None, repr=False)
    m_vt: np.ndarray = field(default=None, repr=False)
    m_beta: np.ndarray = field(default=None, repr=False)
    m_lam: np.ndarray = field(default=None, repr=False)

    # Source evaluation plan (built by compile_batch).
    _dc_values: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _clock_groups: List[_ClockGroup] = field(default_factory=list, repr=False)
    _slow_nodes: List[int] = field(default_factory=list, repr=False)
    _kernel: object = field(default=None, repr=False)

    @property
    def batch_size(self) -> int:
        """Number of stacked samples ``B``."""
        return len(self.circuits)

    # ------------------------------------------------------------------ #
    # Sources
    # ------------------------------------------------------------------ #
    def source_voltages(self, t: float) -> np.ndarray:
        """Driven-node voltages of every sample at time ``t``, ``(B, n)``
        (free-node entries are zero placeholders, like the scalar layout).
        """
        v = np.zeros((self.batch_size, self.n_total))
        return self.source_voltages_into(t, v)

    def source_voltages_into(
        self, t: Union[float, np.ndarray], out: np.ndarray,
        dynamic_only: bool = False,
    ) -> np.ndarray:
        """Fill ``out`` (``(B, n_total)``) with the driven-node voltages
        at ``t`` - one time for the stack, or a ``(B,)`` array of
        per-row times - the allocation-free variant the lockstep hot
        loop uses.  Only driven entries are written; free entries keep
        their values.  With ``dynamic_only`` the DC columns are skipped:
        a caller reusing one buffer across timesteps writes the
        constants once and refreshes only the time-varying sources per
        step.
        """
        if not dynamic_only:
            for node, column in self._dc_values.items():
                out[:, node] = column
        for group in self._clock_groups:
            out[:, group.node] = group.values(t)
        if self._slow_nodes:
            times = np.broadcast_to(t, (self.batch_size,)).tolist()
            for node in self._slow_nodes:
                name = self._node_name(node)
                for b, circuit in enumerate(self.circuits):
                    out[b, node] = circuit.netlist.sources[name].value(times[b])
        return out

    def _node_name(self, index: int) -> str:
        for name, i in self.node_index.items():
            if i == index:
                return name
        raise KeyError(f"no node with index {index}")

    # ------------------------------------------------------------------ #
    # Device evaluation
    # ------------------------------------------------------------------ #
    def kernel(self) -> "BatchKernel":
        """The compiled scatter/assembly kernel of this batch (lazy).

        Mirrors :meth:`CompiledCircuit.kernel`: connectivity is frozen
        into the scatter plan, model-card parameters are read per
        evaluation, so post-compile mutations of ``m_vt``/``m_beta``/
        ``m_lam`` (fault/poison injection) apply.
        """
        if self._kernel is None:
            from repro.batch.kernels import BatchKernel

            self._kernel = BatchKernel(self)
        return self._kernel

    def device_currents(
        self, v: np.ndarray, with_jacobian: bool = True
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Static currents and Jacobians of the whole stack.

        Parameters
        ----------
        v:
            Stacked voltage vectors, ``(B, n_total)``.

        Returns
        -------
        (f, j):
            ``f`` is ``(B, n_total)``; ``j`` is ``(B, n_total, n_total)``
            (``None`` when ``with_jacobian`` is false).  Sample ``b`` of
            the output equals the scalar
            :meth:`~repro.analog.compile.CompiledCircuit.device_currents`
            on ``v[b]`` up to floating-point summation order.  Assembly
            happens in the compiled :meth:`kernel`; the returned arrays
            are fresh copies, safe for the caller to keep or mutate.
        """
        f, j = self.kernel().eval(v, with_jacobian=with_jacobian)
        return f.copy(), (j.copy() if j is not None else None)


def _check_identical(reference: CompiledCircuit, other: CompiledCircuit) -> None:
    """Raise :class:`BatchTopologyError` unless ``other`` shares
    ``reference``'s structure (it may differ in parameter values)."""
    if other.node_index != reference.node_index:
        raise BatchTopologyError(
            "netlists cannot be batched: node sets/ordering differ "
            f"({other.netlist.name!r} vs {reference.netlist.name!r})"
        )
    if other.n_free != reference.n_free or other.n_total != reference.n_total:
        raise BatchTopologyError("netlists cannot be batched: node counts differ")
    for attr in ("m_d", "m_g", "m_s"):
        if not np.array_equal(getattr(other, attr), getattr(reference, attr)):
            raise BatchTopologyError(
                "netlists cannot be batched: MOSFET connectivity differs "
                f"({other.netlist.name!r} vs {reference.netlist.name!r})"
            )
    if not np.array_equal(other.m_sign, reference.m_sign):
        raise BatchTopologyError(
            "netlists cannot be batched: MOSFET polarities differ"
        )
    if sorted(other.netlist.sources) != sorted(reference.netlist.sources):
        raise BatchTopologyError(
            "netlists cannot be batched: driven node sets differ"
        )


def compile_batch(
    netlists: Sequence[Netlist], vdd_node: str = "vdd"
) -> BatchCompiledCircuit:
    """Compile and stack ``netlists`` into one batched circuit.

    Each netlist is lowered through the scalar compiler (keeping its
    validation and fault semantics), then checked for structural
    identity against the first and stacked.

    Raises
    ------
    ValueError
        On an empty sequence.
    BatchTopologyError
        When the netlists differ in structure, not just parameters.
    """
    if not netlists:
        raise ValueError("compile_batch needs at least one netlist")
    circuits = [CompiledCircuit.compile(n, vdd_node=vdd_node) for n in netlists]
    reference = circuits[0]
    for other in circuits[1:]:
        _check_identical(reference, other)

    self = BatchCompiledCircuit(
        circuits=circuits,
        node_index=dict(reference.node_index),
        n_free=reference.n_free,
        n_total=reference.n_total,
    )
    self.G = np.stack([c.G for c in circuits])
    self.C = np.stack([c.C for c in circuits])
    self.m_d = reference.m_d.copy()
    self.m_g = reference.m_g.copy()
    self.m_s = reference.m_s.copy()
    self.m_sign = reference.m_sign.copy()
    self.m_vt = np.stack([c.m_vt for c in circuits])
    self.m_beta = np.stack([c.m_beta for c in circuits])
    self.m_lam = np.stack([c.m_lam for c in circuits])

    # Source-evaluation plan: group each driven node by source type.
    for name in sorted(reference.netlist.sources):
        node = self.node_index[name]
        sources = [c.netlist.sources[name] for c in circuits]
        if all(isinstance(s, DCSource) for s in sources):
            self._dc_values[node] = np.array([s.voltage for s in sources])
        elif all(isinstance(s, ClockSource) for s in sources):
            self._clock_groups.append(_ClockGroup(
                node=node,
                delay=np.array([s.delay + s.skew for s in sources]),
                slew=np.array([s.slew for s in sources]),
                width=np.array([s.period / 2.0 - s.slew for s in sources]),
                period=np.array([s.period for s in sources]),
                vdd=np.array([s.vdd for s in sources]),
            ))
        else:
            self._slow_nodes.append(node)
    return self
