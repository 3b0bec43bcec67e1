"""Compilation of a netlist into the dense arrays the engine integrates.

Node ordering: the ``n_free`` solved nodes come first, then the driven
(source) nodes.  All device evaluation works on the *full* voltage vector so
the same pass also yields the current drawn from every source - which is how
the IDDQ probe (Sec. 3 of the paper) is implemented.

MOSFETs are evaluated in vectorised model space:

* PMOS voltages are negated (``sign = -1``) so one set of equations serves
  both polarities;
* drain/source are swapped wherever ``vds`` would be negative, so the model
  only ever sees ``vds >= 0``.

Fault semantics honoured here:

* ``stuck_open`` devices are compiled out (channel never conducts);
* ``stuck_on`` devices have their gate remapped to the turn-on rail
  (VDD for NMOS, ground for PMOS), which reproduces the conducting-channel
  behaviour including the analog intermediate voltages of conflicting
  networks that the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.netlist import GROUND, Netlist
from repro.circuit.validate import validate
from repro.devices.mosfet import MosfetType, level1_ids  # noqa: F401  (re-export)
from repro.devices.sources import DCSource

#: Shunt conductance added from every free node to ground for conditioning.
GMIN = 1e-9

#: Parasitic capacitance floor added on every free node so the nodal system
#: is never singular (farads).
CMIN = 0.5e-15

#: Free-node count past which running a dense-family ``jacobian_policy``
#: is flagged: the engine's O(n^2) Jacobian buffers and O(n^3)
#: refactorizations stop being an implementation detail around here.
DENSE_WARN_NODES = 512

#: Times :func:`note_dense_jacobian` fired this process (telemetry /
#: test observable; the stderr message itself is emitted only once).
dense_jacobian_warnings = 0
_dense_jacobian_announced = False


def note_dense_jacobian(n_free: int, policy: str) -> None:
    """Record a dense-Jacobian run above :data:`DENSE_WARN_NODES`.

    Counts every occurrence in :data:`dense_jacobian_warnings` and
    writes one stderr line per process - loud enough to catch a
    whole-tree campaign silently burning O(n^3) per Newton refresh,
    quiet enough not to spam a sweep.  The engine also tallies the event
    under ``"dense-jacobian-large-n"`` in its escalation counters, which
    flow into the campaign telemetry.
    """
    global dense_jacobian_warnings, _dense_jacobian_announced
    dense_jacobian_warnings += 1
    if not _dense_jacobian_announced:
        _dense_jacobian_announced = True
        import sys

        print(
            f"repro: dense Jacobian (jacobian_policy={policy!r}) on "
            f"{n_free} free nodes (> {DENSE_WARN_NODES}); each Newton "
            "refresh factors a dense matrix - the sparse backend needs "
            "jacobian_policy='sparse' or 'auto' and scipy "
            "(pip install 'repro[sparse]')",
            file=sys.stderr,
        )


@dataclass
class CompiledCircuit:
    """A netlist lowered to dense arrays ready for integration."""

    netlist: Netlist
    node_index: Dict[str, int] = field(default_factory=dict)
    n_free: int = 0
    n_total: int = 0
    vdd_node: str = "vdd"

    # Linear parts (full-size, n_total x n_total).
    G: np.ndarray = field(default=None, repr=False)
    C: np.ndarray = field(default=None, repr=False)

    # MOSFET arrays.
    m_d: np.ndarray = field(default=None, repr=False)
    m_g: np.ndarray = field(default=None, repr=False)
    m_s: np.ndarray = field(default=None, repr=False)
    m_sign: np.ndarray = field(default=None, repr=False)
    m_vt: np.ndarray = field(default=None, repr=False)
    m_beta: np.ndarray = field(default=None, repr=False)
    m_lam: np.ndarray = field(default=None, repr=False)

    #: Compile-time ``(node index, source)`` pairs and the reusable
    #: scratch vector behind :meth:`source_voltages` (the dict walk and
    #: fresh ``np.zeros`` of the original implementation were a measurable
    #: per-timestep cost).
    _source_plan: List[Tuple[int, Any]] = field(default_factory=list, repr=False)
    _source_plan_dynamic: List[Tuple[int, Any]] = field(
        default_factory=list, repr=False
    )
    _source_scratch: np.ndarray = field(default=None, repr=False)
    _kernel: Any = field(default=None, repr=False)

    @classmethod
    def compile(cls, netlist: Netlist, vdd_node: str = "vdd") -> "CompiledCircuit":
        """Validate and lower ``netlist``.

        ``vdd_node`` names the positive supply; it is required only when the
        netlist contains stuck-on NMOS faults (their gate is remapped there).
        """
        validate(netlist)
        self = cls(netlist=netlist, vdd_node=vdd_node)

        free = netlist.free_nodes()
        driven = netlist.driven_nodes()
        self.node_index = {n: i for i, n in enumerate(free + driven)}
        self.n_free = len(free)
        self.n_total = len(free) + len(driven)
        n = self.n_total
        idx = self.node_index

        self.G = np.zeros((n, n))
        self.C = np.zeros((n, n))

        def stamp_two_terminal(matrix: np.ndarray, a: int, b: int, value: float) -> None:
            matrix[a, a] += value
            matrix[b, b] += value
            matrix[a, b] -= value
            matrix[b, a] -= value

        for r in netlist.resistors:
            if r.a == r.b:
                continue
            stamp_two_terminal(self.G, idx[r.a], idx[r.b], r.conductance)
        for c in netlist.capacitors:
            if c.a == c.b:
                continue
            stamp_two_terminal(self.C, idx[c.a], idx[c.b], c.capacitance)

        ground = idx[GROUND]
        for k in range(self.n_free):
            stamp_two_terminal(self.G, k, ground, GMIN)
            stamp_two_terminal(self.C, k, ground, CMIN)

        d_list: List[int] = []
        g_list: List[int] = []
        s_list: List[int] = []
        sign_list: List[int] = []
        vt_list: List[float] = []
        beta_list: List[float] = []
        lam_list: List[float] = []
        for m in netlist.mosfets:
            if m.stuck_open:
                continue
            gate = m.gate
            if m.stuck_on:
                gate = vdd_node if m.mtype is MosfetType.NMOS else GROUND
                if gate not in idx:
                    raise KeyError(
                        f"stuck-on fault on {m.name} needs rail node {gate!r} "
                        "in the netlist"
                    )
            d_list.append(idx[m.drain])
            g_list.append(idx[gate])
            s_list.append(idx[m.source])
            sign_list.append(m.mtype.sign)
            vt_list.append(m.vt_magnitude)
            beta_list.append(m.beta)
            lam_list.append(m.card.lam)
            # Weak channel leakage keeps series stacks conditioned.
            stamp_two_terminal(self.G, idx[m.drain], idx[m.source], GMIN)

        self.m_d = np.array(d_list, dtype=int)
        self.m_g = np.array(g_list, dtype=int)
        self.m_s = np.array(s_list, dtype=int)
        self.m_sign = np.array(sign_list, dtype=float)
        self.m_vt = np.array(vt_list, dtype=float)
        self.m_beta = np.array(beta_list, dtype=float)
        self.m_lam = np.array(lam_list, dtype=float)

        self._source_plan = [
            (idx[node], src) for node, src in netlist.sources.items()
        ]
        self._source_plan_dynamic = [
            (i, src) for i, src in self._source_plan
            if not isinstance(src, DCSource)
        ]
        self._source_scratch = np.zeros(n)
        return self

    # ------------------------------------------------------------------ #
    # Sources
    # ------------------------------------------------------------------ #
    def source_voltages(self, t: float) -> np.ndarray:
        """Voltages of all driven nodes at time ``t`` (full-vector layout:
        the first ``n_free`` entries are zero placeholders)."""
        scratch = self._source_scratch
        for index, src in self._source_plan:
            scratch[index] = src.value(t)
        return scratch.copy()

    def source_voltages_into(
        self, t: float, out: np.ndarray, dynamic_only: bool = False
    ) -> np.ndarray:
        """Fill ``out`` (length ``n_total``) with the driven-node voltages
        at ``t`` - the allocation-free variant the engine hot loop uses.
        Only driven entries are written; free entries keep their values.

        With ``dynamic_only`` the DC sources are skipped: a caller that
        reuses one buffer across timesteps writes the constants once and
        refreshes only the time-varying sources per step.
        """
        plan = self._source_plan_dynamic if dynamic_only else self._source_plan
        for index, src in plan:
            out[index] = src.value(t)
        return out

    def breakpoints(self, t0: float, t1: float) -> List[float]:
        """All source waveform corners in ``[t0, t1]``, sorted and unique."""
        points = set()
        for src in self.netlist.sources.values():
            if isinstance(src, DCSource):
                continue
            points.update(src.breakpoints(t0, t1))
        return sorted(points)

    # ------------------------------------------------------------------ #
    # Device evaluation
    # ------------------------------------------------------------------ #
    def kernel(self) -> "ScalarKernel":
        """The compiled scatter/assembly kernel of this circuit (lazy).

        Built on first use so that compilation itself stays cheap for
        callers that never integrate (structure checks, probes).  The
        kernel freezes the device *connectivity*; model-card parameters
        are still read per evaluation, so post-compile mutations of
        ``m_vt``/``m_beta``/``m_lam`` (fault/poison injection) apply.
        """
        if self._kernel is None:
            from repro.analog.kernels import ScalarKernel

            self._kernel = ScalarKernel(self)
        return self._kernel

    def device_currents(
        self, v: np.ndarray, with_jacobian: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Static currents leaving each node, and their Jacobian.

        Parameters
        ----------
        v:
            Full voltage vector (length ``n_total``).
        with_jacobian:
            Skip the Jacobian scatter when only the residual is needed
            (saves time in acceptance checks and probes).

        Returns
        -------
        (f, j):
            ``f[k]`` is the total static (resistive + MOSFET) current
            flowing *out of* node ``k`` into devices; ``j`` is ``df/dv``
            (``None`` when ``with_jacobian`` is false).  Assembly happens
            in the compiled :meth:`kernel`; the returned arrays are fresh
            copies, safe for the caller to keep or mutate.
        """
        f, j = self.kernel().eval(v, with_jacobian=with_jacobian)
        return f.copy(), (j.copy() if j is not None else None)
