"""Campaign job descriptions and their evaluation.

A :class:`SensorJob` is a *complete, picklable, hashable* description of
one sensor transient: the sensor, its clock pair and its engine options,
and nothing else.  Jobs are the unit of work of the campaign
executor, the unit of addressing of the result cache, and the payload that
crosses process boundaries - worker processes rebuild the sensor locally
from the job.

:func:`job_sensor` is the one mapping from job fields to a sensor, and
:func:`job_circuit` adds the job's clocks; the scalar and lockstep
evaluators both build their circuits through them.

The evaluation result is the compact :class:`JobResult` (scalars only, no
waveforms) so that results are cheap to pickle, JSON-serialisable for the
disk cache, and bit-exactly reproducible across the serial and process
backends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.analog.engine import TransientOptions
from repro.circuit.netlist import Netlist
from repro.core.response import clocked_netlist
from repro.core.sensing import SensorSizing, SkewSensor
from repro.devices.process import ProcessParams, nominal_process
from repro.runtime.cache import stable_key
from repro.units import VTH_INTERPRET, ns

#: Namespace folded into every job key, so sensor-response entries can
#: never collide with a future job family (sweeps, IDDQ campaigns, ...).
JOB_NAMESPACE = "sensor-response"


@dataclass(frozen=True)
class SensorJob:
    """One sensor transient, fully specified.

    ``process=None`` means the nominal corner; it is resolved before both
    keying and evaluation, so ``None`` and ``nominal_process()`` address
    the same cache entry.
    """

    skew: float
    load1: float = 160e-15
    load2: float = 160e-15
    slew1: float = ns(0.2)
    slew2: float = ns(0.2)
    process: Optional[ProcessParams] = None
    sizing: SensorSizing = SensorSizing()
    period: float = ns(20.0)
    settle: float = ns(2.0)
    threshold: float = VTH_INTERPRET
    full_swing: bool = False
    parasitics: bool = True
    options: Optional[TransientOptions] = None
    #: Read the job's pre-skew prefix checkpoint from the checkpoint
    #: tier of :mod:`repro.runtime.cache` (and write it there after a
    #: build).  Off, the job builds its prefix on the spot and never
    #: touches the tier; either way it runs the same suffix and returns
    #: the same bits, so the switch is not part of the job identity.
    warm_start: bool = True

    def resolved(self) -> "SensorJob":
        """A copy with every default made explicit (process, options)."""
        job = self
        if job.process is None:
            job = replace(job, process=nominal_process())
        if job.options is None:
            job = replace(job, options=TransientOptions())
        return job

    def key(self) -> str:
        """Content-address of this job's result (engine-version aware).

        Hashed as ``warm_start=True`` whatever the field says: the
        switch moves where the prefix comes from, never the result.
        """
        return stable_key(replace(self.resolved(), warm_start=True),
                          namespace=JOB_NAMESPACE)


@dataclass(frozen=True)
class JobResult:
    """Compact outcome of one :class:`SensorJob`.

    Mirrors the scalar fields of
    :class:`repro.core.response.SensorResponse`; ``steps`` is the number
    of steps the run that read the response accepted (the telemetry's
    engine-step statistic), zero when the value was replayed from cache.
    ``escalations`` is the solver-ladder tally of the underlying
    transient (sorted ``(rung, count)`` pairs - a tuple so the record
    stays hashable), and ``resumed`` marks values replayed from a
    checkpoint journal rather than computed.  ``kernel`` is the
    hot-loop observability record of the transient
    (:meth:`repro.analog.kernels.KernelStats.as_dict` as pairs);
    it describes *this run's* work, so it is deliberately not part of
    the cache payload - cached and resumed replays carry an empty tally,
    exactly like ``steps``.
    """

    skew: float
    vmin_y1: float
    vmin_y2: float
    code: Tuple[int, int]
    steps: int = 0
    cached: bool = False
    escalations: Tuple[Tuple[str, int], ...] = ()
    resumed: bool = False
    kernel: Tuple[Tuple[str, float], ...] = ()
    #: Prefix warm-start accounting of *this run* (sorted pairs: hits,
    #: builds, build_s, saved_s, and the ``steps``, ``newton_iterations``
    #: and ``esc:<rung>`` counts of a prefix it built).  Run-local like
    #: ``kernel``: not part of the cache payload, so cached/resumed
    #: replays carry an empty tuple.
    prefix: Tuple[Tuple[str, float], ...] = ()
    #: A whole-tree job's per-sensor ``(label, skew or None, code)``, in
    #: placement order, and MNA node count; in the payload only when set.
    pairs: Tuple[Tuple[str, Optional[float], Tuple[int, int]], ...] = ()
    n_nodes: int = 0

    @property
    def ok(self) -> bool:
        """Always ``True``; mirrors :attr:`repro.errors.JobError.ok` so
        mixed ``on_error="collect"`` result lists filter uniformly."""
        return True

    @property
    def escalation_counts(self) -> Dict[str, int]:
        """The ladder tally as a plain dict."""
        return dict(self.escalations)

    @property
    def kernel_counts(self) -> Dict[str, float]:
        """The hot-loop kernel tally as a plain dict."""
        return dict(self.kernel)

    @property
    def vmin_late(self) -> float:
        """``Vmin`` of the output tied to the later clock edge."""
        return self.vmin_y2 if self.skew >= 0 else self.vmin_y1

    @property
    def error_detected(self) -> bool:
        """True when the code pair flags an abnormal skew."""
        return self.code != (0, 0)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serialisable form for the disk cache.

        Floats survive ``json`` round-trips bit-exactly (``repr`` based),
        so cached replays are identical to fresh computations.
        """
        payload = {
            "skew": self.skew,
            "vmin_y1": self.vmin_y1,
            "vmin_y2": self.vmin_y2,
            "code": list(self.code),
            "steps": self.steps,
            "escalations": {rung: count for rung, count in self.escalations},
        }
        if self.pairs:
            payload["pairs"] = [[label, skew, list(code)]
                                for label, skew, code in self.pairs]
            payload["n_nodes"] = self.n_nodes
        return payload

    @staticmethod
    def from_payload(
        payload: Dict[str, Any], cached: bool = False, resumed: bool = False
    ) -> "JobResult":
        """Rebuild a result from its :meth:`to_payload` dict."""
        escalations = payload.get("escalations", {})
        return JobResult(
            skew=float(payload["skew"]),
            vmin_y1=float(payload["vmin_y1"]),
            vmin_y2=float(payload["vmin_y2"]),
            code=tuple(int(c) for c in payload["code"]),
            steps=int(payload.get("steps", 0)),
            cached=cached,
            escalations=tuple(sorted(
                (str(rung), int(count)) for rung, count in escalations.items()
            )),
            resumed=resumed,
            pairs=tuple((label, skew, tuple(code))
                        for label, skew, code in payload.get("pairs", ())),
            n_nodes=int(payload.get("n_nodes", 0)),
        )


def job_sensor(job: SensorJob) -> SkewSensor:
    """The sensing circuit ``job`` describes, before any clock drive."""
    return SkewSensor(
        process=job.process,
        sizing=job.sizing,
        load1=job.load1,
        load2=job.load2,
        full_swing=job.full_swing,
        parasitics=job.parasitics,
    )


def job_circuit(job: SensorJob) -> Tuple[SkewSensor, Netlist]:
    """``(sensor, netlist)`` of ``job``: its sensor driven by its clocks."""
    sensor = job_sensor(job)
    return sensor, clocked_netlist(
        sensor, job.skew, job.slew1, job.slew2, job.period, job.settle
    )


def evaluate_job(job: SensorJob) -> JobResult:
    """Run the transient described by ``job`` once, without caching.

    The one evaluation of a sensor job,
    :func:`~repro.runtime.prefix.evaluate_job_warm`: a prefix checkpoint
    (from the checkpoint tier when ``warm_start`` is set, else built on
    the spot) and the measurement suffix forked from it.
    """
    from repro.runtime.prefix import evaluate_job_warm

    return evaluate_job_warm(job)


def sensitivity_job(
    load: float,
    slew: float,
    skew: float,
    process: Optional[ProcessParams] = None,
    sizing: Optional[SensorSizing] = None,
    threshold: float = VTH_INTERPRET,
    options: Optional[TransientOptions] = None,
    slew2: Optional[float] = None,
    load2: Optional[float] = None,
    warm_start: bool = True,
) -> SensorJob:
    """Job for one Fig.-4 operating point (symmetric defaults).

    Mirrors the parameter conventions of
    :func:`repro.core.sensitivity.vmin_for_skew`; pass
    ``warm_start=False`` to keep the job off the checkpoint tier.
    """
    return SensorJob(
        skew=skew,
        load1=load,
        load2=load if load2 is None else load2,
        slew1=slew,
        slew2=slew if slew2 is None else slew2,
        process=process,
        sizing=sizing or SensorSizing(),
        threshold=threshold,
        options=options,
        warm_start=warm_start,
    )
