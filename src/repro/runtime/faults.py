"""Deterministic fault injection for chaos-testing the campaign stack.

Robustness claims are worthless without a way to *produce* the failure
they claim to survive.  This module is that way: a seeded, env-driven
injector that the store, scheduler, executor and HTTP layers consult at
well-known *sites* before doing the real work.  A site either fires
(the component misbehaves in a controlled, realistic fashion) or it
does not; every decision comes from a per-site deterministic RNG
stream, so a given ``(seed, site)`` pair always produces the same
fire/no-fire sequence - a chaos run is replayable.

Configuration is one environment variable::

    REPRO_FAULTS="store.torn:0.1,executor.crash:0.05,api.slow:0.02"
    REPRO_FAULTS_SEED=1234

Each clause is ``site:probability`` with an optional third field
bounding the total number of fires (``executor.crash:1.0:1`` = fire on
exactly the first check, then never again - the deterministic form the
chaos tests use).  Tests can bypass the environment entirely with
:func:`set_injector` or the :func:`inject` context manager.

Registered sites (the component that checks them, and what firing does):

=====================  ==================================================
``store.write``        ``JobStore`` journal append raises
                       :class:`~repro.errors.InjectedFaultError` (disk
                       write / fsync failure; the store retries).
``store.torn``         A corrupted (CRC-failing, truncated) copy of the
                       entry is written *before* the real one - the
                       mid-line corruption the self-healing replay must
                       quarantine.
``store.replace``      The atomic ``os.replace`` publishing
                       ``result.json`` raises (the store retries).
``scheduler.worker``   A scheduler slot raises before executing its
                       campaign (the worker loop must survive and fail
                       the campaign with a structured reason).
``executor.crash``     Job evaluation reports a
                       :class:`~repro.errors.WorkerCrashError` (raised
                       or collected, as a real crash's is).
``executor.hang``      Job evaluation sleeps ``REPRO_FAULTS_HANG_S``
                       (default 0.25 s) before running - a slow job
                       for the campaign's cancel bound.
``api.drop``           The HTTP handler shuts the connection down
                       before answering (clients must retry).
``api.slow``           The HTTP handler sleeps ``REPRO_FAULTS_SLOW_S``
                       (default 0.05 s) before answering.
=====================  ==================================================

The null injector (no sites) is a singleton whose :meth:`~FaultInjector.
should_fire` returns immediately, so production paths pay one dict
lookup when chaos is off.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Union

#: Environment variable carrying the ``site:prob[:max]`` clauses.
ENV_FAULTS = "REPRO_FAULTS"

#: Environment variable seeding the per-site decision streams.
ENV_FAULTS_SEED = "REPRO_FAULTS_SEED"

#: Environment variables tuning the duration-type faults.
ENV_HANG_S = "REPRO_FAULTS_HANG_S"
ENV_SLOW_S = "REPRO_FAULTS_SLOW_S"


@dataclass
class FaultSite:
    """One configured injection point."""

    probability: float
    #: Total fires allowed (``None`` = unbounded).
    max_fires: Optional[int] = None


def parse_faults(text: str) -> Dict[str, FaultSite]:
    """Parse ``"site:prob[,site:prob[:max],...]"`` into site configs.

    Unknown sites are accepted (tests register ad-hoc ones); malformed
    clauses raise ``ValueError`` so a typo in ``REPRO_FAULTS`` fails
    loudly instead of silently disabling chaos.
    """
    sites: Dict[str, FaultSite] = {}
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad {ENV_FAULTS} clause {clause!r} "
                "(expected site:probability[:max_fires])"
            )
        site = parts[0].strip()
        try:
            probability = float(parts[1])
        except ValueError:
            raise ValueError(
                f"bad probability in {ENV_FAULTS} clause {clause!r}"
            ) from None
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"probability out of [0, 1] in {ENV_FAULTS} clause {clause!r}"
            )
        max_fires: Optional[int] = None
        if len(parts) == 3:
            try:
                max_fires = int(parts[2])
            except ValueError:
                raise ValueError(
                    f"bad max_fires in {ENV_FAULTS} clause {clause!r}"
                ) from None
            if max_fires < 0:
                raise ValueError(
                    f"max_fires must be >= 0 in {ENV_FAULTS} clause {clause!r}"
                )
        sites[site] = FaultSite(probability=probability, max_fires=max_fires)
    return sites


class FaultInjector:
    """Seeded fault decisions, one deterministic RNG stream per site.

    Thread-safe: the store, scheduler slots and HTTP handler threads all
    consult the same process-wide injector.  Decisions at *different*
    sites come from independent streams, so adding a new injection point
    (or a different thread interleaving across sites) never perturbs the
    fire pattern of an existing one.
    """

    def __init__(
        self,
        sites: Union[str, Dict[str, FaultSite], None] = None,
        seed: int = 0,
        hang_s: float = 0.25,
        slow_s: float = 0.05,
    ) -> None:
        if isinstance(sites, str):
            sites = parse_faults(sites)
        self.sites: Dict[str, FaultSite] = dict(sites or {})
        self.seed = int(seed)
        self.hang_s = float(hang_s)
        self.slow_s = float(slow_s)
        self._lock = threading.Lock()
        self._rngs: Dict[str, random.Random] = {}
        self._checked: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    @property
    def active(self) -> bool:
        """True when at least one site is configured."""
        return bool(self.sites)

    def should_fire(self, site: str) -> bool:
        """One decision for ``site``; False for unconfigured sites."""
        config = self.sites.get(site)
        if config is None:
            return False
        with self._lock:
            self._checked[site] = self._checked.get(site, 0) + 1
            fired = self._fired.get(site, 0)
            if config.max_fires is not None and fired >= config.max_fires:
                return False
            rng = self._rngs.get(site)
            if rng is None:
                # String seeds hash via SHA-512: stable across runs,
                # processes and PYTHONHASHSEED values.
                rng = random.Random(f"{self.seed}:{site}")
                self._rngs[site] = rng
            fire = rng.random() < config.probability
            if fire:
                self._fired[site] = fired + 1
            return fire

    def stats(self) -> Dict[str, Any]:
        """Checked/fired tallies per site (``/metrics`` payload half)."""
        with self._lock:
            return {
                "seed": self.seed,
                "sites": {
                    site: {
                        "probability": config.probability,
                        "max_fires": config.max_fires,
                        "checked": self._checked.get(site, 0),
                        "fired": self._fired.get(site, 0),
                    }
                    for site, config in sorted(self.sites.items())
                },
            }


#: The do-nothing injector served while chaos is off.
NULL_INJECTOR = FaultInjector()

_injector: Optional[FaultInjector] = None
_injector_lock = threading.Lock()


def _from_env() -> FaultInjector:
    text = os.environ.get(ENV_FAULTS, "").strip()
    if not text:
        return NULL_INJECTOR
    seed = int(os.environ.get(ENV_FAULTS_SEED, "0") or "0")
    hang_s = float(os.environ.get(ENV_HANG_S, "0.25") or "0.25")
    slow_s = float(os.environ.get(ENV_SLOW_S, "0.05") or "0.05")
    return FaultInjector(text, seed=seed, hang_s=hang_s, slow_s=slow_s)


def get_injector() -> FaultInjector:
    """The process-wide injector (built from the environment once)."""
    global _injector
    if _injector is None:
        with _injector_lock:
            if _injector is None:
                _injector = _from_env()
    return _injector


def set_injector(injector: Optional[FaultInjector]) -> None:
    """Install ``injector`` process-wide (``None`` = re-read the env on
    the next :func:`get_injector`)."""
    global _injector
    with _injector_lock:
        _injector = injector


def reset_injector() -> FaultInjector:
    """Rebuild the injector from the environment, with fresh streams.

    The chaos test suite calls this before every test so each test's
    fire pattern depends only on ``(seed, site)`` - never on how many
    decisions earlier tests happened to draw.
    """
    set_injector(None)
    return get_injector()


@contextmanager
def inject(
    sites: Union[str, Dict[str, FaultSite]],
    seed: int = 0,
    **kwargs: Any,
) -> Iterator[FaultInjector]:
    """Temporarily install a :class:`FaultInjector` (tests)."""
    injector = FaultInjector(sites, seed=seed, **kwargs)
    previous = get_injector()
    set_injector(injector)
    try:
        yield injector
    finally:
        set_injector(previous)
