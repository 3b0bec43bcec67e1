"""Persistent campaign store: lifecycle journal plus per-campaign state.

The store is the service's durability layer.  Every mutation is one
appended line in ``<state_dir>/journal.jsonl`` - the same CRC-framed
JSONL format :mod:`repro.runtime.checkpoint` uses for job results, via
the same :class:`~repro.runtime.checkpoint.CheckpointJournal` writer -
so a ``kill -9`` at any instant loses at most the line being written.
Two entry kinds:

``{"kind": "campaign", "id": ..., "spec": ..., "client": ..., ...}``
    A submission: the normalized spec and its queue metadata.
``{"kind": "state", "id": ..., "state": ..., ...}``
    A lifecycle transition (``queued -> running -> done / failed /
    cancelled``), optionally carrying an error message, a cancel
    reason, or progress counters.

On construction the store replays the journal.  Campaigns that were
``running`` or ``queued`` when the process died come back ``queued``
with ``resume=True``: the scheduler re-executes them through
``run_campaign(checkpoint=..., resume=True)``, replaying every job the
previous incarnation had journaled under
``<state_dir>/campaigns/<id>/checkpoint.jsonl`` and computing only the
remainder.  Result payloads are plain JSON files
(``campaigns/<id>/result.json``), written *before* the terminal journal
entry so a ``done`` state always has its result on disk.

Self-healing
------------
Replay verifies every line's CRC frame: torn writes and mid-line
corruption are *quarantined* (preserved in ``journal.jsonl.quarantine``
with line number and reason) and skipped, never silently applied; the
count is surfaced through :attr:`JobStore.quarantined` and ``/metrics``.
Terminal transitions are *sticky* - once a campaign is ``done`` /
``failed`` / ``cancelled``, later transition attempts are no-ops
returning ``False`` - which closes every double-terminate race (a
timeout timer firing during shutdown-requeue, a cancel racing
completion) at the durability layer.  :meth:`JobStore.compact`
atomically rewrites the ever-growing journal into the minimal snapshot
that replays to the same state.  Journal appends and the ``result.json``
publish retry transient write failures (the ``store.write`` /
``store.replace`` chaos sites inject exactly those).
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import InjectedFaultError
from repro.runtime.checkpoint import (
    CheckpointJournal,
    CorruptEntry,
    iter_entries,
    quarantine_path,
    write_quarantine,
)
from repro.runtime.faults import get_injector
from repro.service.specs import build_plan, normalize_spec

logger = logging.getLogger(__name__)

#: Environment variable overriding the service state directory.
ENV_SERVICE_DIR = "REPRO_SERVICE_DIR"

#: Campaign lifecycle states, in nominal order.
STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a campaign never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Attempts for journal appends / result publishes before giving up
#: (transient disk errors and the injected ``store.write`` /
#: ``store.replace`` faults are retried this many extra times).
WRITE_RETRIES = 3


def default_state_dir() -> Path:
    """``REPRO_SERVICE_DIR`` if set, else ``~/.cache/repro/service``."""
    env = os.environ.get(ENV_SERVICE_DIR, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "service"


@dataclass
class CampaignRecord:
    """One campaign's queue metadata and lifecycle state."""

    campaign_id: str
    spec: Dict[str, Any]
    client: str = ""
    priority: int = 0
    state: str = "queued"
    #: Submission order; the FIFO tiebreak within one priority level.
    seq: int = 0
    submitted_at: float = 0.0
    updated_at: float = 0.0
    #: Error message (``failed``) or cancel reason (``cancelled``).
    error: str = ""
    #: Jobs finished so far / total jobs (filled in as the run proceeds).
    completed: int = 0
    total: int = 0
    #: True when a previous incarnation already journaled some results;
    #: the scheduler passes this through to ``run_campaign(resume=)``.
    resume: bool = False
    #: Client-chosen submission dedupe key ("" = none); a resubmission
    #: carrying the same key returns this record instead of a new one.
    idempotency_key: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_payload(self) -> Dict[str, Any]:
        """JSON form for the API's status responses."""
        return asdict(self)


class JobStore:
    """Journal-backed campaign store (thread-safe).

    All public methods may be called from the HTTP handler threads and
    the scheduler workers concurrently; a single lock serialises journal
    appends with the in-memory record map, so readers always observe a
    state that has already been made durable.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_state_dir()
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "campaigns").mkdir(exist_ok=True)
        self._lock = threading.RLock()
        self._records: Dict[str, CampaignRecord] = {}
        self._idempotency: Dict[str, str] = {}
        self._seq = 0
        #: Corrupt journal lines found (and quarantined) during replay.
        self.quarantined = 0
        self._replay()
        self._journal = CheckpointJournal(self.journal_path)

    # ----------------------------------------------------------------- #
    # Paths.
    # ----------------------------------------------------------------- #

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    @property
    def quarantine_file(self) -> Path:
        """Where corrupt journal lines are preserved for post-mortems."""
        return quarantine_path(self.journal_path)

    def campaign_dir(self, campaign_id: str) -> Path:
        """Per-campaign state directory (checkpoint journal, result)."""
        return self.root / "campaigns" / campaign_id

    def checkpoint_path(self, campaign_id: str) -> Path:
        """The ``run_campaign`` checkpoint journal of one campaign."""
        return self.campaign_dir(campaign_id) / "checkpoint.jsonl"

    def result_path(self, campaign_id: str) -> Path:
        """Where a done campaign's folded result payload lives."""
        return self.campaign_dir(campaign_id) / "result.json"

    # ----------------------------------------------------------------- #
    # Recovery.
    # ----------------------------------------------------------------- #

    def _apply(self, entry: Dict[str, Any]) -> None:
        """Fold one journal entry into the record map."""
        kind = entry.get("kind")
        if kind == "campaign":
            # Specs journalled while ``retries`` was a spec key carry
            # it; dropping it lets those campaigns resume.
            spec = {k: v for k, v in entry["spec"].items() if k != "retries"}
            record = CampaignRecord(
                campaign_id=entry["id"],
                spec=spec,
                client=entry.get("client", ""),
                priority=int(entry.get("priority", 0)),
                seq=int(entry.get("seq", 0)),
                submitted_at=float(entry.get("at", 0.0)),
                updated_at=float(entry.get("at", 0.0)),
                total=int(entry.get("total", 0)),
                idempotency_key=entry.get("idempotency_key", ""),
            )
            self._records[record.campaign_id] = record
            if record.idempotency_key:
                self._idempotency[record.idempotency_key] = record.campaign_id
            self._seq = max(self._seq, record.seq + 1)
        elif kind == "state":
            record = self._records.get(entry.get("id", ""))
            if record is None:
                return
            record.state = entry.get("state", record.state)
            record.updated_at = float(entry.get("at", record.updated_at))
            record.error = entry.get("error", record.error)
            if "completed" in entry:
                record.completed = int(entry["completed"])
            if "total" in entry:
                record.total = int(entry["total"])

    def _replay(self) -> None:
        """Rebuild the record map from the journal (crash recovery).

        Lines that fail parsing or their CRC check are quarantined to
        ``journal.jsonl.quarantine`` and skipped - one corrupt line
        costs at most one lifecycle transition (whose effects the
        per-campaign checkpoint journal can still recover), never the
        whole store.
        """
        if not self.journal_path.exists():
            return
        corrupt: List[CorruptEntry] = []
        for entry in iter_entries(self.journal_path, on_corrupt=corrupt.append):
            self._apply(entry)
        if corrupt:
            self.quarantined = len(corrupt)
            write_quarantine(self.journal_path, corrupt)
            logger.warning(
                "store journal %s: quarantined %d corrupt line(s) to %s",
                self.journal_path, len(corrupt), self.quarantine_file,
            )
        # Campaigns interrupted mid-flight come back queued; anything
        # that was running has journaled results to resume from.
        for record in self._records.values():
            if record.state == "running":
                record.state = "queued"
                record.resume = True
            elif record.state == "queued" and record.completed:
                record.resume = True

    # ----------------------------------------------------------------- #
    # Durability plumbing.
    # ----------------------------------------------------------------- #

    def _append(self, entry: Dict[str, Any]) -> None:
        """Append one journal entry, retrying transient write failures.

        Chaos sites: ``store.torn`` plants a truncated (CRC-failing)
        copy of the line before the real append - the mid-line
        corruption replay must quarantine; ``store.write`` makes the
        append itself fail like a dying disk.  Both go through the same
        retry loop a real ``OSError`` would.
        """
        injector = get_injector()
        if injector.active and injector.should_fire("store.torn"):
            self._journal.append_corrupt(entry)
        last_error: Optional[Exception] = None
        for _ in range(1 + WRITE_RETRIES):
            try:
                if injector.active and injector.should_fire("store.write"):
                    raise InjectedFaultError(
                        "injected journal write failure (store.write)"
                    )
                self._journal.append(entry)
                return
            except (OSError, InjectedFaultError) as error:
                last_error = error
        raise last_error

    def _publish_result(self, campaign_id: str, result: Dict[str, Any]) -> None:
        """Atomically write ``result.json`` (tmp + rename), retrying
        transient replace failures (chaos site ``store.replace``).  Keys
        keep the fold's order: a whole-tree run lists its sensor pairs
        in placement order."""
        path = self.result_path(campaign_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(result, indent=2))
        injector = get_injector()
        last_error: Optional[Exception] = None
        for _ in range(1 + WRITE_RETRIES):
            try:
                if injector.active and injector.should_fire("store.replace"):
                    raise InjectedFaultError(
                        "injected result publish failure (store.replace)"
                    )
                os.replace(tmp, path)
                return
            except (OSError, InjectedFaultError) as error:
                last_error = error
        raise last_error

    # ----------------------------------------------------------------- #
    # Mutations (each one durable before it is visible).
    # ----------------------------------------------------------------- #

    def submit(
        self,
        spec: Dict[str, Any],
        client: str = "",
        priority: int = 0,
        total: int = 0,
        idempotency_key: str = "",
    ) -> CampaignRecord:
        """Validate ``spec``, persist the submission, return its record.

        The spec's plan is built here, once, so every check of its kind
        builder (a montecarlo spec without a seed, a one-point skew
        grid, an unknown topology...) raises
        :class:`~repro.service.specs.SpecError` before anything is
        journaled, not when the scheduler runs the campaign.

        A non-empty ``idempotency_key`` that matches a previous
        submission returns that submission's record unchanged - the
        dedupe that makes client-side POST retries safe (a retried
        submit whose first attempt actually landed must not enqueue the
        campaign twice).
        """
        normalized = normalize_spec(spec)
        build_plan(normalized)
        with self._lock:
            if idempotency_key:
                existing = self._idempotency.get(idempotency_key)
                if existing is not None:
                    return self._records[existing]
            record = CampaignRecord(
                campaign_id=uuid.uuid4().hex[:12],
                spec=normalized,
                client=client,
                priority=int(priority),
                seq=self._seq,
                submitted_at=time.time(),
                updated_at=time.time(),
                total=int(total),
                idempotency_key=idempotency_key,
            )
            self._seq += 1
            entry = {
                "kind": "campaign",
                "id": record.campaign_id,
                "spec": normalized,
                "client": client,
                "priority": record.priority,
                "seq": record.seq,
                "total": record.total,
                "at": record.submitted_at,
            }
            if idempotency_key:
                entry["idempotency_key"] = idempotency_key
            self._append(entry)
            self.campaign_dir(record.campaign_id).mkdir(
                parents=True, exist_ok=True
            )
            self._records[record.campaign_id] = record
            if idempotency_key:
                self._idempotency[idempotency_key] = record.campaign_id
            return record

    def _transition(self, campaign_id: str, state: str, **extra: Any) -> bool:
        """Journal and apply one lifecycle transition.

        Terminal states are *sticky*: once a campaign is done / failed /
        cancelled every further transition attempt returns ``False``
        without journaling anything.  Racing terminators (a timeout
        timer vs. a shutdown requeue, a cancel vs. completion) all call
        in here, so first-writer-wins is decided under the store lock -
        whichever outcome was journaled first is the outcome.
        """
        if state not in STATES:
            raise ValueError(f"unknown state {state!r}")
        with self._lock:
            record = self._records[campaign_id]
            if record.terminal:
                logger.debug(
                    "ignoring %s -> %s for terminal campaign %s",
                    record.state, state, campaign_id,
                )
                return False
            now = time.time()
            entry: Dict[str, Any] = {
                "kind": "state", "id": campaign_id, "state": state, "at": now,
            }
            entry.update(extra)
            self._append(entry)
            record.state = state
            record.updated_at = now
            record.error = str(extra.get("error", record.error))
            if "completed" in extra:
                record.completed = int(extra["completed"])
            if "total" in extra:
                record.total = int(extra["total"])
            return True

    def mark_running(self, campaign_id: str, total: Optional[int] = None) -> bool:
        """Record that execution started (``total`` = planned job count)."""
        extra = {} if total is None else {"total": total}
        return self._transition(campaign_id, "running", **extra)

    def mark_progress(self, campaign_id: str, completed: int) -> None:
        """Update the in-memory progress counter (not journaled per job:
        the per-job durability already lives in the campaign's
        ``checkpoint.jsonl``, so journaling it twice would only double
        the write traffic)."""
        with self._lock:
            self._records[campaign_id].completed = int(completed)

    def mark_done(self, campaign_id: str, result: Dict[str, Any]) -> bool:
        """Persist ``result`` then record the terminal transition."""
        with self._lock:
            if self._records[campaign_id].terminal:
                return False
            self._publish_result(campaign_id, result)
            record = self._records[campaign_id]
            return self._transition(
                campaign_id, "done",
                completed=record.total or record.completed,
            )

    def mark_failed(self, campaign_id: str, error: str) -> bool:
        """Terminal failure; ``error`` is the formatted exception."""
        return self._transition(campaign_id, "failed", error=str(error))

    def mark_cancelled(
        self, campaign_id: str, reason: str = "cancel", completed: int = 0
    ) -> bool:
        """Terminal cancellation; ``reason`` is ``cancel`` or
        ``timeout``."""
        return self._transition(
            campaign_id, "cancelled", error=reason, completed=completed
        )

    def requeue(self, campaign_id: str, completed: int = 0) -> bool:
        """Put an interrupted campaign back in the queue (graceful
        shutdown); its journaled results make the rerun a resume."""
        with self._lock:
            if not self._transition(
                campaign_id, "queued", completed=completed
            ):
                return False
            self._records[campaign_id].resume = True
            return True

    # ----------------------------------------------------------------- #
    # Compaction.
    # ----------------------------------------------------------------- #

    def compact(self) -> Dict[str, Any]:
        """Atomically rewrite the journal as its minimal snapshot.

        The live journal grows by one line per lifecycle transition,
        forever.  Compaction rewrites it as one ``campaign`` entry per
        campaign plus (at most) one ``state`` entry capturing its
        current state - a snapshot whose replay reconstructs exactly the
        record map the full history replays to.  The rewrite goes to a
        temp file that is ``os.replace``-d over the journal, so a crash
        at any instant leaves either the old or the new journal, never a
        half-written one.  Returns ``{"campaigns", "bytes_before",
        "bytes_after"}``.
        """
        with self._lock:
            bytes_before = (
                self.journal_path.stat().st_size
                if self.journal_path.exists() else 0
            )
            tmp = self.journal_path.with_name(self.journal_path.name + ".compact")
            snapshot = CheckpointJournal(tmp, fresh=True)
            try:
                for record in self.list():
                    entry: Dict[str, Any] = {
                        "kind": "campaign",
                        "id": record.campaign_id,
                        "spec": record.spec,
                        "client": record.client,
                        "priority": record.priority,
                        "seq": record.seq,
                        "total": record.total,
                        "at": record.submitted_at,
                    }
                    if record.idempotency_key:
                        entry["idempotency_key"] = record.idempotency_key
                    snapshot.append(entry)
                    # A freshly queued, never-run campaign is fully
                    # described by its submission; everything else needs
                    # its current state journaled.  A queued resume
                    # record is written as "running" so replay re-derives
                    # queued + resume=True, exactly as after a crash.
                    state = record.state
                    if state == "queued" and record.resume:
                        state = "running"
                    if (
                        state != "queued" or record.completed
                        or record.total or record.error
                    ):
                        snapshot.append({
                            "kind": "state",
                            "id": record.campaign_id,
                            "state": state,
                            "at": record.updated_at,
                            "error": record.error,
                            "completed": record.completed,
                            "total": record.total,
                        })
            finally:
                snapshot.close()
            self._journal.close()
            os.replace(tmp, self.journal_path)
            self._journal = CheckpointJournal(self.journal_path)
            return {
                "campaigns": len(self._records),
                "bytes_before": bytes_before,
                "bytes_after": self.journal_path.stat().st_size,
            }

    # ----------------------------------------------------------------- #
    # Queries.
    # ----------------------------------------------------------------- #

    def get(self, campaign_id: str) -> CampaignRecord:
        """The record for ``campaign_id`` (KeyError if unknown)."""
        with self._lock:
            return self._records[campaign_id]

    def lookup_idempotent(self, key: str) -> Optional[CampaignRecord]:
        """The record previously submitted under idempotency ``key``
        (``None`` when the key is unknown or empty)."""
        if not key:
            return None
        with self._lock:
            campaign_id = self._idempotency.get(key)
            return (
                self._records[campaign_id]
                if campaign_id is not None else None
            )

    def __contains__(self, campaign_id: str) -> bool:
        with self._lock:
            return campaign_id in self._records

    def list(self) -> List[CampaignRecord]:
        """All records, submission order."""
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.seq)

    def pending(self) -> List[CampaignRecord]:
        """Queued records, submission order (scheduler bootstrap)."""
        return [r for r in self.list() if r.state == "queued"]

    def active_count(self, client: str) -> int:
        """Queued+running campaigns of one client (the quota gauge)."""
        with self._lock:
            return sum(
                1 for r in self._records.values()
                if r.client == client and not r.terminal
            )

    def load_result(self, campaign_id: str) -> Dict[str, Any]:
        """The persisted result payload of a ``done`` campaign."""
        return json.loads(self.result_path(campaign_id).read_text())

    def counts(self) -> Dict[str, int]:
        """Campaigns per state (the ``/metrics`` gauge)."""
        with self._lock:
            tally = {state: 0 for state in STATES}
            for record in self._records.values():
                tally[record.state] += 1
            return tally

    def close(self) -> None:
        """Close the journal writer (idempotent)."""
        self._journal.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
