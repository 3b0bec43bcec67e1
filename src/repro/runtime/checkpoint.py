"""Append-only JSONL checkpoint journal for resumable campaigns.

A long Monte Carlo campaign that dies at job 900/1000 - machine reboot,
OOM kill, Ctrl-C - used to restart from zero.  The journal fixes that:
:func:`repro.runtime.run_campaign` appends one JSON line per *completed*
job, keyed by the job's content address (:meth:`SensorJob.key`), and a
re-run with ``resume=True`` loads the journal and skips every finished
job, re-evaluating only the remainder (and any job that previously
failed - errors are never journalled, so they are retried).

Format
------
Line 1 is a header ``{"kind": "header", "format": 2}``; every further
line is ``{"kind": "result", "key": <content address>, "result":
<JobResult payload>}``.  Content-addressed keys make the journal robust
to job reordering and to campaigns that share a subset of jobs.

Since format 2 every entry is *integrity-framed*: the writer embeds a
``_crc`` (CRC-32 of the entry's canonical JSON form, without the frame
fields) and ``_len`` (that form's byte length) into the line.  A torn
final line was always tolerated (the crash may have happened mid-write);
the frame additionally detects *mid-line* corruption - a flipped byte
inside an otherwise parseable line, the failure mode append-after-crash
and bit rot produce - which an unframed reader would silently apply.
Corrupt lines are never applied; readers report them through an
``on_corrupt`` callback and they can be *quarantined* (appended, with
line number and reason, to ``<journal>.quarantine``) so the evidence
survives for a post-mortem instead of vanishing.  A line without a
frame (a format-1 entry) cannot be verified, so it is corrupt too: its
job is re-evaluated.

The journal is *not* the result cache: it is a per-campaign artifact at a
user-chosen path, it survives ``REPRO_CACHE_DISABLE=1`` runs, and it
journals cache hits too, so a resume works even against a cold cache.
"""

from __future__ import annotations

import json
import logging
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

logger = logging.getLogger(__name__)

#: Journal format generation, bumped on incompatible layout changes.
#: Format 2 added the ``_crc``/``_len`` integrity frame; readers treat
#: an unframed (format-1) line as corrupt.
JOURNAL_FORMAT = 2

#: Frame fields embedded into every written entry.
CRC_FIELD = "_crc"
LEN_FIELD = "_len"

#: How much of a corrupt raw line a quarantine record keeps.
QUARANTINE_RAW_LIMIT = 4096


@dataclass
class CorruptEntry:
    """One journal line that failed parsing or integrity checking."""

    lineno: int
    reason: str
    raw: str

    def as_dict(self) -> Dict[str, Any]:
        """JSON form for one quarantine record (raw line truncated)."""
        return {
            "lineno": self.lineno,
            "reason": self.reason,
            "raw": self.raw[:QUARANTINE_RAW_LIMIT],
        }


def _canonical(entry: Dict[str, Any]) -> str:
    """The byte-stable serialisation the CRC frame is computed over."""
    return json.dumps(entry, sort_keys=True)


def frame_entry(entry: Dict[str, Any]) -> str:
    """Serialise ``entry`` with its integrity frame embedded."""
    body = _canonical(entry)
    framed = dict(entry)
    framed[CRC_FIELD] = f"{zlib.crc32(body.encode('utf-8')) & 0xffffffff:08x}"
    framed[LEN_FIELD] = len(body)
    return json.dumps(framed, sort_keys=True)


def unframe_entry(entry: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Strip and verify the integrity frame of a parsed entry.

    Returns the bare entry, or ``None`` when the frame is missing or
    does not match (mid-line corruption).
    """
    bare = dict(entry)
    crc = bare.pop(CRC_FIELD, None)
    length = bare.pop(LEN_FIELD, None)
    body = _canonical(bare)
    if length is not None and length != len(body):
        return None
    expected = f"{zlib.crc32(body.encode('utf-8')) & 0xffffffff:08x}"
    if not isinstance(crc, str) or crc != expected:
        return None
    return bare


def quarantine_path(path: Union[str, Path]) -> Path:
    """Where a journal's corrupt lines are preserved."""
    journal = Path(path)
    return journal.with_name(journal.name + ".quarantine")


def write_quarantine(
    path: Union[str, Path], corrupt: List[CorruptEntry]
) -> Optional[Path]:
    """Append ``corrupt`` records to the journal's quarantine file.

    Returns the quarantine path (``None`` when there was nothing to
    write).  Quarantining is itself best-effort: a disk that cannot
    write the quarantine must not turn recovery into a crash.
    """
    if not corrupt:
        return None
    target = quarantine_path(path)
    try:
        with target.open("a", encoding="utf-8") as handle:
            now = time.time()
            for entry in corrupt:
                record = {"at": now, **entry.as_dict()}
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as error:  # pragma: no cover - disk already failing
        logger.warning("could not write quarantine %s: %s", target, error)
        return None
    return target


def iter_entries(
    path: Union[str, Path],
    on_corrupt: Optional[Callable[[CorruptEntry], None]] = None,
):
    """Yield every valid entry dict of the journal at ``path``.

    The generic reader under :func:`load_journal`, shared with the
    service job store (:mod:`repro.service.store`), which journals its
    campaign lifecycle in the same append-only format with its own entry
    kinds.  Lines that fail JSON parsing (torn writes) or whose
    integrity frame is missing or does not verify (mid-line
    corruption) are never yielded; each one is reported to
    ``on_corrupt`` (when given) so the caller can quarantine it - with
    no callback they are skipped, the historical behaviour.
    """
    journal = Path(path)
    if not journal.exists():
        return
    with journal.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as error:
                if on_corrupt is not None:
                    on_corrupt(CorruptEntry(lineno, f"unparseable: {error}", line))
                continue
            if not isinstance(entry, dict):
                if on_corrupt is not None:
                    on_corrupt(CorruptEntry(lineno, "not a JSON object", line))
                continue
            bare = unframe_entry(entry)
            if bare is None:
                if on_corrupt is not None:
                    reason = ("CRC mismatch" if CRC_FIELD in entry
                              else "no integrity frame")
                    on_corrupt(CorruptEntry(lineno, reason, line))
                continue
            yield bare


def load_journal(
    path: Union[str, Path], quarantine: bool = False
) -> Dict[str, Dict[str, Any]]:
    """Completed results recorded in the journal at ``path``.

    Returns a ``key -> JobResult payload`` mapping; an absent file is an
    empty journal.  Corrupt lines (torn writes, CRC mismatches) are
    logged and skipped - the affected jobs are simply re-evaluated - and
    with ``quarantine=True`` they are additionally preserved in
    ``<path>.quarantine`` for a post-mortem.
    """
    corrupt: List[CorruptEntry] = []
    completed: Dict[str, Dict[str, Any]] = {}
    for entry in iter_entries(path, on_corrupt=corrupt.append):
        if entry.get("kind") != "result":
            continue
        key, payload = entry.get("key"), entry.get("result")
        if isinstance(key, str) and isinstance(payload, dict):
            completed[key] = payload
    if corrupt:
        logger.warning(
            "journal %s: skipped %d corrupt line(s); affected jobs will "
            "be re-evaluated", path, len(corrupt),
        )
        if quarantine:
            write_quarantine(path, corrupt)
    return completed


class CheckpointJournal:
    """Append-only writer half of the journal.

    Opened lazily on the first :meth:`record` (so a fully resumed
    campaign does not even touch the file), flushed after every line (a
    crash loses at most the in-flight job).  Use as a context manager or
    call :meth:`close` explicitly.
    """

    def __init__(self, path: Union[str, Path], fresh: bool = False) -> None:
        """``fresh=True`` truncates an existing journal (non-resume runs
        must not inherit stale results for re-submitted jobs)."""
        self.path = Path(path)
        self._handle = None
        if fresh and self.path.exists():
            self.path.unlink()

    def _open(self):
        if self._handle is None:
            if self.path.parent and not self.path.parent.exists():
                os.makedirs(self.path.parent, exist_ok=True)
            new = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = self.path.open("a", encoding="utf-8")
            if new:
                self._write({"kind": "header", "format": JOURNAL_FORMAT})
        return self._handle

    def _write(self, entry: Dict[str, Any]) -> None:
        self._handle.write(frame_entry(entry) + "\n")
        self._handle.flush()

    def record(self, key: str, payload: Dict[str, Any]) -> None:
        """Journal one completed job result."""
        self.append({"kind": "result", "key": key, "result": payload})

    def append(self, entry: Dict[str, Any]) -> None:
        """Journal one arbitrary entry dict (service lifecycle events,
        future record kinds).  ``entry`` must carry a ``kind``."""
        if "kind" not in entry:
            raise ValueError("journal entries must carry a 'kind'")
        self._open()
        self._write(entry)

    def append_corrupt(self, entry: Dict[str, Any]) -> None:
        """Write a deliberately corrupted copy of ``entry``.

        The ``store.torn`` fault-injection site uses this to plant the
        mid-line corruption replay must detect: the framed line is cut
        mid-JSON, so it either fails parsing or fails its CRC.
        """
        self._open()
        framed = frame_entry(entry)
        self._handle.write(framed[: max(2, int(len(framed) * 0.6))] + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        self.close()
        return None
