"""Background campaign scheduler: priority queue over ``run_plan``.

``max_concurrent`` slot threads (default 1) drain one priority queue
into the executor.  Ordering is ``(-priority, seq)``: higher priority
first, FIFO within a level (``seq`` is the store's submission counter,
so ordering survives restarts).  At the default width campaigns execute
strictly one at a time - parallelism belongs *inside* a campaign (its
backend/workers spec keys) - and every historical ordering guarantee
holds unchanged.  Wider schedulers split the worker budget: a campaign
that did not pin ``workers`` gets ``resolve_workers() //
max_concurrent`` so two concurrent campaigns cannot oversubscribe the
box.

Wiring per campaign (one :class:`_Execution` per running slot):

* ``checkpoint=<store>/campaigns/<id>/checkpoint.jsonl`` +
  ``resume=record.resume`` - every finished job is durable, and a
  campaign interrupted by a crash or shutdown continues where it died;
* ``progress=`` - each finished job appends one event to the campaign's
  in-memory event buffer (the SSE endpoint's source), bumps the store's
  progress counter and refreshes the execution's *heartbeat*;
* ``cancel_event=`` - one :class:`threading.Event` per execution.
  :meth:`cancel` sets it (reason ``"cancel"``), the per-campaign
  ``timeout_s`` timer sets it (reason ``"timeout"``), :meth:`stop` sets
  it (reason ``"shutdown"`` - the campaign is *requeued* so a restarted
  server resumes it), and the watchdog sets it (reason ``"stuck: ..."``
  - the campaign is *failed* with that structured reason).  The timer
  closure checks that its execution is still the current one before
  acting, so a timer firing during a shutdown-requeue (or any later
  re-execution of the same campaign) cannot double-terminate - and the
  store's sticky terminal states make even a lost race harmless;
* the result cache the spec asks for, which
  :func:`~repro.service.specs.run_plan` (the CLI grid commands' run
  entry too) picks: named tenants get their own disk namespace, and
  the default tenant shares the process-global cache with direct CLI
  runs.

Robustness machinery:

* **Watchdog** (``watchdog_s``): a monitor thread cancels any execution
  whose heartbeat is older than the limit, and - if the slot thread
  still has not unwound after a grace period (it may be wedged in
  foreign code) - force-fails the campaign in the store, abandons the
  wedged slot and spawns a replacement so the queue keeps draining.
* **Crash requeue**: a campaign that dies with
  :class:`~repro.errors.WorkerCrashError` is requeued for resume up to
  ``max_crash_requeues`` times (its journaled jobs are not recomputed),
  then failed.
* **Bounded queue** (``max_queue_depth``): submissions beyond the bound
  raise :class:`QueueFullError` (the API's 503 + ``Retry-After``).
* Per-client quotas are enforced at submission time
  (:class:`QuotaExceededError` -> HTTP 429), counting the client's
  non-terminal campaigns.

Chaos sites consulted here: ``scheduler.worker`` (a slot raises before
executing - the loop survives and the campaign fails with a structured
reason) and ``scheduler.stuck`` (the execution blocks heartbeat-less
until its cancel event fires - what the watchdog exists to detect).
"""

from __future__ import annotations

import heapq
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    CampaignCancelledError,
    InjectedFaultError,
    JobError,
    WorkerCrashError,
)
from repro.runtime import Telemetry, resolve_workers
from repro.runtime.faults import get_injector
from repro.runtime.jobs import JobResult
from repro.service.specs import build_plan, run_plan
from repro.service.store import CampaignRecord, JobStore

#: Default per-client cap on campaigns in flight (queued + running).
DEFAULT_QUOTA = 8

#: Events kept per campaign; older ones are dropped from the front
#: (the journal, not the event buffer, is the durable record).
EVENT_BUFFER_LIMIT = 10000

#: Default scheduler width: one campaign at a time.
DEFAULT_MAX_CONCURRENT = 1

#: Times a WorkerCrashError campaign is requeued (resuming from its
#: checkpoint) before the crash is declared terminal.
DEFAULT_CRASH_REQUEUES = 2

#: How long past the heartbeat limit the watchdog waits for a cancelled
#: execution to unwind before force-failing it, as a multiple of
#: ``watchdog_s``.
WATCHDOG_GRACE_FACTOR = 2.0


class QuotaExceededError(RuntimeError):
    """A client exceeded its concurrent-campaign quota."""


class QueueFullError(RuntimeError):
    """The scheduler queue is at its depth bound (HTTP 503)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass
class _Execution:
    """One running campaign's slot-local state.

    Identity matters: the timeout timer and the watchdog only act when
    ``self._running[campaign_id] is execution`` still holds, so a stale
    closure from a previous execution of the same campaign (requeued
    after shutdown or a crash) can never terminate the new one.
    """

    campaign_id: str
    cancel_event: threading.Event
    #: The slot token owning this execution (see ``_slots``).
    slot: object
    started: float = 0.0
    #: ``time.monotonic()`` of the last sign of life (job completion).
    heartbeat: float = 0.0
    #: Why the cancel event was set ("cancel"/"timeout"/"shutdown"/
    #: "stuck: ...); None while running normally.
    reason: Optional[str] = None
    #: When the watchdog cancelled it as stuck (grace timer origin).
    stuck_since: Optional[float] = None
    #: True once the watchdog force-failed it and gave up on the slot.
    abandoned: bool = False


class CampaignScheduler:
    """Priority scheduler over a :class:`JobStore` with N worker slots."""

    def __init__(
        self,
        store: JobStore,
        quota: int = DEFAULT_QUOTA,
        poll_interval: float = 0.05,
        max_concurrent: int = DEFAULT_MAX_CONCURRENT,
        max_queue_depth: Optional[int] = None,
        watchdog_s: Optional[float] = None,
        max_crash_requeues: int = DEFAULT_CRASH_REQUEUES,
    ) -> None:
        self.store = store
        self.quota = int(quota)
        self.poll_interval = float(poll_interval)
        self.max_concurrent = max(1, int(max_concurrent))
        self.max_queue_depth = (
            None if max_queue_depth is None else max(1, int(max_queue_depth))
        )
        self.watchdog_s = (
            None if not watchdog_s else float(watchdog_s)
        )
        self.max_crash_requeues = max(0, int(max_crash_requeues))
        self.telemetry = Telemetry()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: List[Tuple[int, int, str]] = []
        self._queued_ids: set = set()
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._event_cv = threading.Condition(self._lock)
        self._running: Dict[str, _Execution] = {}
        #: Active slot tokens -> their threads; a token removed from
        #: here tells its thread to retire at the next safe point.
        self._slots: Dict[object, threading.Thread] = {}
        self._threads: List[threading.Thread] = []
        self._watchdog_thread: Optional[threading.Thread] = None
        self._watchdog_wake = threading.Event()
        self._crash_retries: Dict[str, int] = {}
        self._stuck_detected = 0
        self._stopping = False
        self._executed = 0
        # Campaigns that survived a restart re-enter the queue first.
        for record in self.store.pending():
            self._push(record)

    # ----------------------------------------------------------------- #
    # Lifecycle.
    # ----------------------------------------------------------------- #

    def start(self) -> None:
        """Start the slot threads and the watchdog (idempotent)."""
        with self._lock:
            self._stopping = False
            missing = self.max_concurrent - len(self._slots)
        for _ in range(max(0, missing)):
            self._spawn_slot()
        if self.watchdog_s and (
            self._watchdog_thread is None
            or not self._watchdog_thread.is_alive()
        ):
            self._watchdog_wake.clear()
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop,
                name="repro-scheduler-watchdog",
                daemon=True,
            )
            self._watchdog_thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: interrupt every running campaign (each is
        requeued for the next incarnation to resume) and join the slot
        threads."""
        with self._lock:
            self._stopping = True
            for execution in self._running.values():
                execution.reason = "shutdown"
                execution.cancel_event.set()
            self._wakeup.notify_all()
        self._watchdog_wake.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if self._watchdog_thread is not None:
            self._watchdog_thread.join(max(0.0, deadline - time.monotonic()))
            self._watchdog_thread = None
        with self._lock:
            self._slots.clear()
        self._threads = []

    def _spawn_slot(self) -> None:
        token = object()
        thread = threading.Thread(
            target=self._slot_loop,
            args=(token,),
            name="repro-scheduler",
            daemon=True,
        )
        with self._lock:
            self._slots[token] = thread
        self._threads.append(thread)
        thread.start()

    # ----------------------------------------------------------------- #
    # Submission / cancellation.
    # ----------------------------------------------------------------- #

    def submit(
        self,
        spec: Dict[str, Any],
        client: str = "",
        priority: int = 0,
        idempotency_key: str = "",
    ) -> CampaignRecord:
        """Validate, persist and enqueue one campaign.

        Raises :class:`~repro.service.specs.SpecError` on a bad spec,
        :class:`QuotaExceededError` when ``client`` already has
        ``quota`` campaigns in flight, and :class:`QueueFullError` when
        the queue is at its depth bound.  A repeated ``idempotency_key``
        returns the original submission's record without enqueueing
        anything - the server half of safe client-side POST retries.
        """
        if idempotency_key:
            existing = self.store.lookup_idempotent(idempotency_key)
            if existing is not None:
                return existing
        if self.store.active_count(client) >= self.quota:
            raise QuotaExceededError(
                f"client {client!r} already has {self.quota} campaigns "
                "in flight"
            )
        with self._lock:
            depth = len(self._queued_ids)
        if self.max_queue_depth is not None and depth >= self.max_queue_depth:
            raise QueueFullError(
                f"queue depth {depth} is at its {self.max_queue_depth} "
                "bound; retry later"
            )
        record = self.store.submit(
            spec, client=client, priority=priority,
            idempotency_key=idempotency_key,
        )
        with self._lock:
            # A concurrent duplicate submit (same idempotency key) may
            # hand back a record that is already queued, running or
            # terminal; only a genuinely new submission is pushed.
            if (
                record.state == "queued"
                and record.campaign_id not in self._queued_ids
                and record.campaign_id not in self._running
            ):
                self._push(record)
                self._wakeup.notify_all()
        return record

    def cancel(self, campaign_id: str, reason: str = "cancel") -> bool:
        """Cancel a queued or running campaign.

        Returns True if the campaign was cancellable (False when it is
        already terminal).  A queued campaign is marked cancelled
        immediately; a running one gets its ``cancel_event`` set and the
        slot records the terminal state once the executor unwinds.
        """
        record = self.store.get(campaign_id)
        with self._lock:
            if record.terminal:
                return False
            execution = self._running.get(campaign_id)
            if execution is not None:
                execution.reason = reason
                execution.cancel_event.set()
                return True
            if campaign_id in self._queued_ids:
                self._queued_ids.discard(campaign_id)
        if not self.store.mark_cancelled(campaign_id, reason=reason):
            return False
        self._emit(campaign_id, {"event": "cancelled", "reason": reason})
        return True

    # ----------------------------------------------------------------- #
    # Events.
    # ----------------------------------------------------------------- #

    def events(self, campaign_id: str, start: int = 0) -> List[Dict[str, Any]]:
        """The buffered events of one campaign, from index ``start``."""
        with self._lock:
            return list(self._events.get(campaign_id, [])[start:])

    def wait_events(
        self, campaign_id: str, start: int, timeout: float = 10.0
    ) -> List[Dict[str, Any]]:
        """Block until the campaign has events past ``start`` (or it is
        terminal, or ``timeout`` elapses); the SSE endpoint's long poll."""
        with self._lock:
            remaining = timeout
            while True:
                buffered = self._events.get(campaign_id, [])
                if len(buffered) > start:
                    return list(buffered[start:])
                if self.store.get(campaign_id).terminal or remaining <= 0:
                    return []
                waited = min(remaining, 0.5)
                self._event_cv.wait(waited)
                remaining -= waited

    def _emit(self, campaign_id: str, event: Dict[str, Any]) -> None:
        with self._lock:
            buffer = self._events.setdefault(campaign_id, [])
            buffer.append(event)
            if len(buffer) > EVENT_BUFFER_LIMIT:
                del buffer[: len(buffer) - EVENT_BUFFER_LIMIT]
            self._event_cv.notify_all()

    # ----------------------------------------------------------------- #
    # Introspection.
    # ----------------------------------------------------------------- #

    def liveness(self) -> Dict[str, Any]:
        """Scheduler health for ``/healthz``: are the slots alive, and
        how stale is the oldest running campaign's heartbeat (an
        orchestrator restarts the service when this grows without
        bound)."""
        now = time.monotonic()
        with self._lock:
            slots_alive = sum(
                1 for thread in self._slots.values() if thread.is_alive()
            )
            ages = [
                now - execution.heartbeat
                for execution in self._running.values()
            ]
            running = sorted(self._running)
        return {
            "alive": slots_alive > 0,
            "slots_alive": slots_alive,
            "max_concurrent": self.max_concurrent,
            "running": running,
            "last_heartbeat_age_s": max(ages) if ages else None,
            "watchdog_s": self.watchdog_s,
            "stuck_detected": self._stuck_detected,
        }

    def metrics(self) -> Dict[str, Any]:
        """The scheduler half of the ``/metrics`` payload."""
        with self._lock:
            queued = len(self._queued_ids)
            running = sorted(self._running)
            executed = self._executed
        payload: Dict[str, Any] = {
            "campaigns": self.store.counts(),
            "queue_depth": queued,
            "max_queue_depth": self.max_queue_depth,
            "running": running,
            "campaigns_executed": executed,
            "scheduler": self.liveness(),
            "journal_quarantined": self.store.quarantined,
            # Aggregates only: the per-job records grow with every job
            # the service has run (and their labels repeat per campaign).
            "telemetry": {
                name: block for name, block in self.telemetry.as_dict().items()
                if name != "records"
            },
        }
        injector = get_injector()
        if injector.active:
            payload["faults"] = injector.stats()
        return payload

    # ----------------------------------------------------------------- #
    # Worker internals.
    # ----------------------------------------------------------------- #

    def _push(self, record: CampaignRecord) -> None:
        heapq.heappush(
            self._queue, (-record.priority, record.seq, record.campaign_id)
        )
        self._queued_ids.add(record.campaign_id)

    def _pop(self) -> Optional[str]:
        while self._queue:
            _, _, campaign_id = heapq.heappop(self._queue)
            # Lazily skip entries cancelled while queued.
            if campaign_id in self._queued_ids:
                self._queued_ids.discard(campaign_id)
                return campaign_id
        return None

    def _slot_loop(self, token: object) -> None:
        while True:
            with self._lock:
                if token not in self._slots:
                    return  # retired by the watchdog
                while not self._stopping and not self._queued_ids:
                    self._wakeup.wait(self.poll_interval)
                    if token not in self._slots:
                        return
                if self._stopping:
                    return
                campaign_id = self._pop()
                if campaign_id is None:
                    continue
                now = time.monotonic()
                execution = _Execution(
                    campaign_id=campaign_id,
                    cancel_event=threading.Event(),
                    slot=token,
                    started=now,
                    heartbeat=now,
                )
                self._running[campaign_id] = execution
            try:
                self._execute(execution)
            finally:
                with self._lock:
                    if self._running.get(campaign_id) is execution:
                        del self._running[campaign_id]
                    self._executed += 1
                    retired = token not in self._slots
                if retired:
                    return

    def _worker_budget(self, executor: Dict[str, Any]) -> Dict[str, Any]:
        """Split the box's worker budget across concurrent slots.

        Only campaigns that did not pin ``workers`` are throttled - an
        explicit width is an operator's choice - and serial campaigns
        are untouched.
        """
        if (
            self.max_concurrent > 1
            and executor.get("max_workers") is None
            and executor.get("backend") not in (None, "serial")
        ):
            executor = dict(executor)
            executor["max_workers"] = max(
                1, resolve_workers(None) // self.max_concurrent
            )
        return executor

    def _execute(self, execution: _Execution) -> None:
        campaign_id = execution.campaign_id
        record = self.store.get(campaign_id)
        timer: Optional[threading.Timer] = None
        telemetry = Telemetry()
        injector = get_injector()
        try:
            if injector.active and injector.should_fire("scheduler.worker"):
                raise InjectedFaultError(
                    "injected scheduler worker failure (scheduler.worker)"
                )
            plan = build_plan(record.spec)
            executor = self._worker_budget(plan.executor)
            self.store.mark_running(campaign_id, total=len(plan.jobs))
            self._emit(campaign_id, {
                "event": "started",
                "total": len(plan.jobs),
                "resume": record.resume,
            })

            timeout_s = record.spec.get("timeout_s")
            if timeout_s is not None:
                def _expire() -> None:
                    with self._lock:
                        # Identity check: only the execution this timer
                        # was armed for may be expired.  A timer that
                        # outlives its execution (shutdown-requeue, a
                        # crash-requeue already re-running the campaign)
                        # finds a different object - or none - and does
                        # nothing.
                        if self._running.get(campaign_id) is not execution:
                            return
                        if execution.cancel_event.is_set():
                            return
                        execution.reason = "timeout"
                    execution.cancel_event.set()
                timer = threading.Timer(float(timeout_s), _expire)
                timer.daemon = True
                timer.start()

            if injector.active and injector.should_fire("scheduler.stuck"):
                # Heartbeat-less limbo until someone (the watchdog, a
                # user cancel, shutdown) sets the cancel event.
                execution.cancel_event.wait()
                raise CampaignCancelledError(
                    "injected stuck campaign interrupted", completed=0
                )

            done = {"count": 0}

            def progress(index: int, result: Any) -> None:
                execution.heartbeat = time.monotonic()
                done["count"] += 1
                self.store.mark_progress(campaign_id, done["count"])
                event: Dict[str, Any] = {
                    "event": "job",
                    "index": index,
                    "done": done["count"],
                    "total": len(plan.jobs),
                }
                if isinstance(result, JobResult):
                    event.update(
                        skew=result.skew,
                        vmin=result.vmin_late,
                        cached=result.cached,
                        resumed=result.resumed,
                    )
                elif isinstance(result, JobError):
                    event.update(error=result.error, message=result.message)
                self._emit(campaign_id, event)

            campaign = run_plan(
                plan,
                telemetry=telemetry,
                checkpoint=str(self.store.checkpoint_path(campaign_id)),
                resume=record.resume,
                progress=progress,
                cancel_event=execution.cancel_event,
                **executor,
            )
            payload = plan.fold(campaign)
            if self.store.mark_done(campaign_id, payload):
                self._emit(campaign_id, {
                    "event": "done",
                    "total": len(plan.jobs),
                    "errors": len(campaign.errors),
                })
        except CampaignCancelledError as error:
            with self._lock:
                reason = execution.reason or "cancel"
            if reason == "shutdown":
                if self.store.requeue(campaign_id, completed=error.completed):
                    self._emit(campaign_id, {
                        "event": "requeued",
                        "completed": error.completed,
                    })
            elif reason.startswith("stuck"):
                # The watchdog cancelled it; the structured reason makes
                # this a failure, not a user cancellation.  (If the
                # grace period already force-failed it, the sticky store
                # makes this a no-op.)
                if self.store.mark_failed(campaign_id, reason):
                    self._emit(campaign_id, {
                        "event": "failed",
                        "error": "StuckCampaign",
                        "message": reason,
                    })
            else:
                if self.store.mark_cancelled(
                    campaign_id, reason=reason, completed=error.completed
                ):
                    self._emit(campaign_id, {
                        "event": "cancelled",
                        "reason": reason,
                        "completed": error.completed,
                    })
        except WorkerCrashError as error:
            self._handle_crash(campaign_id, error)
        except Exception as error:  # noqa: BLE001 - worker must survive
            if self.store.mark_failed(
                campaign_id, f"{type(error).__name__}: {error}"
            ):
                self._emit(campaign_id, {
                    "event": "failed",
                    "error": type(error).__name__,
                    "message": str(error),
                    "trace": traceback.format_exc(limit=5),
                })
        finally:
            if timer is not None:
                timer.cancel()
            with self._lock:
                self.telemetry.merge(telemetry)

    def _handle_crash(
        self, campaign_id: str, error: WorkerCrashError
    ) -> None:
        """Requeue a crash-killed campaign for resume (bounded), then
        declare it failed."""
        with self._lock:
            attempts = self._crash_retries.get(campaign_id, 0) + 1
            self._crash_retries[campaign_id] = attempts
            stopping = self._stopping
        if attempts <= self.max_crash_requeues and not stopping:
            record = self.store.get(campaign_id)
            if self.store.requeue(campaign_id, completed=record.completed):
                self._emit(campaign_id, {
                    "event": "requeued",
                    "crash": True,
                    "attempt": attempts,
                    "message": error.message,
                })
                with self._lock:
                    self._push(self.store.get(campaign_id))
                    self._wakeup.notify_all()
                return
        if self.store.mark_failed(
            campaign_id, f"WorkerCrashError: {error.message}"
        ):
            self._emit(campaign_id, {
                "event": "failed",
                "error": "WorkerCrashError",
                "message": error.message,
            })

    # ----------------------------------------------------------------- #
    # Watchdog.
    # ----------------------------------------------------------------- #

    def _watchdog_loop(self) -> None:
        interval = max(0.02, min(0.5, self.watchdog_s / 4.0))
        grace = self.watchdog_s * WATCHDOG_GRACE_FACTOR
        while not self._watchdog_wake.wait(interval):
            with self._lock:
                if self._stopping:
                    return
                executions = list(self._running.values())
            now = time.monotonic()
            for execution in executions:
                if execution.abandoned:
                    continue
                if execution.stuck_since is None:
                    age = now - execution.heartbeat
                    if (
                        age > self.watchdog_s
                        and not execution.cancel_event.is_set()
                    ):
                        with self._lock:
                            current = self._running.get(execution.campaign_id)
                            if current is not execution:
                                continue
                            execution.reason = (
                                f"stuck: no heartbeat for {age:.1f}s "
                                f"(limit {self.watchdog_s:g}s)"
                            )
                            execution.stuck_since = now
                            self._stuck_detected += 1
                        execution.cancel_event.set()
                elif now - execution.stuck_since > grace:
                    # Cancelled but never unwound: the slot is wedged.
                    self._force_fail(execution)

    def _force_fail(self, execution: _Execution) -> None:
        """Fail a wedged execution in the store, abandon its slot and
        spawn a replacement so the queue keeps draining."""
        with self._lock:
            if self._running.get(execution.campaign_id) is not execution:
                return
            execution.abandoned = True
            del self._running[execution.campaign_id]
            self._slots.pop(execution.slot, None)
            stopping = self._stopping
        reason = execution.reason or "stuck: watchdog force-fail"
        if self.store.mark_failed(execution.campaign_id, reason):
            self._emit(execution.campaign_id, {
                "event": "failed",
                "error": "StuckCampaign",
                "message": reason,
                "forced": True,
            })
        if not stopping:
            self._spawn_slot()
