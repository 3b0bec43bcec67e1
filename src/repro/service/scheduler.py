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
box.  A slot waits on the queue's condition until :meth:`submit` or
:meth:`stop` notifies it.

Wiring per campaign (one :class:`_Execution` per running slot):

* ``checkpoint=<store>/campaigns/<id>/checkpoint.jsonl`` +
  ``resume=record.resume`` - every finished job is durable, and a
  campaign interrupted by a shutdown or a server kill continues where
  it stopped;
* ``progress=`` - each finished job appends one event to the campaign's
  in-memory event buffer (the SSE endpoint's source), bumps the store's
  progress counter and refreshes the execution's *heartbeat*, whose age
  ``/healthz`` reports for an external monitor;
* ``cancel_event=`` - one :class:`threading.Event` per execution, the
  campaign's one time bound.  :meth:`cancel` sets it (reason
  ``"cancel"``), the per-campaign ``timeout_s`` timer sets it (reason
  ``"timeout"``) and :meth:`stop` sets it (reason ``"shutdown"`` - the
  campaign is *requeued* so a restarted server resumes it); nothing
  else does.  The timer closure checks that its execution is still the
  current one before acting, and the store's sticky terminal states
  make even a lost race harmless;
* the result cache the spec asks for, which
  :func:`~repro.service.specs.run_plan` (the CLI grid commands' run
  entry too) picks: named tenants get their own disk namespace, and
  the default tenant shares the process-global cache with direct CLI
  runs.

The executor alone decides what a failed job means: a worker that dies
is redispatched in isolation (``MAX_REDISPATCH``), and a job that keeps
killing its worker ends in :class:`~repro.errors.WorkerCrashError`,
which fails the campaign like any other exception (or becomes a
``JobError`` under ``on_error="collect"``).  Submissions beyond
``max_queue_depth`` raise :class:`QueueFullError` (the API's 503 +
``Retry-After``), and per-client quotas are enforced at submission time
(:class:`QuotaExceededError` -> HTTP 429), counting the client's
non-terminal campaigns.

Chaos site consulted here: ``scheduler.worker`` (a slot raises before
executing - the loop survives and the campaign fails with a structured
reason).
"""

from __future__ import annotations

import heapq
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CampaignCancelledError, InjectedFaultError, JobError
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

    Identity matters: the timeout timer only acts when
    ``self._running[campaign_id] is execution`` still holds, so a timer
    that outlives its execution can never terminate a later one.
    """

    campaign_id: str
    cancel_event: threading.Event
    #: ``time.monotonic()`` of the last sign of life (job completion).
    heartbeat: float = 0.0
    #: Why the cancel event was set ("cancel"/"timeout"/"shutdown");
    #: None while running normally.
    reason: Optional[str] = None


class CampaignScheduler:
    """Priority scheduler over a :class:`JobStore` with N worker slots."""

    def __init__(
        self,
        store: JobStore,
        quota: int = DEFAULT_QUOTA,
        max_concurrent: int = DEFAULT_MAX_CONCURRENT,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        self.store = store
        self.quota = int(quota)
        self.max_concurrent = max(1, int(max_concurrent))
        self.max_queue_depth = (
            None if max_queue_depth is None else max(1, int(max_queue_depth))
        )
        self.telemetry = Telemetry()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: List[Tuple[int, int, str]] = []
        self._queued_ids: set = set()
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._event_cv = threading.Condition(self._lock)
        self._running: Dict[str, _Execution] = {}
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._executed = 0
        # Campaigns that survived a restart re-enter the queue first.
        for record in self.store.pending():
            self._push(record)

    # ----------------------------------------------------------------- #
    # Lifecycle.
    # ----------------------------------------------------------------- #

    def start(self) -> None:
        """Start the slot threads (idempotent)."""
        with self._lock:
            self._stopping = False
            while len(self._threads) < self.max_concurrent:
                thread = threading.Thread(
                    target=self._slot_loop, name="repro-scheduler",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

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
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        with self._lock:
            self._threads = []

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
                1 for thread in self._threads if thread.is_alive()
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

    def _slot_loop(self) -> None:
        while True:
            with self._lock:
                while not self._stopping and not self._queued_ids:
                    self._wakeup.wait()
                if self._stopping:
                    return
                campaign_id = self._pop()
                if campaign_id is None:
                    continue
                execution = _Execution(
                    campaign_id=campaign_id,
                    cancel_event=threading.Event(),
                    heartbeat=time.monotonic(),
                )
                self._running[campaign_id] = execution
            try:
                self._execute(execution)
            finally:
                with self._lock:
                    del self._running[campaign_id]
                    self._executed += 1

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
                        # outlives its execution finds a different
                        # object - or none - and does nothing.
                        if self._running.get(campaign_id) is not execution:
                            return
                        if execution.cancel_event.is_set():
                            return
                        execution.reason = "timeout"
                    execution.cancel_event.set()
                timer = threading.Timer(float(timeout_s), _expire)
                timer.daemon = True
                timer.start()

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
            elif self.store.mark_cancelled(
                campaign_id, reason=reason, completed=error.completed
            ):
                self._emit(campaign_id, {
                    "event": "cancelled",
                    "reason": reason,
                    "completed": error.completed,
                })
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
