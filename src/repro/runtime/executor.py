"""Campaign executor: one API over serial, process and batch backends.

:func:`run_campaign` takes a list of jobs and returns their results *in
job order*, regardless of worker scheduling - the property every Fig.-4/5
pipeline relies on.  Around the raw evaluation it layers:

* **cache short-circuiting** - each job is content-addressed
  (:meth:`SensorJob.key`) and looked up before any work is dispatched;
  duplicate jobs inside one campaign are evaluated once;
* **one evaluation per job** - every job is a deterministic transient,
  so a job that fails fails the same way every time: its
  :class:`~repro.errors.SimulationError` is raised or collected as it
  is, never re-run;
* **crash isolation** - a worker process that segfaults, is OOM-killed
  or calls ``os._exit`` breaks only its pool generation: the executor
  rebuilds the pool, re-dispatches the jobs that were *in flight* at the
  break one at a time in isolation (at most :data:`MAX_REDISPATCH` extra
  dispatches each), continues the never-started remainder in parallel on
  the rebuilt pool, and attributes the crash to the poison job as a
  :class:`~repro.errors.WorkerCrashError`;
* **error collection** - ``on_error="collect"`` turns per-job failures
  into :class:`~repro.errors.JobError` records in the result list instead
  of aborting the campaign;
* **streaming progress and cancellation** - ``progress=`` is called once
  per finished job as results land (the campaign service feeds its
  event streams from it) and ``cancel_event=`` is the campaign's one
  wall-time bound: once set, the dispatch stops with a
  :class:`~repro.errors.CampaignCancelledError`, a worker pool is killed
  rather than joined (so a hung worker cannot hold the campaign), and
  every completed job stays journalled for a later ``resume=True``;
* **checkpointing** - ``checkpoint=path`` journals every completed job
  to an append-only JSONL (:mod:`repro.runtime.checkpoint`); a re-run
  with ``resume=True`` skips finished jobs entirely;
* **telemetry** - per-job wall time, engine steps, solver escalation
  rungs, cache hit/miss, re-dispatch and crash counters.

Every setting is an argument: the worker count is ``max_workers`` (half
the CPUs when omitted), and the process backend always passes an
explicit ``chunksize`` to the pool so hundreds of tiny jobs do not pay
one IPC round-trip each.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

import os

from repro.errors import (
    CampaignCancelledError,
    JobError,
    SimulationError,
    WorkerCrashError,
)
from repro.runtime.cache import ResultCache, get_cache
from repro.runtime.checkpoint import CheckpointJournal, load_journal
from repro.runtime.faults import get_injector
from repro.runtime.jobs import JobResult, SensorJob, evaluate_job
from repro.runtime.telemetry import Stopwatch, Telemetry

#: Supported executor backends.
BACKENDS = ("serial", "process", "batch")

#: Supported failure policies.
ON_ERROR_MODES = ("raise", "collect")

#: Extra isolated dispatches granted to a job (a stack, on the sharded
#: batch backend) whose worker died, before it is declared poison.
MAX_REDISPATCH = 2

#: Seconds a cancellable dispatch blocks before it checks its cancel
#: event again.
CANCEL_POLL_S = 0.2


def resolve_workers(max_workers: Optional[int] = None) -> int:
    """Worker count: the explicit argument, else half the CPUs."""
    if max_workers is not None:
        return max(1, int(max_workers))
    return max(1, (os.cpu_count() or 2) // 2)


def resolve_chunksize(
    n_jobs: int, workers: int, chunksize: Optional[int] = None
) -> int:
    """Explicit chunksize, or ~4 chunks per worker (at least 1)."""
    if chunksize is not None:
        return max(1, int(chunksize))
    return max(1, n_jobs // (workers * 4))


@dataclass
class CampaignResult:
    """Ordered results plus the telemetry gathered while producing them.

    Under ``on_error="collect"`` a slot holds a
    :class:`~repro.errors.JobError` instead of a
    :class:`~repro.runtime.jobs.JobResult`; :attr:`errors` filters them
    out and :attr:`ok` is True only for an error-free campaign.
    """

    results: List[Union[JobResult, JobError]]
    telemetry: Telemetry

    @property
    def errors(self) -> List[JobError]:
        """The collected per-job failures, in job order."""
        return [r for r in self.results if isinstance(r, JobError)]

    @property
    def ok(self) -> bool:
        """True when every job produced a result."""
        return not self.errors

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> Union[JobResult, JobError]:
        return self.results[index]


# --------------------------------------------------------------------- #
# Worker protocol.  Every evaluation - serial, pooled or a lockstep
# sample - comes back as one picklable :class:`Outcome`.  A
# SimulationError travels inside it whole (its ``__reduce__`` keeps the
# class and the diagnostics); anything else (programming errors)
# propagates and fails the campaign regardless of ``on_error``.
# --------------------------------------------------------------------- #

_Item = Tuple[int, SensorJob, Optional[Callable[[SensorJob], JobResult]]]


@dataclass(frozen=True)
class Outcome:
    """One job's evaluation: its ``result`` or the ``error`` it ended
    in, and the wall seconds it took."""

    index: int
    result: Optional[JobResult] = None
    error: Optional[SimulationError] = None
    wall: float = 0.0


def _evaluate_outcome(item: _Item) -> Outcome:
    """Evaluate one job, once.

    The chaos sites ``executor.crash`` / ``executor.hang`` hook in here -
    the single evaluation point shared by the serial and process
    backends - so an injected worker crash takes exactly the outcome
    shape a real pool breakage produces.  (The batch backend dispatches
    through :mod:`repro.batch.dispatch` and is not instrumented; chaos
    runs exercise the scalar backends.)
    """
    index, job, evaluate = item
    injector = get_injector()
    if injector.active:
        if injector.should_fire("executor.hang"):
            time.sleep(injector.hang_s)
        if injector.should_fire("executor.crash"):
            return Outcome(index, error=WorkerCrashError(
                f"job[{index}] worker crash (injected fault)",
                job=job, dispatches=1,
            ))
    watch = Stopwatch()
    try:
        result = (evaluate or evaluate_job)(job)
    except SimulationError as error:
        return Outcome(index, error=error, wall=watch.elapsed())
    return Outcome(index, result=result, wall=watch.elapsed())


def _worker_chunk(items: List[_Item]) -> List[Outcome]:
    """Pool worker: evaluate a chunk of jobs, one outcome each."""
    return [_evaluate_outcome(item) for item in items]


def _crash_outcome(item: _Item, dispatches: int) -> Outcome:
    """Synthesise the outcome of a job declared poison after repeatedly
    breaking its worker pool."""
    index, job, _ = item
    return Outcome(index, error=WorkerCrashError(
        f"job[{index}] killed its worker process {dispatches} time(s)",
        job=job, dispatches=dispatches,
    ))


def _mp_context():
    """Fork when available, spawn otherwise.

    Forking makes worker startup cheap and lets every worker - rebuilt
    pools included - inherit the prefix checkpoints the parent put in
    its memory tier before dispatch.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _chunked(items: List[_Item], size: int) -> List[List[_Item]]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _kill_pool(pool: Any) -> None:
    """Tear a process pool down without joining its workers.

    ``shutdown(wait=True)`` joins the worker processes, which blocks
    forever on a hung worker - exactly the case a cancelled campaign
    must not wait for.  Cancel everything that has not started, kill the
    workers outright, then reap them.
    """
    # ``_processes`` is the executor's pid -> Process map (CPython
    # implementation detail, stable since 3.7); the public API offers no
    # way to reach workers that must be killed rather than joined.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.kill()
    for process in processes:
        process.join(timeout=5.0)


def _check_cancelled(
    cancel_event: Optional[threading.Event],
) -> None:
    """Raise :class:`CampaignCancelledError` when the event is set."""
    if cancel_event is not None and cancel_event.is_set():
        raise CampaignCancelledError("campaign cancelled via cancel_event")


def _wait(futures: Any, cancel_event: Optional[threading.Event]) -> Any:
    """Block until one of ``futures`` completes and return the done set.

    A cancellable wait wakes every :data:`CANCEL_POLL_S` seconds and
    raises :class:`CampaignCancelledError` once the event is set, so a
    hung worker never holds a cancelled campaign.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    poll = CANCEL_POLL_S if cancel_event is not None else None
    while True:
        done, _ = wait(futures, timeout=poll, return_when=FIRST_COMPLETED)
        if done:
            return done
        _check_cancelled(cancel_event)


def _consume_outcomes(payload: Any, emit: Callable[[Outcome], None]) -> None:
    """Default payload consumer: the worker returned a list of outcomes."""
    for outcome in payload:
        emit(outcome)


def _dispatch_process_chunks(
    chunks: List[List[_Item]],
    workers: int,
    telemetry: Telemetry,
    worker: Callable[[List[_Item]], Any] = _worker_chunk,
    consume: Callable[[Any, Callable[[Outcome], None]], None] = _consume_outcomes,
    isolate: str = "item",
    on_outcome: Optional[Callable[[Outcome], None]] = None,
    cancel_event: Optional[threading.Event] = None,
) -> List[Outcome]:
    """Windowed process-pool dispatch over pre-formed chunks.

    The crash-isolation core shared by the scalar process backend
    (chunks of independent jobs, ``worker=_worker_chunk``) and the
    sharded batch backend (whole lockstep stacks,
    ``worker=evaluate_batch_chunk``).  ``worker`` must be a picklable
    module-level callable taking one chunk; ``consume(payload, emit)``
    runs in the parent and turns the worker's return value into emitted
    outcomes (the batch dispatcher folds stack statistics into telemetry
    here).

    Phase 1 runs chunks on a parallel pool with at most ``workers``
    chunks in flight.  A crash (``BrokenProcessPool``, including one
    raised by ``submit`` itself) tears the pool generation down: only
    the chunks actually in flight when the pool broke become
    *suspects*, and the un-started remainder is re-dispatched on a
    rebuilt parallel pool.

    Phase 2 re-runs each suspect alone on a single-worker pool, so a
    poison unit can only break a pool containing itself - that is what
    attributes the crash.  ``isolate`` picks the unit: ``"item"`` splits
    suspect chunks into single jobs (scalar semantics - the crash is
    pinned to one job); ``"chunk"`` keeps the whole chunk together (batch
    semantics - a lockstep stack is indivisible, splitting it would
    change its composition and therefore its bits).  A unit gets at most
    :data:`MAX_REDISPATCH` extra dispatches before it is declared poison
    and every job in it is reported as a
    :class:`~repro.errors.WorkerCrashError` outcome.

    Both phases wait in the same cancel poll (:func:`_wait`); a set
    ``cancel_event`` kills the live pool via :func:`_kill_pool`, never
    joining it, and raises :class:`CampaignCancelledError`.
    """
    # The pool modules load here, so a serial campaign never imports them.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    outcomes: List[Outcome] = []
    suspects: List[List[_Item]] = []
    context = _mp_context()

    def emit(outcome: Outcome) -> None:
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)

    # Phase 1: parallel dispatch over rebuildable pool generations.
    remaining = list(chunks)
    while remaining:
        queue = list(remaining)
        remaining = []
        pending: Dict[Any, List[_Item]] = {}
        broke = False
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        try:
            while (queue or pending) and not broke:
                _check_cancelled(cancel_event)
                while queue and len(pending) < workers:
                    chunk = queue.pop(0)
                    try:
                        future = pool.submit(worker, chunk)
                    except BrokenProcessPool:
                        # The pool died under us mid-submission; this
                        # chunk never reached a worker, so it is not a
                        # suspect - it reruns on the next generation.
                        queue.insert(0, chunk)
                        broke = True
                        break
                    pending[future] = chunk
                if not pending:
                    break
                for future in _wait(pending, cancel_event):
                    chunk = pending.pop(future)
                    try:
                        consume(future.result(), emit)
                    except BrokenProcessPool:
                        suspects.append(chunk)
                        broke = True
        except BaseException:
            _kill_pool(pool)
            raise
        if broke:
            telemetry.record_worker_crash()
            suspects.extend(pending.values())  # in flight when it broke
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True)
        remaining = queue

    # Phase 2: crash isolation.  One suspect unit per single-worker
    # pool; a pool that breaks now indicts exactly the unit it was
    # running.
    if isolate == "item":
        units = [[item] for chunk in suspects for item in chunk]
    else:
        units = [list(chunk) for chunk in suspects]
    dispatches: Dict[int, int] = {}
    queue = list(units)
    if queue:
        telemetry.record_redispatch(sum(len(unit) for unit in queue))
    while queue:
        _check_cancelled(cancel_event)
        unit = queue.pop(0)
        uid = unit[0][0]  # first job index names the unit
        dispatches[uid] = dispatches.get(uid, 0) + 1
        pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
        try:
            future = pool.submit(worker, unit)
            _wait([future], cancel_event)
            payload = future.result()
        except BrokenProcessPool:
            _kill_pool(pool)
            telemetry.record_worker_crash()
            if dispatches[uid] > MAX_REDISPATCH:
                for item in unit:
                    emit(_crash_outcome(item, dispatches[uid]))
            else:
                telemetry.record_redispatch(len(unit))
                queue.append(unit)
            continue
        except BaseException:
            _kill_pool(pool)
            raise
        pool.shutdown(wait=True)
        consume(payload, emit)
    return outcomes


def evaluate_cached(
    job: SensorJob,
    cache: Any = "default",
    telemetry: Optional[Telemetry] = None,
) -> JobResult:
    """Single-job fast path: cache lookup, evaluate on miss, store.

    Used by the point evaluations (``vmin_for_skew`` and the
    ``extract_tau_min`` search) where spinning up a campaign per call
    would be pure overhead.  A hit replays through :func:`_replay` and a
    miss folds through :func:`_assimilate`, the steps
    :func:`run_campaign` takes for each of its jobs, under the label
    ``"point"``; there is no journal, dedupe or prefix planner.
    """
    if cache == "default":
        cache = get_cache()
    telemetry = telemetry if telemetry is not None else Telemetry()
    key = job.key() if cache is not None else None
    hit = _replay(key, "point", telemetry, cache, None, {})
    if hit is not None:
        return hit
    return _assimilate(
        _evaluate_outcome((0, job, None)), job, key, "point",
        telemetry, cache, None, "raise",
    )


def run_campaign(
    jobs: Sequence[SensorJob],
    backend: str = "serial",
    max_workers: Optional[int] = None,
    batch_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    cache: Any = "default",
    telemetry: Optional[Telemetry] = None,
    evaluate: Optional[Callable[[SensorJob], JobResult]] = None,
    on_error: str = "raise",
    checkpoint: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, Union[JobResult, JobError]], None]] = None,
    cancel_event: Optional[threading.Event] = None,
) -> CampaignResult:
    """Run ``jobs`` and return their results in job order.

    Parameters
    ----------
    jobs:
        Work items; anything exposing ``key()`` and accepted by
        ``evaluate`` (normally :class:`SensorJob`).
    backend:
        ``"serial"`` (in-process loop), ``"process"``
        (``ProcessPoolExecutor``, fork context when available, explicit
        chunksize, crash isolation), or ``"batch"`` (the vectorized
        lockstep engine of :mod:`repro.batch`: cache-cold jobs are
        stacked into batched MNA tensors and integrated together;
        samples the lockstep engine masks out are re-dispatched to the
        scalar path automatically).  The batch backend evaluates
        :class:`SensorJob` descriptions directly, so it rejects a custom
        ``evaluate``.  ``chunksize`` becomes the per-stack sample
        count; when omitted it is auto-tuned from the largest
        signature group's fan-out over the shard workers (see
        :func:`repro.batch.dispatch.resolve_batch_plan`); whole stacks
        fan out over ``batch_workers`` shard processes through the
        windowed dispatcher.
    max_workers:
        Pool width; defaults to half the CPUs.
    batch_workers:
        Shard worker count of the batch backend (how many lockstep
        stacks integrate concurrently, each on its own process).
        Defaults to the ``max_workers`` resolution above.  ``1`` keeps
        the in-process single-worker batch path.  Ignored by the other
        backends.
    chunksize:
        Process-pool chunk size; defaults to ~4 chunks per worker.
    cache:
        ``"default"`` uses the process-wide :func:`get_cache`; ``None``
        disables caching; any :class:`ResultCache` is used as given.
    telemetry:
        Accumulator to record into; a fresh one is created when omitted
        and returned on the :class:`CampaignResult`.
    evaluate:
        Override the job evaluation (used by tests and future job
        families).  Must be picklable for the process backend.
    on_error:
        ``"raise"`` (default) aborts the campaign on the first job
        failure, exactly like before this option existed;
        ``"collect"`` records each failure as a
        :class:`~repro.errors.JobError` in the result list and finishes
        the remaining jobs.
    checkpoint:
        Path of an append-only JSONL journal recording every completed
        job (see :mod:`repro.runtime.checkpoint`).  With
        ``resume=False`` an existing journal at that path is truncated.
    resume:
        Load the ``checkpoint`` journal first and skip every job already
        completed in it (telemetry counts them as ``resumed``).
    progress:
        Optional callback invoked once per finished job as
        ``progress(index, result)`` with the job's position and its
        :class:`JobResult` (or :class:`~repro.errors.JobError` under
        ``on_error="collect"``) - cache hits, journal-resumed jobs and
        deduplicated twins included.  Called from the campaign's own
        thread *as results land* (the service streams these as live
        events); it must be cheap and must not raise.
    cancel_event:
        Optional :class:`threading.Event`, the campaign's one wall-time
        bound: once set, the campaign stops dispatching, kills its
        worker pool without joining it and raises
        :class:`~repro.errors.CampaignCancelledError`.  Every job
        completed before the event fired has already been journalled
        and cached, so a re-run with ``resume=True`` continues from the
        cancellation point.  Pools poll it every :data:`CANCEL_POLL_S`
        seconds, a hung worker included; the serial and in-process
        batch paths check it between jobs.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (use one of {BACKENDS})")
    if on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"unknown on_error {on_error!r} (use one of {ON_ERROR_MODES})"
        )
    if backend == "batch" and evaluate is not None:
        raise ValueError(
            "the batch backend evaluates SensorJob descriptions "
            "directly and cannot honour a custom evaluate callable"
        )
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    telemetry = telemetry if telemetry is not None else Telemetry()
    if cache == "default":
        # A custom evaluation must not populate the shared cache under
        # SensorJob keys it did not honour; require an explicit cache.
        cache = None if evaluate is not None else get_cache()

    jobs = list(jobs)
    results: List[Optional[Union[JobResult, JobError]]] = [None] * len(jobs)

    journal: Optional[CheckpointJournal] = None
    journalled: Dict[str, Dict[str, Any]] = {}
    if checkpoint is not None:
        if resume:
            journalled = load_journal(checkpoint)
        journal = CheckpointJournal(checkpoint, fresh=not resume)

    # ------------------------------------------------------------------ #
    # Replay pass: satisfy journal and cache hits, dedupe identical
    # pending jobs.
    # ------------------------------------------------------------------ #
    pending: List[Tuple[int, SensorJob]] = []
    key_owner: Dict[str, int] = {}
    duplicates: Dict[int, int] = {}
    keys = [job.key() for job in jobs]
    for index, (job, key) in enumerate(zip(jobs, keys)):
        stored = _replay(
            key, f"job[{index}]", telemetry, cache, journal, journalled
        )
        if stored is not None:
            results[index] = stored
            if progress is not None:
                progress(index, stored)
            continue
        if key in key_owner:
            duplicates[index] = key_owner[key]
            continue
        key_owner[key] = index
        pending.append((index, job))

    # ------------------------------------------------------------------ #
    # Dispatch the misses.
    # ------------------------------------------------------------------ #
    items: List[_Item] = [(index, job, evaluate) for index, job in pending]

    def _absorb(outcome: Outcome) -> None:
        """Fold one outcome in as it lands: results, telemetry, cache,
        journal, then the progress callback.  Dispatchers call this from
        the campaign's own thread, so streamed journalling/progress needs
        no locking."""
        index = outcome.index
        results[index] = _assimilate(
            outcome, jobs[index], keys[index], f"job[{index}]", telemetry,
            cache, journal, on_error,
        )
        if progress is not None:
            progress(index, results[index])

    if items and evaluate is None and backend != "batch":
        # Prefix planner: integrate each warm group's shared pre-skew
        # prefix once in the parent, so serial evaluations and
        # fork-started workers all inherit the checkpoint from the
        # memory tier instead of racing to rebuild it.  The batch
        # dispatcher runs the same planner itself.
        from repro.runtime.prefix import prepare_prefixes

        prepare_prefixes([job for _, job in pending], telemetry)

    try:
        if items:
            if backend == "batch":
                # Imported lazily: the batch subsystem depends on this
                # module's worker protocol, not the other way round.
                from repro.batch.dispatch import (
                    dispatch_batches, resolve_batch_workers,
                )

                dispatch_batches(
                    items,
                    workers=resolve_batch_workers(batch_workers, max_workers),
                    chunksize=chunksize,
                    telemetry=telemetry,
                    on_outcome=_absorb,
                    cancel_event=cancel_event,
                )
            elif backend == "serial":
                # Stream outcomes so an abort (raise mode) stops at the
                # failing job and still leaves every job completed
                # before it in the journal.
                for item in items:
                    _check_cancelled(cancel_event)
                    _absorb(_evaluate_outcome(item))
            else:
                workers = min(resolve_workers(max_workers), len(items))
                size = resolve_chunksize(len(items), workers, chunksize)
                # Outcomes are absorbed as they complete, so a raised
                # failure (or a cancellation) still leaves every job
                # that finished before it journalled and cached.  Crash
                # isolation re-runs suspects one *job* at a time, so a
                # poison job is attributed individually.
                _dispatch_process_chunks(
                    _chunked(items, size), workers, telemetry,
                    on_outcome=_absorb, cancel_event=cancel_event,
                )
    except CampaignCancelledError as error:
        error.completed = sum(1 for r in results if r is not None)
        raise
    finally:
        if journal is not None:
            journal.close()

    # Duplicate jobs share their owner's (freshly computed) outcome.
    for index, owner in duplicates.items():
        owned = results[owner]
        assert owned is not None
        if isinstance(owned, JobError):
            results[index] = replace(
                owned, index=index, job=jobs[index],
                diagnostics=dict(owned.diagnostics), wall=0.0,
            )
            steps, error = 0, owned.error
        else:
            results[index] = replace(owned, cached=True, kernel=(), prefix=())
            steps, error = owned.steps, None
        telemetry.record_job(
            f"job[{index}]", wall=0.0, steps=steps, cached=True, error=error,
        )
        if progress is not None:
            progress(index, results[index])

    assert all(r is not None for r in results)
    return CampaignResult(results=results, telemetry=telemetry)


def _replay(
    key: Optional[str],
    label: str,
    telemetry: Telemetry,
    cache: Optional[ResultCache],
    journal: Optional[CheckpointJournal],
    journalled: Dict[str, Dict[str, Any]],
) -> Optional[JobResult]:
    """The stored result of ``key``, or ``None`` when it must be computed.

    Tries the resumed journal first, then the cache (counting the
    lookup); a cache hit is journalled, so a later resume finds it.
    Either hit is recorded in ``telemetry`` as ``resumed`` or
    ``cached``.
    """
    if key in journalled:
        result = JobResult.from_payload(journalled[key], resumed=True)
    elif cache is not None:
        payload = cache.get(key)
        telemetry.record_cache(payload is not None)
        if payload is None:
            return None
        result = JobResult.from_payload(payload, cached=True)
        if journal is not None:
            journal.record(key, result.to_payload())
    else:
        return None
    telemetry.record_job(
        label, wall=0.0, steps=result.steps, cached=result.cached,
        resumed=result.resumed,
    )
    return result


def _assimilate(
    outcome: Outcome,
    job: SensorJob,
    key: Optional[str],
    label: str,
    telemetry: Telemetry,
    cache: Optional[ResultCache],
    journal: Optional[CheckpointJournal],
    on_error: str,
) -> Union[JobResult, JobError]:
    """Fold one outcome into telemetry, cache and journal, and return
    what fills its result slot.

    In ``raise`` mode an error outcome re-raises its exception (with
    the job descriptor on a crash), after the journal has
    been updated for every job that finished before it; in ``collect``
    mode it becomes a :class:`~repro.errors.JobError`.
    """
    error = outcome.error
    if error is None:
        result = replace(outcome.result, cached=False)
        telemetry.record_job(
            label, wall=outcome.wall, steps=result.steps, cached=False,
            escalations=result.escalation_counts,
            kernel=result.kernel_counts,
        )
        if result.prefix:
            telemetry.record_prefix(dict(result.prefix))
        if cache is not None or journal is not None:
            payload = result.to_payload()
            if cache is not None:
                cache.put(key, payload)
            if journal is not None:
                journal.record(key, payload)
        return result

    name = type(error).__name__
    telemetry.record_job(
        label, wall=outcome.wall, steps=0, cached=False, error=name,
    )
    if on_error == "raise":
        if isinstance(error, WorkerCrashError):
            error.job = job
        raise error
    return JobError(
        index=outcome.index, job=job, error=name, message=error.message,
        diagnostics=error.diagnostics.as_dict(), wall=outcome.wall,
    )
