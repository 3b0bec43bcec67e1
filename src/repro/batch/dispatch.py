"""Campaign-side dispatch of the batch engine.

This module is what ``run_campaign(backend="batch")`` lazily imports.
It takes the executor's post-cache work items (cache hits were already
satisfied upstream, so only cache misses reach the stack), groups them
into batchable stacks, and returns outcomes in the executor's standard
worker protocol - so caching, journaling, telemetry and error policies
behave identically across backends.

Grouping and chunking
---------------------
Jobs are grouped by :func:`~repro.batch.response.batch_signature` (the
fields one lockstep run must share: topology switches and engine
options - so the jobs of a whole Monte Carlo campaign form one group)
and each group is split into chunks of at most
:func:`resolve_batch_plan` samples: the explicit ``chunksize`` argument,
else the auto-tune heuristic (:func:`auto_batch_size`: an even fan-out
of the largest group over the shard workers, capped at
:data:`MAX_AUTO_BATCH`).  Every row steps its own time grid, so the
chunking moves where and how fast a job integrates, never its bits.
The resolved size and worker count are recorded on the campaign
:class:`~repro.runtime.telemetry.Telemetry` so summaries and BENCH JSON
report the shape actually used.

Process sharding
----------------
With :func:`resolve_batch_workers` > 1 (``batch_workers``), whole
stacks fan out over a process pool through the executor's windowed
submission core (:func:`repro.runtime.executor._dispatch_process_chunks`)
- the same machinery the scalar process backend uses, inheriting its
crash isolation, bounded redispatch and cancel poll.  The unit of crash
isolation is the whole stack (``isolate="chunk"``): a stack integrates
in one call, so a crashed worker loses all of it and the stack is
re-dispatched whole.  Outcomes are index-addressed, so merged results are
deterministic in job order regardless of which worker finished first,
and every row equals its scalar run bit for bit whatever stack it
landed in - a sharded run is bit-identical to the single-worker batch
path (``batch_workers=1``) and to the serial backend, at any stack
size.

Before any stack runs, in process or sharded, every skew-invariant
prefix of a ``warm_start`` job is built once in the parent
(:func:`repro.runtime.prefix.publish_prefixes` - the campaign's one
planner pass, which keys each job's prefix once and integrates the
missing ones as a lockstep stack of their own from
:data:`~repro.runtime.prefix.PREFIX_STACK_MIN` prefixes up) and lands
in its checkpoint memory tier - and on disk, when the disk tier is on.
Shard pools fork wherever fork exists, so every worker - first
generation or rebuilt after a crash - inherits the parent's memory tier
and warm-starts from the checkpoint instead of re-integrating it.

Fallback contract
-----------------
A sample the lockstep engine masks out is re-evaluated through the
executor's scalar :func:`~repro.runtime.executor._evaluate_outcome` -
the same path the serial backend uses, evaluated once, with the same
error diagnostics.  If an entire stack fails to build or integrate,
every sample of that chunk takes the scalar path; a row with no prefix
checkpoint takes it alone.  Nothing is silently degraded: every re-dispatch
is counted in ``Telemetry.batch_fallbacks``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.compile import BatchTopologyError
from repro.batch.response import batch_signature, evaluate_jobs_batch
from repro.errors import SimulationError
from repro.runtime.executor import (
    Outcome, _check_cancelled, _dispatch_process_chunks, _evaluate_outcome,
    _Item, resolve_workers,
)
from repro.runtime.prefix import publish_prefixes
from repro.runtime.telemetry import Stopwatch, Telemetry

#: Ceiling on the auto-tuned stack size.  It was set while a stack's rows
#: shared one merged time grid that densified with every row; rows now
#: step their own grids, so the cap is a guess awaiting measurement.
MAX_AUTO_BATCH = 128


def resolve_batch_workers(
    batch_workers: Optional[int] = None, max_workers: Optional[int] = None
) -> int:
    """Shard worker count: ``batch_workers``, else the worker default.

    Falls back to :func:`~repro.runtime.executor.resolve_workers` of
    ``max_workers``, so a campaign that fans scalar jobs over N
    processes shards its batch stacks over the same N unless told
    otherwise.
    """
    return resolve_workers(
        batch_workers if batch_workers is not None else max_workers
    )


def auto_batch_size(n_jobs: int, workers: int) -> int:
    """Auto-tuned samples per stack for a signature group of ``n_jobs``.

    ``min(ceil(n_jobs / workers), MAX_AUTO_BATCH)``: the fan-out bound
    never builds a stack so large that shard workers sit idle while one
    integrates everything, and the cap bounds a stack's wall time (a
    stack waits for its slowest row).  No memory bound is needed: the
    batch backend only runs sensor jobs, whose topologies have 10 or 12
    nodes, so a capped stack's matrices take well under a megabyte.
    """
    by_fanout = -(-int(n_jobs) // max(1, int(workers)))
    return max(1, min(by_fanout, MAX_AUTO_BATCH))


def resolve_batch_plan(
    chunksize: Optional[int], items: Sequence[_Item], workers: int
) -> Tuple[int, bool]:
    """Resolve ``(samples_per_stack, auto)`` for a dispatch of ``items``.

    Resolution order: explicit ``chunksize`` >
    :func:`auto_batch_size` over the largest :func:`batch_signature`
    group of ``items``.  ``auto`` is True only when the heuristic chose
    the size - callers record it so a tuned size is always
    distinguishable from a pinned one.

    The auto-tuned size depends on the worker count (the fan-out
    bound); it never changes a result, and the chosen size is recorded
    in telemetry.
    """
    if chunksize is not None:
        return max(1, int(chunksize)), False
    counts = Counter(batch_signature(item[1]) for item in items)
    return auto_batch_size(max(counts.values()), workers), True


def group_batches(
    items: Sequence[_Item], batch_size: int
) -> List[List[_Item]]:
    """Split work items into batchable chunks.

    Items are grouped by :func:`batch_signature` preserving first-seen
    order, then each group is chunked to at most ``batch_size`` samples.
    The chunking is a pure function of ``(items, batch_size)`` - worker
    count never enters - so sharding changes where a stack integrates,
    never what is in it.
    """
    groups: Dict[Hashable, List[_Item]] = {}
    order: List[Hashable] = []
    for item in items:
        signature = batch_signature(item[1])
        if signature not in groups:
            groups[signature] = []
            order.append(signature)
        groups[signature].append(item)
    chunks: List[List[_Item]] = []
    for signature in order:
        group = groups[signature]
        for start in range(0, len(group), batch_size):
            chunks.append(group[start:start + batch_size])
    return chunks


def evaluate_batch_chunk(
    chunk: Sequence[_Item],
) -> Tuple[List[Outcome], Dict[str, object]]:
    """Evaluate one stack; scalar-re-dispatch masked-out samples.

    Returns ``(outcomes, stats)`` where outcomes follow the executor's
    worker protocol and ``stats`` carries ``batched_samples`` (results
    produced by the lockstep engine), ``batch_fallbacks`` (samples that
    took the scalar path), the batch-level ``escalations`` tally and the
    stack's hot-loop ``kernel`` counters.  Runs either in the parent
    (single-worker path) or as the picklable pool worker of the sharded
    path - it touches no parent state, and all statistics travel home in
    ``stats``.
    """
    stats: Dict[str, object] = {
        "batched_samples": 0, "batch_fallbacks": 0, "escalations": {},
        "kernel": {}, "prefix": {},
    }
    outcomes: List[Outcome] = []
    watch = Stopwatch()
    try:
        evaluation = evaluate_jobs_batch([item[1] for item in chunk])
    except (BatchTopologyError, SimulationError, np.linalg.LinAlgError):
        # The stack itself failed; every sample takes the scalar path
        # (one evaluation, same diagnostics - the fallback contract).
        evaluation = None
    if evaluation is None:
        for item in chunk:
            outcomes.append(_evaluate_outcome(item))
        stats["batch_fallbacks"] = len(chunk)
        return outcomes, stats

    stats["escalations"] = evaluation.escalations
    stats["kernel"] = evaluation.kernel_stats
    stats["prefix"] = evaluation.prefix
    share = watch.elapsed() / max(1, len(chunk))
    for item, result in zip(chunk, evaluation.results):
        if result is None:
            outcomes.append(_evaluate_outcome(item))
            stats["batch_fallbacks"] = int(stats["batch_fallbacks"]) + 1
        else:
            outcomes.append(Outcome(item[0], result=result, wall=share))
            stats["batched_samples"] = int(stats["batched_samples"]) + 1
    return outcomes, stats


def _fold_stats(telemetry: Optional[Telemetry], stats: Dict[str, object]) -> None:
    """Record one chunk's stats into the campaign telemetry."""
    if telemetry is None:
        return
    telemetry.record_batch(
        samples=int(stats.get("batched_samples", 0)),
        fallbacks=int(stats.get("batch_fallbacks", 0)),
    )
    escalations = stats.get("escalations") or {}
    if escalations:
        telemetry.record_escalations(escalations)
    kernel = stats.get("kernel") or {}
    if kernel:
        telemetry.record_kernel(kernel)
    prefix = stats.get("prefix") or {}
    if prefix:
        telemetry.record_prefix(prefix)


def dispatch_batches(
    items: Sequence[_Item],
    workers: int = 1,
    chunksize: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    on_outcome=None,
    cancel_event=None,
) -> List[Outcome]:
    """Run all work items through the batch engine.

    Parameters
    ----------
    items:
        The executor's post-cache work items.
    workers:
        With ``workers > 1`` whole stacks fan out over a process pool
        (one lockstep stack per worker) through the executor's windowed
        submission core, inheriting its crash isolation: a stack whose
        worker dies is re-dispatched whole - at most
        :data:`~repro.runtime.executor.MAX_REDISPATCH` extra times, after
        which its samples are reported as
        :class:`~repro.errors.WorkerCrashError` outcomes - and outcomes
        merge in deterministic job order either way.  ``workers <= 1``
        is the in-process single-worker path.
    chunksize:
        Samples per stack (see :func:`resolve_batch_plan` for the
        explicit > auto-tuned resolution).
    telemetry:
        Campaign accumulator receiving ``batched_samples`` /
        ``batch_fallbacks`` counters, the batch escalation tallies and
        the resolved stack size / worker count
        (:meth:`~repro.runtime.telemetry.Telemetry.record_batch_config`).
    on_outcome:
        Optional callback receiving each outcome as its stack completes
        (the executor assimilates/streams through this).
    cancel_event:
        Optional :class:`threading.Event`; when set, dispatch stops with
        a :class:`~repro.errors.CampaignCancelledError`.  In-process
        stacks check it between stacks (lockstep samples cannot be
        interrupted mid-grid); sharded pools poll it while they wait and
        are killed, not joined.
    """
    batch_size, auto = resolve_batch_plan(chunksize, items, workers)
    chunks = group_batches(items, batch_size)
    effective = max(1, min(int(workers), len(chunks)))
    if telemetry is not None:
        telemetry.record_batch_config(
            stack_size=batch_size, workers=effective, auto=auto
        )
    # The campaign's one planner pass: build every warm prefix here, so
    # in-process stacks and forked shard workers all fetch it.
    publish_prefixes([item[1] for item in items], telemetry)

    if effective <= 1:
        outcomes: List[Outcome] = []
        for chunk in chunks:
            _check_cancelled(cancel_event)
            chunk_outcomes, stats = evaluate_batch_chunk(chunk)
            _fold_stats(telemetry, stats)
            outcomes.extend(chunk_outcomes)
            if on_outcome is not None:
                for outcome in chunk_outcomes:
                    on_outcome(outcome)
        return outcomes

    # Sharded path: fan whole stacks out through the executor's windowed
    # dispatcher.  Stats ride home in each worker's payload and are
    # folded here in the parent.
    def consume(payload, emit) -> None:
        chunk_outcomes, stats = payload
        _fold_stats(telemetry, stats)
        for outcome in chunk_outcomes:
            emit(outcome)

    return _dispatch_process_chunks(
        chunks,
        workers=effective,
        telemetry=telemetry if telemetry is not None else Telemetry(),
        worker=evaluate_batch_chunk,
        consume=consume,
        isolate="chunk",
        on_outcome=on_outcome,
        cancel_event=cancel_event,
    )
