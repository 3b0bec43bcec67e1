"""Which functions the traced run wraps, and the per-layer metrics.

Layer names follow the package layout of ``src/repro``.  Each
:class:`~spans.Target` below is a public function (or method) at a
layer boundary; everything inside one layer that the benchmark does not
wrap counts as that layer's self time.  The hot Newton loop is not
wrapped (a wrapper per iteration would swamp it); its phases come from
the ``KernelStats`` counters the program returns.

:data:`PER_LAYER` is the list ``BENCHMARK.json`` names; every traced run
reports every entry, with zero for layers a workload never enters.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from spans import ROOT, Target, Tracer, attribute

#: Layers of the wall-time decomposition, reported as ``<layer>.self_s``;
#: with ``unattributed_s`` they sum to ``trace.wall_s``.
LAYERS = (
    "runtime.executor", "runtime.cache", "runtime.prefix",
    "batch.dispatch", "batch.engine", "analog.engine", "analog.compile",
    "clocktree", "core.sensitivity", "montecarlo",
    "service.specs", "service.store", "service.api",
)


def _note_jobs(span, args, kwargs):
    jobs = args[0] if args else kwargs.get("jobs", ())
    span.note["jobs"] = len(jobs)


def _note_cache_get(span, args, kwargs):
    from repro.runtime.cache import get_checkpoint_cache

    cache = args[0]
    span.note["tier"] = (
        "checkpoint" if cache is get_checkpoint_cache() else "result"
    )
    disk_before = cache.stats.hits_disk

    def after(result):
        span.note["hit"] = result is not None
        span.note["disk"] = cache.stats.hits_disk > disk_before
    return after


def _note_cache_put(span, args, kwargs):
    from repro.runtime.cache import get_checkpoint_cache

    span.note["tier"] = (
        "checkpoint" if args[0] is get_checkpoint_cache() else "result"
    )


def _note_stacks(span, args, kwargs):
    def after(chunks):
        span.note["stacks"] = len(chunks)
    return after


def _note_transient(span, args, kwargs):
    def after(result):
        span.note["steps"] = len(result.times) - 1
        span.note["escalations"] = sum(
            count for rung, count in result.escalations.items()
            if not rung.startswith("dcop:")
        )
    return after


def _note_submitted(span, args, kwargs):
    def after(record):
        span.note["campaign"] = record.campaign_id
    return after


def _note_started(span, args, kwargs):
    span.note["campaign"] = args[1] if len(args) > 1 else kwargs["campaign_id"]


_STORE_WRITES = ("submit", "mark_running", "mark_progress", "mark_done",
                 "mark_failed", "mark_cancelled", "requeue")

TARGETS: List[Target] = [
    Target("repro.runtime.executor", "run_campaign", "runtime.executor",
           note=_note_jobs),
    Target("repro.runtime.executor", "evaluate_cached", "runtime.executor"),
    Target("repro.runtime.jobs", "evaluate_job", "runtime.executor"),
    Target("repro.runtime.cache", "ResultCache.get", "runtime.cache",
           note=_note_cache_get),
    Target("repro.runtime.cache", "ResultCache.put", "runtime.cache",
           note=_note_cache_put),
    Target("repro.runtime.prefix", "prepare_prefixes", "runtime.prefix"),
    Target("repro.runtime.prefix", "publish_prefixes", "runtime.prefix"),
    Target("repro.runtime.prefix", "prefix_checkpoint", "runtime.prefix"),
    Target("repro.runtime.prefix", "evaluate_job_warm", "runtime.prefix"),
    Target("repro.batch.dispatch", "dispatch_batches", "batch.dispatch"),
    Target("repro.batch.dispatch", "group_batches", "batch.dispatch",
           note=_note_stacks),
    Target("repro.analog.engine", "transient", "analog.engine",
           note=_note_transient),
    Target("repro.analog.compile", "CompiledCircuit.compile",
           "analog.compile"),
    Target("repro.clocktree.whole_tree", "simulate_whole_tree", "clocktree"),
    Target("repro.core.sensitivity", "extract_tau_min", "core.sensitivity"),
    Target("repro.core.sensitivity", "vmin_for_skew", "core.sensitivity"),
    Target("repro.montecarlo.sampling", "sample_population", "montecarlo"),
    Target("repro.service.specs", "build_plan", "service.specs"),
    Target("repro.service.store", "JobStore.submit", "service.store",
           note=_note_submitted),
    Target("repro.service.store", "JobStore.mark_running", "service.store",
           note=_note_started),
    *(Target("repro.service.store", f"JobStore.{name}", "service.store")
      for name in _STORE_WRITES[2:]),
    Target("repro.service.client", "ServiceClient.submit", "service.api",
           wait=True),
    Target("repro.service.client", "ServiceClient.stream_events",
           "service.api", wait=True),
    Target("repro.service.client", "ServiceClient.result", "service.api",
           wait=True),
]

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.sum_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("runtime.executor.jobs", "count", "higher"),
    ("runtime.cache.gets", "count", "lower"),
    ("runtime.cache.hit_ratio", "ratio", "higher"),
    ("runtime.cache.disk_hits", "count", "lower"),
    ("runtime.cache.get_s", "s", "lower"),
    ("runtime.cache.puts", "count", "lower"),
    ("runtime.cache.put_s", "s", "lower"),
    ("runtime.prefix.builds", "count", "lower"),
    ("runtime.prefix.hit_ratio", "ratio", "higher"),
    ("runtime.prefix.build_s", "s", "lower"),
    ("runtime.prefix.saved_sim_s", "s", "higher"),
    ("batch.dispatch.stacks", "count", "lower"),
    ("batch.dispatch.stack_size", "count", "higher"),
    ("batch.dispatch.workers", "count", "higher"),
    ("batch.dispatch.useful_ratio", "ratio", "higher"),
    ("batch.engine.busy_s", "s", "lower"),
    ("batch.engine.steps", "count", "lower"),
    ("analog.engine.calls", "count", "lower"),
    ("analog.engine.busy_s", "s", "lower"),
    ("analog.engine.steps", "count", "lower"),
    ("analog.engine.escalations", "count", "lower"),
    ("analog.compile.busy_s", "s", "lower"),
    ("kernel.assemble_s", "s", "lower"),
    ("kernel.factor_s", "s", "lower"),
    ("kernel.solve_s", "s", "lower"),
    ("kernel.accept_s", "s", "lower"),
    ("kernel.newton_iterations", "count", "lower"),
    ("kernel.factorizations", "count", "lower"),
    ("kernel.reuse_ratio", "ratio", "higher"),
    ("sparse.nnz", "count", "lower"),
    ("sparse.fill_ratio", "ratio", "lower"),
    ("sparse.fallbacks", "count", "lower"),
    ("core.sensitivity.probes_per_answer", "count", "lower"),
    ("montecarlo.sample_s", "s", "lower"),
    ("service.api.submit_s", "s", "lower"),
    ("service.api.first_event_s", "s", "lower"),
    ("service.api.result_s", "s", "lower"),
    ("service.api.retries", "count", "lower"),
    ("service.scheduler.queue_wait_s", "s", "lower"),
    ("service.specs.build_plan_s", "s", "lower"),
    ("service.store.writes", "count", "lower"),
    ("service.store.write_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tracer: Tracer, counters: Dict[str, Any],
              untraced_wall: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``counters`` holds what the program returned (``Telemetry`` and
    ``kernel_stats`` totals, shard-side batch busy time, client-side
    service timings - see ``workloads.py``); ``untraced_wall`` is the
    wall time of the same fixed work with tracing off.
    """
    root = tracer.root
    wall = root.duration
    shares = attribute(tracer.spans, root)
    # Shard workers are invisible to the spans: while the parent waits in
    # dispatch, the stacks integrate on ``workers`` processes at once, so
    # their busy time over the worker count is the engine's share of the
    # dispatch wall.  The rest is dispatch's own (pickling, IPC, merge).
    batch = counters.get("batch", {})
    engine = _ratio(batch.get("busy_s", 0.0), max(1, batch.get("workers", 1)))
    moved = min(shares.get("batch.dispatch", 0.0), engine)
    shares["batch.dispatch"] = shares.get("batch.dispatch", 0.0) - moved
    shares["batch.engine"] = shares.get("batch.engine", 0.0) + moved

    # Counts and busy times cover the timed region; the input generation
    # of set-up (sampling, plan building) is reported on its own.
    everywhere = [s for s in tracer.spans if s.layer != ROOT]
    spans = [s for s in everywhere if root.start <= s.start <= root.end]

    def select(layer: str, name: str = "", among: List[Any] = spans) -> List[Any]:
        return [s for s in among
                if s.layer == layer and (not name or s.name.endswith(name))]

    def seconds(found: List[Any]) -> float:
        return sum(s.duration for s in found)

    m: Dict[str, float] = {f"{layer}.self_s": shares.get(layer, 0.0)
                           for layer in LAYERS}
    m["unattributed_s"] = shares[ROOT]
    m["trace.wall_s"] = wall
    m["trace.sum_ratio"] = _ratio(sum(shares.get(l, 0.0) for l in LAYERS)
                                  + shares[ROOT], wall)
    m["trace.overhead_ratio"] = _ratio(wall, untraced_wall)

    m["runtime.executor.jobs"] = (
        sum(s.note.get("jobs", 0)
            for s in select("runtime.executor", "run_campaign"))
        + len(select("runtime.executor", "evaluate_cached"))
    )
    # The result tier; checkpoint-tier lookups are the prefix layer's.
    gets = [s for s in select("runtime.cache", ".get")
            if s.note.get("tier") == "result"]
    puts = [s for s in select("runtime.cache", ".put")
            if s.note.get("tier") == "result"]
    m["runtime.cache.gets"] = len(gets)
    m["runtime.cache.hit_ratio"] = _ratio(
        sum(1 for s in gets if s.note.get("hit")), len(gets))
    m["runtime.cache.disk_hits"] = sum(1 for s in gets if s.note.get("disk"))
    m["runtime.cache.get_s"] = seconds(gets)
    m["runtime.cache.puts"] = len(puts)
    m["runtime.cache.put_s"] = seconds(puts)

    prefix = counters.get("prefix", {})
    builds, hits = prefix.get("builds", 0), prefix.get("hits", 0)
    m["runtime.prefix.builds"] = builds
    m["runtime.prefix.hit_ratio"] = _ratio(hits, hits + builds)
    m["runtime.prefix.build_s"] = prefix.get("build_s", 0.0)
    m["runtime.prefix.saved_sim_s"] = prefix.get("saved_s", 0.0)

    samples, fallbacks = batch.get("samples", 0), batch.get("fallbacks", 0)
    m["batch.dispatch.stacks"] = sum(
        s.note.get("stacks", 0) for s in select("batch.dispatch", "group_batches"))
    m["batch.dispatch.stack_size"] = batch.get("stack_size", 0)
    m["batch.dispatch.workers"] = batch.get("workers", 0)
    m["batch.dispatch.useful_ratio"] = _ratio(samples, samples + fallbacks)
    m["batch.engine.busy_s"] = batch.get("busy_s", 0.0)
    m["batch.engine.steps"] = batch.get("steps", 0)

    engine_spans = select("analog.engine")
    m["analog.engine.calls"] = len(engine_spans)
    m["analog.engine.busy_s"] = seconds(engine_spans)
    m["analog.engine.steps"] = sum(s.note.get("steps", 0) for s in engine_spans)
    m["analog.engine.escalations"] = sum(
        s.note.get("escalations", 0) for s in engine_spans)
    m["analog.compile.busy_s"] = seconds(select("analog.compile"))

    kernel = counters.get("kernel", {})
    for name in ("assemble_s", "factor_s", "solve_s", "accept_s",
                 "newton_iterations", "factorizations"):
        m[f"kernel.{name}"] = kernel.get(name, 0)
    m["kernel.reuse_ratio"] = _ratio(kernel.get("jacobian_reuses", 0),
                                     kernel.get("newton_iterations", 0))

    sparse = counters.get("sparse", {})
    m["sparse.nnz"] = _ratio(sparse.get("nnz", 0), sparse.get("runs", 0))
    m["sparse.fill_ratio"] = _ratio(sparse.get("fill_nnz", 0),
                                    sparse.get("nnz", 0))
    m["sparse.fallbacks"] = sparse.get("fallbacks", 0)

    m["core.sensitivity.probes_per_answer"] = _ratio(
        len(select("core.sensitivity", "vmin_for_skew")),
        len(select("core.sensitivity", "extract_tau_min")))
    m["montecarlo.sample_s"] = seconds(select("montecarlo", among=everywhere))

    service = counters.get("service", {})
    m["service.api.submit_s"] = _median(service.get("submit_s", []))
    m["service.api.first_event_s"] = _median(service.get("first_event_s", []))
    m["service.api.result_s"] = _median(service.get("result_s", []))
    m["service.api.retries"] = service.get("retries", 0)
    submitted = {s.note["campaign"]: s.end
                 for s in select("service.store", "submit") if "campaign" in s.note}
    m["service.scheduler.queue_wait_s"] = _median([
        s.start - submitted[s.note["campaign"]]
        for s in select("service.store", "mark_running")
        if s.note.get("campaign") in submitted
    ])
    m["service.specs.build_plan_s"] = seconds(
        select("service.specs", among=everywhere))
    store = select("service.store")
    m["service.store.writes"] = len(store)
    m["service.store.write_s"] = seconds(store)
    return {name: m[name] for name, _, _ in PER_LAYER}
