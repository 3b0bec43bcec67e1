"""Campaign runtime: cached, parallel, observable simulation sweeps.

The paper's figures and tables (Fig. 2-6, Tab. 1) are all regenerated by
re-running hundreds of independent, deterministic transients.  This
package is the orchestration layer those sweeps share:

* :mod:`repro.runtime.cache` - a content-addressed result cache (memory
  LRU + optional ``~/.cache/repro`` disk tier) keyed on every input of a
  simulation *and* a fingerprint of the physics source code, so results
  are replayed bit-exactly and never across engine changes;
* :mod:`repro.runtime.jobs` - :class:`SensorJob` / :class:`JobResult`,
  the picklable work unit and its compact scalar outcome;
* :mod:`repro.runtime.executor` - :func:`run_campaign` over serial,
  process and batch backends: one evaluation per job, crash isolation,
  the cancel event as the one wall-time bound and deterministic result
  ordering;
* :mod:`repro.runtime.telemetry` - per-job wall times, cache hit/miss
  accounting and engine step statistics, exportable as JSON or a human
  summary.

``repro.core.sensitivity``, ``repro.montecarlo.analysis``, the service
plans (which the CLI's grid commands run) and the benchmark harness all
route through this layer, so a warm cache makes every repeated
reproduction run O(lookup).

* :mod:`repro.runtime.prefix` - the prefix warm-start planner: campaign
  jobs sharing their skew-invariant physics fork one checkpointed
  pre-skew prefix (cached in a dedicated memory+disk tier) instead of
  each re-integrating from ``t = 0``.

How a campaign runs is set by its arguments alone (backend, worker
counts, stack size, warm start).  The environment names only where the
cache lives: ``REPRO_CACHE_DIR`` (disk-tier root),
``REPRO_CACHE_DISABLE=1`` (memory-only) and ``REPRO_CACHE_MAX_BYTES``
(disk budget).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": ("CampaignCancelledError", "JobError", "SimulationError",
                     "WorkerCrashError"),
    ".cache": ("ENGINE_VERSION", "CacheStats", "ResultCache",
               "checkpoint_cache_dir", "default_cache_dir",
               "default_max_disk_bytes", "engine_fingerprint", "get_cache",
               "get_checkpoint_cache", "parse_size", "reset_cache",
               "stable_key", "tenant_cache"),
    ".checkpoint": ("CheckpointJournal", "CorruptEntry", "iter_entries",
                    "load_journal", "quarantine_path", "write_quarantine"),
    ".executor": ("BACKENDS", "ON_ERROR_MODES", "CampaignResult",
                  "evaluate_cached", "resolve_chunksize", "resolve_workers",
                  "run_campaign"),
    ".faults": ("FaultInjector", "FaultSite", "get_injector", "inject",
                "parse_faults", "reset_injector", "set_injector"),
    ".jobs": ("JobResult", "SensorJob", "evaluate_job", "sensitivity_job"),
    ".prefix": ("PREFIX_GUARD", "fork_time", "prefix_key",
                "prepare_prefixes", "warm_eligible"),
    ".telemetry": ("Stopwatch", "Telemetry", "emit_block",
                   "format_duration"),
})
