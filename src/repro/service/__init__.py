"""Simulation-as-a-service: campaign server over the runtime stack.

PRs 1-5 made the engine fast (content-addressed cache, batched lockstep
integration, compiled kernels, prefix warm-starts) but left it a
blocking CLI: one terminal, one campaign, results gone when the process
exits.  This package is the step from "CLI tool" to "serves heavy
traffic" (ROADMAP item 1): a long-running HTTP service that accepts the
same campaign descriptions the CLI builds, schedules them by priority,
executes them on :func:`repro.runtime.run_campaign` with checkpoint
journaling, streams per-job progress, and survives restarts.

Layering (each module usable on its own):

* :mod:`repro.service.specs` - the campaign *spec*: a JSON dict (same
  parameter conventions as the ``repro campaign`` / ``repro montecarlo``
  subcommands) validated and compiled into a :class:`CampaignPlan` of
  :class:`~repro.runtime.SensorJob` descriptions plus a result folder,
  run by :func:`run_plan` for the scheduler and those subcommands
  alike.  Extensible registry so future job families plug in;
* :mod:`repro.service.store` - the *job store*: campaign lifecycle
  (``queued -> running -> done/failed/cancelled``) persisted in an
  append-only JSONL journal (the :mod:`repro.runtime.checkpoint` format)
  plus one directory per campaign holding its result payload and its
  ``run_campaign`` checkpoint journal.  A restarted server replays the
  journal: interrupted campaigns come back ``queued`` with
  ``resume=True`` and continue from their checkpoint;
* :mod:`repro.service.scheduler` - the *background scheduler*: worker
  thread draining a priority queue (priority, then FIFO), per-client
  concurrency quotas, per-campaign cancellation (the executor's
  ``cancel_event``) and timeouts, live progress-event buffers fed from
  the executor's ``progress`` callback, and aggregate
  :class:`~repro.runtime.Telemetry`;
* :mod:`repro.service.api` - the *HTTP API* (stdlib
  ``ThreadingHTTPServer``, no new dependencies): submit/status/result/
  cancel endpoints, Server-Sent-Events progress streams, ``/healthz``,
  ``/metrics`` and multi-tenant cache management;
* :mod:`repro.service.client` - the stdlib HTTP client the CLI
  (``repro serve`` / ``submit`` / ``status`` / ``result`` / ``cancel``)
  and the examples speak.

Determinism is preserved end to end: a service campaign runs exactly
the plan the CLI grid commands run, under the same cache keys, so its
results are bit-identical to a direct run - the service adds
scheduling, persistence and observability, never physics.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import CampaignScheduler, QuotaExceededError
from repro.service.specs import (
    FAST_OPTIONS,
    CampaignPlan,
    SpecError,
    build_plan,
    normalize_spec,
    register_kind,
    run_plan,
    spec_kinds,
)
from repro.service.store import (
    CampaignRecord,
    JobStore,
    STATES,
    TERMINAL_STATES,
    default_state_dir,
)

__all__ = [
    "FAST_OPTIONS",
    "STATES",
    "TERMINAL_STATES",
    "CampaignPlan",
    "CampaignRecord",
    "CampaignScheduler",
    "JobStore",
    "QuotaExceededError",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "build_plan",
    "default_state_dir",
    "normalize_spec",
    "register_kind",
    "run_plan",
    "spec_kinds",
]
