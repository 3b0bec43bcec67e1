"""Campaign executor: backends, ordering, one evaluation per job, caching."""

from __future__ import annotations

import os
import time

import pytest

from repro.analog.dcop import ConvergenceError
from repro.analog.engine import TransientOptions
from repro.runtime import (
    JobResult,
    ResultCache,
    SensorJob,
    Telemetry,
    run_campaign,
    resolve_chunksize,
    resolve_workers,
)
from repro.units import fF, ns

FAST = TransientOptions(dt_max=200e-12, reltol=5e-3)


def jobs_for(*skews_ns, warm_start=False):
    return [
        SensorJob(skew=ns(t), load1=fF(160), load2=fF(160), options=FAST,
                  warm_start=warm_start)
        for t in skews_ns
    ]


# --------------------------------------------------------------------- #
# Fake evaluations (module level: picklable for the process backend).
# --------------------------------------------------------------------- #

def _synthetic(job):
    return JobResult(
        skew=job.skew, vmin_y1=job.skew * 2.0, vmin_y2=job.skew * 3.0,
        code=(0, 0), steps=7,
    )


_DIVERGED = []


def _always_diverges(job):
    _DIVERGED.append(job.skew)
    raise ConvergenceError("synthetic non-convergence")


# --------------------------------------------------------------------- #
# Worker / chunksize resolution.
# --------------------------------------------------------------------- #

def test_resolve_workers():
    assert resolve_workers(5) == 5  # explicit argument wins
    assert resolve_workers(0) == 1  # never below 1
    assert resolve_workers(None) == max(1, (os.cpu_count() or 2) // 2)


def test_resolve_chunksize():
    assert resolve_chunksize(100, 4) == 6      # ~4 chunks per worker
    assert resolve_chunksize(3, 8) == 1        # never below 1
    assert resolve_chunksize(100, 4, chunksize=17) == 17


# --------------------------------------------------------------------- #
# Backends return identical, ordered results.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("backend, warm_start, batch_workers", [
    pytest.param("serial", False, None, id="serial"),
    pytest.param("process", False, None, id="process"),
    pytest.param("serial", True, None, id="serial-warm"),
    pytest.param("process", True, None, id="process-warm"),
    pytest.param("batch", False, 1, id="batch"),
    pytest.param("batch", True, 1, id="batch-warm"),
    pytest.param("batch", False, 2, id="batch-sharded"),
    pytest.param("batch", True, 2, id="batch-sharded-warm"),
])
def test_backends_bit_identical(backend, warm_start, batch_workers,
                                monkeypatch):
    from repro.runtime import reset_cache

    jobs = jobs_for(0.1, 0.4, warm_start=warm_start)
    # Disk tier off: forked workers can only reach the prefix checkpoint
    # the parent built through the memory tier they inherit.
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    reset_cache()
    try:
        serial = Telemetry()
        reference = run_campaign(jobs, backend="serial", cache=None,
                                 telemetry=serial)
        reset_cache()
        telemetry = Telemetry()
        campaign = run_campaign(jobs, backend=backend, cache=None,
                                max_workers=2, batch_workers=batch_workers,
                                telemetry=telemetry)
        reset_cache()
        warm = run_campaign(jobs_for(0.1, 0.4, warm_start=True),
                            backend="serial", cache=None)
    finally:
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
        reset_cache()
    for got, want in zip(campaign, reference):
        assert got.vmin_y1 == want.vmin_y1  # bit-exact, not approx
        assert got.vmin_y2 == want.vmin_y2
        assert got.code == want.code
        assert got.steps == want.steps
    # Cold equals warm: every run equals the warm serial one.
    for got, want in zip(campaign, warm):
        assert (got.vmin_y1, got.vmin_y2, got.code, got.steps,
                got.escalations) == (want.vmin_y1, want.vmin_y2, want.code,
                                     want.steps, want.escalations)
    assert telemetry.steps_integrated == serial.steps_integrated
    if backend == "batch":
        assert telemetry.batched_samples == len(jobs)
        assert telemetry.batch_workers == batch_workers
    if warm_start:
        # One parent-side prefix build; every job forks from it.
        assert telemetry.prefix_builds == 1
        assert telemetry.prefix_hits == len(jobs)


def test_results_keep_job_order():
    jobs = jobs_for(0.5, 0.1, 0.3, 0.2)
    campaign = run_campaign(
        jobs, backend="process", cache=None, max_workers=4, evaluate=_synthetic
    )
    assert [r.skew for r in campaign] == [job.skew for job in jobs]


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        run_campaign([], backend="gpu")


# --------------------------------------------------------------------- #
# A job is a deterministic transient: a failing one is evaluated once.
# --------------------------------------------------------------------- #

def test_failing_job_is_evaluated_once():
    del _DIVERGED[:]
    with pytest.raises(ConvergenceError):
        run_campaign(jobs_for(0.2), backend="serial", evaluate=_always_diverges)
    assert len(_DIVERGED) == 1

    telemetry = Telemetry()
    campaign = run_campaign(
        jobs_for(0.2, 0.3), backend="serial", evaluate=_always_diverges,
        on_error="collect", telemetry=telemetry,
    )
    assert len(_DIVERGED) == 3
    assert [r.error for r in campaign] == ["ConvergenceError"] * 2
    assert telemetry.jobs_failed == 2


# --------------------------------------------------------------------- #
# Cache integration and accounting.
# --------------------------------------------------------------------- #

def test_warm_campaign_evaluates_nothing(tmp_path):
    jobs = jobs_for(0.1, 0.3)
    cache = ResultCache(disk_dir=tmp_path)
    cold = Telemetry()
    first = run_campaign(jobs, cache=cache, telemetry=cold)
    assert cold.jobs_evaluated == 2
    assert cold.cache_misses == 2
    assert cold.steps_integrated > 0

    warm = Telemetry()
    second = run_campaign(jobs, cache=cache, telemetry=warm)
    assert warm.jobs_evaluated == 0
    assert warm.cache_hits == 2
    assert warm.steps_integrated == 0
    for got, want in zip(second, first):
        assert got.vmin_late == want.vmin_late  # bit-exact replay
        assert got.cached


def test_disk_tier_survives_fresh_process_state(tmp_path):
    """A new cache instance (fresh memory) replays from disk."""
    jobs = jobs_for(0.25)
    writer = ResultCache(disk_dir=tmp_path)
    first = run_campaign(jobs, cache=writer)

    reader = ResultCache(disk_dir=tmp_path, version=writer.version)
    telemetry = Telemetry()
    second = run_campaign(jobs, cache=reader, telemetry=telemetry)
    assert telemetry.jobs_evaluated == 0
    assert reader.stats.hits_disk == 1
    assert second[0].vmin_late == first[0].vmin_late


def test_duplicate_jobs_evaluated_once(tmp_path):
    # With a cache or without one: a campaign always folds equal keys.
    job = jobs_for(0.2)[0]
    for cache in (ResultCache(disk_dir=tmp_path), None):
        telemetry = Telemetry()
        campaign = run_campaign([job, job, job], cache=cache,
                                telemetry=telemetry, evaluate=_synthetic)
        assert telemetry.jobs_evaluated == 1
        assert len(campaign) == 3
        assert campaign[1].vmin_late == campaign[0].vmin_late
        assert campaign[1].cached and campaign[2].cached


def test_custom_evaluate_never_touches_default_cache():
    """cache="default" + custom evaluate must not poison shared entries."""
    telemetry = Telemetry()
    run_campaign(jobs_for(0.2), evaluate=_synthetic, telemetry=telemetry)
    # No cache in play: neither hits nor misses were recorded.
    assert telemetry.cache_hits == 0
    assert telemetry.cache_misses == 0


# --------------------------------------------------------------------- #
# Telemetry export.
# --------------------------------------------------------------------- #

def test_telemetry_report_round_trip(tmp_path):
    telemetry = Telemetry()
    run_campaign(
        jobs_for(0.1, 0.2), cache=None, telemetry=telemetry,
        evaluate=_synthetic,
    )
    path = tmp_path / "report.json"
    telemetry.to_json(str(path))
    import json

    data = json.loads(path.read_text())
    assert data["jobs"]["total"] == 2
    assert data["jobs"]["evaluated"] == 2
    assert data["engine"]["steps_integrated"] == 14
    assert len(data["records"]) == 2
    summary = telemetry.summary()
    assert "2 total" in summary
    assert "cache" in summary


def test_montecarlo_parallel_matches_serial_via_runtime(fast_options):
    """End-to-end: the rewired scatter path is bit-identical to serial."""
    import numpy as np

    from repro.montecarlo.analysis import scatter_analysis
    from repro.montecarlo.sampling import sample_population

    samples = sample_population(2, fF(160), rng=np.random.default_rng(42))
    skews = [0.0, ns(0.4)]
    serial = scatter_analysis(samples, skews, options=fast_options,
                              cache=None)
    parallel = scatter_analysis(
        samples, skews, options=fast_options, backend="process",
        max_workers=2, chunksize=1, cache=None,
    )
    assert len(parallel) == len(serial)
    for a, b in zip(serial, parallel):
        assert a.sample_index == b.sample_index
        assert a.skew == b.skew
        assert a.vmin == b.vmin  # bit-exact across process boundaries


# --------------------------------------------------------------------- #
# Streaming progress and cancellation.
# --------------------------------------------------------------------- #

def _briefly_slow_synthetic(job):
    time.sleep(0.02)
    return _synthetic(job)


def test_progress_callback_fires_per_job():
    seen = []
    jobs = jobs_for(0.1, 0.2, 0.3)
    run_campaign(
        jobs, cache=None, evaluate=_synthetic,
        progress=lambda index, result: seen.append((index, result)),
    )
    assert sorted(index for index, _ in seen) == [0, 1, 2]
    for index, result in seen:
        assert isinstance(result, JobResult)
        assert result.skew == jobs[index].skew


def test_progress_includes_cache_hits(fresh_cache):
    cache = ResultCache(disk_dir=None)
    jobs = jobs_for(0.1, 0.2)
    run_campaign(jobs, cache=cache, evaluate=_synthetic)
    seen = []
    run_campaign(
        jobs, cache=cache, evaluate=_synthetic,
        progress=lambda index, result: seen.append(result),
    )
    assert len(seen) == 2
    assert all(result.cached for result in seen)


def test_progress_default_is_bit_identical(fresh_cache):
    jobs = jobs_for(0.1, 0.2)
    plain = run_campaign(jobs, cache=None, evaluate=_synthetic)
    with_progress = run_campaign(
        jobs, cache=None, evaluate=_synthetic,
        progress=lambda index, result: None,
    )
    assert [r.skew for r in plain] == [r.skew for r in with_progress]
    assert [r.vmin_y1 for r in plain] == [r.vmin_y1 for r in with_progress]


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_cancel_event_aborts_campaign(backend):
    import threading

    from repro.errors import CampaignCancelledError

    cancel = threading.Event()
    done = []

    def progress(index, result):
        done.append(index)
        if len(done) >= 2:
            cancel.set()

    with pytest.raises(CampaignCancelledError) as excinfo:
        run_campaign(
            jobs_for(*[0.01 * k for k in range(12)]),
            backend=backend, max_workers=2, chunksize=1,
            cache=None, evaluate=_briefly_slow_synthetic,
            progress=progress, cancel_event=cancel,
        )
    assert excinfo.value.completed >= 2
    assert excinfo.value.completed < 12


def test_cancelled_campaign_resumes_from_checkpoint(tmp_path):
    import threading

    from repro.errors import CampaignCancelledError

    journal = tmp_path / "journal.jsonl"
    cancel = threading.Event()
    jobs = jobs_for(*[0.02 * k for k in range(6)])

    def progress(index, result):
        if index >= 2:
            cancel.set()

    with pytest.raises(CampaignCancelledError):
        run_campaign(
            jobs, cache=None, evaluate=_synthetic,
            checkpoint=str(journal), progress=progress, cancel_event=cancel,
        )
    # Every completed job was journaled before the abort; the resumed
    # run replays them and computes only the remainder.
    telemetry = Telemetry()
    campaign = run_campaign(
        jobs, cache=None, evaluate=_synthetic,
        checkpoint=str(journal), resume=True, telemetry=telemetry,
    )
    assert len(campaign) == 6
    assert telemetry.jobs_resumed >= 3
    assert [r.skew for r in campaign] == [job.skew for job in jobs]


def test_cancel_preempts_even_under_collect():
    import threading

    from repro.errors import CampaignCancelledError

    cancel = threading.Event()
    cancel.set()  # cancelled before the first job
    with pytest.raises(CampaignCancelledError):
        run_campaign(
            jobs_for(0.1, 0.2), cache=None, evaluate=_synthetic,
            on_error="collect", cancel_event=cancel,
        )
