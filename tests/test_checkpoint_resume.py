"""Checkpoint journals, resume, crash isolation and timeout attribution."""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import (
    CampaignTimeoutError,
    ConvergenceError,
    JobError,
    WorkerCrashError,
)
from repro.runtime import JobResult, SensorJob, Telemetry, run_campaign
from repro.runtime.checkpoint import CheckpointJournal, load_journal
from repro.units import ns


def _jobs(*skews_ns):
    return [SensorJob(skew=ns(t)) for t in skews_ns]


# --------------------------------------------------------------------- #
# Module-level evaluations (picklable for the process backend).
# --------------------------------------------------------------------- #

_EVAL_LOG = []


def _logged_ok(job):
    _EVAL_LOG.append(job.skew)
    return JobResult(
        skew=job.skew, vmin_y1=job.skew + 1.0, vmin_y2=job.skew + 2.0,
        code=(0, 1), steps=5,
    )


_CRASH_SKEW = ns(7.7)


def _crashy(job):
    if job.skew == _CRASH_SKEW:
        os._exit(23)  # simulate a segfault / OOM kill: no cleanup, no pickle
    return _logged_ok(job)


_SLOW_SKEW = ns(5.5)


def _slow_marked(job):
    if job.skew == _SLOW_SKEW:
        time.sleep(1.5)
    return _logged_ok(job)


_HANG_SKEW = ns(9.9)


def _hung_marked(job):
    if job.skew == _HANG_SKEW:
        time.sleep(60.0)  # effectively hung: far beyond any test budget
    return _logged_ok(job)


_FAIL_SKEW = ns(3.3)


def _fail_marked(job):
    if job.skew == _FAIL_SKEW:
        raise ConvergenceError("injected failure")
    return _logged_ok(job)


# --------------------------------------------------------------------- #
# Journal format.
# --------------------------------------------------------------------- #

def test_journal_roundtrip_and_torn_lines(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with CheckpointJournal(path) as journal:
        journal.record("k1", {"a": 1})
        journal.record("k2", {"b": 2})
    assert load_journal(path) == {"k1": {"a": 1}, "k2": {"b": 2}}

    # A crash mid-write leaves garbage and a torn final line; loading
    # must keep every intact record and skip the rest.
    with open(path, "a") as handle:
        handle.write("not json at all\n")
        handle.write('{"kind": "result", "key": "k3", "resu')
    assert load_journal(path) == {"k1": {"a": 1}, "k2": {"b": 2}}


def test_fresh_journal_truncates(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with CheckpointJournal(path) as journal:
        journal.record("old", {"a": 1})
    with CheckpointJournal(path, fresh=True) as journal:
        journal.record("new", {"b": 2})
    assert load_journal(path) == {"new": {"b": 2}}


def test_missing_journal_loads_empty(tmp_path):
    assert load_journal(str(tmp_path / "nope.jsonl")) == {}


# --------------------------------------------------------------------- #
# Resume: interrupted campaigns restart where they died.
# --------------------------------------------------------------------- #

def test_resume_requires_checkpoint():
    with pytest.raises(ValueError, match="checkpoint"):
        run_campaign([], resume=True)


def test_resume_skips_finished_jobs_exactly(tmp_path):
    jobs = _jobs(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    path = str(tmp_path / "campaign.jsonl")
    del _EVAL_LOG[:]

    first = run_campaign(jobs[:2], evaluate=_logged_ok, checkpoint=path)
    assert len(_EVAL_LOG) == 2

    telemetry = Telemetry()
    second = run_campaign(
        jobs, evaluate=_logged_ok, checkpoint=path, resume=True,
        telemetry=telemetry,
    )
    # Exactly total - N new evaluations, telemetry-verified.
    assert len(_EVAL_LOG) == len(jobs)
    assert telemetry.jobs_resumed == 2
    assert telemetry.jobs_evaluated == len(jobs) - 2
    assert [r.skew for r in second] == [job.skew for job in jobs]
    assert second[0].resumed and second[1].resumed
    assert not second[2].resumed
    assert second[0].vmin_y1 == first[0].vmin_y1  # bit-exact replay
    assert all(r.ok for r in second)


def test_raise_mode_interrupt_journals_completed_prefix(tmp_path):
    jobs = _jobs(1.0, 2.0, 3.3, 4.0)  # job[2] fails
    path = str(tmp_path / "campaign.jsonl")
    with pytest.raises(ConvergenceError):
        run_campaign(jobs, evaluate=_fail_marked, checkpoint=path, retries=0)
    assert len(load_journal(path)) == 2  # the jobs completed before the abort

    telemetry = Telemetry()
    done = run_campaign(
        jobs, evaluate=_logged_ok, checkpoint=path, resume=True,
        telemetry=telemetry,
    )
    assert done.ok
    assert telemetry.jobs_resumed == 2
    assert telemetry.jobs_evaluated == 2


def test_collected_failures_are_not_journalled(tmp_path):
    jobs = _jobs(1.0, 3.3, 2.0)  # job[1] fails
    path = str(tmp_path / "campaign.jsonl")
    campaign = run_campaign(
        jobs, evaluate=_fail_marked, checkpoint=path, retries=0,
        on_error="collect",
    )
    (record,) = campaign.errors
    assert record.error == "ConvergenceError"
    assert len(load_journal(path)) == 2  # failures must retry on resume

    telemetry = Telemetry()
    done = run_campaign(
        jobs, evaluate=_logged_ok, checkpoint=path, resume=True,
        telemetry=telemetry,
    )
    assert done.ok
    assert telemetry.jobs_resumed == 2
    assert telemetry.jobs_evaluated == 1  # only the previously failed job


# --------------------------------------------------------------------- #
# Crash isolation: a killed worker breaks only its pool generation.
# --------------------------------------------------------------------- #

def test_worker_crash_is_collected_and_remaining_jobs_finish():
    jobs = _jobs(1.0, 7.7, 2.0, 4.0)  # job[1] kills its worker
    telemetry = Telemetry()
    campaign = run_campaign(
        jobs, backend="process", max_workers=2, evaluate=_crashy,
        on_error="collect", retries=0, max_redispatch=0, telemetry=telemetry,
    )
    assert len(campaign) == len(jobs)
    crashed = campaign[1]
    assert isinstance(crashed, JobError)
    assert crashed.error == "WorkerCrashError"
    assert crashed.job.skew == _CRASH_SKEW
    assert isinstance(crashed.exception(), WorkerCrashError)
    for index in (0, 2, 3):
        assert campaign[index].ok
        assert campaign[index].skew == jobs[index].skew
    assert telemetry.worker_crashes >= 1
    assert telemetry.redispatches >= 1
    assert telemetry.jobs_failed == 1


def test_crash_isolates_only_in_flight_jobs():
    """A crash must not serialise the never-started remainder: only the
    jobs in flight when the pool broke (at most ``max_workers``) are
    re-dispatched in isolation; the rest rerun on a parallel pool."""
    jobs = _jobs(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.7, 8.0)
    telemetry = Telemetry()
    campaign = run_campaign(
        jobs, backend="process", max_workers=2, evaluate=_crashy,
        on_error="collect", retries=0, max_redispatch=0, telemetry=telemetry,
    )
    assert len(campaign) == len(jobs)
    (crashed,) = campaign.errors
    assert crashed.error == "WorkerCrashError"
    assert crashed.job.skew == _CRASH_SKEW
    assert telemetry.redispatches <= 2  # bounded by the worker count


def test_worker_crash_raises_with_job_descriptor():
    jobs = _jobs(1.0, 7.7)
    with pytest.raises(WorkerCrashError) as excinfo:
        run_campaign(
            jobs, backend="process", max_workers=2, evaluate=_crashy,
            retries=0, max_redispatch=0,
        )
    error = excinfo.value
    assert error.job is jobs[1]
    assert error.dispatches >= 1
    assert "dispatches" in error.diagnostics.extra


# --------------------------------------------------------------------- #
# Timeouts carry the offending job descriptor.
# --------------------------------------------------------------------- #

def test_timeout_collects_job_error_with_descriptor():
    jobs = _jobs(1.0, 5.5, 2.0)  # job[1] sleeps past the budget
    campaign = run_campaign(
        jobs, backend="process", max_workers=3, evaluate=_slow_marked,
        timeout=0.3, on_error="collect",
    )
    timed_out = campaign[1]
    assert isinstance(timed_out, JobError)
    assert timed_out.error == "CampaignTimeoutError"
    assert timed_out.job.skew == _SLOW_SKEW
    error = timed_out.exception()
    assert isinstance(error, CampaignTimeoutError)
    assert isinstance(error, TimeoutError)
    assert timed_out.diagnostics["extra"]["elapsed_s"] > 0
    assert campaign[0].ok and campaign[2].ok


def test_process_timeout_kills_stuck_worker():
    """A genuinely hung process worker must be killed, not joined: the
    campaign finishes in ~timeout wall time, not the job's 60 s."""
    jobs = _jobs(1.0, 9.9, 2.0)  # job[1] hangs far past the budget
    watch = time.perf_counter()
    campaign = run_campaign(
        jobs, backend="process", max_workers=2, evaluate=_hung_marked,
        timeout=1.0, on_error="collect",
    )
    assert time.perf_counter() - watch < 30.0  # nowhere near the 60 s sleep
    timed_out = campaign[1]
    assert isinstance(timed_out, JobError)
    assert timed_out.error == "CampaignTimeoutError"
    assert timed_out.job.skew == _HANG_SKEW
    assert campaign[0].ok and campaign[2].ok


def test_timeout_raises_with_job_attempts_elapsed():
    jobs = _jobs(1.0, 5.5)
    with pytest.raises(CampaignTimeoutError) as excinfo:
        run_campaign(
            jobs, backend="process", max_workers=2, evaluate=_slow_marked,
            timeout=0.3,
        )
    error = excinfo.value
    assert error.job is jobs[1]
    assert error.elapsed > 0
    assert error.attempts >= 1
