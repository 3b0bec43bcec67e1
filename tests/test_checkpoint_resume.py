"""Checkpoint journals, resume, crash isolation and the cancel bound."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (
    CampaignCancelledError,
    ConvergenceError,
    JobError,
    WorkerCrashError,
)
from repro.runtime import JobResult, SensorJob, Telemetry, run_campaign
from repro.runtime import executor
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


_HANG_SKEW = ns(9.9)


def _hung_marked(job):
    if job.skew == _HANG_SKEW:
        time.sleep(60.0)  # effectively hung: far beyond any test budget
    return _logged_ok(job)


def _hung_crashy(job):
    if job.skew == _HANG_SKEW:
        return _hung_marked(job)
    return _crashy(job)


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
        run_campaign(jobs, evaluate=_fail_marked, checkpoint=path)
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
        jobs, evaluate=_fail_marked, checkpoint=path, on_error="collect",
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

@pytest.fixture
def no_redispatch(monkeypatch):
    """Declare a crashing job poison on its first isolated dispatch."""
    monkeypatch.setattr(executor, "MAX_REDISPATCH", 0)


def test_worker_crash_is_collected_and_remaining_jobs_finish(no_redispatch):
    jobs = _jobs(1.0, 7.7, 2.0, 4.0)  # job[1] kills its worker
    telemetry = Telemetry()
    campaign = run_campaign(
        jobs, backend="process", max_workers=2, evaluate=_crashy,
        on_error="collect", telemetry=telemetry,
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


def test_crash_isolates_only_in_flight_jobs(no_redispatch):
    """A crash must not serialise the never-started remainder: only the
    jobs in flight when the pool broke (at most ``max_workers``) are
    re-dispatched in isolation; the rest rerun on a parallel pool."""
    jobs = _jobs(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.7, 8.0)
    telemetry = Telemetry()
    campaign = run_campaign(
        jobs, backend="process", max_workers=2, evaluate=_crashy,
        on_error="collect", telemetry=telemetry,
    )
    assert len(campaign) == len(jobs)
    (crashed,) = campaign.errors
    assert crashed.error == "WorkerCrashError"
    assert crashed.job.skew == _CRASH_SKEW
    assert telemetry.redispatches <= 2  # bounded by the worker count


def test_worker_crash_raises_with_job_descriptor(no_redispatch):
    jobs = _jobs(1.0, 7.7)
    with pytest.raises(WorkerCrashError) as excinfo:
        run_campaign(
            jobs, backend="process", max_workers=2, evaluate=_crashy,
        )
    error = excinfo.value
    assert error.job is jobs[1]
    assert error.dispatches >= 1
    assert "dispatches" in error.diagnostics.extra


# --------------------------------------------------------------------- #
# A lone pending job (the last one of a resume) still runs in a worker.
# --------------------------------------------------------------------- #

def _in_child(check, *args):
    """Run the module-level ``check(*args)`` in a fresh interpreter: a
    job evaluated in the calling process instead of a worker would kill
    the process that runs the check."""
    child = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {__name__} import {check}; "
         f"{check}(*sys.argv[1:])", *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, (child.returncode, child.stderr)


def _lone_crash_is_collected():
    campaign = run_campaign(
        _jobs(7.7), backend="process", max_workers=2, evaluate=_crashy,
        on_error="collect",
    )
    (crashed,) = campaign.errors
    assert crashed.error == "WorkerCrashError"
    assert crashed.job.skew == _CRASH_SKEW


def _lone_resumed_crash_raises(path):
    jobs = _jobs(1.0, 7.7, 2.0)
    run_campaign([jobs[0], jobs[2]], evaluate=_logged_ok, checkpoint=path)
    with pytest.raises(WorkerCrashError) as excinfo:
        run_campaign(
            jobs, backend="process", max_workers=2, evaluate=_crashy,
            checkpoint=path, resume=True,
        )
    assert excinfo.value.job is jobs[1]


def test_lone_job_crash_is_collected_from_a_worker():
    _in_child("_lone_crash_is_collected")


def test_resume_with_one_job_left_raises_its_worker_crash(tmp_path):
    _in_child("_lone_resumed_crash_raises", str(tmp_path / "campaign.jsonl"))


# --------------------------------------------------------------------- #
# The cancel event is a campaign's one wall-time bound.
# --------------------------------------------------------------------- #

def test_cancel_kills_hung_process_worker(tmp_path):
    """A hung process worker is killed, not joined: once the cancel
    event is set the campaign raises within seconds, not the job's 60 s,
    and every job that finished is in its journal."""
    jobs = _jobs(1.0, 9.9, 2.0, 4.0)  # job[1] hangs
    path = str(tmp_path / "campaign.jsonl")
    cancel = threading.Event()
    landed = []

    def progress(index, result):
        landed.append(index)
        if len(landed) == len(jobs) - 1:
            # Set from another thread while the campaign waits on the
            # hung worker, as the service's timeout timer does.
            threading.Timer(0.3, cancel.set).start()

    watch = time.perf_counter()
    with pytest.raises(CampaignCancelledError) as excinfo:
        run_campaign(
            jobs, backend="process", max_workers=2, evaluate=_hung_marked,
            checkpoint=path, progress=progress, cancel_event=cancel,
        )
    assert time.perf_counter() - watch < 10.0
    assert sorted(landed) == [0, 2, 3]
    assert excinfo.value.completed == 3
    assert set(load_journal(path)) == {jobs[i].key() for i in landed}


def test_cancel_reaches_an_isolated_suspect(no_redispatch):
    """A hung job in flight when another job crashed its pool is
    re-run alone; the cancel event still ends the campaign."""
    jobs = _jobs(7.7, 9.9)  # job[0] kills its worker, job[1] hangs
    cancel = threading.Event()
    timer = threading.Timer(2.0, cancel.set)
    timer.start()
    watch = time.perf_counter()
    try:
        with pytest.raises(CampaignCancelledError):
            run_campaign(
                jobs, backend="process", max_workers=2, evaluate=_hung_crashy,
                on_error="collect", cancel_event=cancel,
            )
    finally:
        timer.cancel()
    assert time.perf_counter() - watch < 10.0
