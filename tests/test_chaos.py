"""Chaos tests: inject each fault class, assert detection and recovery.

Every robustness claim in the service stack is exercised here by
*producing* the failure it claims to survive, via the deterministic
injector of :mod:`repro.runtime.faults`:

* torn / failing journal writes  -> quarantine + retry (store)
* mid-line corruption            -> CRC frame detects, replay heals
* injected worker crashes        -> campaign fails, the next one runs
* dropped connections, full queues -> client retries, 503 + Retry-After

All sleeps are short and every injection uses ``max_fires`` bounds or
probability 1.0, so outcomes are deterministic, not flaky.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.errors import InjectedFaultError, WorkerCrashError
from repro.runtime import SensorJob, run_campaign
from repro.runtime.checkpoint import (
    CheckpointJournal,
    frame_entry,
    load_journal,
    quarantine_path,
    unframe_entry,
)
from repro.runtime.faults import (
    FaultInjector,
    inject,
    parse_faults,
    reset_injector,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import CampaignScheduler, QueueFullError
from repro.service.store import JobStore


def wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wait_terminal(scheduler, campaign_id, timeout=30.0):
    assert wait_for(
        lambda: scheduler.store.get(campaign_id).terminal, timeout
    ), f"campaign {campaign_id} never became terminal"
    return scheduler.store.get(campaign_id)


# --------------------------------------------------------------------- #
# The injector itself: determinism is what makes chaos runs replayable.
# --------------------------------------------------------------------- #


def drain(injector, site, n):
    return [injector.should_fire(site) for _ in range(n)]


def test_same_seed_same_fire_sequence():
    first = FaultInjector("store.write:0.3", seed=7)
    second = FaultInjector("store.write:0.3", seed=7)
    assert drain(first, "store.write", 200) == drain(
        second, "store.write", 200
    )
    other = FaultInjector("store.write:0.3", seed=8)
    assert drain(first, "store.write", 200) != drain(other, "store.write", 200)


def test_sites_have_independent_streams():
    """Decisions drawn at one site never perturb another site's stream."""
    spec = "store.write:0.5,api.drop:0.5"
    lonely = FaultInjector(spec, seed=3)
    boxed = FaultInjector(spec, seed=3)
    drain(boxed, "api.drop", 50)  # extra draws on an unrelated site
    assert drain(lonely, "store.write", 100) == drain(
        boxed, "store.write", 100
    )


def test_max_fires_caps_total_fires():
    injector = FaultInjector("executor.crash:1.0:2", seed=0)
    assert drain(injector, "executor.crash", 5) == [
        True, True, False, False, False,
    ]
    stats = injector.stats()["sites"]["executor.crash"]
    assert stats["fired"] == 2 and stats["checked"] == 5


def test_unconfigured_site_never_fires():
    injector = FaultInjector("store.write:1.0", seed=0)
    assert drain(injector, "api.drop", 10) == [False] * 10


@pytest.mark.parametrize("clause", [
    "store.write",            # no probability
    "store.write:nope",       # non-numeric probability
    "store.write:1.5",        # out of [0, 1]
    "store.write:0.5:x",      # non-numeric max_fires
    "store.write:0.5:-1",     # negative max_fires
    "a:0.1:2:9",              # too many fields
])
def test_parse_faults_rejects_malformed_clauses(clause):
    with pytest.raises(ValueError):
        parse_faults(clause)


def test_injector_builds_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "store.torn:0.25:3")
    monkeypatch.setenv("REPRO_FAULTS_SEED", "42")
    injector = reset_injector()
    assert injector.active
    assert injector.seed == 42
    site = injector.sites["store.torn"]
    assert site.probability == 0.25 and site.max_fires == 3


# --------------------------------------------------------------------- #
# CRC-framed journal entries: mid-line corruption is detected, not
# silently applied, and the evidence is quarantined.
# --------------------------------------------------------------------- #


def test_frame_roundtrip():
    entry = {"kind": "result", "key": "a" * 16, "result": {"vmin": 1.25}}
    assert unframe_entry(json.loads(frame_entry(entry))) == entry


def test_flipped_byte_fails_crc():
    line = frame_entry({"kind": "state", "id": "abcdef", "state": "done"})
    tampered = line.replace("abcdef", "abcdeg")  # same length, valid JSON
    assert tampered != line
    assert unframe_entry(json.loads(tampered)) is None


def test_unframed_entries_are_quarantined_and_rerun(tmp_path):
    # A line without the integrity frame (the format-1 layout) cannot
    # be verified, so it is corrupt: quarantined, and its job re-runs.
    job = SensorJob(skew=1e-12)
    path = tmp_path / "old.jsonl"
    lines = [
        {"kind": "header", "format": 1},
        {"kind": "result", "key": job.key(),
         "result": _stub_evaluate(job).to_payload()},
    ]
    path.write_text("".join(json.dumps(e) + "\n" for e in lines))
    assert load_journal(path, quarantine=True) == {}
    records = [
        json.loads(line)
        for line in quarantine_path(path).read_text().splitlines()
    ]
    assert [(r["lineno"], r["reason"]) for r in records] == [
        (1, "no integrity frame"), (2, "no integrity frame"),
    ]
    campaign = run_campaign([job], evaluate=_stub_evaluate, cache=None,
                            checkpoint=str(path), resume=True)
    assert campaign.results[0].resumed is False


def test_load_journal_quarantines_corrupt_lines(tmp_path):
    path = tmp_path / "journal.jsonl"
    with CheckpointJournal(path) as journal:
        journal.record("k1", {"vmin": 1.0})
        journal.append_corrupt(
            {"kind": "result", "key": "k2", "result": {"vmin": 2.0}}
        )
        journal.record("k3", {"vmin": 3.0})
    loaded = load_journal(path, quarantine=True)
    # The corrupt line is skipped (its job will re-evaluate), the
    # healthy neighbours survive, and the evidence is preserved.
    assert set(loaded) == {"k1", "k3"}
    records = [
        json.loads(line)
        for line in quarantine_path(path).read_text().splitlines()
    ]
    assert len(records) == 1
    assert records[0]["lineno"] == 3
    assert records[0]["raw"]


# --------------------------------------------------------------------- #
# Store: torn writes, failing appends, sticky terminals, compaction.
# --------------------------------------------------------------------- #


def test_torn_journal_write_is_quarantined_on_replay(
    tmp_path, synthetic_kind
):
    with inject("store.torn:1.0:1", seed=1):
        with JobStore(tmp_path) as store:
            first = store.submit({"kind": "synthetic", "tag": "one"})
            second = store.submit({"kind": "synthetic", "tag": "two"})
            store.mark_running(first.campaign_id, total=4)
    # Replay after the "crash": the torn line is detected by its CRC
    # frame and quarantined; every real entry still applies.
    with JobStore(tmp_path) as revived:
        assert revived.quarantined == 1
        assert revived.quarantine_file.exists()
        ids = {r.campaign_id for r in revived.list()}
        assert ids == {first.campaign_id, second.campaign_id}
        # running -> queued + resume, exactly as for a clean crash.
        assert revived.get(first.campaign_id).state == "queued"
        assert revived.get(first.campaign_id).resume is True


def test_failing_journal_append_is_retried(tmp_path, synthetic_kind):
    # Two injected failures < WRITE_RETRIES extra attempts: the append
    # (and therefore the submit) succeeds without the caller noticing.
    with inject("store.write:1.0:2", seed=1) as injector:
        with JobStore(tmp_path) as store:
            record = store.submit({"kind": "synthetic"})
        assert injector.stats()["sites"]["store.write"]["fired"] == 2
    with JobStore(tmp_path) as revived:
        assert record.campaign_id in revived


def test_exhausted_write_retries_surface(tmp_path, synthetic_kind):
    with inject("store.write:1.0", seed=1):  # unbounded: every attempt dies
        with JobStore(tmp_path) as store:
            with pytest.raises(InjectedFaultError):
                store.submit({"kind": "synthetic"})


def test_failing_result_publish_is_retried(tmp_path, synthetic_kind):
    with JobStore(tmp_path) as store:
        record = store.submit({"kind": "synthetic"})
        store.mark_running(record.campaign_id, total=1)
        with inject("store.replace:1.0:2", seed=1):
            assert store.mark_done(record.campaign_id, {"n": 1}) is True
        assert store.load_result(record.campaign_id) == {"n": 1}


def test_terminal_states_are_sticky(tmp_path, synthetic_kind):
    """Once done, every later terminator is a no-op returning False -
    the store-level fix for all double-terminate races."""
    with JobStore(tmp_path) as store:
        record = store.submit({"kind": "synthetic"})
        cid = record.campaign_id
        store.mark_running(cid, total=1)
        assert store.mark_done(cid, {"n": 1}) is True
        assert store.mark_cancelled(cid, reason="timeout") is False
        assert store.mark_failed(cid, "boom") is False
        assert store.requeue(cid) is False
        assert store.mark_done(cid, {"n": 2}) is False
        final = store.get(cid)
        assert final.state == "done" and final.error == ""
        assert store.load_result(cid) == {"n": 1}


def test_compaction_preserves_replay_equivalence(tmp_path, synthetic_kind):
    with JobStore(tmp_path) as store:
        done = store.submit({"kind": "synthetic"}, client="alice")
        churned = store.submit({"kind": "synthetic"}, priority=3)
        keyed = store.submit({"kind": "synthetic"}, idempotency_key="dedupe")
        store.mark_running(done.campaign_id, total=4)
        store.mark_done(done.campaign_id, {"n": 4})
        # Grow the journal with a requeue cycle (shutdown + resume).
        for _ in range(4):
            store.mark_running(churned.campaign_id, total=8)
            store.requeue(churned.campaign_id, completed=5)
        store.mark_cancelled(keyed.campaign_id, reason="cancel")
        before = [r.to_payload() for r in store.list()]
        stats = store.compact()
        assert stats["campaigns"] == 3
        assert stats["bytes_after"] < stats["bytes_before"]
        # Compaction changes the journal, never the live records.
        assert [r.to_payload() for r in store.list()] == before
    # The compacted journal replays to the identical record map.
    with JobStore(tmp_path) as revived:
        assert [r.to_payload() for r in revived.list()] == before
        assert revived.quarantined == 0
        replayed = revived.get(churned.campaign_id)
        assert replayed.state == "queued" and replayed.resume is True
        assert replayed.completed == 5
        assert (
            revived.lookup_idempotent("dedupe").campaign_id
            == keyed.campaign_id
        )


def test_idempotent_submit_dedupes_across_restart(tmp_path, synthetic_kind):
    with JobStore(tmp_path) as store:
        first = store.submit({"kind": "synthetic"}, idempotency_key="retry-1")
        again = store.submit({"kind": "synthetic"}, idempotency_key="retry-1")
        assert again.campaign_id == first.campaign_id
        assert len(store.list()) == 1
    with JobStore(tmp_path) as revived:  # the key survives replay
        rerun = revived.submit(
            {"kind": "synthetic"}, idempotency_key="retry-1"
        )
        assert rerun.campaign_id == first.campaign_id
        assert len(revived.list()) == 1


# --------------------------------------------------------------------- #
# Executor: injected worker crashes and hangs.
# --------------------------------------------------------------------- #


def _stub_evaluate(job):
    from repro.runtime import JobResult

    return JobResult(
        skew=job.skew, vmin_y1=1.0, vmin_y2=2.0, code=(0, 0), steps=1
    )


def test_injected_crash_raises_worker_crash_error():
    jobs = [SensorJob(skew=(k + 1) * 1e-12) for k in range(3)]
    with inject("executor.crash:1.0", seed=1):
        with pytest.raises(WorkerCrashError):
            run_campaign(
                jobs, evaluate=_stub_evaluate, cache=None, on_error="raise"
            )


def test_injected_hang_delays_evaluation():
    jobs = [SensorJob(skew=1e-12)]
    with inject("executor.hang:1.0:1", seed=1, hang_s=0.2):
        start = time.monotonic()
        campaign = run_campaign(jobs, evaluate=_stub_evaluate, cache=None)
        elapsed = time.monotonic() - start
    assert len(campaign.results) == 1
    assert elapsed >= 0.2


# --------------------------------------------------------------------- #
# Scheduler: slot faults, worker crashes, shutdown resume, concurrency.
# --------------------------------------------------------------------- #


def test_slot_fault_fails_campaign_but_scheduler_survives(
    tmp_path, synthetic_kind
):
    scheduler = CampaignScheduler(JobStore(tmp_path))
    scheduler.start()
    try:
        with inject("scheduler.worker:1.0:1", seed=1):
            doomed = scheduler.submit({"kind": "synthetic", "tag": "doomed"})
            final = wait_terminal(scheduler, doomed.campaign_id)
            assert final.state == "failed"
            assert "injected scheduler worker failure" in final.error
            # The slot survived the fault: the next campaign runs.
            healthy = scheduler.submit(
                {"kind": "synthetic", "tag": "healthy"}
            )
            assert wait_terminal(
                scheduler, healthy.campaign_id
            ).state == "done"
        assert synthetic_kind == ["healthy"]
    finally:
        scheduler.stop()
        scheduler.store.close()


def test_worker_crash_fails_campaign_and_next_one_runs(
    tmp_path, synthetic_kind
):
    scheduler = CampaignScheduler(JobStore(tmp_path))
    scheduler.start()
    try:
        # The executor's crash verdict is final: the campaign fails with
        # it instead of being requeued, and the slot runs the next one.
        with inject("executor.crash:1.0:1", seed=1):
            crashed = scheduler.submit(
                {"kind": "synthetic", "jobs": 5, "tag": "crashed"}
            )
            final = wait_terminal(scheduler, crashed.campaign_id)
            assert final.state == "failed"
            assert final.error.startswith("WorkerCrashError")
            events = scheduler.events(crashed.campaign_id)
            assert not any(e["event"] == "requeued" for e in events)
            assert events[-1]["event"] == "failed"
            assert events[-1]["error"] == "WorkerCrashError"
            healthy = scheduler.submit(
                {"kind": "synthetic", "tag": "healthy"}
            )
            assert wait_terminal(
                scheduler, healthy.campaign_id
            ).state == "done"
        assert synthetic_kind == ["healthy"]
    finally:
        scheduler.stop()
        scheduler.store.close()


def test_unbounded_crashes_eventually_fail(tmp_path, synthetic_kind):
    scheduler = CampaignScheduler(JobStore(tmp_path))
    scheduler.start()
    try:
        with inject("executor.crash:1.0", seed=1):  # crashes every attempt
            record = scheduler.submit({"kind": "synthetic", "jobs": 3})
            final = wait_terminal(scheduler, record.campaign_id)
        assert final.state == "failed"
        assert "WorkerCrashError" in final.error
        events = scheduler.events(record.campaign_id)
        assert sum(1 for e in events if e["event"] == "requeued") == 0
    finally:
        scheduler.stop()
        scheduler.store.close()


def test_shutdown_resume_result_is_bit_identical(tmp_path, fresh_cache):
    """A campaign stopped mid-flight and finished by the next scheduler
    on the same store folds to the numbers a clean run produces - the
    resume machinery is invisible in results."""
    # Three jobs: the stop lands while the second runs, and the executor,
    # which checks the cancel event before each job, stops before the
    # third.  No result cache, so the clean run computes every job
    # instead of replaying the first run's results.
    spec = {
        "kind": "sensitivity",
        "loads_ff": [160.0],
        "slews_ns": [0.2],
        "tau_max_ns": 1.0,
        "points": 3,
        "no_cache": True,
    }
    first = CampaignScheduler(JobStore(tmp_path / "resumed"))
    first.start()
    try:
        # Each evaluation is slowed, so the stop lands while a job runs.
        with inject("executor.hang:1.0", seed=1, hang_s=0.2):
            record = first.submit(dict(spec))
            cid = record.campaign_id
            assert wait_for(lambda: any(
                e["event"] == "job" for e in first.events(cid)
            ), timeout=120.0)
            first.stop()
        interrupted = first.store.get(cid)
        assert interrupted.state == "queued" and interrupted.resume is True
        assert 0 < interrupted.completed < 3
    finally:
        first.stop()
        first.store.close()

    revived = CampaignScheduler(JobStore(tmp_path / "resumed"))
    revived.start()
    try:
        final = wait_terminal(revived, cid, timeout=120.0)
        assert final.state == "done"
        assert any(e.get("resumed") for e in revived.events(cid))
        resumed_result = revived.store.load_result(cid)
    finally:
        revived.stop()
        revived.store.close()

    clean = CampaignScheduler(JobStore(tmp_path / "clean"))
    clean.start()
    try:
        record = clean.submit(dict(spec))
        final = wait_terminal(clean, record.campaign_id, timeout=120.0)
        assert final.state == "done"
        clean_result = clean.store.load_result(record.campaign_id)
    finally:
        clean.stop()
        clean.store.close()
    # The physics (the folded curves) must match bit for bit; per-job
    # bookkeeping flags (cached/resumed) legitimately differ.
    assert json.dumps(resumed_result["curves"], sort_keys=True) == \
        json.dumps(clean_result["curves"], sort_keys=True)


def test_two_campaigns_make_concurrent_progress(tmp_path, synthetic_kind):
    scheduler = CampaignScheduler(JobStore(tmp_path), max_concurrent=2)
    scheduler.start()
    try:
        first = scheduler.submit(
            {"kind": "synthetic", "jobs": 40, "sleep_s": 0.02, "tag": "a"}
        )
        second = scheduler.submit(
            {"kind": "synthetic", "jobs": 40, "sleep_s": 0.02, "tag": "b"}
        )

        def both_mid_flight():
            a = scheduler.store.get(first.campaign_id)
            b = scheduler.store.get(second.campaign_id)
            return (
                a.state == "running" and b.state == "running"
                and a.completed >= 1 and b.completed >= 1
            )

        # Interleaved execution, not one-after-the-other: both campaigns
        # are observed mid-flight at the same instant.
        assert wait_for(both_mid_flight, timeout=10.0)
        assert len(scheduler.liveness()["running"]) == 2
        for record in (first, second):
            assert wait_terminal(scheduler, record.campaign_id).state == "done"
    finally:
        scheduler.stop()
        scheduler.store.close()


def test_cancel_storm_keeps_fifo_per_priority(tmp_path, synthetic_kind):
    scheduler = CampaignScheduler(JobStore(tmp_path))  # not started yet
    low1 = scheduler.submit({"kind": "synthetic", "tag": "low1"})
    high1 = scheduler.submit({"kind": "synthetic", "tag": "high1"}, priority=5)
    low2 = scheduler.submit({"kind": "synthetic", "tag": "low2"})
    high2 = scheduler.submit({"kind": "synthetic", "tag": "high2"}, priority=5)
    low3 = scheduler.submit({"kind": "synthetic", "tag": "low3"})
    # The storm: victims across both priority levels while queued.
    assert scheduler.cancel(high1.campaign_id) is True
    assert scheduler.cancel(low2.campaign_id) is True
    scheduler.start()
    try:
        for record in (low1, high2, low3):
            assert wait_terminal(scheduler, record.campaign_id).state == "done"
        for record in (high1, low2):
            assert scheduler.store.get(record.campaign_id).state == "cancelled"
        # Survivors run highest-priority first, FIFO within a level.
        assert synthetic_kind == ["high2", "low1", "low3"]
    finally:
        scheduler.stop()
        scheduler.store.close()


def test_bounded_queue_rejects_with_retry_after(tmp_path, synthetic_kind):
    scheduler = CampaignScheduler(
        JobStore(tmp_path), max_queue_depth=2
    )  # not started: everything stays queued
    scheduler.submit({"kind": "synthetic"})
    scheduler.submit({"kind": "synthetic"})
    with pytest.raises(QueueFullError) as excinfo:
        scheduler.submit({"kind": "synthetic"})
    assert excinfo.value.retry_after >= 1.0
    scheduler.stop()
    scheduler.store.close()


def test_metrics_surface_fault_stats(tmp_path, synthetic_kind):
    scheduler = CampaignScheduler(JobStore(tmp_path))
    try:
        with inject({}, seed=0):  # force chaos off (CI may set REPRO_FAULTS)
            assert "faults" not in scheduler.metrics()
        with inject("store.write:0.0", seed=9):
            faults = scheduler.metrics()["faults"]
        assert faults["seed"] == 9
        assert faults["sites"]["store.write"]["probability"] == 0.0
    finally:
        scheduler.stop()
        scheduler.store.close()


# --------------------------------------------------------------------- #
# HTTP layer: dropped connections, shed load, degraded health.
# --------------------------------------------------------------------- #


@contextmanager
def live_server(tmp_path, **kwargs):
    from repro.service.api import create_server

    server = create_server(state_dir=str(tmp_path / "state"), **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown_all()
        thread.join(5.0)


def test_dropped_connection_is_retried_by_client(tmp_path, synthetic_kind):
    with live_server(tmp_path) as server:
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}",
            retries=3, backoff_base=0.01, seed=1,
        )
        with inject("api.drop:1.0:1", seed=1):
            # First attempt: the handler severs the connection before
            # answering.  The client sees status 0 and retries.
            health = client.health()
        assert health["status"] == "ok"
        assert client.retried >= 1


def test_full_queue_maps_to_503_with_retry_after(tmp_path, synthetic_kind):
    with live_server(tmp_path, max_queue_depth=1) as server:
        client = ServiceClient(f"http://127.0.0.1:{server.port}", retries=0)
        running = client.submit(
            {"kind": "synthetic", "jobs": 200, "sleep_s": 0.02}
        )
        assert wait_for(
            lambda: client.status(running["campaign_id"])["completed"] >= 1,
            timeout=10.0,
        )
        queued = client.submit(
            {"kind": "synthetic", "jobs": 200, "sleep_s": 0.02}
        )
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "synthetic"})
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after >= 1.0
        for record in (running, queued):
            client.cancel(record["campaign_id"])


def test_http_submit_dedupes_on_idempotency_key(tmp_path, synthetic_kind):
    with live_server(tmp_path) as server:
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        first = client.submit(
            {"kind": "synthetic"}, idempotency_key="same-key"
        )
        again = client.submit(
            {"kind": "synthetic"}, idempotency_key="same-key"
        )
        assert again["campaign_id"] == first["campaign_id"]
        assert len(client.list()) == 1


def test_healthz_reports_scheduler_liveness(tmp_path, synthetic_kind):
    with live_server(tmp_path, max_concurrent=2) as server:
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        health = client.health()
        assert health["status"] == "ok"
        assert health["journal_quarantined"] == 0
        scheduler = health["scheduler"]
        assert scheduler["alive"] is True
        assert scheduler["slots_alive"] == 2
        assert scheduler["max_concurrent"] == 2
        assert scheduler["running"] == []


# --------------------------------------------------------------------- #
# Client retry policy (no server: the transport is stubbed out).
# --------------------------------------------------------------------- #


def _stubbed_client(answers, **kwargs):
    """A client whose transport replays ``answers`` (exception instances
    are raised, anything else returned)."""
    client = ServiceClient(
        "http://stub", retries=3, backoff_base=0.001, backoff_cap=0.002,
        seed=1, **kwargs,
    )
    calls = []

    def transport(method, path, body=None, timeout=None):
        calls.append((method, path))
        answer = answers[min(len(calls), len(answers)) - 1]
        if isinstance(answer, Exception):
            raise answer
        return answer

    client._request_once = transport
    return client, calls


def test_client_exhausts_retry_budget_then_raises():
    client, calls = _stubbed_client([ServiceError(503, "shedding")])
    with pytest.raises(ServiceError) as excinfo:
        client.status("abc")
    assert excinfo.value.status == 503
    assert len(calls) == 1 + client.retries
    assert client.retried == client.retries


def test_client_recovers_after_transient_failures():
    client, calls = _stubbed_client([
        ServiceError(0, "connection refused"),
        ServiceError(429, "quota", retry_after=0.001),
        {"state": "queued"},
    ])
    assert client.status("abc") == {"state": "queued"}
    assert len(calls) == 3 and client.retried == 2


def test_client_never_retries_non_transient_statuses():
    client, calls = _stubbed_client([ServiceError(404, "no such campaign")])
    with pytest.raises(ServiceError):
        client.status("abc")
    assert len(calls) == 1 and client.retried == 0


def test_plain_post_is_not_retried_but_keyed_submit_is():
    client, calls = _stubbed_client([ServiceError(503, "shedding")])
    with pytest.raises(ServiceError):
        client._request("POST", "/cache/prune", body={})
    assert len(calls) == 1  # no idempotency key: one shot only

    client, calls = _stubbed_client([
        ServiceError(503, "shedding"),
        {"campaign_id": "abc", "state": "queued"},
    ])
    record = client.submit({"kind": "synthetic"})
    assert record["campaign_id"] == "abc"
    assert len(calls) == 2  # the generated key made the POST retryable
