"""Campaign scheduler: ordering, cancellation, timeouts, resume, quota."""

from __future__ import annotations

import time

import pytest

from repro.service.scheduler import CampaignScheduler, QuotaExceededError
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


@pytest.fixture
def scheduler(tmp_path, synthetic_kind):
    sched = CampaignScheduler(JobStore(tmp_path))
    yield sched
    sched.stop()
    sched.store.close()


def test_lifecycle_and_events(scheduler):
    scheduler.start()
    record = scheduler.submit({"kind": "synthetic", "jobs": 3})
    final = wait_terminal(scheduler, record.campaign_id)
    assert final.state == "done"
    assert final.completed == 3 and final.total == 3
    events = scheduler.events(record.campaign_id)
    kinds = [event["event"] for event in events]
    assert kinds[0] == "started"
    assert kinds[-1] == "done"
    # At least one event per completed job, each with its progress.
    job_events = [e for e in events if e["event"] == "job"]
    assert len(job_events) == 3
    assert [e["done"] for e in job_events] == [1, 2, 3]
    result = scheduler.store.load_result(record.campaign_id)
    assert result["n"] == 3


def test_priority_order_with_fifo_tiebreak(tmp_path, synthetic_kind):
    # Submit before starting the worker so ordering is deterministic.
    scheduler = CampaignScheduler(JobStore(tmp_path))
    low1 = scheduler.submit({"kind": "synthetic", "tag": "low1"})
    high = scheduler.submit({"kind": "synthetic", "tag": "high"},
                            priority=5)
    low2 = scheduler.submit({"kind": "synthetic", "tag": "low2"})
    scheduler.start()
    for record in (low1, high, low2):
        wait_terminal(scheduler, record.campaign_id)
    scheduler.stop()
    scheduler.store.close()
    # Highest priority first; equal priorities keep submission order.
    assert synthetic_kind == ["high", "low1", "low2"]


def test_cancel_queued_campaign(tmp_path, synthetic_kind):
    scheduler = CampaignScheduler(JobStore(tmp_path))  # worker not started
    record = scheduler.submit({"kind": "synthetic"})
    assert scheduler.cancel(record.campaign_id) is True
    final = scheduler.store.get(record.campaign_id)
    assert final.state == "cancelled"
    assert final.error == "cancel"
    # Cancelling again is a no-op on a terminal campaign.
    assert scheduler.cancel(record.campaign_id) is False
    scheduler.stop()
    scheduler.store.close()


def test_cancel_running_campaign_mid_flight(scheduler):
    scheduler.start()
    record = scheduler.submit(
        {"kind": "synthetic", "jobs": 200, "sleep_s": 0.02}
    )
    cid = record.campaign_id
    assert wait_for(lambda: scheduler.store.get(cid).completed >= 2)
    assert scheduler.cancel(cid) is True
    final = wait_terminal(scheduler, cid)
    assert final.state == "cancelled"
    assert final.error == "cancel"
    assert 0 < final.completed < 200
    kinds = [event["event"] for event in scheduler.events(cid)]
    assert kinds[-1] == "cancelled"


def test_per_campaign_timeout(scheduler):
    scheduler.start()
    record = scheduler.submit({
        "kind": "synthetic", "jobs": 500, "sleep_s": 0.02,
        "timeout_s": 0.3,
    })
    final = wait_terminal(scheduler, record.campaign_id)
    assert final.state == "cancelled"
    assert final.error == "timeout"
    assert final.completed < 500


def test_failed_campaign_records_error(scheduler):
    scheduler.start()
    record = scheduler.submit({"kind": "synthetic", "jobs": 3, "fail_at": 1})
    final = wait_terminal(scheduler, record.campaign_id)
    assert final.state == "failed"
    assert "synthetic failure" in final.error
    kinds = [event["event"] for event in scheduler.events(record.campaign_id)]
    assert kinds[-1] == "failed"


def test_shutdown_requeues_then_restart_resumes(tmp_path, synthetic_kind):
    store = JobStore(tmp_path)
    scheduler = CampaignScheduler(store)
    scheduler.start()
    record = scheduler.submit(
        {"kind": "synthetic", "jobs": 50, "sleep_s": 0.02}
    )
    cid = record.campaign_id
    assert wait_for(lambda: store.get(cid).completed >= 3)
    scheduler.stop()  # graceful: requeue, do not cancel
    interrupted = store.get(cid)
    assert interrupted.state == "queued"
    assert interrupted.resume is True
    already = interrupted.completed
    assert 0 < already < 50
    store.close()

    # A fresh incarnation over the same state dir picks the campaign up
    # and resumes from the checkpoint journal: the jobs completed by the
    # first incarnation are replayed, not recomputed.
    revived_store = JobStore(tmp_path)
    revived = CampaignScheduler(revived_store)
    revived.start()
    final = wait_terminal(revived, cid, timeout=60.0)
    assert final.state == "done"
    assert final.completed == 50
    result = revived_store.load_result(cid)
    assert result["n"] == 50
    assert result["resumed"] >= already
    revived.stop()
    revived_store.close()


def test_quota_rejection(tmp_path, synthetic_kind):
    scheduler = CampaignScheduler(JobStore(tmp_path), quota=2)
    scheduler.submit({"kind": "synthetic"}, client="alice")
    scheduler.submit({"kind": "synthetic"}, client="alice")
    with pytest.raises(QuotaExceededError):
        scheduler.submit({"kind": "synthetic"}, client="alice")
    # Another client is unaffected.
    scheduler.submit({"kind": "synthetic"}, client="bob")
    scheduler.stop()
    scheduler.store.close()


def test_metrics_shape(scheduler):
    scheduler.start()
    for _ in range(2):
        record = scheduler.submit({"kind": "synthetic", "jobs": 2})
        wait_terminal(scheduler, record.campaign_id)
    # A campaign counts as executed once its telemetry is merged, which
    # happens just after its store record turns terminal.
    assert wait_for(lambda: scheduler.metrics()["campaigns_executed"] == 2)
    metrics = scheduler.metrics()
    assert metrics["campaigns"]["done"] == 2
    assert metrics["queue_depth"] == 0
    assert metrics["campaigns_executed"] == 2
    telemetry = metrics["telemetry"]
    assert telemetry["jobs"]["total"] == 4
    # Aggregates only: no per-job records growing with every campaign.
    assert "records" not in telemetry
    assert {"jobs", "engine", "wall_s"} <= set(telemetry)


def test_restart_scheduler_picks_up_pending(tmp_path, synthetic_kind):
    store = JobStore(tmp_path)
    store.submit({"kind": "synthetic", "tag": "orphan"})
    store.close()
    # The scheduler's constructor enqueues what the store replayed.
    revived_store = JobStore(tmp_path)
    scheduler = CampaignScheduler(revived_store)
    scheduler.start()
    cid = revived_store.list()[0].campaign_id
    final = wait_terminal(scheduler, cid)
    assert final.state == "done"
    assert synthetic_kind == ["orphan"]
    scheduler.stop()
    revived_store.close()


def test_every_submission_wakes_a_slot(tmp_path, synthetic_kind):
    """Idle slots wait on the queue's condition with no timeout, so a
    lost wake-up would leave a campaign queued for good: campaigns
    submitted from several threads to more slots than cores all finish,
    with thread switches forced far more often than usual."""
    import sys
    import threading

    scheduler = CampaignScheduler(
        JobStore(tmp_path), quota=100, max_concurrent=4
    )
    records = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        scheduler.start()

        def submit_some():
            for _ in range(10):
                records.append(scheduler.submit({"kind": "synthetic"}))

        submitters = [threading.Thread(target=submit_some) for _ in range(4)]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(30.0)
            assert not thread.is_alive()
        assert len(records) == 40
        for record in records:
            assert wait_terminal(
                scheduler, record.campaign_id, timeout=30.0
            ).state == "done"
    finally:
        sys.setswitchinterval(previous)
        scheduler.stop()
        scheduler.store.close()
