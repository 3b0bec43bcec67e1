"""HTTP API: routes, error mapping, SSE streaming, metrics, cache ops."""

from __future__ import annotations

import threading
import time
import urllib.request

import pytest

from repro.service.api import create_server
from repro.service.client import ServiceClient, ServiceError


@pytest.fixture
def service(tmp_path, synthetic_kind, fresh_cache):
    """A live server on an ephemeral port with a tmp state dir."""
    server = create_server(state_dir=str(tmp_path / "state"), quota=3)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    # retries=0: error-mapping tests want the first answer, not the
    # retried one (quota 429s would otherwise resolve themselves once
    # the greedy client's campaigns finish).
    client = ServiceClient(f"http://127.0.0.1:{server.port}", retries=0)
    yield client
    server.shutdown_all()
    thread.join(5.0)


def test_healthz(service):
    health = service.health()
    assert health["status"] == "ok"
    assert "synthetic" in health["kinds"]


def test_submit_status_result_roundtrip(service):
    record = service.submit({"kind": "synthetic", "jobs": 3})
    cid = record["campaign_id"]
    assert record["state"] == "queued"
    final = service.wait(cid, timeout=30)
    assert final["state"] == "done"
    assert final["completed"] == 3
    result = service.result(cid)
    assert result["kind"] == "synthetic"
    assert result["n"] == 3
    listed = service.list()
    assert [r["campaign_id"] for r in listed] == [cid]


def test_bad_spec_maps_to_400(service):
    with pytest.raises(ServiceError) as excinfo:
        service.submit({"kind": "no-such-kind"})
    assert excinfo.value.status == 400
    assert "unknown campaign kind" in excinfo.value.message
    with pytest.raises(ServiceError) as excinfo:
        service.submit({"kind": "synthetic", "bogus_key": 1})
    assert excinfo.value.status == 400
    # A kind builder's check answers the submit, not the scheduler.
    with pytest.raises(ServiceError) as excinfo:
        service.submit({"kind": "montecarlo", "samples": 2})
    assert excinfo.value.status == 400
    assert "explicit seed" in excinfo.value.message


def test_malformed_body_maps_to_400(service):
    request = urllib.request.Request(
        service.base_url + "/campaigns",
        data=b"this is not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400


def test_unknown_campaign_maps_to_404(service):
    with pytest.raises(ServiceError) as excinfo:
        service.status("deadbeef0000")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        service.result("deadbeef0000")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        service.cancel("deadbeef0000")
    assert excinfo.value.status == 404


def test_result_before_done_maps_to_409(service):
    record = service.submit(
        {"kind": "synthetic", "jobs": 100, "sleep_s": 0.02}
    )
    with pytest.raises(ServiceError) as excinfo:
        service.result(record["campaign_id"])
    assert excinfo.value.status == 409
    service.cancel(record["campaign_id"])


def test_quota_maps_to_429(service):
    for _ in range(3):
        service.submit(
            {"kind": "synthetic", "jobs": 50, "sleep_s": 0.02},
            client="greedy",
        )
    with pytest.raises(ServiceError) as excinfo:
        service.submit({"kind": "synthetic"}, client="greedy")
    assert excinfo.value.status == 429
    # Other clients still get through.
    service.submit({"kind": "synthetic"}, client="modest")


def test_cancel_running_campaign(service):
    record = service.submit(
        {"kind": "synthetic", "jobs": 200, "sleep_s": 0.02}
    )
    cid = record["campaign_id"]
    deadline = time.monotonic() + 10
    while (service.status(cid)["completed"] < 2
           and time.monotonic() < deadline):
        time.sleep(0.02)
    outcome = service.cancel(cid)
    assert outcome["cancelled"] is True
    final = service.wait(cid, timeout=30)
    assert final["state"] == "cancelled"
    assert 0 < final["completed"] < 200


def test_sse_stream_has_one_event_per_job(service):
    record = service.submit({"kind": "synthetic", "jobs": 4})
    events = list(service.stream_events(record["campaign_id"], timeout=30))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "started"
    assert kinds[-1] == "done"
    assert kinds.count("job") == 4


def test_sse_cursor_resumes(service):
    record = service.submit({"kind": "synthetic", "jobs": 4})
    cid = record["campaign_id"]
    service.wait(cid, timeout=30)
    full = list(service.stream_events(cid, timeout=10))
    tail = list(service.stream_events(cid, start=2, timeout=10))
    assert tail == full[2:]


def test_metrics_shape(service):
    record = service.submit({"kind": "synthetic", "jobs": 2})
    service.wait(record["campaign_id"], timeout=30)
    metrics = service.metrics()
    assert metrics["campaigns"]["done"] == 1
    assert metrics["campaigns_executed"] == 1
    assert "queue_depth" in metrics
    assert metrics["telemetry"]["jobs"]["total"] == 2
    assert "hits" in metrics["cache"]
    assert "disk_bytes" in metrics["cache_disk"]


def test_cache_endpoints(service, fresh_cache):
    from repro.runtime import get_cache

    cache = get_cache()
    for index in range(4):
        cache.put(f"{index:064d}", {"payload": "x" * 32})
    info = service.cache_info()
    assert info["disk_bytes"] > 0
    before = info["disk_bytes"]
    pruned = service.prune_cache(max_bytes=before // 2)
    assert pruned["removed"] >= 1
    assert pruned["disk_bytes"] <= before // 2


@pytest.mark.parametrize("budget", [True, 1.9, -1, "12"])
def test_cache_prune_refuses_a_budget_that_is_not_a_byte_count(
    service, fresh_cache, budget
):
    from repro.runtime import get_cache

    cache = get_cache()
    for index in range(5):
        cache.put(f"{index:064d}", {"payload": "x" * 32})
    with pytest.raises(ServiceError) as excinfo:
        service.prune_cache(max_bytes=budget)
    assert excinfo.value.status == 400
    assert "max_bytes" in excinfo.value.message
    assert cache.disk_entries() == 5


def test_server_restart_resumes_from_journal(tmp_path, synthetic_kind,
                                             fresh_cache):
    """Kill the server mid-campaign; a new one finishes the job."""
    state = str(tmp_path / "state")
    server = create_server(state_dir=state)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient(f"http://127.0.0.1:{server.port}")
    record = client.submit({"kind": "synthetic", "jobs": 60, "sleep_s": 0.02})
    cid = record["campaign_id"]
    deadline = time.monotonic() + 10
    while (client.status(cid)["completed"] < 3
           and time.monotonic() < deadline):
        time.sleep(0.02)
    server.shutdown_all()  # graceful stop: campaign requeued for resume

    relaunched = create_server(state_dir=state)
    threading.Thread(target=relaunched.serve_forever, daemon=True).start()
    client2 = ServiceClient(f"http://127.0.0.1:{relaunched.port}")
    status = client2.status(cid)
    assert status["resume"] is True
    final = client2.wait(cid, timeout=60)
    assert final["state"] == "done"
    assert final["completed"] == 60
    result = client2.result(cid)
    assert result["n"] == 60
    assert result["resumed"] >= 3  # first incarnation's jobs replayed
    relaunched.shutdown_all()


def test_unknown_endpoint_404(service):
    request = urllib.request.Request(
        service.base_url + "/nonsense", method="POST", data=b"{}"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 404
