"""Service job store: journal durability, replay, lifecycle, quotas."""

from __future__ import annotations

import json

import pytest

from repro.service.specs import SpecError
from repro.service.store import (
    JobStore,
    STATES,
    TERMINAL_STATES,
    default_state_dir,
)

SPEC = {"kind": "sensitivity", "loads_ff": [160.0], "slews_ns": [0.2],
        "points": 3, "tau_max_ns": 0.2}


def test_default_state_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "svc"))
    assert default_state_dir() == tmp_path / "svc"
    monkeypatch.delenv("REPRO_SERVICE_DIR")
    assert default_state_dir().name == "service"


def test_states_taxonomy():
    assert TERMINAL_STATES < set(STATES)
    assert "queued" not in TERMINAL_STATES
    assert "running" not in TERMINAL_STATES


def test_submit_normalizes_and_persists(tmp_path):
    store = JobStore(tmp_path)
    record = store.submit(SPEC, client="alice", priority=3)
    assert record.state == "queued"
    assert record.client == "alice"
    assert record.priority == 3
    # The journaled spec carries every default explicitly.
    assert record.spec["backend"] == "serial"
    assert record.spec["points"] == 3
    assert record.campaign_id in store
    assert store.campaign_dir(record.campaign_id).is_dir()


def test_submit_rejects_bad_spec(tmp_path):
    store = JobStore(tmp_path)
    with pytest.raises(SpecError):
        store.submit({"kind": "no-such-kind"})
    with pytest.raises(SpecError):
        store.submit({"loads_ffff": [1.0]})
    # Executor keys are checked at submit time, not when the campaign
    # runs: wrong types, out-of-range counts, truthy strings.
    for bad in ({"backend": "thread"},
                {"workers": "two"}, {"workers": 0}, {"workers": True},
                {"chunksize": "x"}, {"chunksize": 0},
                {"warm_start": "no"}, {"fast": "false"},
                {"no_cache": "false"}, {"no_cache": None}):
        with pytest.raises(SpecError):
            store.submit({**SPEC, **bad})
    # Kind-specific keys are checked at submit time too: the store builds
    # the plan, so the kind builders' own checks reject the spec before
    # anything is journaled.  A non-numeric timeout is a SpecError, not
    # a bare ValueError.
    for bad in ({"kind": "montecarlo", "samples": 2},
                {"kind": "sensitivity", "points": 1},
                {"kind": "sensitivity", "loads_ff": []},
                {"kind": "whole_tree", "topology": "ring"},
                {**SPEC, "timeout_s": "abc"}):
        with pytest.raises(SpecError):
            store.submit(bad)
    assert store.list() == []  # nothing journaled
    # Null still means "default" where a key allows it; a null
    # warm_start (older journals store one) is the default, on.
    record = store.submit({**SPEC, "workers": None, "chunksize": None,
                           "warm_start": None})
    assert record.spec["warm_start"] is True


def test_lifecycle_transitions(tmp_path):
    store = JobStore(tmp_path)
    record = store.submit(SPEC)
    cid = record.campaign_id
    store.mark_running(cid, total=3)
    assert store.get(cid).state == "running"
    assert store.get(cid).total == 3
    store.mark_progress(cid, 2)
    assert store.get(cid).completed == 2
    store.mark_done(cid, {"kind": "sensitivity", "curves": []})
    final = store.get(cid)
    assert final.terminal and final.state == "done"
    assert final.completed == 3
    assert store.load_result(cid) == {"kind": "sensitivity", "curves": []}


def test_result_written_before_terminal_entry(tmp_path):
    store = JobStore(tmp_path)
    cid = store.submit(SPEC).campaign_id
    store.mark_running(cid)
    store.mark_done(cid, {"answer": 42})
    # A replayed store sees the terminal state AND can load the result:
    # mark_done persists the payload before journaling "done".
    replayed = JobStore(tmp_path)
    assert replayed.get(cid).state == "done"
    assert replayed.load_result(cid) == {"answer": 42}


def test_published_result_keeps_the_folds_order(tmp_path):
    # A whole-tree run lists its sensor pairs in placement order, which
    # here is not label order; the stored result must keep it.
    from repro.service.specs import build_plan, run_plan

    spec = {"kind": "whole_tree", "levels": 2, "variation": 0.1,
            "seeds": [3]}
    plan = build_plan(spec)
    payload = plan.fold(run_plan(plan))
    (run,) = payload["runs"]
    assert list(run["skews_s"]) != sorted(run["skews_s"])
    store = JobStore(tmp_path)
    cid = store.submit(spec).campaign_id
    store.mark_running(cid)
    store.mark_done(cid, payload)
    (stored,) = store.load_result(cid)["runs"]
    for key in ("skews_s", "codes"):
        assert list(stored[key].items()) == list(run[key].items())


def test_restart_requeues_interrupted_campaign(tmp_path):
    store = JobStore(tmp_path)
    cid = store.submit(SPEC).campaign_id
    store.mark_running(cid, total=3)
    store.mark_progress(cid, 2)
    store.close()
    # Simulated kill -9: no terminal entry was journaled.  The next
    # incarnation finds the campaign queued again, flagged for resume.
    revived = JobStore(tmp_path)
    record = revived.get(cid)
    assert record.state == "queued"
    assert record.resume is True
    assert record.total == 3
    assert [r.campaign_id for r in revived.pending()] == [cid]


def test_journal_with_retired_retries_key_resumes(tmp_path, synthetic_kind):
    """A campaign journalled while ``retries`` was a spec key carries
    it; replayed after the process died, it resumes and runs to done.
    A new spec carrying the key is refused like any unknown key."""
    import time

    from repro.runtime import CheckpointJournal, JobResult, SensorJob
    from repro.service.scheduler import CampaignScheduler
    from repro.service.specs import normalize_spec

    spec = {**normalize_spec({"kind": "synthetic", "jobs": 3}), "retries": 1}
    with CheckpointJournal(tmp_path / "journal.jsonl") as journal:
        journal.append({"kind": "campaign", "id": "old", "spec": spec,
                        "client": "", "priority": 0, "seq": 0, "total": 0,
                        "at": 1.0})
        journal.append({"kind": "state", "id": "old", "state": "running",
                        "at": 2.0, "total": 3})
    # The dead incarnation had finished job 0.
    first = SensorJob(skew=1e-12)
    with CheckpointJournal(
        tmp_path / "campaigns" / "old" / "checkpoint.jsonl"
    ) as checkpoint:
        checkpoint.record(first.key(), JobResult(
            skew=first.skew, vmin_y1=1.0, vmin_y2=2.0, code=(0, 0), steps=1,
        ).to_payload())

    store = JobStore(tmp_path)
    record = store.get("old")
    assert record.state == "queued"
    assert record.resume is True
    scheduler = CampaignScheduler(store)
    scheduler.start()
    try:
        deadline = time.monotonic() + 30.0
        while not store.get("old").terminal and time.monotonic() < deadline:
            time.sleep(0.01)
        assert store.get("old").state == "done"
        assert store.load_result("old") == {
            "kind": "synthetic", "tag": "", "n": 3, "resumed": 1,
        }
        with pytest.raises(SpecError, match="retries"):
            store.submit({"kind": "sensitivity", "retries": 1})
    finally:
        scheduler.stop()
        store.close()


def test_replay_preserves_submission_order_and_seq(tmp_path):
    store = JobStore(tmp_path)
    first = store.submit(SPEC).campaign_id
    second = store.submit(SPEC).campaign_id
    store.close()
    revived = JobStore(tmp_path)
    assert [r.campaign_id for r in revived.list()] == [first, second]
    # New submissions continue the seq counter (FIFO survives restarts).
    third = revived.submit(SPEC)
    assert third.seq > revived.get(second).seq


def test_torn_journal_line_tolerated(tmp_path):
    store = JobStore(tmp_path)
    cid = store.submit(SPEC).campaign_id
    store.mark_running(cid)
    store.close()
    with open(store.journal_path, "a") as handle:
        handle.write('{"kind": "state", "id": "' + cid)  # torn mid-write
    revived = JobStore(tmp_path)
    assert revived.get(cid).state == "queued"  # running -> requeued


def test_cancelled_and_failed_terminal(tmp_path):
    store = JobStore(tmp_path)
    a = store.submit(SPEC, client="c").campaign_id
    b = store.submit(SPEC, client="c").campaign_id
    store.mark_cancelled(a, reason="timeout", completed=1)
    store.mark_failed(b, "ValueError: boom")
    assert store.get(a).state == "cancelled"
    assert store.get(a).error == "timeout"
    assert store.get(a).completed == 1
    assert store.get(b).state == "failed"
    assert "boom" in store.get(b).error
    # Terminal campaigns are kept terminal across replay.
    revived = JobStore(tmp_path)
    assert revived.get(a).state == "cancelled"
    assert revived.get(b).state == "failed"


def test_active_count_is_the_quota_gauge(tmp_path):
    store = JobStore(tmp_path)
    a = store.submit(SPEC, client="alice").campaign_id
    store.submit(SPEC, client="alice")
    store.submit(SPEC, client="bob")
    assert store.active_count("alice") == 2
    assert store.active_count("bob") == 1
    assert store.active_count("nobody") == 0
    store.mark_running(a)
    assert store.active_count("alice") == 2  # running still counts
    store.mark_done(a, {})
    assert store.active_count("alice") == 1  # terminal does not


def test_requeue_marks_resume(tmp_path):
    store = JobStore(tmp_path)
    cid = store.submit(SPEC).campaign_id
    store.mark_running(cid, total=5)
    store.requeue(cid, completed=2)
    record = store.get(cid)
    assert record.state == "queued"
    assert record.resume is True
    assert record.completed == 2


def test_counts_per_state(tmp_path):
    store = JobStore(tmp_path)
    store.submit(SPEC)
    done = store.submit(SPEC).campaign_id
    store.mark_running(done)
    store.mark_done(done, {})
    counts = store.counts()
    assert counts["queued"] == 1
    assert counts["done"] == 1
    assert counts["running"] == 0


def test_journal_is_checkpoint_format(tmp_path):
    """The store journal is readable by the checkpoint-layer reader."""
    from repro.runtime import iter_entries

    store = JobStore(tmp_path)
    cid = store.submit(SPEC).campaign_id
    store.mark_running(cid)
    store.close()
    entries = list(iter_entries(store.journal_path))
    kinds = [entry["kind"] for entry in entries]
    assert kinds[0] == "header"
    assert "campaign" in kinds and "state" in kinds
    # Every line is self-describing JSON (the append-only contract).
    with open(store.journal_path) as handle:
        for line in handle:
            assert json.loads(line)["kind"]
