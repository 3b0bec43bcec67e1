#!/usr/bin/env python
"""Scheduler throughput: ``max_concurrent=1`` vs ``2`` on a 2-campaign load.

The concurrent scheduler's claim is wall-clock, not correctness: two
independent campaigns should finish in roughly half the time when two
slots drain the queue.  This bench measures exactly that on a synthetic
sleepy workload (no transients - scheduler overhead and slot
interleaving are what is being timed), prints the comparison and writes
``BENCH_service_concurrency.json`` with one ``samples_per_s`` figure
per leg plus the headline ``concurrency_speedup``, which
``tools/check_bench_regression.py`` watches: a speedup that falls back
below 1.0 means concurrent scheduling stopped helping (a serialisation
bug, not timing noise).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_service_concurrency.py``
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time

sys.path.insert(0, "src")

from _util import emit, write_bench_json  # noqa: E402

from repro.runtime import JobResult, SensorJob  # noqa: E402
from repro.service import specs  # noqa: E402
from repro.service.scheduler import CampaignScheduler  # noqa: E402
from repro.service.store import JobStore  # noqa: E402

#: The 2-campaign load: jobs per campaign and the per-job busy time.
CAMPAIGNS = 2
JOBS = 24
SLEEP_S = 0.01


def _register_sleepy_kind() -> None:
    def build(spec):
        jobs = [
            SensorJob(skew=(k + 1) * 1e-12) for k in range(int(spec["jobs"]))
        ]

        def evaluate(job):
            time.sleep(float(spec["sleep_s"]))
            return JobResult(
                skew=job.skew, vmin_y1=1.0, vmin_y2=2.0, code=(0, 0), steps=1
            )

        def fold(campaign):
            return {"n": len(campaign.results)}

        return specs.CampaignPlan(
            jobs=jobs, fold=fold,
            executor=specs._executor_kwargs(spec), evaluate=evaluate,
        )

    specs.register_kind(
        "bench-sleepy", {"jobs": JOBS, "sleep_s": SLEEP_S}, build
    )


def time_leg(max_concurrent: int) -> float:
    """Wall time to drain CAMPAIGNS campaigns at the given width."""
    root = tempfile.mkdtemp(prefix="repro-bench-conc-")
    store = JobStore(root)
    scheduler = CampaignScheduler(store, max_concurrent=max_concurrent)
    try:
        records = [
            scheduler.submit({"kind": "bench-sleepy"})
            for _ in range(CAMPAIGNS)
        ]
        start = time.perf_counter()
        scheduler.start()
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if all(store.get(r.campaign_id).terminal for r in records):
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
        for record in records:
            final = store.get(record.campaign_id)
            assert final.state == "done", final
        return wall
    finally:
        scheduler.stop()
        store.close()
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    _register_sleepy_kind()
    total_jobs = CAMPAIGNS * JOBS
    serial_wall = time_leg(1)
    concurrent_wall = time_leg(2)
    speedup = serial_wall / concurrent_wall

    emit("service_concurrency", [
        f"load: {CAMPAIGNS} campaigns x {JOBS} jobs x {SLEEP_S * 1e3:.0f} ms",
        f"max_concurrent=1: {serial_wall:6.3f} s "
        f"({total_jobs / serial_wall:7.1f} jobs/s)",
        f"max_concurrent=2: {concurrent_wall:6.3f} s "
        f"({total_jobs / concurrent_wall:7.1f} jobs/s)",
        f"speedup: {speedup:.2f}x",
    ])
    write_bench_json("service_concurrency", {
        "campaigns": CAMPAIGNS,
        "jobs_per_campaign": JOBS,
        "sleep_s": SLEEP_S,
        "serial": {
            "max_concurrent": 1,
            "wall_s": serial_wall,
            "samples_per_s": total_jobs / serial_wall,
        },
        "concurrent": {
            "max_concurrent": 2,
            "wall_s": concurrent_wall,
            "samples_per_s": total_jobs / concurrent_wall,
        },
        "concurrency_speedup": speedup,
    })
    # Generous sanity bound: two slots must beat one by a real margin on
    # a sleep-bound load (ideal is 2.0; runners are noisy).
    assert speedup > 1.2, f"concurrent scheduling speedup only {speedup:.2f}x"
    return 0


if __name__ == "__main__":
    sys.exit(main())
