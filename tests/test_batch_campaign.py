"""Batch backend through the campaign executor: dispatch, fallback, cache."""

from __future__ import annotations

import pytest

from repro.analog.engine import TransientOptions
from repro.batch.dispatch import batch_signature, group_batches
from repro.errors import SimulationError
from repro.runtime import ResultCache, SensorJob, Telemetry, run_campaign
from repro.units import fF, ns

FAST = TransientOptions(dt_max=200e-12, reltol=5e-3)
SLOWER = TransientOptions(dt_max=100e-12, reltol=5e-3)


def jobs_for(*skews_ns, options=FAST):
    return [
        SensorJob(skew=ns(t), load1=fF(160), load2=fF(160), options=options)
        for t in skews_ns
    ]


def _items(jobs):
    """Wrap jobs in the executor's work-item tuples."""
    return [(k, job, None) for k, job in enumerate(jobs)]


# --------------------------------------------------------------------- #
# End-to-end: batched evaluation feeds the normal campaign plumbing.
# --------------------------------------------------------------------- #

def test_batch_campaign_end_to_end(tmp_path):
    jobs = jobs_for(0.0, 0.15, 0.4)
    cache = ResultCache(disk_dir=tmp_path)
    cold = Telemetry()
    first = run_campaign(
        jobs, backend="batch", max_workers=1, cache=cache, telemetry=cold
    )
    assert cold.batched_samples == len(jobs)
    assert cold.batch_fallbacks == 0
    assert cold.cache_misses == len(jobs)
    assert [r.skew for r in first] == [j.skew for j in jobs]
    assert all(r.steps > 0 for r in first)

    # Warm run: everything replays from the cache, nothing integrates.
    warm = Telemetry()
    second = run_campaign(
        jobs, backend="batch", max_workers=1, cache=cache, telemetry=warm
    )
    assert warm.batched_samples == 0
    assert warm.cache_hits == len(jobs)
    assert warm.steps_integrated == 0
    for got, want in zip(second, first):
        assert got.vmin_y2 == want.vmin_y2  # bit-exact replay
        assert got.code == want.code
        assert got.cached


def test_whole_stack_failure_falls_back_to_scalar(monkeypatch):
    """If the lockstep run dies, every sample takes the scalar path."""
    import repro.batch.dispatch as dispatch

    def boom(jobs):
        raise SimulationError("synthetic stack failure")

    monkeypatch.setattr(dispatch, "evaluate_jobs_batch", boom)
    jobs = jobs_for(0.1, 0.4)
    telemetry = Telemetry()
    results = run_campaign(
        jobs, backend="batch", max_workers=1, cache=None, telemetry=telemetry
    )
    assert telemetry.batch_fallbacks == len(jobs)
    assert telemetry.batched_samples == 0
    reference = run_campaign(jobs, backend="serial", cache=None)
    for got, want in zip(results, reference):
        assert got.vmin_y2 == want.vmin_y2  # scalar path: bit-exact
        assert got.code == want.code


# --------------------------------------------------------------------- #
# Executor-level validation of batch-incompatible arguments.
# --------------------------------------------------------------------- #

def test_batch_rejects_custom_evaluate():
    with pytest.raises(ValueError, match="evaluate"):
        run_campaign(
            jobs_for(0.1), backend="batch", evaluate=lambda job: None
        )


# --------------------------------------------------------------------- #
# Grouping and chunking.
# --------------------------------------------------------------------- #

def test_group_batches_splits_on_signature_and_size():
    mixed = jobs_for(0.0, 0.1, 0.2) + jobs_for(0.3, options=SLOWER)
    chunks = group_batches(_items(mixed), batch_size=2)
    # Three FAST jobs chunk to [2, 1]; the SLOWER job stacks alone.
    assert [len(c) for c in chunks] == [2, 1, 1]
    for chunk in chunks:
        signatures = {batch_signature(item[1]) for item in chunk}
        assert len(signatures) == 1
    # First-seen order of both groups and members is preserved.
    assert [item[0] for chunk in chunks for item in chunk] == [0, 1, 2, 3]


# --------------------------------------------------------------------- #
# Cache fingerprint covers the batch engine sources.
# --------------------------------------------------------------------- #

def test_fingerprint_covers_batch_sources():
    from repro.runtime.cache import _physics_sources

    names = {"/".join(path.parts[-2:]) for path in _physics_sources()}
    assert "batch/engine.py" in names
    assert "batch/compile.py" in names
