"""Process-sharded batch stacks: bit-identity, crashes, shared prefixes.

The sharded dispatcher fans whole lockstep stacks over the executor's
process pool.  These tests pin down the contract that makes that safe:

* at the same resolved stack size, a sharded run is **bit-identical** to
  the single-worker batch path (``batch_workers=1``) - sharding
  changes where a stack integrates, never what is in it;
* a masked-out sample still takes the scalar fallback, on whichever
  shard its stack landed;
* a crashed shard worker triggers bounded whole-stack redispatch with no
  lost and no duplicated samples;
* the skew-invariant prefix is built once in the parent, so every shard
  worker warm-forks from that checkpoint instead of re-integrating it -
  with the cache disk tier on or off.

Plus the pure resolution logic: worker-count precedence, the auto-tune
bounds, and the service-spec plumbing.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.analog.engine import TransientOptions
from repro.batch.dispatch import (
    MAX_AUTO_BATCH,
    auto_batch_size,
    resolve_batch_plan,
    resolve_batch_workers,
)
from repro.runtime import SensorJob, Telemetry, resolve_workers, run_campaign
from repro.units import fF, ns

FAST = TransientOptions(dt_max=200e-12, reltol=5e-3)

#: Monkeypatched module state only reaches pool workers when the pool
#: forks; under spawn the child re-imports a pristine module.
FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not FORK, reason="test injects faults via fork-inherited monkeypatch"
)


def jobs_for(*skews_ns, warm_start=False):
    return [
        SensorJob(skew=ns(t), load1=fF(160), load2=fF(160), options=FAST,
                  warm_start=warm_start)
        for t in skews_ns
    ]


def fingerprint(results):
    """The bit-identity tuple of a campaign's results."""
    return [(r.skew, r.vmin_y1, r.vmin_y2, r.code, r.steps) for r in results]


# --------------------------------------------------------------------- #
# Bit-identity: sharded == single-worker at the same stack size.
# --------------------------------------------------------------------- #

def test_sharded_bit_identical_to_single_worker():
    jobs = jobs_for(0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    single = run_campaign(
        jobs, backend="batch", batch_workers=1, chunksize=3, cache=None
    )
    telemetry = Telemetry()
    sharded = run_campaign(
        jobs, backend="batch", batch_workers=2, chunksize=3, cache=None,
        telemetry=telemetry,
    )
    assert fingerprint(sharded) == fingerprint(single)
    assert telemetry.batched_samples == len(jobs)
    assert telemetry.batch_fallbacks == 0
    assert telemetry.batch_stack_size == 3
    assert telemetry.batch_workers == 2
    assert telemetry.batch_size_auto is False
    assert "2 worker(s)" in telemetry.summary()


# --------------------------------------------------------------------- #
# Fallback contract across shards.
# --------------------------------------------------------------------- #

@needs_fork
def test_masked_sample_scalar_fallback_across_shards(monkeypatch):
    """A sample masked out on a shard still takes the scalar path."""
    import repro.batch.dispatch as dispatch

    real = dispatch.evaluate_jobs_batch

    def masking(jobs):
        evaluation = real(jobs)
        if len(evaluation.results) > 1:
            evaluation.results[1] = None  # mask one sample per stack
        return evaluation

    monkeypatch.setattr(dispatch, "evaluate_jobs_batch", masking)
    jobs = jobs_for(0.0, 0.15, 0.3, 0.45)
    single_t, sharded_t = Telemetry(), Telemetry()
    single = run_campaign(
        jobs, backend="batch", batch_workers=1, chunksize=2, cache=None,
        telemetry=single_t,
    )
    sharded = run_campaign(
        jobs, backend="batch", batch_workers=2, chunksize=2, cache=None,
        telemetry=sharded_t,
    )
    # Two stacks of two samples, one masked each: two scalar fallbacks,
    # identically counted and bit-identical on both paths.
    assert single_t.batch_fallbacks == sharded_t.batch_fallbacks == 2
    assert single_t.batched_samples == sharded_t.batched_samples == 2
    assert fingerprint(sharded) == fingerprint(single)


# --------------------------------------------------------------------- #
# Crash isolation: a dead shard worker loses nothing.
# --------------------------------------------------------------------- #

@needs_fork
def test_shard_crash_redispatches_whole_stack(monkeypatch, tmp_path):
    import repro.batch.dispatch as dispatch

    real = dispatch.evaluate_jobs_batch
    sentinel = str(tmp_path / "crashed-once")

    def crash_once(jobs):
        try:
            # Atomic create: exactly one worker dies, mid-campaign, with
            # no cleanup - the redispatched pool sees the sentinel.
            with open(sentinel, "x"):
                pass
            os._exit(23)
        except FileExistsError:
            return real(jobs)

    monkeypatch.setattr(dispatch, "evaluate_jobs_batch", crash_once)
    jobs = jobs_for(0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    telemetry = Telemetry()
    sharded = run_campaign(
        jobs, backend="batch", batch_workers=2, chunksize=3, cache=None,
        telemetry=telemetry,
    )
    assert telemetry.worker_crashes >= 1
    # Redispatch units are whole stacks: at least one 3-sample stack.
    assert telemetry.redispatches >= 3
    # No lost, no duplicated samples - and the same bits the untouched
    # single-worker path produces.
    monkeypatch.setattr(dispatch, "evaluate_jobs_batch", real)
    single = run_campaign(
        jobs, backend="batch", batch_workers=1, chunksize=3, cache=None
    )
    assert fingerprint(sharded) == fingerprint(single)


# --------------------------------------------------------------------- #
# Cross-worker prefix sharing.
# --------------------------------------------------------------------- #

def test_prefix_published_once_warm_hits_on_every_shard(fresh_cache):
    jobs = jobs_for(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, warm_start=True)
    telemetry = Telemetry()
    sharded = run_campaign(
        jobs, backend="batch", batch_workers=2, chunksize=3, cache=None,
        telemetry=telemetry,
    )
    # One parent-side build, then every sample - on both shards - forks
    # from the published checkpoint; no shard rebuilds the prefix.
    assert telemetry.prefix_builds == 1
    assert telemetry.prefix_hits == len(jobs)
    single = run_campaign(
        jobs, backend="batch", batch_workers=1, chunksize=3, cache=None
    )
    assert fingerprint(sharded) == fingerprint(single)


def test_prefix_shared_store_survives_disabled_disk_tier(monkeypatch):
    """With the cache disk tier off, forked shard workers still inherit
    the parent-built prefix through the checkpoint memory tier."""
    from repro.runtime import reset_cache

    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    reset_cache()
    try:
        jobs = jobs_for(0.0, 0.15, 0.3, 0.45, warm_start=True)
        telemetry = Telemetry()
        sharded = run_campaign(
            jobs, backend="batch", batch_workers=2, chunksize=2, cache=None,
            telemetry=telemetry,
        )
        assert telemetry.prefix_builds == 1
        assert telemetry.prefix_hits == len(jobs)
        single = run_campaign(
            jobs, backend="batch", batch_workers=1, chunksize=2, cache=None
        )
        assert fingerprint(sharded) == fingerprint(single)
    finally:
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
        reset_cache()


# --------------------------------------------------------------------- #
# Resolution logic (pure, no transients).
# --------------------------------------------------------------------- #

def test_resolve_batch_workers_precedence():
    assert resolve_batch_workers(None, None) == resolve_workers(None)
    assert resolve_batch_workers(None, 5) == 5          # max_workers arg
    assert resolve_batch_workers(2, 5) == 2             # arg beats both


def test_auto_batch_size_bounds():
    # Fan-out: 12 jobs over 2 workers -> 6-sample stacks keep both busy.
    assert auto_batch_size(12, 2) == 6
    # Cap: huge job counts never exceed MAX_AUTO_BATCH.
    assert auto_batch_size(10 ** 6, 1) == MAX_AUTO_BATCH


def test_resolve_batch_plan_precedence():
    items = [(k, job, None) for k, job in enumerate(jobs_for(0.0, 0.1))]
    assert resolve_batch_plan(17, items, workers=2) == (17, False)  # explicit
    size, auto = resolve_batch_plan(None, items, workers=2)
    assert auto is True
    assert size == 1  # fan-out bound: 2 jobs over 2 workers


def test_spec_batch_workers_plumbing():
    from repro.service.specs import SpecError, build_plan, normalize_spec

    spec = normalize_spec({"kind": "montecarlo", "seed": 7, "samples": 2,
                           "backend": "batch", "batch_workers": 2})
    assert build_plan(spec).executor["batch_workers"] == 2
    with pytest.raises(SpecError, match="batch_workers"):
        normalize_spec({"kind": "montecarlo", "seed": 7, "batch_workers": 0})
    with pytest.raises(SpecError, match="batch_workers"):
        normalize_spec({"kind": "sensitivity", "batch_workers": 1.5})
