"""Prefix warm-start tests: checkpoint/resume, planner, golden equivalence.

Pins the PR-5 warm-start machinery four ways:

* engine-level checkpoint/resume: the resumed tail is *bit-identical* to
  the checkpointed run's tail (the restart replays the engine's
  backward-Euler-after-breakpoint rule) and stays within 1 uV of a plain
  cold run on the sensing circuit, a stuck-on faulted variant and a
  buffered clock-tree netlist;
* :class:`~repro.analog.engine.TransientCheckpoint` survives pickle and
  JSON round trips exactly;
* the prefix planner groups by the skew-invariant physics only: jobs
  differing in any non-tau field (load, options, process) never merge,
  jobs differing only in tau / slew do;
* one evaluation, whatever ``warm_start`` says: a job with the switch
  off builds its prefix on the spot, never touches the checkpoint tier,
  and returns its warm twin's result and key bit for bit - scalar, in
  one stack, for a ``tau_min`` search, on random Monte Carlo jobs and
  for a job with no usable fork;
* stacks of any fork times, periods and stops: each row equals its
  single-job run bit for bit, a stack must share one
  ``batch_signature`` (cold and warm rows may mix), and a sample with no
  checkpoint leaves the stack for the scalar path alone;
* the stacked planner: prefixes built as one lockstep stack equal their
  scalar builds bit for bit, a campaign keeps its results and its
  prefix accounting, a row the stack masks out and the ``"sparse"``
  policy take the scalar build.
"""

import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.analog.engine import TransientCheckpoint, TransientOptions, transient
from repro.analog.kernels import mosfet_scatter_plan
from repro.batch.response import evaluate_jobs_batch
from repro.clocktree.electrical import TreeNetlistBuilder
from repro.clocktree.htree import build_h_tree
from repro.clocktree.tree import Buffer
from repro.core.sensing import SkewSensor
from repro.core.sensitivity import extract_tau_min
from repro.devices.process import corner_process
from repro.devices.sources import ClockSource, clock_pair
from repro.faults.models import TransistorStuckOn
from repro.runtime import (
    SensorJob,
    Telemetry,
    evaluate_job,
    prefix_key,
    prepare_prefixes,
    sensitivity_job,
)
from repro.units import fF, ns

FAST = TransientOptions(dt_max=ns(0.2), reltol=5e-3)

#: Bar on resumed-vs-plain waveform agreement (interpolated), volts.
WAVEFORM_TOL = 1e-6

T_CHECK = ns(1.5)
T_STOP = ns(6.0)


def _sensing():
    sensor = SkewSensor(load1=fF(160), load2=fF(160))
    phi1, phi2 = clock_pair(
        period=ns(20.0), slew1=ns(0.2), slew2=ns(0.2),
        skew=ns(0.15), delay=ns(2.0), vdd=sensor.vdd,
    )
    return sensor.build(phi1=phi1, phi2=phi2), sensor.dc_guess()


def _stuck_on():
    netlist, _ = _sensing()
    name = netlist.mosfets[0].name
    return TransistorStuckOn(transistor=name).inject(netlist), None


def _clocktree():
    tree = build_h_tree(levels=1, buffer=Buffer())
    sinks = sorted(s.name for s in tree.sinks())[:2]
    clock = ClockSource(period=ns(20), slew=ns(0.2), delay=ns(2))
    return TreeNetlistBuilder(tree, sinks).build(clock), None


CIRCUITS = {"sensing": _sensing, "stuck_on": _stuck_on, "clocktree": _clocktree}


# --------------------------------------------------------------------- #
# Engine checkpoint / resume.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_resume_is_bit_identical_and_matches_cold(name):
    netlist, initial = CIRCUITS[name]()
    cold = transient(netlist, t_stop=T_STOP, initial=initial, options=FAST)
    full = transient(
        netlist, t_stop=T_STOP, initial=initial, options=FAST,
        checkpoint_at=T_CHECK,
    )
    checkpoint = full.checkpoint
    assert checkpoint is not None
    assert abs(checkpoint.t - T_CHECK) <= 1e-18

    resumed = transient(
        netlist, t_stop=T_STOP, options=FAST, resume_from=checkpoint
    )
    t_full = np.asarray(full.times)
    t_resumed = np.asarray(resumed.times)
    cut = int(np.searchsorted(t_full, checkpoint.t))
    assert t_full[cut] == checkpoint.t
    # Bit-identity: the fork is a legal grid continuation, not merely a
    # close one.
    assert np.array_equal(t_resumed, t_full[cut:])
    for node in full.voltages:
        assert np.array_equal(
            np.asarray(resumed.voltages[node]),
            np.asarray(full.voltages[node])[cut:],
        ), f"{node}: resumed tail diverged from the checkpointed run"

    # Golden equivalence vs a plain cold run (whose grid has no
    # breakpoint at the checkpoint time): within 1 uV everywhere.
    t_cold = np.asarray(cold.times)
    for node in cold.voltages:
        v_cold = np.asarray(cold.voltages[node])
        v_resumed = np.asarray(resumed.voltages[node])
        mask = t_cold >= checkpoint.t
        worst = np.max(np.abs(
            np.interp(t_cold[mask], t_resumed, v_resumed) - v_cold[mask]
        ))
        assert worst <= WAVEFORM_TOL, f"{node}: {worst:.3e} V off cold"


def test_resume_rejects_mismatched_node_order():
    netlist, initial = _sensing()
    full = transient(
        netlist, t_stop=T_STOP, initial=initial, options=FAST,
        checkpoint_at=T_CHECK,
    )
    other, _ = _clocktree()
    with pytest.raises(ValueError):
        transient(other, t_stop=T_STOP, options=FAST,
                  resume_from=full.checkpoint)


def test_checkpoint_pickle_and_json_round_trip():
    netlist, initial = _sensing()
    result = transient(
        netlist, t_stop=T_CHECK, initial=initial, options=FAST,
        checkpoint_at=T_CHECK,
    )
    checkpoint = result.checkpoint

    for clone in (
        pickle.loads(pickle.dumps(checkpoint)),
        TransientCheckpoint.from_payload(
            json.loads(json.dumps(checkpoint.to_payload()))
        ),
    ):
        assert clone.t == checkpoint.t
        assert clone.t_prev == checkpoint.t_prev
        assert clone.nodes == checkpoint.nodes
        assert np.array_equal(clone.state, checkpoint.state)
        assert np.array_equal(clone.state_prev, checkpoint.state_prev)


# --------------------------------------------------------------------- #
# Prefix planner.
# --------------------------------------------------------------------- #
def test_planner_merges_tau_and_slew_only():
    base = dict(options=FAST, warm_start=True)
    shared = [
        sensitivity_job(fF(160), ns(0.2), ns(0.0), **base),
        sensitivity_job(fF(160), ns(0.2), ns(0.3), **base),   # other tau
        sensitivity_job(fF(160), ns(0.4), ns(0.15), **base),  # other slew
    ]
    different = [
        sensitivity_job(fF(240), ns(0.2), ns(0.15), **base),  # other load
        sensitivity_job(fF(160), ns(0.2), ns(0.15),           # other corner
                        process=corner_process("ss"), warm_start=True),
        sensitivity_job(fF(160), ns(0.2), ns(0.15),           # other options
                        options=TransientOptions(dt_max=ns(0.1)),
                        warm_start=True),
        sensitivity_job(fF(160), ns(0.2), -ns(0.3), **base),  # other fork
    ]
    cold = sensitivity_job(fF(160), ns(0.2), ns(0.15), options=FAST,
                           warm_start=False)

    # Jobs differing only in tau / slew share one prefix key.
    shared_key = prefix_key(shared[0])
    assert {prefix_key(job) for job in shared} == {shared_key}
    # Every job with a differing non-tau field gets its own key.
    keys = [prefix_key(job) for job in different]
    assert len(set(keys) | {shared_key}) == len(different) + 1
    # Cold jobs are never planned.
    assert prepare_prefixes([cold]) == 0


def test_prefix_build_escalations_count_once_on_every_path(monkeypatch):
    # A warm result describes its own suffix run: whether the point path
    # builds the prefix itself, hits it, or a campaign planner built it,
    # steps and escalations agree, and the build's solver rungs land in
    # the telemetry of whichever path paid for it.
    from repro.runtime import evaluate_cached, reset_cache, run_campaign

    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    job = sensitivity_job(fF(120), ns(0.2), ns(0.1), options=FAST)
    try:
        reset_cache()
        point = Telemetry()
        built = evaluate_cached(job, cache=None, telemetry=point)
        hit = evaluate_cached(job, cache=None)
        reset_cache()
        campaign = Telemetry()
        (planned,) = run_campaign([job], cache=None, telemetry=campaign)
    finally:
        reset_cache()
    for result in (hit, planned):
        assert result.steps == built.steps
        assert result.escalations == built.escalations
    assert point.ladder_rungs.get("dcop:direct") == 1
    assert campaign.ladder_rungs.get("dcop:direct") == 1


def test_factory_default_is_warm():
    from repro.montecarlo.analysis import sample_job
    from repro.montecarlo.sampling import sample_population

    assert SensorJob(skew=0.0).warm_start
    assert sensitivity_job(fF(160), ns(0.2), 0.0).warm_start
    assert not sensitivity_job(fF(160), ns(0.2), 0.0,
                               warm_start=False).warm_start
    sample = sample_population(1, fF(160), seed=1)[0]
    assert sample_job(sample, 0.0).warm_start
    assert not sample_job(sample, 0.0, warm_start=False).warm_start


# --------------------------------------------------------------------- #
# End-to-end warm vs cold: one evaluation.
# --------------------------------------------------------------------- #
def _tier_empty():
    """Whether the checkpoint tier holds nothing, in memory or on disk."""
    from repro.runtime.cache import get_checkpoint_cache

    tier = get_checkpoint_cache()
    return len(tier) == 0 and tier.disk_entries() == 0


def test_warm_job_matches_cold_job(fresh_cache):
    cold_job = sensitivity_job(fF(160), ns(0.2), ns(0.15), options=FAST,
                               warm_start=False)
    warm_job = sensitivity_job(fF(160), ns(0.2), ns(0.15), options=FAST,
                               warm_start=True)
    cold = evaluate_job(cold_job)
    assert _tier_empty()  # built on the spot, off the tier
    assert dict(cold.prefix)["builds"] == 1
    warm = evaluate_job(warm_job)
    assert not _tier_empty()
    assert dict(warm.prefix)  # hits or builds recorded
    assert warm.vmin_y1 == cold.vmin_y1  # bit-exact, not approx
    assert warm.vmin_y2 == cold.vmin_y2
    assert warm.code == cold.code
    assert warm.steps == cold.steps
    assert warm.to_payload() == cold.to_payload()
    assert warm_job.key() == cold_job.key()


def test_extract_tau_min_warm_equals_cold():
    kwargs = dict(options=FAST, cache=None, tau_hi=ns(0.5),
                  tolerance=ns(0.004))
    cold = extract_tau_min(fF(160), warm_start=False, **kwargs)
    warm = extract_tau_min(fF(160), warm_start=True, **kwargs)
    assert warm == cold


def _random_fast_jobs(n, seed):
    """``n`` warm FAST jobs, one Monte Carlo process sample each, with
    loads of 60-260 fF, slews of 0.1-0.4 ns and tau in [-0.2, 0.4] ns."""
    from repro.montecarlo.analysis import sample_job
    from repro.montecarlo.sampling import sample_population

    rng = np.random.default_rng(seed)
    jobs = []
    for sample in sample_population(n, fF(160), seed=seed):
        load1, load2 = rng.uniform(60.0, 260.0, size=2)
        slew1, slew2 = rng.uniform(0.1, 0.4, size=2)
        jobs.append(replace(
            sample_job(sample, ns(rng.uniform(-0.2, 0.4)), options=FAST),
            load1=fF(load1), load2=fF(load2), slew1=ns(slew1),
            slew2=ns(slew2),
        ))
    return jobs


@pytest.mark.parametrize("seed", [3, 17])
def test_cold_equals_warm_on_random_jobs(fresh_cache, seed):
    warm_jobs = _random_fast_jobs(8, seed)
    cold_jobs = [replace(job, warm_start=False) for job in warm_jobs]
    cold = [evaluate_job(job) for job in cold_jobs]
    cold_stack = evaluate_jobs_batch(cold_jobs)
    assert _tier_empty()
    for warm_job, cold_job, want in zip(warm_jobs, cold_jobs, cold):
        assert evaluate_job(warm_job).to_payload() == want.to_payload()
        assert warm_job.key() == cold_job.key()
    # Twins share a stack; each row is its twin's row and its scalar run.
    stack = evaluate_jobs_batch(warm_jobs + cold_jobs)
    assert stack.fallbacks == cold_stack.fallbacks == 0
    n = len(warm_jobs)
    for warm_row, cold_row, alone, want in zip(
            stack.results[:n], stack.results[n:], cold_stack.results, cold):
        assert warm_row.to_payload() == cold_row.to_payload()
        assert alone.to_payload() == cold_row.to_payload()
        _assert_same_result(cold_row, want)


def test_job_without_fork_evaluates_alike(fresh_cache):
    from repro.runtime import run_campaign
    from repro.runtime.prefix import warm_eligible

    warm_job = sensitivity_job(fF(160), ns(0.2), -ns(1.96), options=FAST)
    cold_job = replace(warm_job, warm_start=False)
    assert warm_job.settle == ns(2.0) and not warm_eligible(warm_job)
    want = evaluate_job(cold_job).to_payload()
    for job in (warm_job, cold_job):
        assert evaluate_job(job).to_payload() == want
        # No checkpoint: the row leaves the stack for the scalar path.
        assert evaluate_jobs_batch([job]).fallback_reasons == {0: "prefix"}
        for backend in ("serial", "batch"):
            telemetry = Telemetry()
            (got,) = run_campaign([job], backend=backend, batch_workers=1,
                                  cache=None, telemetry=telemetry)
            assert got.to_payload() == want
            assert telemetry.batch_fallbacks == (backend == "batch")
    assert _tier_empty()


@pytest.mark.parametrize("kwargs", [
    {"backend": "serial"},
    {"backend": "batch", "batch_workers": 2},
], ids=["serial", "batch-x2"])
def test_cold_campaign_leaves_the_tier_empty(fresh_cache, kwargs):
    from repro.runtime import run_campaign

    warm_jobs = _campaign_jobs()
    telemetry = Telemetry()
    cold = run_campaign([replace(job, warm_start=False) for job in warm_jobs],
                        cache=None, telemetry=telemetry, **kwargs)
    assert _tier_empty()
    assert telemetry.prefix_builds > 0  # each reported in its own run
    warm = run_campaign(warm_jobs, cache=None, **kwargs)
    assert not _tier_empty()
    for got, want in zip(cold, warm):
        _assert_same_result(got, want)


def test_cold_request_replays_the_warm_result(fresh_cache):
    from repro.runtime import run_campaign

    warm_jobs = _campaign_jobs()[:3]
    warm = run_campaign(warm_jobs)
    telemetry = Telemetry()
    cold = run_campaign([replace(job, warm_start=False) for job in warm_jobs],
                        telemetry=telemetry)
    assert telemetry.cache_hits == len(warm_jobs)
    assert telemetry.jobs_evaluated == 0
    for got, want in zip(cold, warm):
        assert got.cached and got.to_payload() == want.to_payload()


def test_campaign_telemetry_counts_prefix_reuse():
    from repro.core.sensitivity import sensitivity_family

    telemetry = Telemetry()
    (curve,) = sensitivity_family(
        [fF(160)], [ns(0.2)], [ns(t) for t in (0.0, 0.1, 0.2, 0.3)],
        options=FAST, cache=None, telemetry=telemetry, warm_start=True,
    )
    assert np.all(np.isfinite(curve.vmins))
    assert telemetry.prefix_hits >= 4  # every sweep point forked warm
    assert telemetry.prefix_hit_rate > 0.0
    assert telemetry.prefix_saved_time_s > 0.0
    assert "prefix" in telemetry.as_dict()["engine"]


def test_batch_warm_stack_matches_batch_cold(fresh_cache):
    taus = (ns(0.0), ns(0.15), ns(0.3))
    warm_jobs = [
        sensitivity_job(fF(160), ns(0.2), tau, options=FAST, warm_start=True)
        for tau in taus
    ]
    cold_jobs = [
        sensitivity_job(fF(160), ns(0.2), tau, options=FAST, warm_start=False)
        for tau in taus
    ]
    cold = evaluate_jobs_batch(cold_jobs)
    assert _tier_empty()
    warm = evaluate_jobs_batch(warm_jobs)
    assert warm.prefix, "warm stack must report prefix accounting"
    assert warm.prefix["hits"] + warm.prefix["builds"] == len(taus)
    assert warm.prefix["saved_s"] > 0.0
    for w, c in zip(warm.results, cold.results):
        assert w is not None and c is not None
        assert w.vmin_y1 == c.vmin_y1  # bit-exact, not approx
        assert w.vmin_y2 == c.vmin_y2
        assert w.code == c.code


def _cross_sample_jobs(warm_start=True):
    """3 Monte Carlo samples x 3 skews >= 0: three prefixes, one fork time."""
    from repro.montecarlo.analysis import sample_job
    from repro.montecarlo.sampling import sample_population

    return [
        sample_job(sample, ns(tau), options=FAST, warm_start=warm_start)
        for sample in sample_population(3, fF(160), seed=11)
        for tau in (0.0, 0.15, 0.3)
    ]


def _items(jobs):
    """Wrap jobs in the executor's work-item tuples."""
    return [(k, job, None) for k, job in enumerate(jobs)]


def _assert_same_result(got, want):
    assert got.vmin_y1 == want.vmin_y1  # bit-exact, not approx
    assert got.vmin_y2 == want.vmin_y2
    assert got.code == want.code
    assert got.steps == want.steps


def test_cross_sample_warm_stack(fresh_cache):
    from repro.batch.dispatch import group_batches
    from repro.runtime.prefix import evaluate_job_warm

    warm_jobs = _cross_sample_jobs()
    chunks = group_batches(_items(warm_jobs), batch_size=64)
    assert [len(chunk) for chunk in chunks] == [9]

    warm = evaluate_jobs_batch(warm_jobs)
    cold = evaluate_jobs_batch(_cross_sample_jobs(warm_start=False))
    assert warm.prefix["builds"] == 3  # one per sample
    assert warm.prefix["hits"] == 6
    for w, c in zip(warm.results, cold.results):
        assert w is not None and c is not None
        assert w.vmin_y1 == c.vmin_y1  # bit-exact, not approx
        assert w.vmin_y2 == c.vmin_y2
        assert w.code == c.code

    # A negative skew forks earlier, and joins the stack all the same:
    # every row steps its own window.
    early = replace(warm_jobs[0], skew=ns(-0.1))
    jobs = warm_jobs + [early]
    chunks = group_batches(_items(jobs), batch_size=64)
    assert [len(chunk) for chunk in chunks] == [10]
    stack = evaluate_jobs_batch(jobs)
    for job, got in zip(jobs, stack.results):
        _assert_same_result(got, evaluate_job_warm(job))


def test_warm_stack_mixes_forks_periods_and_stops(monkeypatch, tmp_path):
    """One warm stack of an earlier fork, another period and two
    tau >= 0 jobs: each row is its single-job warm run, and the stack's
    prefix plan is the sum of the single-job plans."""
    from repro.runtime import reset_cache
    from repro.runtime.prefix import evaluate_job_warm, fork_time, warm_plan

    base = sensitivity_job(fF(160), ns(0.2), ns(0.0), options=FAST)
    jobs = [base, replace(base, skew=ns(0.15)), replace(base, skew=ns(-0.1)),
            replace(base, skew=ns(0.1), period=ns(16.0))]
    resolved = [job.resolved() for job in jobs]
    assert len({fork_time(job) for job in resolved}) == 2
    assert len({job.period for job in resolved}) == 2

    def fresh(name):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
        reset_cache()

    try:
        fresh("stack")
        stack = evaluate_jobs_batch(jobs)
        assert stack.fallbacks == 0
        assert stack.prefix["builds"] == 2 and stack.prefix["hits"] == 2
        for job, got in zip(jobs, stack.results):
            _assert_same_result(got, evaluate_job_warm(job))

        fresh("single")  # the same builds and hits, one job at a time
        single = [warm_plan([job])[2] for job in resolved]
    finally:
        reset_cache()
    for name in ("hits", "builds"):
        assert stack.prefix[name] == sum(plan[name] for plan in single)
    assert stack.prefix["saved_s"] == sum(plan["saved_s"] for plan in single)


def test_batch_rejects_mixed_signatures():
    def job(tau, warm_start):
        return sensitivity_job(fF(160), ns(0.2), ns(tau), options=FAST,
                               warm_start=warm_start)

    # Two fork times share a stack, and so do warm and cold rows; two
    # option sets do not.
    for mates in ([job(0.0, True), job(-0.1, True)],
                  [job(0.0, True), job(0.15, False)]):
        assert evaluate_jobs_batch(mates).fallbacks == 0
    with pytest.raises(ValueError):  # two option sets
        evaluate_jobs_batch([job(0.0, True),
                             replace(job(0.15, True), options=None)])


def test_prefix_failure_sends_only_its_rows_to_scalar(monkeypatch,
                                                      fresh_cache):
    import repro.runtime.prefix as prefix
    from repro.errors import SimulationError
    from repro.runtime import run_campaign

    jobs = _cross_sample_jobs()
    # The serial reference builds every prefix, so below only the stack
    # calls prefix_checkpoint before the scalar re-dispatch does.
    reference = run_campaign(jobs, backend="serial", cache=None)
    real = prefix.prefix_checkpoint
    bad = prefix_key(jobs[0])
    fired = []

    def fails_once(job):
        if prefix_key(job) == bad and not fired:
            fired.append(job)
            raise SimulationError("synthetic prefix failure")
        return real(job)

    monkeypatch.setattr(prefix, "prefix_checkpoint", fails_once)
    evaluation = evaluate_jobs_batch(jobs)
    assert evaluation.fallback_reasons == {0: "prefix", 1: "prefix",
                                           2: "prefix"}
    assert evaluation.results[:3] == [None] * 3
    assert all(r is not None for r in evaluation.results[3:])
    assert evaluation.prefix["hits"] == 6

    fired.clear()
    telemetry = Telemetry()
    results = run_campaign(jobs, backend="batch", batch_workers=1,
                           cache=None, telemetry=telemetry)
    assert fired, "the stack's prefix fetch must have failed"
    assert telemetry.batch_fallbacks == 3
    assert telemetry.batched_samples == 6
    for got, want in zip(results[:3], reference[:3]):
        assert got.vmin_y1 == want.vmin_y1  # the scalar warm path
        assert got.vmin_y2 == want.vmin_y2
        assert got.code == want.code


# --------------------------------------------------------------------- #
# Stacked prefix planner.
# --------------------------------------------------------------------- #
def _mixed_prefix_jobs(options=FAST):
    """Five prefixes of one topology: two loads, a process corner, a
    sizing and a negative skew, which forks earlier than the rest."""
    from repro.core.sensing import SensorSizing
    from repro.units import um

    base = sensitivity_job(fF(160), ns(0.2), ns(0.1), options=options)
    jobs = [
        base,
        replace(base, load1=fF(80), load2=fF(80)),
        replace(base, process=corner_process("ss")),
        replace(base, sizing=SensorSizing(w_n=um(3.0), w_p=um(6.0))),
        replace(base, load1=fF(240), load2=fF(240), skew=ns(-0.1)),
    ]
    return {prefix_key(job): job.resolved() for job in jobs}


def _no_cache(monkeypatch):
    from repro.runtime import reset_cache

    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    reset_cache()


def _assert_same_checkpoint(got, want):
    assert got.t == want.t and got.t_prev == want.t_prev
    assert np.array_equal(got.state, want.state)
    assert np.array_equal(got.state_prev, want.state_prev)
    assert got.nodes == want.nodes


def _scalar_builds(jobs):
    """Each prefix of ``key -> job`` built alone, from an empty tier."""
    import repro.runtime.prefix as prefix
    from repro.runtime import reset_cache

    reset_cache()
    return {key: prefix.prefix_checkpoint(job) for key, job in jobs.items()}


def test_stacked_prefixes_equal_scalar_builds(monkeypatch):
    import repro.runtime.prefix as prefix

    jobs = _mixed_prefix_jobs()
    assert len(jobs) >= prefix.PREFIX_STACK_MIN
    assert len({prefix.fork_time(job) for job in jobs.values()}) == 2
    _no_cache(monkeypatch)
    scalar_calls = []
    real = prefix.prefix_checkpoint
    monkeypatch.setattr(prefix, "prefix_checkpoint",
                        lambda job: scalar_calls.append(job) or real(job))
    planned = prefix.build_prefixes(jobs)
    assert scalar_calls == [], "every prefix must come from the stack"
    monkeypatch.setattr(prefix, "prefix_checkpoint", real)
    scalar = _scalar_builds(jobs)
    for key, (want, want_stats) in scalar.items():
        got, got_stats = planned[key]
        _assert_same_checkpoint(got, want)
        assert got_stats.keys() == want_stats.keys()
        assert got_stats["builds"] == 1.0
        for name, value in want_stats.items():
            if name.startswith("esc:"):
                assert got_stats[name] == value
    # A stacked checkpoint serves the warm suffix as the scalar one does.
    from repro.runtime import reset_cache
    from repro.runtime.prefix import evaluate_job_warm

    reset_cache()
    prefix.build_prefixes(jobs)
    stacked = [evaluate_job_warm(job) for job in jobs.values()]
    reset_cache()
    for job, got in zip(jobs.values(), stacked):
        _assert_same_result(got, evaluate_job_warm(job))


def _campaign_jobs():
    """4 Monte Carlo samples x 2 skews: four prefixes, one stack."""
    from repro.montecarlo.analysis import sample_job
    from repro.montecarlo.sampling import sample_population

    return [
        sample_job(sample, ns(tau), options=FAST)
        for sample in sample_population(4, fF(160), seed=5)
        for tau in (0.0, 0.2)
    ]


def _counted_campaign(jobs, **kwargs):
    from repro.runtime import reset_cache, run_campaign

    reset_cache()
    telemetry = Telemetry()
    results = run_campaign(jobs, cache=None, telemetry=telemetry, **kwargs)
    return results, telemetry


@pytest.mark.parametrize("kwargs", [
    {"backend": "serial"},
    {"backend": "batch", "batch_workers": 2},
], ids=["serial", "batch-x2"])
def test_stacked_planner_keeps_campaign_results_and_counts(monkeypatch,
                                                           kwargs):
    import repro.runtime.prefix as prefix

    jobs = _campaign_jobs()
    n_prefixes = len({prefix_key(job) for job in jobs})
    assert n_prefixes >= prefix.PREFIX_STACK_MIN
    _no_cache(monkeypatch)
    with monkeypatch.context() as one_at_a_time:
        one_at_a_time.setattr(prefix, "PREFIX_STACK_MIN", len(jobs) + 1)
        reference, _ = _counted_campaign(jobs, backend="serial")
        alone, alone_t = _counted_campaign(jobs, **kwargs)
    stacks = []
    real = prefix._stack_prefixes
    monkeypatch.setattr(prefix, "_stack_prefixes",
                        lambda group: stacks.append(len(group)) or real(group))
    try:
        stacked, stacked_t = _counted_campaign(jobs, **kwargs)
    finally:
        from repro.runtime import reset_cache

        reset_cache()
    assert stacks[0] == n_prefixes  # the planner pass, one stack
    for got, want in zip(stacked, reference):
        _assert_same_result(got, want)
    for got, want in zip(alone, reference):
        _assert_same_result(got, want)
    assert stacked_t.prefix_builds == alone_t.prefix_builds == n_prefixes
    assert stacked_t.prefix_hits == alone_t.prefix_hits == len(jobs)
    assert stacked_t.ladder_rungs == alone_t.ladder_rungs
    assert stacked_t.ladder_rungs["dcop:direct"] == n_prefixes
    # A build records no kernel counters, stacked or not.
    counters = ("newton_iterations", "factorizations", "jacobian_reuses")
    assert ({name: stacked_t.kernel.get(name) for name in counters}
            == {name: alone_t.kernel.get(name) for name in counters})


@pytest.mark.parametrize("kwargs, builds_per_prefix", [
    ({"backend": "serial"}, 2),
    ({"backend": "batch", "batch_workers": 1}, 1),
], ids=["serial", "batch"])
def test_prefix_builds_count_their_integration(monkeypatch, kwargs,
                                               builds_per_prefix):
    # A cold serial job builds its own prefix, so each of the four
    # prefixes (two jobs each) is built twice; a cold stack builds each
    # once, like the warm planner.  The prefix counters carry exactly
    # those builds' steps and Newton iterations - each that of the
    # prefix's scalar build - while the suffix counters stay equal.
    import repro.runtime.prefix as prefix

    jobs = _campaign_jobs()
    _no_cache(monkeypatch)
    builds = {}
    for job in jobs:
        resolved = replace(job.resolved(), warm_start=False)
        key = prefix_key(resolved)
        if key not in builds:
            builds[key] = prefix.prefix_checkpoint(resolved)[1]
    assert len(builds) == 4
    steps = sum(int(stats["steps"]) for stats in builds.values())
    iterations = sum(int(stats["newton_iterations"])
                     for stats in builds.values())
    assert steps > 0 and iterations >= steps
    _, warm = _counted_campaign(jobs, **kwargs)
    _, cold = _counted_campaign(
        [replace(job, warm_start=False) for job in jobs], **kwargs)
    assert warm.prefix_builds == len(builds)
    assert (warm.prefix_steps, warm.prefix_newton_iterations) == (
        steps, iterations)
    extra = builds_per_prefix - 1
    assert cold.prefix_builds - warm.prefix_builds == extra * len(builds)
    assert cold.prefix_steps - warm.prefix_steps == extra * steps
    assert (cold.prefix_newton_iterations - warm.prefix_newton_iterations
            == extra * iterations)
    assert cold.steps_integrated == warm.steps_integrated
    assert (cold.kernel["newton_iterations"]
            == warm.kernel["newton_iterations"])
    engine = cold.as_dict()["engine"]["prefix"]
    assert (engine["steps"], engine["newton_iterations"]) == (
        cold.prefix_steps, cold.prefix_newton_iterations)
    merged = Telemetry()
    merged.merge(cold)
    merged.merge(warm)
    assert merged.prefix_steps == cold.prefix_steps + warm.prefix_steps
    assert "newton iteration(s))" in cold.summary()


def test_masked_prefix_row_takes_the_scalar_build(monkeypatch):
    import repro.batch.engine as batch_engine
    import repro.runtime.prefix as prefix
    from repro.errors import SimulationError
    from repro.runtime import reset_cache, run_campaign

    jobs = _mixed_prefix_jobs()
    poisoned_key = list(jobs)[1]
    real_transient = batch_engine.batch_transient

    def poisoned(batch, **kwargs):
        batch.m_beta[1, :] = np.nan  # row 1's devices go non-finite
        return real_transient(batch, **kwargs)

    monkeypatch.setattr(batch_engine, "batch_transient", poisoned)
    _no_cache(monkeypatch)
    scalar_calls = []
    real = prefix.prefix_checkpoint
    monkeypatch.setattr(prefix, "prefix_checkpoint",
                        lambda job: scalar_calls.append(job) or real(job))
    planned = prefix.build_prefixes(jobs)
    assert [prefix_key(job) for job in scalar_calls] == [poisoned_key]
    monkeypatch.setattr(prefix, "prefix_checkpoint", real)
    for key, (want, _) in _scalar_builds(jobs).items():
        _assert_same_checkpoint(planned[key][0], want)

    # When the scalar build raises too, that prefix's jobs fail as they
    # always have, and only they.
    def fails(job):
        if prefix_key(job) == poisoned_key:
            raise SimulationError("synthetic prefix failure")
        return real(job)

    monkeypatch.setattr(prefix, "prefix_checkpoint", fails)
    campaign_jobs = [replace(job, skew=tau) for job in jobs.values()
                     for tau in (ns(0.05), ns(0.1))]
    try:
        reset_cache()
        campaign = run_campaign(campaign_jobs, cache=None, on_error="collect")
    finally:
        reset_cache()
    failed = [prefix_key(job) == poisoned_key for job in campaign_jobs]
    assert [error.index for error in campaign.errors] == [
        i for i, bad in enumerate(failed) if bad]


def test_sparse_policy_builds_scalar_prefixes(monkeypatch):
    import repro.runtime.prefix as prefix
    from repro.sparse.linalg import scipy_available

    jobs = _mixed_prefix_jobs(replace(FAST, jacobian_policy="sparse"))
    _no_cache(monkeypatch)
    scalar_calls = []
    real = prefix.prefix_checkpoint
    monkeypatch.setattr(prefix, "prefix_checkpoint",
                        lambda job: scalar_calls.append(job) or real(job))
    planned = prefix.build_prefixes(jobs)
    # With scipy the scalar build factors with SuperLU, which a stack
    # cannot reproduce; without it "sparse" resolves to dense and stacks.
    assert len(scalar_calls) == (len(jobs) if scipy_available() else 0)
    assert all(planned[key][1]["builds"] == 1.0 for key in jobs)


def test_batch_resume_rejects_mismatched_nodes():
    from repro.batch.compile import compile_batch
    from repro.batch.engine import batch_transient

    netlist, initial = _sensing()
    batch = compile_batch([netlist, netlist])
    bad = TransientCheckpoint(
        t=T_CHECK, t_prev=T_CHECK - 1e-12,
        state=np.zeros(3), state_prev=np.zeros(3),
        nodes=("a", "b", "c"),
    )
    with pytest.raises(ValueError):
        batch_transient(batch, t_stop=T_STOP, options=FAST,
                        resume_from=[bad, bad])


# --------------------------------------------------------------------- #
# Scatter-plan memoization.
# --------------------------------------------------------------------- #
def test_scatter_plan_is_memoized_per_topology():
    plan_a = mosfet_scatter_plan([0, 2], [1, 1], [3, 4], 5)
    plan_b = mosfet_scatter_plan(np.array([0, 2]), np.array([1, 1]),
                                 np.array([3, 4]), 5)
    assert plan_a is plan_b  # same topology signature -> same plan object
    plan_c = mosfet_scatter_plan([0, 2], [1, 1], [3, 4], 6)
    assert plan_c is not plan_a  # different matrix size -> fresh plan
