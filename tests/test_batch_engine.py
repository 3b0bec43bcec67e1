"""Batch-vs-scalar equivalence of the lockstep transient engine.

Every row of a stack steps its own time axis with the scalar
step-control law on the scalar arithmetic, so three layers of evidence
all assert exact equality:

* a single-sample batch walks the scalar engine's grid point for point,
  with the scalar's values;
* multi-sample batches - different Monte Carlo samples and skews, cold
  or warm, each row forked from its own prefix - give every job its
  scalar result bit for bit (``Vmin``, code and ``steps``), whatever its
  stack mates are;
* white-box mask semantics: a sample whose physics is poisoned is masked
  out with a recorded reason while its batchmates integrate on,
  untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analog.engine import TransientOptions
from repro.batch.compile import compile_batch
from repro.batch.engine import batch_transient
from repro.batch.response import evaluate_jobs_batch
from repro.montecarlo.sampling import sample_population
from repro.runtime.jobs import SensorJob, evaluate_job
from repro.units import fF, ns

#: Coarse options: fast, and bit identity holds at any tolerance.
FAST = TransientOptions(dt_max=200e-12, reltol=5e-3)


def _assert_same_result(got, want):
    assert got.vmin_y1 == want.vmin_y1  # bit-exact, not approx
    assert got.vmin_y2 == want.vmin_y2
    assert got.code == want.code
    assert got.steps == want.steps


def _job(skew_ns, sample=None, options=FAST, load=fF(160), warm_start=False):
    if sample is None:
        return SensorJob(skew=ns(skew_ns), load1=load, load2=load,
                         options=options, warm_start=warm_start)
    return SensorJob(
        skew=ns(skew_ns), load1=sample.load1, load2=sample.load2,
        slew1=sample.slew1, slew2=sample.slew2, process=sample.process,
        options=options, warm_start=warm_start,
    )


# --------------------------------------------------------------------- #
# B == 1: bit identity.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("skew_ns", [0.0, 0.15, 0.4])
def test_single_sample_batch_matches_to_roundoff(skew_ns):
    job = _job(skew_ns)
    scalar = evaluate_job(job)
    batch = evaluate_jobs_batch([job])
    result = batch.results[0]
    assert result is not None
    _assert_same_result(result, scalar)


def test_single_sample_walks_the_scalar_grid():
    from repro.core.response import simulate_sensor
    from repro.core.sensing import SkewSensor
    from repro.devices.sources import clock_pair

    sensor = SkewSensor(load1=fF(160), load2=fF(160))
    response = simulate_sensor(sensor, skew=ns(0.15), options=FAST)
    scalar_wave = response.wave("y2")

    phi1, phi2 = clock_pair(period=ns(20.0), slew1=ns(0.2), slew2=ns(0.2),
                            skew=ns(0.15), delay=ns(2.0), vdd=sensor.vdd)
    batch = compile_batch([sensor.build(phi1=phi1, phi2=phi2)])
    result = batch_transient(
        batch, t_stop=ns(22.0), record=["y2"],
        initial=[sensor.dc_guess()], options=FAST,
    )
    assert result.ok[0]
    batch_wave = result.wave("y2", 0)
    # The single-sample batch makes the scalar engine's step-control
    # decisions at every step, on the scalar's bits.
    assert np.array_equal(batch_wave.times, scalar_wave.times)
    assert np.array_equal(batch_wave.values, scalar_wave.values)


# --------------------------------------------------------------------- #
# B > 1: bit identity on a seeded Monte Carlo slice.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("warm_start", [False, True])
def test_montecarlo_slice_matches_scalar_bit_for_bit(warm_start):
    samples = sample_population(4, fF(160), seed=2024)
    jobs = [_job(sk, s, warm_start=warm_start)
            for sk in (0.0, 0.05, 0.4) for s in samples]
    scalar = [evaluate_job(job) for job in jobs]
    batch = evaluate_jobs_batch(jobs)
    assert batch.fallbacks == 0
    # Cold or warm, every row's prefix is a hit or a build.
    assert batch.prefix["hits"] + batch.prefix["builds"] == len(jobs)
    for s, b in zip(scalar, batch.results):
        _assert_same_result(b, s)
    assert len({s.code for s in scalar}) >= 2, \
        "slice must cover both code outcomes"


@pytest.mark.parametrize("warm_start", [False, True])
def test_heterogeneous_pair_matches_scalar_bit_for_bit(warm_start):
    """Two different samples and skews in one stack (each row forks
    from its own sample's prefix); each row alone, in a stack of one,
    gives the same bits too."""
    samples = sample_population(2, fF(160), seed=9)
    jobs = [_job(0.1, samples[0], warm_start=warm_start),
            _job(0.0, samples[1], warm_start=warm_start)]
    scalar = [evaluate_job(job) for job in jobs]
    batch = evaluate_jobs_batch(jobs)
    # Cold or warm, every row's prefix is a hit or a build.
    assert batch.prefix["hits"] + batch.prefix["builds"] == len(jobs)
    for job, s, b in zip(jobs, scalar, batch.results):
        _assert_same_result(b, s)
        _assert_same_result(evaluate_jobs_batch([job]).results[0], s)


# --------------------------------------------------------------------- #
# Mask semantics.
# --------------------------------------------------------------------- #

def test_poisoned_sample_is_masked_not_fatal():
    jobs = [_job(0.0), _job(0.15)]
    from repro.batch import response as batch_response
    from repro.core.response import read_response, simulate_sensor
    from repro.runtime.jobs import job_circuit

    resolved = [job.resolved() for job in jobs]
    circuits = [job_circuit(job) for job in resolved]
    initial = [sensor.dc_guess() for sensor, _ in circuits]
    batch = compile_batch([netlist for _, netlist in circuits])
    # Poison sample 0's device cards: NaN transconductance makes the
    # Newton residual non-finite for that sample only.  (NaN *vt* would
    # not do: ``vov > 0`` is False for NaN, which just switches every
    # device off and leaves the physics finite.)
    batch.m_beta[0, :] = np.nan
    result = batch_transient(
        batch, t_stop=resolved[0].settle + resolved[0].period,
        record=list(batch_response.RECORD_NODES),
        initial=initial, options=FAST,
    )
    assert not result.ok[0]
    assert result.ok[1]
    assert result.fallback_reasons[0] in ("non-finite", "newton-floor")
    # The survivor still equals the scalar engine's full-period run on
    # its measurement.
    job = resolved[1]
    vmin_y1, vmin_y2, code = read_response(
        result.wave("y1", 1), result.wave("y2", 1), job.skew, job.slew1,
        job.slew2, job.period, job.settle, job.threshold,
    )
    reference = simulate_sensor(
        circuits[1][0], skew=job.skew, slew1=job.slew1, slew2=job.slew2,
        period=job.period, settle=job.settle, threshold=job.threshold,
        options=job.options,
    )
    assert (vmin_y1, vmin_y2, code) == (
        reference.vmin_y1, reference.vmin_y2, reference.code)


def test_masked_sample_comes_back_as_none():
    jobs = [_job(0.0), _job(0.15)]
    import repro.batch.response as batch_response

    real_transient = batch_response.batch_transient

    def poisoned(batch, **kwargs):
        batch.m_beta[0, :] = np.nan
        return real_transient(batch, **kwargs)

    batch_response.batch_transient, saved = poisoned, batch_response.batch_transient
    try:
        evaluation = batch_response.evaluate_jobs_batch(jobs)
    finally:
        batch_response.batch_transient = saved
    assert evaluation.results[0] is None
    assert evaluation.results[1] is not None
    assert evaluation.fallbacks == 1
