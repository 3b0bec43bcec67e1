"""Batch-vs-scalar equivalence of the lockstep transient engine.

Three layers of evidence:

* a single-sample batch walks the scalar engine's grid *exactly* (same
  step-control law), so its time axis must match point for point and its
  values to within summation-reorder roundoff (~1e-15; the vectorised
  einsum/bincount accumulation orders sums differently than the scalar
  loop) - any real drift in the vectorised maths breaks this;
* multi-sample batches (where the merged breakpoint schedule forces a
  different shared grid) must agree with the scalar engine within 1 mV
  on ``Vmin`` and exactly on the interpreted codes, checked at
  grid-converged options (at coarse options the *scalar* engine carries
  ~10 mV of tolerance-blind grid error, so a tight cross-engine bar is
  only meaningful where the scalar is converged);
* white-box mask semantics: a sample whose physics is poisoned is masked
  out with a recorded reason while its batchmates integrate on.
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

#: Coarse options: fast, fine for bit-identity (grid equality is exact
#: at any tolerance when B == 1).
FAST = TransientOptions(dt_max=200e-12, reltol=5e-3)

#: Grid-converged options for the B > 1 tolerance comparison (matches
#: benchmarks/_util.ACCURATE_OPTIONS).
ACCURATE = TransientOptions(dt_max=5e-12, reltol=1e-3)


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
    assert result.vmin_y1 == pytest.approx(scalar.vmin_y1, rel=0, abs=1e-9)
    assert result.vmin_y2 == pytest.approx(scalar.vmin_y2, rel=0, abs=1e-9)
    assert result.code == scalar.code


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
    # Same number of accepted points and the same times to within one
    # ULP of accumulation roundoff: the single-sample batch makes the
    # same step-control decisions as the scalar engine at every step.
    assert len(batch_wave.times) == len(scalar_wave.times)
    assert np.allclose(batch_wave.times, scalar_wave.times,
                       rtol=1e-12, atol=0.0)
    assert np.allclose(batch_wave.values, scalar_wave.values,
                       rtol=0, atol=1e-9)


# --------------------------------------------------------------------- #
# B > 1: tolerance equivalence on a seeded Monte Carlo slice.
# --------------------------------------------------------------------- #

@pytest.mark.slow
@pytest.mark.parametrize("warm_start", [False, True])
def test_montecarlo_slice_matches_scalar_within_1mv(warm_start):
    samples = sample_population(4, fF(160), seed=2024)
    jobs = [_job(sk, s, options=ACCURATE, warm_start=warm_start)
            for sk in (0.0, 0.05, 0.4) for s in samples]
    scalar = [evaluate_job(job) for job in jobs]
    batch = evaluate_jobs_batch(jobs)
    assert batch.fallbacks == 0
    if warm_start:  # every row's prefix is a hit or a build
        assert batch.prefix["hits"] + batch.prefix["builds"] == len(jobs)
    codes = set()
    for s, b in zip(scalar, batch.results):
        assert abs(s.vmin_y1 - b.vmin_y1) <= 1e-3
        assert abs(s.vmin_y2 - b.vmin_y2) <= 1e-3
        assert s.code == b.code
        codes.add(s.code)
    assert len(codes) >= 2, "slice must cover both code outcomes"


@pytest.mark.parametrize("warm_start", [False, True])
def test_heterogeneous_pair_matches_scalar_within_1mv(warm_start):
    """Cheap non-slow guard: two different samples on one merged grid
    (warm: each row forks from its own sample's prefix)."""
    samples = sample_population(2, fF(160), seed=9)
    jobs = [_job(0.1, samples[0], options=ACCURATE, warm_start=warm_start),
            _job(0.0, samples[1], options=ACCURATE, warm_start=warm_start)]
    scalar = [evaluate_job(job) for job in jobs]
    batch = evaluate_jobs_batch(jobs)
    if warm_start:  # every row's prefix is a hit or a build
        assert batch.prefix["hits"] + batch.prefix["builds"] == len(jobs)
    for s, b in zip(scalar, batch.results):
        assert abs(s.vmin_y2 - b.vmin_y2) <= 1e-3
        assert s.code == b.code


# --------------------------------------------------------------------- #
# Mask semantics.
# --------------------------------------------------------------------- #

def test_poisoned_sample_is_masked_not_fatal():
    jobs = [_job(0.0), _job(0.15)]
    from repro.batch import response as batch_response
    from repro.core.response import read_response
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
    assert 0 in result.fallback_reasons
    # The survivor still matches the scalar engine on its measurement.
    job = resolved[1]
    _, vmin_y2, code = read_response(
        result.wave("y1", 1), result.wave("y2", 1), job.skew, job.slew1,
        job.slew2, job.period, job.settle, job.threshold,
    )
    reference = evaluate_job(jobs[1])
    assert abs(vmin_y2 - reference.vmin_y2) <= 2e-3
    assert code == reference.code


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
