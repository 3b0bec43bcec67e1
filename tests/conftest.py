"""Shared fixtures.

Electrical simulations dominate test runtime, so the expensive reference
runs (no-skew response, skewed response, testability subsets) are
session-scoped and shared across test modules.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analog.engine import TransientOptions
from repro.core.response import simulate_sensor
from repro.core.sensing import SkewSensor
from repro.devices.process import nominal_process
from repro.units import fF, ns


@pytest.fixture(scope="session", autouse=True)
def _hermetic_result_cache(tmp_path_factory):
    """Point the runtime result cache at a session-private directory.

    Keeps the suite from reading or writing ``~/.cache/repro`` (hermetic
    runs, no cross-session replay masking a regression) while still
    letting repeated evaluations *within* the session share results.
    """
    from repro.runtime import reset_cache

    root = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    reset_cache()
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
    reset_cache()


@pytest.fixture(autouse=True)
def _fresh_fault_injector():
    """Rebuild the fault injector from the environment for every test.

    Chaos CI runs the suite with ``REPRO_FAULTS`` set; resetting the
    per-site decision streams here makes each test's fire pattern a
    function of ``(seed, site)`` alone, never of how many decisions
    earlier tests happened to draw - the determinism the chaos-smoke
    job asserts (same seed twice -> same outcomes).  Costs nothing when
    chaos is off (the null injector is rebuilt from an empty env).
    """
    from repro.runtime.faults import reset_injector, set_injector

    reset_injector()
    yield
    set_injector(None)


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A fresh, empty process-wide cache rooted at this test's tmp dir."""
    from repro.runtime import reset_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_cache()
    yield tmp_path
    reset_cache()


@pytest.fixture(scope="session")
def process():
    """Nominal 1.2 um process corner."""
    return nominal_process()


@pytest.fixture(scope="session")
def fast_options():
    """Transient options tuned for test speed: the FAST options, whose
    ``Vmin`` lies within 1.83 mV of a grid-converged reference on the
    Fig. 4 grid (``benchmarks/_util.py``)."""
    return TransientOptions(dt_max=200e-12, reltol=5e-3)


@pytest.fixture(scope="session")
def sensor():
    """Default sensor with the paper's middle load (160 fF)."""
    return SkewSensor(load1=fF(160), load2=fF(160))


@pytest.fixture(scope="session")
def no_skew_response(sensor, fast_options):
    """Reference no-skew simulation (Fig. 2 situation)."""
    return simulate_sensor(sensor, skew=0.0, options=fast_options)


@pytest.fixture(scope="session")
def skewed_response(sensor, fast_options):
    """Reference 1 ns skew simulation (Fig. 3 situation)."""
    return simulate_sensor(sensor, skew=ns(1.0), options=fast_options)


@pytest.fixture
def rng():
    """Deterministic RNG for reproducible randomised tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def synthetic_kind():
    """Register a cheap ``synthetic`` campaign kind for service tests.

    Evaluation is a stub (no transients), so scheduler/API behaviour -
    ordering, cancellation, resume, quotas - can be exercised in
    milliseconds.  Spec keys: ``jobs`` (count), ``sleep_s`` (per-job
    delay, for cancellation-mid-campaign tests), ``tag`` (appended to
    the returned run log when the campaign folds, so tests can assert
    execution order), ``fail_at`` (job index whose evaluation raises).
    Yields the run log; unregisters the kind on teardown.
    """
    import time as _time

    from repro.runtime import JobResult, SensorJob
    from repro.service import specs

    runs = []

    def build(spec):
        jobs = [
            SensorJob(skew=(k + 1) * 1e-12)
            for k in range(int(spec["jobs"]))
        ]
        sleep_s = float(spec["sleep_s"])
        fail_at = spec["fail_at"]

        def evaluate(job):
            if sleep_s:
                _time.sleep(sleep_s)
            if fail_at is not None and job.skew == (fail_at + 1) * 1e-12:
                raise ValueError("synthetic failure")
            return JobResult(
                skew=job.skew, vmin_y1=1.0, vmin_y2=2.0, code=(0, 0),
                steps=1,
            )

        def fold(campaign):
            runs.append(spec["tag"])
            return {
                "kind": "synthetic",
                "tag": spec["tag"],
                "n": len(campaign.results),
                "resumed": sum(
                    1 for r in campaign.results
                    if getattr(r, "resumed", False)
                ),
            }

        return specs.CampaignPlan(
            jobs=jobs, fold=fold,
            executor=specs._executor_kwargs(spec), evaluate=evaluate,
        )

    specs.register_kind(
        "synthetic",
        {"jobs": 4, "sleep_s": 0.0, "tag": "", "fail_at": None},
        build,
    )
    yield runs
    specs._KIND_BUILDERS.pop("synthetic", None)
    specs._KIND_DEFAULTS.pop("synthetic", None)
