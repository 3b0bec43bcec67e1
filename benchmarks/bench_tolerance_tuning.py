"""Ablation - setting the "suitable tolerance interval" of Sec. 2.

End-to-end engineering workflow the paper sketches in one sentence:

1. derive the machine's skew budget from its timing (setup/hold window);
2. recommend a sensor sensitivity inside that budget;
3. tune the interpretation threshold Vth to realise it (the paper's
   first knob);
4. verify at transistor level that the tuned sensor tolerates every
   harmless skew and flags every dangerous one.
"""

import pytest

from repro.clocktree.budget import (
    recommend_sensitivity,
    skew_budget,
    tune_threshold,
)
from repro.core.response import simulate_sensor
from repro.core.sensing import SkewSensor
from repro.core.sensitivity import extract_tau_min
from repro.units import fF, ns, to_ns

from _util import BENCH_OPTIONS, emit

PERIOD = ns(4.0)
COMB_MIN = ns(0.25)
COMB_MAX = ns(3.2)
LOAD = fF(160)


def run():
    budget = skew_budget(
        period=PERIOD, comb_min=COMB_MIN, comb_max=COMB_MAX,
        clk_to_q=ns(0.2), setup=ns(0.1), hold=ns(0.05),
    )
    target = recommend_sensitivity(budget, margin=0.8)
    vth = tune_threshold(target, LOAD, options=BENCH_OPTIONS)
    achieved = extract_tau_min(
        LOAD, threshold=vth, tolerance=ns(0.005), options=BENCH_OPTIONS
    )

    sensor = SkewSensor(load1=LOAD, load2=LOAD)
    probes = {}
    for label, tau in (
        ("harmless (0.5 x tau)", 0.5 * achieved),
        ("dangerous (1.6 x tau)", 1.6 * achieved),
        ("dangerous (3 x tau)", 3.0 * achieved),
    ):
        response = simulate_sensor(
            sensor, skew=tau, threshold=vth, options=BENCH_OPTIONS
        )
        probes[label] = (tau, response.error_detected)
    return budget, target, vth, achieved, probes


def test_tolerance_tuning_workflow(benchmark):
    budget, target, vth, achieved, probes = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    lines = [
        "Ablation: tuning the tolerance interval to a machine's timing",
        "",
        f"  machine: {to_ns(PERIOD):.1f} ns clock, comb delay "
        f"{to_ns(COMB_MIN):.2f}..{to_ns(COMB_MAX):.2f} ns",
        f"  skew budget          : [{to_ns(budget.min_skew):+.3f}, "
        f"{to_ns(budget.max_skew):+.3f}] ns",
        f"  symmetric tolerance  : {to_ns(budget.symmetric_tolerance):.3f} ns",
        f"  recommended tau_min  : {to_ns(target):.3f} ns (80 % margin)",
        f"  tuned Vth            : {vth:.2f} V",
        f"  achieved tau_min     : {to_ns(achieved):.3f} ns",
        "",
        "  transistor-level verification:",
    ]
    for label, (tau, detected) in probes.items():
        lines.append(
            f"    skew {to_ns(tau):6.3f} ns  {label:<22} -> "
            f"{'FLAGGED' if detected else 'tolerated'}"
        )
    emit("tolerance_tuning", lines)

    assert achieved == pytest.approx(target, rel=0.2)
    harmless = probes["harmless (0.5 x tau)"]
    assert not harmless[1], "in-budget skew must be tolerated"
    for label in ("dangerous (1.6 x tau)", "dangerous (3 x tau)"):
        assert probes[label][1], f"{label} must be flagged"

