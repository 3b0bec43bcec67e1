"""Skew budgets, cross-validated against the event-driven pipeline, and
sensor tuning to a budget."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocktree import budget as budget_module
from repro.clocktree.budget import (
    SkewBudget,
    recommend_sensitivity,
    skew_budget,
    tune_threshold,
)
from repro.core.sensitivity import extract_tau_min, vmin_for_skew
from repro.logicsim.synth import at_speed_test, build_pipeline
from repro.units import fF, ns


def test_budget_window_formulas():
    budget = skew_budget(
        period=ns(10), comb_min=ns(1), comb_max=ns(6),
        clk_to_q=ns(0.2), setup=ns(0.1), hold=ns(0.05),
    )
    assert budget.min_skew == pytest.approx(ns(0.2 + 6 + 0.1 - 10))
    assert budget.max_skew == pytest.approx(ns(0.2 + 1 - 0.05))
    assert budget.contains(0.0)
    assert not budget.contains(ns(2.0))


def test_budget_rejects_infeasible():
    with pytest.raises(ValueError):
        # comb_max so large that setup bound exceeds hold bound.
        skew_budget(period=ns(2), comb_min=ns(0.1), comb_max=ns(5))
    with pytest.raises(ValueError):
        skew_budget(period=ns(10), comb_min=ns(5), comb_max=ns(1))


def test_symmetric_tolerance():
    budget = SkewBudget(min_skew=-ns(2), max_skew=ns(1))
    assert budget.symmetric_tolerance == pytest.approx(ns(1))
    one_sided = SkewBudget(min_skew=ns(0.1), max_skew=ns(1))
    assert one_sided.symmetric_tolerance == 0.0


def test_recommendation_inside_budget():
    budget = skew_budget(period=ns(10), comb_min=ns(1), comb_max=ns(6))
    tau = recommend_sensitivity(budget, margin=0.8)
    assert 0 < tau < budget.max_skew
    with pytest.raises(ValueError):
        recommend_sensitivity(budget, margin=1.5)


def test_recommendation_rejects_zero_tolerance():
    budget = SkewBudget(min_skew=ns(0.1), max_skew=ns(1))
    with pytest.raises(ValueError):
        recommend_sensitivity(budget)


@settings(max_examples=40, deadline=None)
@given(
    skew_ps=st.one_of(
        st.integers(-7400, 4200),       # spans both budget edges
        st.integers(3000, 3400),        # dense around the hold bound
        st.integers(-6900, -6500),      # dense around the setup bound
    ),
)
def test_budget_agrees_with_event_simulation(skew_ps):
    """Cross-module validation: the closed-form window predicts exactly
    when the gate-level pipeline breaks.

    One stage (comb delay 3 ns) in a 10 ns machine; the capture flop's
    clock is displaced by ``skew``.  Inside the budget the at-speed
    pattern passes and no violations fire; beyond the hold bound the
    pipeline races (the capture flop swallows same-cycle data).
    """
    skew = skew_ps * 1e-12
    stage = ns(3.0)
    period = ns(10.0)
    budget = skew_budget(
        period=period, comb_min=stage, comb_max=stage,
        clk_to_q=ns(0.2), setup=ns(0.1), hold=ns(0.05),
    )
    circuit, flops = build_pipeline(
        [stage], clock_offsets=[0.0, skew],
        setup=ns(0.1), hold=ns(0.05), clk_to_q=ns(0.2),
    )
    result = at_speed_test(circuit, flops, period=period)

    guard = 60e-12  # keep clear of the exact boundary (discrete events)
    if budget.min_skew + guard < skew < budget.max_skew - guard:
        assert result["passed"], f"skew {skew} inside budget must pass"
    elif skew > budget.max_skew + guard or skew < budget.min_skew - guard:
        assert not result["passed"], f"skew {skew} outside budget must fail"


def test_tune_threshold_hits_target(fast_options, monkeypatch):
    """The Vth knob realises a requested tau_min within tolerance, from
    one Vmin probe."""
    probes = []

    def counted(*args, **kwargs):
        probes.append(args)
        return vmin_for_skew(*args, **kwargs)

    monkeypatch.setattr(budget_module, "vmin_for_skew", counted)
    target = ns(0.15)
    vth = tune_threshold(target, fF(160), options=fast_options)
    assert len(probes) == 1
    achieved = extract_tau_min(
        fF(160), threshold=vth, tolerance=ns(0.01), options=fast_options
    )
    assert achieved == pytest.approx(target, rel=0.15)
    assert 2.0 < vth < 3.6


def test_tune_threshold_rejects_unreachable(fast_options):
    with pytest.raises(ValueError):
        tune_threshold(ns(5.0), fF(160), options=fast_options)
