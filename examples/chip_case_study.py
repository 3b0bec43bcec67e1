"""Case study: adopting the testing scheme on a synthetic chip.

A start-to-finish walkthrough of everything a design team would do:

1. floorplan: 24 register clusters scattered on a 12 mm die;
2. route a zero-skew clock tree over them (the DME baseline);
3. derive the machine's skew budget from its pipeline timing and tune
   the sensor's interpretation threshold to it;
4. place sensors on the critical wire pairs (the paper's two criteria)
   and account for the instrumentation overhead;
5. sign-off: the instrumented tree must not trigger its own sensors;
6. production: run an off-line test session (scan path) and an on-line
   monitoring window (checker) against a mixed fault campaign.

Run:  python examples/chip_case_study.py
"""

import numpy as np

from repro.clocktree import (
    Buffer,
    BufferSlowdown,
    CrosstalkCoupling,
    IntermittentFault,
    ResistiveOpen,
    build_zero_skew_tree,
    monitoring_campaign,
    recommend_sensitivity,
    sink_delays,
    skew_budget,
    tune_threshold,
)
from repro.core.overhead import scheme_overhead
from repro.core.sensitivity import extract_tau_min
from repro.testing.scheme import ClockTestingScheme
from repro.units import fF, ns, to_ns


def main():
    # ------------------------------------------------------------ 1+2
    rng = np.random.default_rng(2026)
    sinks = [
        (f"reg{k:02d}",
         (float(rng.uniform(0, 12e-3)), float(rng.uniform(0, 12e-3))),
         float(rng.uniform(40e-15, 90e-15)))
        for k in range(24)
    ]
    tree = build_zero_skew_tree(sinks, root_buffer=Buffer(), name="chip-clk")
    delays = sink_delays(tree)
    spread = max(delays.values()) - min(delays.values())
    print(f"1-2. routed {len(sinks)} clusters, "
          f"insertion {to_ns(np.mean(list(delays.values()))):.2f} ns, "
          f"design skew {to_ns(spread) * 1000:.2f} ps, "
          f"wire {tree.total_wire_length() * 1e3:.1f} mm")

    # ------------------------------------------------------------ 3
    budget = skew_budget(
        period=ns(8.0), comb_min=ns(0.4), comb_max=ns(6.4),
        clk_to_q=ns(0.2), setup=ns(0.1), hold=ns(0.05),
    )
    target = recommend_sensitivity(budget, margin=0.8)
    vth = tune_threshold(target, fF(160))
    tau_min = extract_tau_min(fF(160), threshold=vth, tolerance=ns(0.01))
    print(f"3.   skew budget [{to_ns(budget.min_skew):+.2f}, "
          f"{to_ns(budget.max_skew):+.2f}] ns -> tuned Vth = {vth:.2f} V, "
          f"tau_min = {to_ns(tau_min):.3f} ns")

    # ------------------------------------------------------------ 4+5
    scheme = ClockTestingScheme.plan(
        tree, tau_min=tau_min, max_distance=5e-3, top_k=8
    )
    cost = scheme_overhead(scheme)
    print(f"4.   placed {cost.n_sensors} sensors "
          f"({cost.total_transistors} transistors, "
          f"{cost.total_active_area * 1e12:.0f} um^2, worst wire load "
          f"+{cost.worst_added_load * 1e15:.0f} fF)")
    ok = cost.induced_skew < tau_min
    print(f"5.   instrumentation-induced skew "
          f"{to_ns(cost.induced_skew) * 1000:.1f} ps "
          f"{'< tau_min: sign-off PASS' if ok else '>= tau_min: FAIL'}")
    assert ok

    # ------------------------------------------------------------ 6
    victim = scheme.placements[0].pair.sink_a
    print("\n6.   production campaign:")
    campaign = [
        ("off-line: healthy die", None),
        ("off-line: resistive open (10 kohm)",
         ResistiveOpen(node=victim, extra_resistance=10_000.0)),
        ("off-line: crosstalk (+700 fF)",
         CrosstalkCoupling(node=victim, coupling_capacitance=700e-15)),
    ]
    buffered = [n.name for n in tree.walk()
                if n.buffer is not None and n.parent is not None]
    if buffered:
        campaign.append(
            ("off-line: buffer degradation x1.5",
             BufferSlowdown(node=buffered[0], factor=1.5))
        )
    for label, fault in campaign:
        scheme.reset()
        state = fault.apply(tree) if fault is not None else None
        scheme.observe(state)
        bits = scheme.scan_out()
        print(f"     {label:<38} scan {bits} "
              f"{'-> REJECT' if 1 in bits else '-> ship'}")

    # On-line: an intermittent supply disturbance, 12-cycle window.
    scheme.reset()
    flaky = IntermittentFault(
        fault=ResistiveOpen(node=victim, extra_resistance=10_000.0),
        active_cycles=frozenset({7}),
    )
    result = monitoring_campaign(scheme, flaky, cycles=12)
    print(f"     on-line: transient open active only in cycle 7:")
    print(f"       checker alarm cycles : {result.online_alarm_cycles}")
    print(f"       latched for diagnosis: {scheme.flagged_pairs()}")
    print(f"       off-line session at cycle 0 would have "
          f"{'caught' if result.offline_session_detects else 'MISSED'} it")


if __name__ == "__main__":
    main()
