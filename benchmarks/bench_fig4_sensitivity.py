"""Fig. 4 - Vmin vs skew for different loads and clock slopes.

Paper claims reproduced here:

* ``Vmin`` of the late output grows monotonically with the skew ``tau``;
* the sensitivity ``tau_min`` (crossing of the 2.75 V threshold) grows
  with load capacitance (paper: ~0.09 ns to ~0.16 ns over 80..240 fF);
* "for each load value ... the resulting curves are almost
  indistinguishable" across clock slews 0.1..0.4 ns.

The same (load, slew, skew) grid is also pushed through the lockstep
batch engine (``backend="batch"``, fresh integrations) and timed against
the serial scalar sweep; the extracted ``tau_min`` values must agree and
the throughputs land in ``out/BENCH_fig4_sensitivity.json``.

Warm-start coverage: the serial and batch legs run with prefix
warm-start on (the default), a cold serial reference leg
(``warm_start=False``: every job builds its own prefix, off the
checkpoint tier) must return the same ``tau_min`` values bit for bit,
and a ``tau_min`` leg times ``extract_tau_min`` warm vs cold (every
probe of the warm search forks the same cached prefix checkpoint):
:data:`TAU_EXTRACT_REPEATS` searches per side from an empty,
memory-only checkpoint tier, alternating which side runs first, and
the record keeps each side's median - one search takes ~0.1 s, too
short for a single timing to mean anything.

The stamp leg times :class:`repro.analog.kernels.ScalarKernel`'s two
level-1 stamp bodies - Python floats and numpy rows - on the sensor,
a 1-level and a 2-level H-tree and a 6x6 grid (two sensors grafted on
each, as ``bench_whole_tree.py`` builds them): the median microseconds
per evaluation, with and without the Jacobian, over rounds that each
time every circuit and alternate which body runs first.  In each round
a straight line in the device count is fitted to each body's times;
``crossover_devices``, the median over the rounds of the device count
where the lines cross (the smaller of the Jacobian's and the
residual's), is what :data:`repro.analog.kernels.FLOAT_STAMP_MAX_DEVICES`
quotes.  The two bodies must return the same bits on every evaluated
voltage vector.

The search leg counts ``extract_tau_min``'s probes per answer on the 12
(load, slew) pairs and on six off-nominal contexts (``Vth`` 2.25 and
3.25 V, ``W_n`` 1.2 and 8 um, the ss and ff corners; the three loads at
0.2 ns), checks every answer against a reference search at a tenth of
the tolerance, and measures how much shallower ``Vmin(tau)`` rises at
the crossing than the closed-form model implies - the ratio
``core.sensitivity.SLOPE_SHALLOWING`` is set from.
"""

import statistics
import time

import numpy as np

from repro.analog import kernels
from repro.analog.compile import CompiledCircuit
from repro.analog.kernels import ScalarKernel
from repro.core.model import estimate_tau_min, race_swing
from repro.core.sensing import SensorSizing
from repro.core.sensitivity import (
    SLOPE_SHALLOWING,
    extract_tau_min,
    sensitivity_family,
    vmin_for_skew,
)
from repro.devices.process import corner_process
from repro.runtime import reset_cache, sensitivity_job
from repro.runtime.jobs import job_circuit
from repro.units import VTH_INTERPRET, fF, ns, to_ns, um

from _util import (
    BENCH_OPTIONS,
    Stopwatch,
    Telemetry,
    emit,
    memory_only_caches,
    throughput_metrics,
    write_bench_json,
)
from bench_whole_tree import build_case

LOADS_FF = (80, 160, 240)
SLEWS_NS = (0.1, 0.2, 0.3, 0.4)
SKEWS_NS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)

#: Bar on scalar-vs-batch tau_min agreement: the Vmin curve crosses the
#: threshold with a slope of tens of volts per nanosecond, so even at the
#: coarse BENCH_OPTIONS grid the crossing moves by well under 5 ps.
TAU_MIN_TOL = ns(0.005)

#: ``extract_tau_min``'s default tolerance, and the reference search's.
SEARCH_TOL = ns(0.002)
REFERENCE_TOL = SEARCH_TOL / 10

#: Off-nominal contexts of the search leg (W_p = 2 W_n, as in
#: ``bench_ablation_sizing.py``), each at LOADS_FF and SEARCH_SLEW_NS.
SEARCH_CONTEXTS = {
    "vth_2.25": dict(threshold=2.25),
    "vth_3.25": dict(threshold=3.25),
    "wn_1.2um": dict(sizing=SensorSizing(w_n=um(1.2), w_p=um(2.4))),
    "wn_8um": dict(sizing=SensorSizing(w_n=um(8.0), w_p=um(16.0))),
    "ss": dict(process=corner_process("ss")),
    "ff": dict(process=corner_process("ff")),
}
SEARCH_SLEW_NS = 0.2

#: Bar on probes per answer, per context: on average the first probe,
#: the step off it and at most two Illinois steps.
SEARCH_PROBES_MAX = 4.0

#: Half-width of the span, as a fraction of tau_min, over which the
#: slope of Vmin(tau) at the crossing is measured.
SLOPE_SPAN = 0.05

#: Timed ``extract_tau_min`` searches per side of the ``tau_extract``
#: leg; the record keeps each side's median.
TAU_EXTRACT_REPEATS = 7

#: Circuits of the stamp leg beside the sensor: ``bench_whole_tree.py``
#: cases (topology, size), each with two sensors grafted.
STAMP_TREES = {
    "htree1": ("htree", (1, 3)),
    "grid6": ("grid", (6, 6)),
    "htree2": ("htree", (2, 3)),
}
#: Voltage vectors per timed pass and alternating rounds per body.
STAMP_EVALS = 200
STAMP_ROUNDS = 9

#: Bar on the float body's Jacobian-evaluation speedup on the sensor,
#: the circuit it exists for.
STAMP_SENSOR_SPEEDUP_MIN = 1.2


def _family(backend, telemetry, warm_start=True):
    """One fresh (cache-bypassing) Fig.-4 family on the given backend."""
    return sensitivity_family(
        loads=[fF(c) for c in LOADS_FF],
        slews=[ns(s) for s in SLEWS_NS],
        skews=[ns(t) for t in SKEWS_NS],
        options=BENCH_OPTIONS,
        backend=backend,
        cache=None,
        telemetry=telemetry,
        warm_start=warm_start,
    )


def _search_answer(load, slew, threshold=VTH_INTERPRET, process=None,
                   sizing=None):
    """One fresh ``extract_tau_min`` answer, its probe count, a
    reference answer at REFERENCE_TOL, and the model-implied slope of
    ``Vmin(tau)`` over the one measured across the reference crossing."""
    kwargs = dict(threshold=threshold, process=process, sizing=sizing,
                  options=BENCH_OPTIONS, cache=None)
    telemetry = Telemetry()
    tau = extract_tau_min(load, slew, telemetry=telemetry, **kwargs)
    reference = extract_tau_min(load, slew, tolerance=REFERENCE_TOL,
                                **kwargs)
    vmin = [
        vmin_for_skew((1.0 + side * SLOPE_SPAN) * reference, load, slew,
                      process=process, sizing=sizing, options=BENCH_OPTIONS,
                      cache=None)
        for side in (-1.0, 1.0)
    ]
    measured = (vmin[1] - vmin[0]) / (2.0 * SLOPE_SPAN * reference)
    model = (race_swing(process, threshold)
             / estimate_tau_min(load, sizing, process, threshold))
    return {
        "load_fF": load * 1e15, "slew_ns": slew * 1e9,
        "tau_min_s": tau, "reference_s": reference,
        "probes": telemetry.jobs_total, "slope_ratio": model / measured,
    }


def _search_summary(answers):
    return {
        "probes_per_answer": float(np.mean([a["probes"] for a in answers])),
        "deviation_max_s": max(abs(a["tau_min_s"] - a["reference_s"])
                               for a in answers),
        "slope_ratio_max": max(a["slope_ratio"] for a in answers),
        "answers": answers,
    }


def search_leg():
    """Probes per answer of the ``tau_min`` search, per context."""
    watch = Stopwatch()
    legs = {"fig4": _search_summary([
        _search_answer(fF(c), ns(s)) for c in LOADS_FF for s in SLEWS_NS
    ])}
    for name, context in SEARCH_CONTEXTS.items():
        legs[name] = _search_summary([
            _search_answer(fF(c), ns(SEARCH_SLEW_NS), **context)
            for c in LOADS_FF
        ])
    return {"tolerance_s": SEARCH_TOL, "reference_tolerance_s": REFERENCE_TOL,
            "slope_shallowing": SLOPE_SHALLOWING, "wall_s": watch.elapsed(),
            "contexts": legs}


def tau_extract_leg():
    """Warm against cold ``extract_tau_min`` at 160 fF: the median of
    :data:`TAU_EXTRACT_REPEATS` alternating searches per side, each
    from an empty, memory-only checkpoint tier."""
    walls = {False: [], True: []}
    taus = {False: set(), True: set()}
    with memory_only_caches():
        for repeat in range(TAU_EXTRACT_REPEATS):
            for warm in ((False, True) if repeat % 2 == 0
                         else (True, False)):
                reset_cache()
                watch = Stopwatch()
                taus[warm].add(extract_tau_min(
                    fF(160), options=BENCH_OPTIONS, cache=None,
                    warm_start=warm,
                ))
                walls[warm].append(watch.elapsed())
    cold_s = statistics.median(walls[False])
    warm_s = statistics.median(walls[True])
    return {
        "load_fF": 160.0,
        "repeats": TAU_EXTRACT_REPEATS,
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "cold_walls_s": walls[False],
        "warm_walls_s": walls[True],
        "speedup_warm_vs_cold": cold_s / warm_s,
        "tau_min_s": sorted(taus[False] | taus[True]),
    }


def _stamp_kernel(circuit, floats):
    """A :class:`ScalarKernel` of ``circuit`` on one stamp body."""
    saved = kernels.FLOAT_STAMP_MAX_DEVICES
    kernels.FLOAT_STAMP_MAX_DEVICES = circuit.m_d.size if floats else -1
    try:
        return ScalarKernel(circuit)
    finally:
        kernels.FLOAT_STAMP_MAX_DEVICES = saved


def _eval_us(kernel, voltages, with_jacobian):
    start = time.perf_counter()
    for v in voltages:
        kernel.eval(v, with_jacobian=with_jacobian)
    return (time.perf_counter() - start) / len(voltages) * 1e6


def _line_crossing(devices, times):
    """Device count where straight-line fits of the two bodies' times
    (``times[body]``, one per device count) cross, with the fits
    (``us = intercept + slope * devices``)."""
    fits = {}
    for body in ("floats", "numpy"):
        slope, intercept = np.polyfit(devices, times[body], 1)
        fits[body] = {"intercept_us": float(intercept),
                      "slope_us": float(slope)}
    crossing = ((fits["numpy"]["intercept_us"]
                 - fits["floats"]["intercept_us"])
                / (fits["floats"]["slope_us"] - fits["numpy"]["slope_us"]))
    return float(crossing), fits


def stamp_leg():
    """Float against numpy stamp-body eval times (module docstring)."""
    sensor, netlist = job_circuit(sensitivity_job(fF(160), ns(0.2), 0.0))
    circuits = {"sensor": netlist}
    for name, (topology, size) in STAMP_TREES.items():
        circuits[name] = build_case(topology, size)[0]
    rng = np.random.default_rng(4)
    cases = []
    for name, netlist in circuits.items():
        circuit = CompiledCircuit.compile(netlist)
        bodies = {"floats": _stamp_kernel(circuit, True),
                  "numpy": _stamp_kernel(circuit, False)}
        voltages = rng.uniform(0.0, sensor.vdd,
                               size=(STAMP_EVALS, circuit.n_total))
        mismatches = 0
        for v in voltages:
            f_a, j_a = bodies["floats"].eval(v)
            f_b, j_b = bodies["numpy"].eval(v)
            mismatches += not (np.array_equal(f_a, f_b)
                               and np.array_equal(j_a, j_b))
        cases.append((name, circuit, bodies, voltages, mismatches))
    # Every round times every circuit and body, so a slow spell of the
    # box scales all the lines the crossover is read from alike.
    times = {(name, body, jac): [] for name, *_ in cases
             for body in ("floats", "numpy") for jac in (True, False)}
    for round_ in range(STAMP_ROUNDS):
        for name, _, bodies, voltages, _ in cases:
            for body in (("floats", "numpy") if round_ % 2 == 0
                         else ("numpy", "floats")):
                for jac in (True, False):
                    times[name, body, jac].append(
                        _eval_us(bodies[body], voltages, jac))
    rows = [{
        "circuit": name,
        "devices": int(circuit.m_d.size),
        "free_nodes": int(circuit.n_free),
        "jacobian_us": {body: statistics.median(times[name, body, True])
                        for body in bodies},
        "residual_us": {body: statistics.median(times[name, body, False])
                        for body in bodies},
        "bit_mismatches": mismatches,
    } for name, circuit, bodies, _, mismatches in cases]
    devices = [row["devices"] for row in rows]
    record = {"evals": STAMP_EVALS, "rounds": STAMP_ROUNDS, "rows": rows,
              "fits": {}}
    for kind, jac in (("jacobian", True), ("residual", False)):
        record["fits"][kind] = _line_crossing(devices, {
            body: [row[f"{kind}_us"][body] for row in rows]
            for body in ("floats", "numpy")})[1]
        # One crossing per round, from times taken side by side; the
        # median of the rounds' crossings is the one recorded.
        per_round = [_line_crossing(devices, {
            body: [times[name, body, jac][k] for name, *_ in cases]
            for body in ("floats", "numpy")})[0]
            for k in range(STAMP_ROUNDS)]
        record[f"crossover_{kind}_rounds"] = per_round
        record[f"crossover_{kind}_devices"] = statistics.median(per_round)
    record["crossover_devices"] = min(record["crossover_jacobian_devices"],
                                      record["crossover_residual_devices"])
    return record


def run():
    tel_cold, tel_scalar, tel_batch = Telemetry(), Telemetry(), Telemetry()
    watch = Stopwatch()
    cold_curves = _family("serial", tel_cold, warm_start=False)
    t_cold = watch.restart()
    curves = _family("serial", tel_scalar)
    t_scalar = watch.restart()
    batch_curves = _family("batch", tel_batch)
    t_batch = watch.restart()
    return {
        "cold_curves": cold_curves, "curves": curves,
        "batch_curves": batch_curves,
        "t_cold": t_cold, "t_scalar": t_scalar, "t_batch": t_batch,
        "tel_cold": tel_cold, "tel_scalar": tel_scalar,
        "tel_batch": tel_batch,
        "tau_extract": tau_extract_leg(),
        "search": search_leg(),
        "stamp": stamp_leg(),
    }


def test_fig4_vmin_vs_skew(benchmark):
    leg = benchmark.pedantic(run, rounds=1, iterations=1)
    curves, batch_curves = leg["curves"], leg["batch_curves"]
    t_scalar, t_batch = leg["t_scalar"], leg["t_batch"]
    n_points = len(LOADS_FF) * len(SLEWS_NS) * len(SKEWS_NS)
    tau_deltas = np.array([
        abs(s.tau_min - b.tau_min)
        for s, b in zip(curves, batch_curves)
        if s.tau_min is not None and b.tau_min is not None
    ])
    warm_deltas = np.array([
        abs(w.tau_min - c.tau_min)
        for w, c in zip(curves, leg["cold_curves"])
        if w.tau_min is not None and c.tau_min is not None
    ])
    scalar_metrics = throughput_metrics(leg["tel_scalar"], t_scalar, n_points)
    batch_metrics = throughput_metrics(leg["tel_batch"], t_batch, n_points)
    write_bench_json("fig4_sensitivity", {
        "options": {"dt_max": BENCH_OPTIONS.dt_max,
                    "reltol": BENCH_OPTIONS.reltol},
        "grid": {"loads_fF": list(LOADS_FF), "slews_ns": list(SLEWS_NS),
                 "skews_ns": list(SKEWS_NS)},
        "scalar": {"backend": "serial", "cache_hit_rate": 0.0,
                   "kernel": dict(leg["tel_scalar"].kernel),
                   **scalar_metrics},
        "batch": {"backend": "batch", "cache_hit_rate": 0.0,
                  "kernel": dict(leg["tel_batch"].kernel),
                  **batch_metrics},
        "scalar_cold": {"backend": "serial", "warm_start": False,
                        "wall_s": leg["t_cold"],
                        "cold_samples_per_s": n_points / leg["t_cold"]},
        "speedup_batch_vs_serial": t_scalar / t_batch,
        "speedup_warm_vs_cold_serial": leg["t_cold"] / t_scalar,
        "tau_min_deviation_max_s": float(warm_deltas.max()),
        "tau_min_deviation_batch_s": float(tau_deltas.max()),
        "tau_extract": leg["tau_extract"],
        "search": leg["search"],
        "stamp": leg["stamp"],
    })
    assert len(tau_deltas) == len(curves), "batch lost a tau_min crossing"
    assert tau_deltas.max() <= TAU_MIN_TOL, (
        f"batch tau_min deviates {tau_deltas.max() * 1e12:.2f} ps"
    )
    assert len(warm_deltas) == len(curves), "warm start lost a crossing"
    # A cold job runs its warm twin's plan: the answers are equal.
    assert warm_deltas.max() == 0.0, (
        f"warm-start tau_min deviates {warm_deltas.max() * 1e12:.3f} ps"
    )
    assert len(leg["tau_extract"]["tau_min_s"]) == 1, (
        "warm search changed the returned tau_min"
    )
    stamp = leg["stamp"]
    assert all(row["bit_mismatches"] == 0 for row in stamp["rows"]), (
        "the float and numpy stamp bodies returned different bits"
    )
    sensor_row = stamp["rows"][0]
    assert (sensor_row["jacobian_us"]["numpy"]
            >= STAMP_SENSOR_SPEEDUP_MIN * sensor_row["jacobian_us"]["floats"]), (
        "the float stamp body lost its edge on the sensor"
    )
    contexts = leg["search"]["contexts"]
    for name, summary in contexts.items():
        # Each answer is within half a tolerance of the crossing, the
        # reference within half of its own.
        assert summary["deviation_max_s"] <= 0.5 * (SEARCH_TOL
                                                    + REFERENCE_TOL), name
        assert summary["probes_per_answer"] <= SEARCH_PROBES_MAX, name
    # The second probe must land past the crossing: the assumed slope
    # stays shallower than the measured one across the Fig. 4 grid.
    assert contexts["fig4"]["slope_ratio_max"] < SLOPE_SHALLOWING

    lines = [
        "Fig. 4 reproduction: Vmin of the late output vs skew tau",
        f"  threshold Vth = {VTH_INTERPRET:.2f} V",
        "",
        "  load  slew | " + "  ".join(f"{t:5.2f}" for t in SKEWS_NS) + "  (tau, ns)",
    ]
    tau_by_load = {}
    for curve in curves:
        row = "  ".join(f"{v:5.2f}" for v in curve.vmins)
        tau = curve.tau_min
        lines.append(
            f"  {curve.load * 1e15:4.0f}  {curve.slew * 1e9:4.1f} | {row}"
            f"   tau_min={to_ns(tau):.3f} ns"
        )
        tau_by_load.setdefault(curve.load, []).append(tau)
    lines.append("")
    lines.append("  sensitivity per load (mean over slews):")
    for load, taus in sorted(tau_by_load.items()):
        spread = (max(taus) - min(taus)) / np.mean(taus)
        lines.append(
            f"    C = {load * 1e15:4.0f} fF : tau_min = "
            f"{to_ns(float(np.mean(taus))):.3f} ns "
            f"(slew-induced spread {spread * 100:.1f} %)"
        )
    lines.append("  paper: tau_min ~= 0.09 .. 0.16 ns, slew-insensitive")
    lines.append("")
    lines.append(
        "  tau_min search: probes per answer (model slope / measured "
        "slope at the crossing, max)"
    )
    for name, summary in contexts.items():
        lines.append(
            f"    {name:9s} {summary['probes_per_answer']:4.2f} "
            f"({summary['slope_ratio_max']:.2f})"
        )
    lines.append("")
    lines.append(
        "  scalar stamp bodies, us per evaluation (median of "
        f"{STAMP_ROUNDS}), floats vs numpy:"
    )
    for row in stamp["rows"]:
        lines.append(
            f"    {row['circuit']:7s} {row['devices']:3d} devices  Jacobian "
            f"{row['jacobian_us']['floats']:6.1f} vs "
            f"{row['jacobian_us']['numpy']:6.1f}  residual "
            f"{row['residual_us']['floats']:6.1f} vs "
            f"{row['residual_us']['numpy']:6.1f}"
        )
    lines.append(
        f"    fitted crossover {stamp['crossover_devices']:.1f} devices "
        f"(Jacobian {stamp['crossover_jacobian_devices']:.1f}, residual "
        f"{stamp['crossover_residual_devices']:.1f}; median of "
        f"{STAMP_ROUNDS} rounds)"
    )
    emit("fig4_sensitivity", lines)

    # Shape claims.
    for curve in curves:
        assert np.all(np.diff(curve.vmins) > -1e-3), "Vmin must rise with tau"
        assert curve.tau_min is not None
    means = [float(np.mean(taus)) for _, taus in sorted(tau_by_load.items())]
    assert means == sorted(means), "tau_min must grow with load"
    assert ns(0.02) < means[0] < means[-1] < ns(0.3)
    for _, taus in sorted(tau_by_load.items()):
        assert (max(taus) - min(taus)) / np.mean(taus) < 0.15, \
            "curves must be nearly slew-independent"
