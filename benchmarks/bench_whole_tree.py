"""Whole-chip clock-tree transients: dense vs sparse MNA throughput.

The sparse subsystem (`repro.sparse`) exists for exactly one reason: a
whole-chip clock tree with sensing circuits attached is a 10^2..10^4
node MNA system, and the dense engine's O(n^2) Jacobian assembly and
O(n^3) refactorizations stop being an implementation detail there.  This
bench builds fully expanded buffered H-trees and TRIX-style grids (two
sensors grafted, the real workload of `repro whole-tree`) from ~40 to
~1400 nodes, times one short transient per Jacobian policy, and records:

* per case, the median dense and sparse wall over alternating rounds,
  and the backend ``jacobian_policy="auto"`` resolves to;
* ``crossover_free_nodes`` - the break-even of a power law fitted to
  the dense/sparse speedup of the cases below 500 free nodes; the cases
  between ~40 and ~130 free nodes bracket it, and
  ``repro.analog.engine.SPARSE_AUTO_NODES`` (recorded as
  ``sparse_auto_nodes``) is set from it;
* ``sparse_speedup`` - dense wall over sparse wall at the >=500-node
  cases.  ``tools/check_bench_regression.py`` flags any value at or
  below 1.0 unconditionally: the sparse path losing to dense at these
  sizes means its pattern reuse or factor caching broke;
* fill-in statistics - pattern nnz, LU fill nnz, and their ratio to the
  dense n^2, the structural reason the speedup exists;
* ``deviation_max_v`` - max |dense - sparse| waveform deviation over the
  cases, held to the subsystem's 1 uV equivalence contract.

scipy is imported before the first timed leg, so each leg pair differs
in the Jacobian policy only.  Runs standalone
(``python benchmarks/bench_whole_tree.py [--smoke]``) for the CI sparse
job - ``--smoke`` trims the transient window, times one round per case
and skips the 10^3-node showcase - or under pytest-benchmark with the
rest of the harness.
"""

import argparse
import statistics
import sys
import time

import numpy as np

from repro.analog.compile import CompiledCircuit
from repro.analog.engine import (
    SPARSE_AUTO_NODES,
    TransientOptions,
    resolve_jacobian_policy,
    transient,
)
from repro.clocktree.htree import build_h_tree
from repro.clocktree.tree import Buffer
from repro.clocktree.whole_tree import (
    GridNetlistBuilder,
    WholeTreeNetlistBuilder,
    attach_sensors,
    select_sensor_pairs,
)
from repro.devices.sources import ClockSource
from repro.sparse.linalg import scipy_splu
from repro.units import ns

from _util import emit, write_bench_json

#: (name, topology, size, timed rounds per policy).  ``size`` is
#: ``(levels, RC segments per wire)`` of an H-tree or ``(rows, cols)`` of
#: a grid.  The cases from "h1x6" to "htree2" bracket the dense/sparse
#: crossover; "grid10" and "htree2" are the 10x10 grid and the 2-level
#: H-tree (3 segments per wire) that `repro whole-tree` and the service
#: run.  The two largest cases time their dense leg once: it costs
#: tens of seconds and more.
CASES = [
    ("small", "htree", (1, 4), 7),
    ("grid6", "grid", (6, 6), 7),
    ("h1x6", "htree", (1, 6), 7),
    ("grid7", "grid", (7, 7), 7),
    ("h1x8", "htree", (1, 8), 7),
    ("h1x10", "htree", (1, 10), 7),
    ("grid8", "grid", (8, 8), 7),
    ("grid10", "grid", (10, 10), 7),
    ("htree2", "htree", (2, 3), 7),
    ("medium", "htree", (2, 5), 5),
    ("large", "htree", (3, 6), 1),
    ("xlarge", "htree", (4, 2), 1),
]

#: Node count from which the always-flagged ``sparse_speedup`` metric is
#: recorded (below it dense is allowed to win - and does, around n~50).
SPARSE_CONTRACT_NODES = 500

#: Dense-vs-sparse waveform equivalence bar, volts.
EQUIVALENCE_TOL = 1e-6

SETTLE = ns(1.0)


def build_case(topology: str, size):
    """One fully expanded H-tree or grid with two sensors grafted."""
    clock = ClockSource(period=ns(4.0), slew=ns(0.2), delay=SETTLE)
    if topology == "htree":
        levels, segments = size
        tree = build_h_tree(levels, buffer=Buffer())
        builder = WholeTreeNetlistBuilder(tree, segments_per_wire=segments)
        netlist = builder.build(clock)
        placements = builder.attach_sensors(select_sensor_pairs(tree, 2))
        initial = builder.initial_guess
    else:
        grid = GridNetlistBuilder(*size)
        netlist = grid.build(clock)
        placements, initial = attach_sensors(netlist, grid.mirrored_pairs(2))
    record = sorted({n for p in placements
                     for n in (p.node_a, p.node_b, p.y1, p.y2)})
    return netlist, initial, record


def time_policy(netlist, initial, record, policy: str, t_stop: float):
    """Wall time one transient under ``policy``; return (wall, result)."""
    options = TransientOptions(
        dt_max=100e-12, reltol=5e-3, jacobian_policy=policy
    )
    start = time.perf_counter()
    result = transient(netlist, t_stop=t_stop, record=record,
                       initial=initial, options=options)
    return time.perf_counter() - start, result


def max_deviation(result_a, result_b, record, t_stop: float) -> float:
    """Max |a - b| over the recorded nodes on a uniform sample grid."""
    grid = np.linspace(SETTLE, t_stop, 201)
    worst = 0.0
    for node in record:
        wave_a, wave_b = result_a.wave(node), result_b.wave(node)
        for t in grid:
            worst = max(worst, abs(wave_a.at(t) - wave_b.at(t)))
    return worst


def run(smoke: bool = False):
    """Run the size sweep; return (case rows, headline sparse_speedup)."""
    if scipy_splu() is None:
        raise RuntimeError("the whole-tree bench needs scipy "
                           "(pip install 'repro[sparse]')")
    t_stop = SETTLE + (ns(1.0) if smoke else ns(2.0))
    auto = TransientOptions(jacobian_policy="auto")
    rows = []
    for name, topology, size, rounds in CASES:
        if smoke and name == "xlarge":
            continue
        netlist, initial, record = build_case(topology, size)
        n_free = len(netlist.free_nodes())
        walls = {"reuse": [], "sparse": []}
        results = {}
        # Alternate the leg order so a slow spell hits both policies.
        for k in range(1 if smoke else rounds):
            for policy in (("reuse", "sparse") if k % 2 == 0
                           else ("sparse", "reuse")):
                wall, results[policy] = time_policy(
                    netlist, initial, record, policy, t_stop
                )
                walls[policy].append(wall)
        dense_s = statistics.median(walls["reuse"])
        sparse_s = statistics.median(walls["sparse"])
        kernel = results["sparse"].kernel_stats or {}
        nnz = int(kernel.get("sparse_nnz", 0))
        fill = int(kernel.get("sparse_fill_nnz", 0))
        row = {
            "case": name,
            "topology": topology,
            "n_nodes": len(netlist.nodes()),
            "n_free": n_free,
            "auto_backend": resolve_jacobian_policy(
                CompiledCircuit.compile(netlist), auto)[0],
            "rounds": len(walls["reuse"]),
            "steps": len(results["sparse"]),
            "dense_s": dense_s,
            "sparse_s": sparse_s,
            "sparse_nnz": nnz,
            "sparse_fill_nnz": fill,
            "density": nnz / max(n_free, 1) ** 2,
            "fill_ratio": fill / max(nnz, 1),
            "deviation_max_v": max_deviation(
                results["reuse"], results["sparse"], record, t_stop
            ),
        }
        # The always-flag regression rule only makes sense where the
        # contract says sparse must win; smaller cases record their
        # ratio under a key the checker ignores.
        key = ("sparse_speedup" if n_free >= SPARSE_CONTRACT_NODES
               else "speedup")
        row[key] = dense_s / sparse_s
        rows.append(row)
    contract = [r["sparse_speedup"] for r in rows if "sparse_speedup" in r]
    return rows, min(contract, default=None)


def crossover_free_nodes(rows) -> int:
    """Break-even of ``speedup = (n_free / n0) ** k``, a power law
    fitted by least squares to the cases below the contract size: the
    ``n0`` from which the sparse leg is expected to win."""
    small = [r for r in rows if "speedup" in r]
    k, c = np.polyfit(np.log([r["n_free"] for r in small]),
                      np.log([r["speedup"] for r in small]), 1)
    return int(round(np.exp(-c / k)))


def report(rows, headline, smoke: bool) -> int:
    """Emit the table + BENCH JSON; non-zero on a contract violation."""
    crossover = crossover_free_nodes(rows)
    deviation = max(r["deviation_max_v"] for r in rows)
    lines = [
        "Whole-chip clock-tree transients: dense vs sparse MNA",
        "  case     nodes  free  auto    steps  dense_s  sparse_s"
        "  speedup    nnz  LU fill",
    ]
    for row in rows:
        speed = row.get("sparse_speedup", row.get("speedup"))
        lines.append(
            f"  {row['case']:<8} {row['n_nodes']:>5} {row['n_free']:>5}"
            f"  {row['auto_backend']:<6} {row['steps']:>6}"
            f"  {row['dense_s']:7.3f}  {row['sparse_s']:8.3f}"
            f"  {speed:6.2f}x  {row['sparse_nnz']:>6} {row['sparse_fill_nnz']:>8}"
        )
    lines.append(
        f"  measured crossover (power-law fit): {crossover} free nodes;"
        f" engine SPARSE_AUTO_NODES = {SPARSE_AUTO_NODES}"
    )
    lines.append(
        f"  dense-vs-sparse deviation (worst case): {deviation:.1e} V"
    )
    emit("whole_tree", lines)
    write_bench_json("whole_tree", {
        "smoke": smoke,
        "cases": rows,
        "crossover_free_nodes": crossover,
        "sparse_auto_nodes": SPARSE_AUTO_NODES,
        "sparse_speedup": headline,
        "deviation_max_v": deviation,
    })

    status = 0
    if deviation > EQUIVALENCE_TOL:
        print("FAIL: dense-vs-sparse deviation above 1 uV", file=sys.stderr)
        status = 1
    if headline is not None and headline <= 1.0:
        print("FAIL: sparse path no faster than dense at >=500 nodes",
              file=sys.stderr)
        status = 1
    return status


def test_whole_tree_scaling(benchmark):
    """Pytest-benchmark entry: full sweep + the subsystem's shape claims."""
    rows, headline = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report(rows, headline, smoke=False) == 0
    # Shape claims: the sparse pattern stays O(n) (density collapses as n
    # grows), the 10^3-node case completes on the sparse path, "auto"
    # runs the CLI's 2-level H-tree sparse and the smallest case dense,
    # and the contract speedup is comfortably above the flag line.
    by_name = {row["case"]: row for row in rows}
    assert by_name["xlarge"]["n_nodes"] >= 1000
    assert by_name["xlarge"]["steps"] > 0
    assert by_name["large"]["density"] < by_name["small"]["density"]
    assert by_name["htree2"]["auto_backend"] == "sparse"
    assert by_name["small"]["auto_backend"] == "dense"
    assert headline is not None and headline > 10.0


def main(argv=None) -> int:
    """Standalone entry for the CI sparse job."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short window, one round, skip the xlarge case")
    args = parser.parse_args(argv)
    rows, headline = run(smoke=args.smoke)
    return report(rows, headline, smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
