#!/usr/bin/env python3
"""Benchmark of the campaign stack, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload mc_scatter --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed amount of work twice, traced and untraced,
and reports the per-layer metrics (see ``layers.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each workload runs in its own child process under a wall-time limit; a
workload that raises or hangs is reported with its partial counts.  The
program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of a run (caches, stores, child results) and the
#: traced runs' span files; inside the checkout, ignored by git.
WORK = ROOT / ".perfbench"

WORKLOADS = ("mc_scatter", "tau_search", "tree_sparse", "service_mix")

#: (name, unit, better) of the end-to-end metrics, in report order.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("answer_p50_s", "s", "lower"),
    ("answer_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
]

#: Setup-only child processes per untraced run; ``setup_s`` is the
#: median over these and the measuring child.
SETUP_REPEATS = 4

#: Wall-time budget of one workload, all its children included.
BUDGET_S = 170.0


def tail(latencies: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    ten answers beyond it; the maximum (100) when there are ten or
    fewer answers."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


# --------------------------------------------------------------------- #
# Child process: one workload, one measured region.
# --------------------------------------------------------------------- #

def _write(path: Path, payload: Dict[str, Any]) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def _child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS[args.child]
    work = Path(args.work_dir)
    if args.setup_only:
        workload = cls(args.seed, work / "setup")
        try:
            workload.setup()
            ready = time.monotonic()
            scale = workloads.REFERENCE_S / workloads.calibrate()
        finally:
            workload.teardown()
        _write(work / "child.json", {"setup_s": ready - args.spawned,
                                     "scale": scale})
        return 0
    if args.trace:
        out = _traced(workloads, cls, args, work)
    else:
        out = _timed(workloads, cls, args, work)
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["rss_mb"] = usage / 1024.0
    _write(work / "child.json", out)
    return 0


def _progress(work: Path, answers: Any) -> None:
    _write(work / "progress.json",
           {"attempted": answers.attempted, "failed": answers.failed})


def _record(workload: Any, answers: Any, seed: int) -> Dict[str, Any]:
    from repro.sparse.linalg import scipy_available

    return {"seed": seed, "nproc": os.cpu_count(),
            "scipy": scipy_available(), **workload.record,
            "problems": answers.problems[:5]}


def _timed(workloads: Any, cls: Any, args: argparse.Namespace,
           work: Path) -> Dict[str, Any]:
    answers = workloads.Answers()
    workload = cls(args.seed, work / "run")
    planned = workloads.passes(args.child, args.seconds)
    #: Wall seconds, jobs, answer latencies and speed scale of every
    #: finished pass.
    passes: List[Dict[str, Any]] = []
    try:
        workload.setup()
        ready = time.monotonic()
        speeds = [workloads.calibrate()]
        t0 = last = time.perf_counter()
        jobs = answered = 0

        def keep_going(done: int) -> bool:
            nonlocal last, jobs, answered
            now = time.perf_counter()
            speeds.append(workloads.calibrate())
            if done:
                passes.append({
                    "wall_s": now - last, "jobs": answers.jobs - jobs,
                    "latencies": answers.latencies[answered:],
                    # The machine's speed around this pass, measured by
                    # the reference loop before and after it.
                    "scale": 2 * workloads.REFERENCE_S / sum(speeds[-2:]),
                })
            jobs, answered = answers.jobs, len(answers.latencies)
            _progress(work, answers)
            last = time.perf_counter()
            # A fixed number of passes keeps the answer count, and so the
            # tail percentile, the same from run to run; on a machine much
            # slower than the sizing box the run stops after 1.5 x
            # ``--seconds`` instead.
            return done < planned and now - t0 < 1.5 * args.seconds

        workload.run(answers, keep_going)
        workload.check(answers)
    finally:
        workload.teardown()
    return {"setup_s": ready - args.spawned,
            "scale": workloads.REFERENCE_S / speeds[0], "passes": passes,
            "attempted": answers.attempted, "failed": answers.failed,
            "record": _record(workload, answers, args.seed)}


def _traced(workloads: Any, cls: Any, args: argparse.Namespace,
            work: Path) -> Dict[str, Any]:
    from spans import Tracer

    # Half the work of an untraced run, so traced plus untraced take
    # about ``--seconds``; fixed, so counts repeat exactly for one seed.
    passes = workloads.passes(args.child, args.seconds / 2)
    answers = workloads.Answers()
    tracer = Tracer()
    tracer.install(layers.TARGETS, extra_modules=[workloads])
    workload = cls(args.seed, work / "traced", tracer)
    try:
        try:
            workload.setup()
            speed = workloads.calibrate()
            with tracer.region():
                workload.run(answers, lambda k: k < passes)
        finally:
            tracer.restore()
        workload.check(answers)
    finally:
        workload.teardown()
    # The same work untraced: the base of trace.overhead_ratio, both
    # walls scaled by the machine's speed around them.
    traced_speed = (speed + workloads.calibrate()) / 2
    plain = cls(args.seed, work / "plain")
    try:
        plain.setup()
        speed = workloads.calibrate()
        t0 = time.perf_counter()
        plain.run(workloads.Answers(), lambda k: k < passes)
        untraced = time.perf_counter() - t0
        untraced *= traced_speed * 2 / (speed + workloads.calibrate())
    finally:
        plain.teardown()
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{args.child}-seed{args.seed}.json"
    spans.write_text(json.dumps(tracer.dump()))
    return {"metrics": layers.per_layer(tracer, workload.counters, untraced),
            "attempted": answers.attempted, "failed": answers.failed,
            "record": {**_record(workload, answers, args.seed),
                       "passes": passes, "spans": str(spans.relative_to(ROOT))}}


# --------------------------------------------------------------------- #
# Parent: children under a time limit, metrics, report.
# --------------------------------------------------------------------- #

def _spawn(name: str, args: argparse.Namespace, work: Path, limit: float,
           setup_only: bool = False) -> Tuple[Optional[Dict[str, Any]], str]:
    """Run one child; ``(result, "")`` or ``(None, why it failed)``."""
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "run.py"), "--child", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--spawned", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    why = ""
    try:
        code = proc.wait(timeout=max(1.0, limit))
        if code != 0:
            why = f"exited with status {code}"
    except subprocess.TimeoutExpired:
        why = f"still running after {limit:.0f} s"
    finally:
        # The child's session holds its pool workers too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    result = work / "child.json"
    if why or not result.is_file():
        return None, why or "wrote no result"
    return json.loads(result.read_text()), ""


def _timings(passes: List[Dict[str, Any]], setups: List[Tuple[float, float]],
             scaled: bool) -> Dict[str, float]:
    """The time-based metrics, optionally at the sizing box's speed."""
    def k(scale: float) -> float:
        return scale if scaled else 1.0

    latencies = [v * k(p["scale"]) for p in passes for v in p["latencies"]]
    value, percentile = tail(latencies)
    return {
        "setup_s": statistics.median(s * k(scale) for s, scale in setups),
        # Throughput and median latency are medians over passes, so a
        # slow spell of the machine during a minority of the passes does
        # not move them; the tail pools every answer.
        "jobs_per_s": statistics.median(
            p["jobs"] / (p["wall_s"] * k(p["scale"])) for p in passes),
        "answer_p50_s": statistics.median(
            statistics.median(p["latencies"]) * k(p["scale"]) for p in passes),
        "answer_tail_s": value,
        "tail_percentile": percentile,
        "answers": len(latencies),
    }


def _end_to_end(out: Dict[str, Any],
                setups: List[Tuple[float, float]]) -> Dict[str, float]:
    passes = [p for p in out["passes"] if p["latencies"]]
    metrics = _timings(passes, setups, scaled=True)
    raw = _timings(passes, setups, scaled=False)
    out["record"].update(
        passes=len(passes),
        tail={"percentile": metrics.pop("tail_percentile"),
              "answers": metrics.pop("answers")},
        speed=statistics.median(1.0 / p["scale"] for p in passes),
        unscaled={name: raw[name] for name in metrics},
    )
    metrics["peak_rss_mb"] = out["rss_mb"]
    metrics["ok_frac"] = 1.0 - out["failed"] / out["attempted"]
    return metrics


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """One workload: setup repeats, the measuring child, its metrics."""
    deadline = time.monotonic() + BUDGET_S
    work = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    setups: List[Tuple[float, float]] = []
    try:
        if not args.trace:
            for i in range(SETUP_REPEATS):
                out, why = _spawn(name, args, work / f"setup{i}",
                                  min(60.0, deadline - time.monotonic()),
                                  setup_only=True)
                if out is None:
                    return _failure(name, work / f"setup{i}", why)
                setups.append((out["setup_s"], out["scale"]))
        out, why = _spawn(name, args, work / "main", deadline - time.monotonic())
        if out is None:
            return _failure(name, work / "main", why)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = out["metrics"]
        spec = layers.PER_LAYER
    else:
        setups.append((out["setup_s"], out["scale"]))
        metrics = _end_to_end(out, setups)
        spec = END_TO_END
    return {
        "name": name, "done": True,
        "correct": out["failed"] == 0, "attempted": out["attempted"],
        "failed": out["failed"], "record": out["record"],
        "metrics": {m: {"value": metrics[m], "unit": unit}
                    for m, unit, _ in spec},
    }


def _failure(name: str, work: Path, why: str) -> Dict[str, Any]:
    """Report a workload that raised or hung, with its partial counts."""
    progress = work / "progress.json"
    counts = (json.loads(progress.read_text()) if progress.is_file()
              else {"attempted": 0, "failed": 0})
    # The answer in flight when it died counts as attempted and failed.
    attempted, failed = counts["attempted"] + 1, counts["failed"] + 1
    print(f"{name}: FAILED ({why}); {attempted} answers attempted, "
          f"{failed} failed", file=sys.stderr)
    return {"name": name, "done": False, "correct": False,
            "attempted": attempted, "failed": failed,
            "record": {"error": why}, "metrics": {}}


def _print_report(results: List[Dict[str, Any]]) -> None:
    for result in results:
        print(f"{result['name']}: {result['attempted']} answers, "
              f"{result['failed']} failed")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  record: {json.dumps(result['record'], sort_keys=True)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)
    # Unwind on SIGTERM too, so every child session gets killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'} not found)",
              file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args) for name in names]
    _print_report(results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{m}": entry
                   for r in results for m, entry in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if all(r["done"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
