#!/usr/bin/env python
"""Compare fresh BENCH_*.json throughput against committed baselines.

Walks every ``BENCH_*.json`` in the baseline directory, finds each
``samples_per_s`` figure (at any nesting depth - the records keep one
per backend leg), looks up the same path in the freshly generated file
and reports the relative change.  A figure that regressed by more than
the threshold (default 25 %) is emitted as a GitHub Actions
``::warning::`` annotation, so the non-blocking CI job flags it on the
run without failing the build - shared-runner timings are noisy, and a
human should look before anyone reverts.

``prefix_hit_rate`` figures are checked too, with a sharper rule: a
rate that was positive in the baseline and is exactly zero in the fresh
record means the prefix warm-start planner stopped engaging (a silent
functional regression, not timing noise), so it is always flagged.

``concurrency_speedup`` figures (the service scheduler bench) get the
same kind of functional rule: a speedup that was above 1.0 in the
baseline and has fallen to 1.0 or below means the concurrent scheduler
stopped overlapping campaigns (serialisation bug), so it is always
flagged regardless of the timing threshold.

``sparse_speedup`` figures (the whole-tree bench) carry the strictest
rule: any fresh value at or below 1.0 is flagged even without a
baseline entry - the sparse MNA path losing to dense assembly at
10^3-node clock trees means its pattern reuse or factor caching broke.

``shard_speedup`` figures (the batch benches' sharded leg) get the same
unconditional rule: the sharded leg runs on two shard workers, and the
whole point of fanning stacks over a pool is to multiply the
SIMD gain by the core count - a value at or below 1.0 on a multi-core
runner means sharding costs more than it buys (IPC, lost prefix
sharing, serialised stacks) and must be looked at, baseline or not.
The one principled exception: a record whose own ``cpu_count`` says the
box had a single core measured pure fan-out overhead (two forked
workers time-slicing one CPU cannot beat one in-process worker), so
the rule only fires where a fan-out could have won.

Each metric's rule is one entry of :data:`RULES`, walked by one loop.

Usage::

    python tools/check_bench_regression.py \
        --baseline benchmarks/baseline --fresh benchmarks/out

Exit status is 0 even when regressions are found unless ``--strict``
is given (for local use, where timings are trustworthy).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

#: Relative slowdown above which a figure is flagged.
DEFAULT_THRESHOLD = 0.25

#: The metric compared; every BENCH record carries one per backend leg.
METRIC = "samples_per_s"


@dataclass(frozen=True)
class Rule:
    """How one metric's figures are judged.

    ``floor`` is the baseline value a figure must exceed to be checked
    (figures are matched by JSON path); ``None`` makes the rule
    fresh-only, judging every fresh figure with no baseline needed.
    ``fails(fresh, base, threshold)`` is the verdict.  ``row`` and
    ``warning`` are formatted with ``fresh``/``base``/``change``/``drop``;
    ``absent`` says what a baseline figure missing from the fresh record
    suggests.  ``single_core_ok`` excuses a failing figure whose fresh
    record reports ``cpu_count < 2``.
    """

    metric: str
    floor: Optional[float]
    fails: Callable[[float, Optional[float], float], bool]
    row: str
    warning: str
    absent: str = ""
    single_core_ok: bool = False


#: Every rule, in report order.
RULES = (
    # Throughput: a relative drop beyond the threshold.
    Rule(METRIC, 0.0,
         lambda fresh, base, threshold: (fresh - base) / base < -threshold,
         row="{fresh:8.2f} vs baseline {base:8.2f} ({change:+.1%})",
         warning="regressed {drop:.1f}% ({base:.2f} -> {fresh:.2f} "
                 "samples_per_s)",
         absent="bench telemetry changed?"),
    # Warm start: the planner stopped engaging entirely (not noise).
    Rule("prefix_hit_rate", 0.0,
         lambda fresh, base, threshold: fresh == 0.0,
         row="{fresh:8.2f} vs baseline {base:8.2f}",
         warning="dropped to zero (baseline {base:.2f}) - prefix "
                 "warm-start no longer engages",
         absent="warm-start telemetry no longer reported?"),
    # Scheduler: two slots no longer beat one at all (not noise).
    Rule("concurrency_speedup", 1.0,
         lambda fresh, base, threshold: fresh <= 1.0,
         row="{fresh:7.2f}x vs baseline {base:7.2f}x",
         warning="fell to {fresh:.2f}x (baseline {base:.2f}x) - concurrent "
                 "campaigns no longer overlap",
         absent="concurrency bench telemetry changed?"),
    # Sparse MNA losing to dense at whole-tree sizes: pattern reuse or
    # factor caching broke.
    Rule("sparse_speedup", None,
         lambda fresh, base, threshold: fresh <= 1.0,
         row="{fresh:7.2f}x sparse-vs-dense",
         warning="at {fresh:.2f}x - sparse MNA no longer beats the dense "
                 "path at whole-tree node counts"),
    # Sharded stacks losing to one worker: the fan-out is broken - except
    # on a single-core box, where the record measured pure overhead.
    Rule("shard_speedup", None,
         lambda fresh, base, threshold: fresh <= 1.0,
         row="{fresh:7.2f}x sharded-vs-single",
         warning="at {fresh:.2f}x - sharded batch stacks no longer beat "
                 "the single-worker batch path",
         single_core_ok=True),
)


def iter_metrics(
    record: object, metric: str = METRIC, path: str = ""
) -> Iterator[Tuple[str, float]]:
    """Yield ``(json_path, value)`` for every ``metric`` entry."""
    if isinstance(record, dict):
        for key, value in sorted(record.items()):
            where = f"{path}.{key}" if path else key
            if key == metric and isinstance(value, (int, float)):
                yield where, float(value)
            else:
                yield from iter_metrics(value, metric, where)
    elif isinstance(record, list):
        for index, value in enumerate(record):
            yield from iter_metrics(value, metric, f"{path}[{index}]")


def load_metrics(path: str, metric: str = METRIC) -> Dict[str, float]:
    """All ``metric`` figures of one BENCH file, keyed by JSON path."""
    with open(path) as handle:
        return dict(iter_metrics(json.load(handle), metric))


def _figures(
    rule: Rule, base_doc: object, fresh_doc: object, name: str
) -> Iterator[Tuple[str, float, Optional[float]]]:
    """``(where, fresh, base)`` of every figure ``rule`` judges."""
    fresh = dict(iter_metrics(fresh_doc, rule.metric))
    if rule.floor is None:
        for where, value in sorted(fresh.items()):
            yield where, value, None
        return
    for where, base in sorted(iter_metrics(base_doc, rule.metric)):
        if base <= rule.floor:
            continue
        if where not in fresh:
            # A metric the fresh record stopped emitting is itself a
            # signal (telemetry regression), not a silent skip.
            print(
                f"::warning file={name}::{where} ({rule.metric}) absent "
                f"from the fresh record - {rule.absent}"
            )
            continue
        yield where, fresh[where], base


def compare(
    baseline_dir: str, fresh_dir: str, threshold: float
) -> Tuple[int, int]:
    """Print a comparison table; return (figures_compared, regressions)."""
    compared = regressions = 0
    pattern = os.path.join(baseline_dir, "BENCH_*.json")
    baselines = sorted(glob.glob(pattern))
    if not baselines:
        print(f"no BENCH_*.json baselines under {baseline_dir}")
        return 0, 0
    for baseline_path in baselines:
        name = os.path.basename(baseline_path)
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(fresh_path):
            print(f"{name}: no fresh record (bench not rerun) - skipped")
            continue
        try:
            with open(baseline_path) as handle:
                base_doc = json.load(handle)
            with open(fresh_path) as handle:
                fresh_doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(
                f"::warning file={name}::unreadable bench record "
                f"({type(error).__name__}: {error}) - skipped"
            )
            continue
        cores = fresh_doc.get("cpu_count") or 0
        for rule in RULES:
            for where, fresh, base in _figures(rule, base_doc, fresh_doc, name):
                compared += 1
                change = (fresh - base) / base if base else 0.0
                values = dict(fresh=fresh, base=base, change=change,
                              drop=-change * 100)
                marker = "ok"
                if rule.fails(fresh, base, threshold):
                    if rule.single_core_ok and cores < 2:
                        marker = ("ok (single-core box: overhead-only "
                                  "measurement)")
                    else:
                        regressions += 1
                        marker = "REGRESSED"
                        print(f"::warning file={name}::{where} "
                              + rule.warning.format(**values))
                print(f"{name}: {where} = {rule.row.format(**values)} {marker}")
    return compared, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", default="benchmarks/baseline",
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh", default="benchmarks/out",
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative slowdown that counts as a regression (default 0.25)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when any figure regressed (local runs)",
    )
    args = parser.parse_args(argv)
    compared, regressions = compare(args.baseline, args.fresh, args.threshold)
    print(
        f"compared {compared} throughput figure(s); "
        f"{regressions} regressed more than {args.threshold:.0%}"
    )
    return 1 if (args.strict and regressions) else 0


if __name__ == "__main__":
    sys.exit(main())
