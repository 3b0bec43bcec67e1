"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# --------------------------------------------------------------------- #
# Inputs are a function of the seed.
# --------------------------------------------------------------------- #

def _inputs(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name](seed, tmp_path / f"{name}-{seed}")
    if name == "service_mix":  # its setup starts a server; specs suffice
        return [workload._specs(c, k) for c in range(2) for k in range(3)]
    workload.setup()
    try:
        if name == "mc_scatter":
            return [[job.key() for job in jobs]
                    for jobs in workload.campaigns + [workload.held_out]]
        if name == "tau_search":
            return workload.pairs, workload.held_out
        return workload.passes
    finally:
        workload.teardown()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = _inputs(name, 3, tmp_path)
    assert _inputs(name, 3, tmp_path / "again") == first
    assert _inputs(name, 4, tmp_path) != first


# --------------------------------------------------------------------- #
# The tail-percentile rule.
# --------------------------------------------------------------------- #

def test_tail_is_highest_percentile_with_ten_beyond():
    latencies = [float(v) for v in range(1, 101)]  # 1..100, shuffled below
    value, percentile = run.tail(latencies[::-1])
    assert (value, percentile) == (90.0, 90.0)
    assert sum(v > value for v in latencies) == 10
    value, percentile = run.tail([float(v) for v in range(20)])
    assert (value, percentile) == (9.0, 50.0)


def test_tail_of_ten_or_fewer_answers_is_the_maximum():
    assert run.tail([0.3, 0.1, 0.2]) == (0.3, 100.0)
    assert run.tail([float(v) for v in range(10)]) == (9.0, 100.0)


# --------------------------------------------------------------------- #
# Self time on a synthetic span tree.
# --------------------------------------------------------------------- #

def _span(layer, start, end, parent, wait=False):
    span = spans.Span(layer, layer, parent, None, wait)
    span.start, span.end = start, end
    return span


def test_self_time_splits_the_root_exactly():
    root = _span(spans.ROOT, 0.0, 10.0, None)
    a = _span("a", 1.0, 5.0, root)
    b = _span("b", 2.0, 3.0, a)             # nested: a loses [2, 3]
    c = _span("c", 6.0, 8.0, root)          # concurrent with d on [7, 8]
    d = _span("d", 7.0, 9.0, root)
    e = _span("e", 8.5, 9.5, root, wait=True)  # waits behind d on [8.5, 9]
    shares = spans.attribute([root, a, b, c, d, e], root)
    assert shares == pytest.approx({
        spans.ROOT: 2.5, "a": 3.0, "b": 1.0, "c": 1.5, "d": 1.5, "e": 0.5,
    })
    assert sum(shares.values()) == pytest.approx(root.duration)


def test_spans_outside_the_root_are_clipped():
    root = _span(spans.ROOT, 0.0, 4.0, None)
    early = _span("a", -2.0, 1.0, None)     # set-up spill-over
    late = _span("b", 3.0, 6.0, root)
    shares = spans.attribute([root, early, late], root)
    assert shares == pytest.approx({spans.ROOT: 2.0, "a": 1.0, "b": 1.0})


def test_recorded_spans_nest_and_tag_answers():
    tracer = spans.Tracer()
    with tracer.region():
        with tracer.answer(7), tracer.span("a", "outer") as outer:
            with tracer.span("b", "inner") as inner:
                pass
    assert inner.parent is outer and outer.parent is tracer.root
    assert inner.answer == outer.answer == 7
    shares = spans.attribute(tracer.spans, tracer.root)
    assert sum(shares.values()) == pytest.approx(tracer.root.duration)


# --------------------------------------------------------------------- #
# Wrappers leave nothing behind.
# --------------------------------------------------------------------- #

def _wrapped_names():
    found = []
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") or module is workloads:
            for attr, value in list(vars(module).items()):
                if getattr(value, "perfbench_wrapper", False):
                    found.append(f"{name}.{attr}")
    from repro.analog.compile import CompiledCircuit
    from repro.runtime.cache import ResultCache
    from repro.service.client import ServiceClient
    from repro.service.store import JobStore

    for cls in (CompiledCircuit, ResultCache, ServiceClient, JobStore):
        for attr, value in vars(cls).items():
            value = getattr(value, "__func__", value)
            if getattr(value, "perfbench_wrapper", False):
                found.append(f"{cls.__name__}.{attr}")
    return found


def test_wrappers_record_then_restore_every_name():
    from repro.runtime.cache import ResultCache
    from repro.service import specs

    original = specs.build_plan
    tracer = spans.Tracer()
    tracer.install(layers.TARGETS, extra_modules=[workloads])
    try:
        assert _wrapped_names()
        assert workloads.build_plan is not original
        # A module imported while the wrappers are in place binds one.
        late = types.ModuleType("repro._perfbench_late_import")
        late.build_plan = specs.build_plan
        sys.modules[late.__name__] = late
        with tracer.region():
            workloads.build_plan({"kind": "montecarlo", "samples": 1,
                                  "seed": 1})
            ResultCache(disk_dir=None).get("missing")
    finally:
        tracer.restore()
        sys.modules.pop("repro._perfbench_late_import", None)
    assert late.build_plan is original
    assert workloads.build_plan is original and specs.build_plan is original
    assert _wrapped_names() == []
    layers_seen = {span.layer for span in tracer.spans}
    assert {"service.specs", "montecarlo", "runtime.cache"} <= layers_seen


def test_per_layer_reports_every_listed_metric():
    tracer = spans.Tracer()
    with tracer.region():
        with tracer.span("analog.engine", "transient"):
            pass
    metrics = layers.per_layer(tracer, {"kernel": {"newton_iterations": 4,
                                                   "jacobian_reuses": 1}},
                               untraced_wall=tracer.root.duration)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["kernel.reuse_ratio"] == 0.25
    total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert total + metrics["unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"])


# --------------------------------------------------------------------- #
# Harness robustness.
# --------------------------------------------------------------------- #

def test_a_hanging_workload_is_reported_with_partial_counts(monkeypatch):
    monkeypatch.setattr(run, "BUDGET_S", 2.0)
    args = run.argparse.Namespace(seed=1, seconds=60.0, trace=1)
    result = run.run_workload("tree_sparse", args)
    assert result["name"] == "tree_sparse"
    assert not result["done"] and not result["correct"]
    assert result["attempted"] == result["failed"] >= 1
    assert "still running" in result["record"]["error"]
    assert not list(run.WORK.glob(f"run-{run.os.getpid()}-*"))


# --------------------------------------------------------------------- #
# BENCHMARK.json names what the code reports.
# --------------------------------------------------------------------- #

def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
