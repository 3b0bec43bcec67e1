"""Verdicts of ``tools/check_bench_regression.py`` on synthetic records.

One test per rule of the checker's rule table, plus the cross-cutting
behaviour: absent figures, unreadable records and the ``--strict`` exit
status.
"""

import importlib.util
import json
import os
import sys

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "check_bench_regression.py")
_spec = importlib.util.spec_from_file_location("check_bench_regression", _TOOL)
checker = importlib.util.module_from_spec(_spec)
sys.modules.setdefault(_spec.name, checker)
_spec.loader.exec_module(checker)


def _run(tmp_path, capsys, baseline, fresh, threshold=0.25):
    """Write one BENCH record pair, compare, return (compared, regressed,
    printed lines)."""
    for folder, record in (("base", baseline), ("fresh", fresh)):
        os.makedirs(tmp_path / folder, exist_ok=True)
        if record is not None:
            (tmp_path / folder / "BENCH_x.json").write_text(
                record if isinstance(record, str) else json.dumps(record)
            )
    compared, regressed = checker.compare(
        str(tmp_path / "base"), str(tmp_path / "fresh"), threshold
    )
    return compared, regressed, capsys.readouterr().out.splitlines()


def _warnings(lines):
    return [line for line in lines if line.startswith("::warning")]


@pytest.mark.parametrize("fresh, regressed", [(7.0, 1), (8.0, 0)])
def test_samples_per_s_relative_drop(tmp_path, capsys, fresh, regressed):
    base = {"legs": [{"samples_per_s": 10.0}]}
    new = {"legs": [{"samples_per_s": fresh}]}
    compared, count, lines = _run(tmp_path, capsys, base, new)
    assert (compared, count) == (1, regressed)
    assert len(_warnings(lines)) == regressed
    if regressed:
        assert "legs[0].samples_per_s regressed 30.0%" in lines[0]


@pytest.mark.parametrize("fresh, regressed", [(0.0, 1), (0.1, 0)])
def test_prefix_hit_rate_drop_to_zero(tmp_path, capsys, fresh, regressed):
    base = {"prefix_hit_rate": 0.9, "cold": {"prefix_hit_rate": 0.0}}
    new = {"prefix_hit_rate": fresh, "cold": {"prefix_hit_rate": 0.0}}
    compared, count, lines = _run(tmp_path, capsys, base, new)
    # The cold leg's zero baseline is never judged.
    assert (compared, count) == (1, regressed)
    if regressed:
        assert "dropped to zero" in _warnings(lines)[0]


@pytest.mark.parametrize("base, fresh, compared, regressed", [
    (1.9, 1.0, 1, 1),   # fell to 1x: campaigns no longer overlap
    (1.9, 1.2, 1, 0),
    (0.9, 0.5, 0, 0),   # never overlapped in the baseline: not judged
])
def test_concurrency_speedup_falls_to_one(tmp_path, capsys, base, fresh,
                                          compared, regressed):
    result = _run(tmp_path, capsys, {"concurrency_speedup": base},
                  {"concurrency_speedup": fresh})
    assert result[:2] == (compared, regressed)


@pytest.mark.parametrize("fresh, regressed", [(0.8, 1), (1.0, 1), (3.0, 0)])
def test_sparse_speedup_needs_no_baseline(tmp_path, capsys, fresh, regressed):
    compared, count, lines = _run(tmp_path, capsys, {},
                                  {"sparse_speedup": fresh})
    assert (compared, count) == (1, regressed)
    assert lines[-1].endswith("sparse-vs-dense " + (
        "REGRESSED" if regressed else "ok"))


@pytest.mark.parametrize("cores, regressed", [(2, 1), (1, 0), (None, 0)])
def test_shard_speedup_excuses_single_core(tmp_path, capsys, cores,
                                           regressed):
    fresh = {"shard_speedup": 0.9}
    if cores is not None:
        fresh["cpu_count"] = cores
    compared, count, lines = _run(tmp_path, capsys, {}, fresh)
    assert (compared, count) == (1, regressed)
    if not regressed:
        assert "single-core box" in lines[-1]


def test_absent_fresh_figure_warns_without_counting(tmp_path, capsys):
    base = {"samples_per_s": 5.0, "prefix_hit_rate": 0.5,
            "concurrency_speedup": 2.0}
    compared, count, lines = _run(tmp_path, capsys, base, {})
    assert (compared, count) == (0, 0)
    warnings = _warnings(lines)
    assert len(warnings) == 3
    assert all("absent from the fresh record" in w for w in warnings)


def test_unreadable_and_missing_records_are_skipped(tmp_path, capsys):
    compared, count, lines = _run(tmp_path, capsys, {"samples_per_s": 1.0},
                                  "{not json")
    assert (compared, count) == (0, 0)
    assert "unreadable bench record" in lines[0]
    os.remove(tmp_path / "fresh" / "BENCH_x.json")
    assert checker.compare(str(tmp_path / "base"), str(tmp_path / "fresh"),
                           0.25) == (0, 0)
    assert "no fresh record" in capsys.readouterr().out


def test_strict_exit_status(tmp_path, capsys):
    _run(tmp_path, capsys, {}, {"sparse_speedup": 0.5})
    argv = ["--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh")]
    assert checker.main(argv) == 0
    assert checker.main(argv + ["--strict"]) == 1
    assert "1 regressed" in capsys.readouterr().out
