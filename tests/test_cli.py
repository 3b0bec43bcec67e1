"""Command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.clocktree import ResistiveOpen


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_waves_command(capsys):
    assert main(["waves", "--skew", "0.6", "--load", "160"]) == 0
    out = capsys.readouterr().out
    assert "code = (0, 1)" in out
    assert "y1:" in out


def test_waves_no_skew(capsys):
    assert main(["waves", "--skew", "0.0"]) == 0
    assert "code = (0, 0)" in capsys.readouterr().out


def test_sensitivity_command(capsys):
    assert main([
        "sensitivity", "--loads", "160", "--points", "4", "--tau-max", "0.4",
    ]) == 0
    out = capsys.readouterr().out
    assert "tau_min" in out
    assert "160 fF" in out


def test_campaign_help_smoke():
    """`python -m repro campaign --help` must parse and exit 0."""
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--help"])
    assert excinfo.value.code == 0

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "--backend" in proc.stdout


def test_campaign_command_runs_with_telemetry(capsys, fresh_cache):
    report = fresh_cache / "telemetry.json"
    assert main([
        "campaign", "--loads", "160", "--slews", "0.2", "--points", "3",
        "--tau-max", "0.4", "--json", str(report),
    ]) == 0
    out = capsys.readouterr().out
    assert "tau_min" in out
    assert "runtime telemetry" in out
    assert "3 evaluated" in out
    assert report.exists()

    # Warm rerun: every point must replay, zero new integrations.
    assert main([
        "campaign", "--loads", "160", "--slews", "0.2", "--points", "3",
        "--tau-max", "0.4",
    ]) == 0
    out = capsys.readouterr().out
    assert "3 total, 0 evaluated, 3 from cache" in out
    assert "0 misses" in out
    assert "0 integration points" in out


def test_sensitivity_stats_flag(capsys, fresh_cache):
    args = ["sensitivity", "--loads", "160", "--points", "3",
            "--tau-max", "0.4", "--stats"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "3 from cache" in out
    assert "0 misses" in out


_GRID_RUNS = {
    "sensitivity": ["sensitivity", "--loads", "80", "160", "--points", "3"],
    "campaign": ["campaign", "--loads", "160", "--slews", "0.2", "0.3",
                 "--points", "3"],
    "montecarlo": ["montecarlo", "--samples", "2", "--seed", "5",
                   "--skews", "0.0", "0.2"],
}


@pytest.mark.parametrize("command", _GRID_RUNS.values(), ids=_GRID_RUNS)
def test_grid_commands_pass_runtime_flags_to_the_run(monkeypatch, capsys,
                                                     fresh_cache, command):
    """``--backend``, ``--workers`` and ``--batch-workers`` reach the
    one campaign each grid command runs."""
    import repro.runtime

    real = repro.runtime.run_campaign
    calls = []

    def spy(jobs, **kwargs):
        calls.append(kwargs)
        return real(jobs, **{**kwargs, "backend": "serial"})

    monkeypatch.setattr(repro.runtime, "run_campaign", spy)
    assert main([*command, "--backend", "batch", "--workers", "3",
                 "--batch-workers", "2"]) == 0
    assert [(c["backend"], c["max_workers"], c["batch_workers"])
            for c in calls] == [("batch", 3, 2)]


@pytest.mark.parametrize("command, kind, flags", [
    ("sensitivity", "sensitivity",
     ["--loads", "120", "--tau-max", "0.3", "--points", "3"]),
    ("campaign", "sensitivity",
     ["--loads", "120", "160", "--slews", "0.1", "0.3", "--tau-max", "0.3",
      "--points", "3"]),
    ("montecarlo", "montecarlo",
     ["--samples", "4", "--seed", "9", "--load", "120",
      "--skews", "0.0", "0.3"]),
], ids=["sensitivity", "campaign", "montecarlo"])
@pytest.mark.parametrize("runtime", [
    [], ["--backend", "batch", "--workers", "2", "--batch-workers", "1"],
], ids=["defaults", "batch"])
def test_run_commands_build_the_spec_submit_sends(monkeypatch, capsys,
                                                  command, kind, flags,
                                                  runtime):
    from repro.service import specs
    from repro.service.client import ServiceClient, ServiceError

    built = []

    def capture_plan(spec):
        built.append(spec)
        raise specs.SpecError("captured")

    def capture_submit(service, spec, **kwargs):
        built.append(spec)
        raise ServiceError(400, "captured")

    monkeypatch.setattr(specs, "build_plan", capture_plan)
    monkeypatch.setattr(ServiceClient, "submit", capture_submit)
    assert main([command, *flags, *runtime]) == 2
    assert main(["submit", "--kind", kind, *flags, *runtime]) == 1
    run_spec, submitted = built
    assert run_spec == submitted


def _served(spec):
    """The folded payload of ``spec`` as the service computes it."""
    from repro.runtime import run_campaign
    from repro.service.specs import build_plan

    plan = build_plan(spec)
    return plan.fold(run_campaign(plan.jobs, cache=None, **plan.executor))


def test_sensitivity_prints_the_fold_of_its_spec(capsys, fresh_cache):
    assert main(["sensitivity", "--loads", "80", "160", "--points", "4",
                 "--tau-max", "0.4", "--slew", "0.3"]) == 0
    rows = [line.strip().split("  ")
            for line in capsys.readouterr().out.splitlines()
            if line.endswith(" ns") and " fF  " in line]
    payload = _served({"kind": "sensitivity", "loads_ff": [80.0, 160.0],
                       "slews_ns": [0.3], "tau_max_ns": 0.4, "points": 4})
    assert rows == [
        [f"{c['load_f'] * 1e15:.0f} fF", f"{c['slew_s'] * 1e9:.1f} ns",
         f"{c['tau_min_s'] * 1e9:.3f} ns"]
        for c in payload["curves"]
    ]


def test_campaign_prints_the_fold_of_its_spec(capsys, fresh_cache):
    assert main(["campaign", "--loads", "160", "--slews", "0.2", "0.3",
                 "--points", "3", "--tau-max", "0.4", "--no-cache"]) == 0
    printed = [line.split("tau_min = ")[1]
               for line in capsys.readouterr().out.splitlines()
               if "tau_min = " in line]
    payload = _served({"kind": "sensitivity", "loads_ff": [160.0],
                       "slews_ns": [0.2, 0.3], "tau_max_ns": 0.4,
                       "points": 3})
    assert printed == [f"{c['tau_min_s'] * 1e9:.3f} ns"
                       for c in payload["curves"]]


def test_montecarlo_prints_the_fold_of_its_spec(capsys, fresh_cache):
    assert main(["montecarlo", "--samples", "3", "--seed", "11",
                 "--skews", "0.0", "0.2", "--no-cache"]) == 0
    printed = capsys.readouterr().out.splitlines()[2:]
    payload = _served({"kind": "montecarlo", "samples": 3, "seed": 11,
                       "load_ff": 160.0, "skews_ns": [0.0, 0.2]})
    expected = []
    for tau_ns in (0.0, 0.2):
        tau = tau_ns * 1e-9
        vmins = [p["vmin_v"] for p in payload["points"] if p["skew_s"] == tau]
        expected.append([f"{tau_ns:.2f}", f"{min(vmins):.2f}",
                         f"{sum(vmins) / len(vmins):.2f}",
                         f"{max(vmins):.2f}",
                         f"{payload['flagged'][repr(tau)]}/{len(vmins)}"])
    assert [line.split() for line in printed] == expected


@pytest.mark.parametrize("command", ["sensitivity", "campaign"])
@pytest.mark.parametrize("flags, spec, message", [
    (["--points", "1"], {"points": 1}, "points must be an integer >= 2"),
    (["--points", "0"], {"points": 0}, "points must be an integer >= 2"),
    (["--tau-max", "nan"], {"tau_max_ns": float("nan")},
     "tau_max_ns must be a finite number"),
    (["--loads", "-160"], {"loads_ff": [-160.0]}, "bad circuit value"),
    (["--tau-max", "-12"], {"tau_max_ns": -12.0}, "at or before t = 0"),
], ids=["points-1", "points-0", "tau-max-nan", "negative-load",
        "tau-max-before-start"])
def test_grid_commands_refuse_what_the_service_refuses(capsys, command,
                                                       flags, spec, message):
    # Both commands validate their flags through the sensitivity kind's
    # build_plan: where the service answers 400, the CLI exits 2.
    from repro.service.specs import SpecError, build_plan

    with pytest.raises(SpecError, match=message):
        build_plan({"kind": "sensitivity", **spec})
    assert main([command, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("flags, spec, message", [
    (["--skews", "-12"], {"skews_ns": [-12.0]}, "at or before t = 0"),
    (["--skews", "nan"], {"skews_ns": [float("nan")]},
     "skews_ns must be a finite number"),
    (["--samples", "0"], {"samples": 0}, "samples must be an integer >= 1"),
    (["--skews", "-3"], {"skews_ns": [-3.0]}, "at or before t = 0"),
], ids=["skew-before-start", "skew-nan", "samples-0", "skew-edge-before-start"])
def test_montecarlo_refuses_what_the_service_refuses(capsys, flags, spec,
                                                     message):
    # The montecarlo command validates its flags through the montecarlo
    # kind's build_plan: where the service answers 400, the CLI exits 2.
    from repro.service.specs import SpecError, build_plan

    base = {"kind": "montecarlo", "samples": 1, "seed": 1}
    with pytest.raises(SpecError, match=message):
        build_plan({**base, **spec})
    assert main(["montecarlo", "--samples", "1", "--seed", "1",
                 "--no-cache", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("flags", [
    ["--load", "nan"], ["--load", "-5"], ["--slew", "0"], ["--slew", "10"],
    ["--skew", "nan"], ["--skew", "inf"], ["--skew", "-3"],
], ids=lambda flags: " ".join(flags))
def test_waves_refuses_a_bad_circuit_value(capsys, flags):
    # Worded as the service words a value its circuits refuse.
    assert main(["waves", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad circuit value: ")
    assert captured.out == ""


def test_thread_backend_rejected(capsys):
    # The spec is the one check of a backend name, as for the service.
    assert main(["campaign", "--backend", "thread", "--points", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown backend 'thread'")


def test_cache_info_and_clear(capsys, fresh_cache):
    assert main(["sensitivity", "--loads", "160", "--points", "3",
                 "--tau-max", "0.4"]) == 0
    capsys.readouterr()
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert str(fresh_cache) in out
    assert "3 on disk" in out
    assert main(["cache", "clear"]) == 0
    assert "cleared 3" in capsys.readouterr().out


def test_scheme_command_healthy(capsys):
    assert main(["scheme", "--levels", "2", "--sensors", "3"]) == 0
    out = capsys.readouterr().out
    assert "checker   : ok" in out


def test_scheme_command_with_fault(capsys):
    # Find a monitored sink first.
    assert main(["scheme", "--levels", "2", "--sensors", "1"]) == 0
    out = capsys.readouterr().out
    pair_line = [l for l in out.splitlines() if "skew" in l][0]
    victim = pair_line.split()[0].split("/")[0]

    assert main([
        "scheme", "--levels", "2", "--sensors", "1",
        "--open-node", victim, "--open-ohms", "9000",
    ]) == 0
    out = capsys.readouterr().out
    assert "ALARM" in out
    assert "1" in out.split("scan path :")[1]


def test_whole_tree_command_rejects_grid_open(capsys):
    # A grid has no tree node to open: the run must not report a
    # fault-free grid as if the open were there.
    assert main(["whole-tree", "--topology", "grid", "--grid", "2", "2",
                 "--sensors", "1", "--open-node", "s1"]) == 2
    assert "htree" in capsys.readouterr().err


@pytest.mark.parametrize("flags, needs", [
    (["--topology", "grid", "--grid", "6", "6", "--variation", "0.1"],
     "htree"),
    (["--levels", "1", "--dead-injection", "0", "0"], "grid"),
])
def test_whole_tree_command_rejects_inputs_its_topology_ignores(
        capsys, flags, needs):
    # A grid has no process variation, an H-tree no injection drivers:
    # the run must not print the nominal network as if they applied.
    assert main(["whole-tree", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"topology '{needs}'" in err


@pytest.mark.parametrize("flags, spec", [
    (["--levels", "1", "--open-node", "nope"],
     {"levels": 1, "fault_node": "nope"}),
    (["--topology", "grid", "--variation", "0.1"],
     {"topology": "grid", "variation": 0.1}),
    (["--levels", "1", "--dead-injection", "0", "0"],
     {"levels": 1, "dead_injections": [[0, 0]]}),
    (["--topology", "grid", "--open-node", "s1"],
     {"topology": "grid", "fault_node": "s1"}),
    (["--levels", "1", "--sensors", "3"], {"levels": 1, "sensors": 3}),
    (["--topology", "grid", "--grid", "2", "2", "--sensors", "3"],
     {"topology": "grid", "grid": [2, 2], "sensors": 3}),
    (["--topology", "grid", "--dead-injection", "9", "9"],
     {"topology": "grid", "dead_injections": [[9, 9]]}),
    (["--topology", "grid", "--dead-injection", "1", "1"],
     {"topology": "grid", "dead_injections": [[1, 1]]}),
    (["--levels", "1", "--open-node", "s1", "--open-ohms", "0"],
     {"levels": 1, "fault_node": "s1", "fault_extra_kohm": 0}),
], ids=["unknown-node", "grid-variation", "htree-dead-injection",
        "grid-fault", "htree-sensors-past-pairs", "grid-sensors-past-rows",
        "dead-injection-off-grid", "dead-injection-not-a-driver",
        "zero-ohm-open"])
def test_whole_tree_refuses_in_the_whole_tree_kinds_words(capsys, flags,
                                                          spec):
    from repro.service.specs import SpecError, build_plan

    with pytest.raises(SpecError) as refusal:
        build_plan({"kind": "whole_tree", **spec})
    assert main(["whole-tree", *flags]) == 2
    assert capsys.readouterr().err == f"error: {refusal.value}\n"


@pytest.mark.parametrize("flags, most", [
    (["--levels", "1"], 2),
    (["--topology", "grid", "--grid", "3", "2"], 3),
], ids=["htree", "grid"])
def test_whole_tree_runs_as_many_sensors_as_the_network_offers(capsys, flags,
                                                               most):
    # An H-tree offers half its sinks as disjoint pairs, a grid one pair
    # per row: the largest count runs, and one more is refused.
    assert main(["whole-tree", *flags, "--sensors", str(most)]) == 0
    assert capsys.readouterr().out.count(" code (") == most
    assert main(["whole-tree", *flags, "--sensors", str(most + 1)]) == 2
    assert f"offers {most} disjoint sink pairs" in capsys.readouterr().err


def test_whole_tree_open_defaults_to_the_kinds_8_kohm(capsys):
    assert main(["whole-tree", "--levels", "1", "--open-node", "s1"]) == 0
    assert "injected: resistive open at s1 (+8000 ohm)" in \
        capsys.readouterr().out


#: ``repro whole-tree`` flags, and the ``simulate_whole_tree`` arguments
#: that differ from the defaults the command passed before it ran the
#: whole_tree kind's plan (``_DIRECT_DEFAULTS``).
_WHOLE_TREE_RUNS = {
    "open-resumes": (["--levels", "2", "--open-node", "s13",
                      "--open-ohms", "100000"],
                     {"fault": ResistiveOpen("s13", 100000.0)}),
    "levels-1": (["--levels", "1"], {"levels": 1}),
    "grid-dead-corner": (["--topology", "grid", "--grid", "6", "6",
                          "--dead-injection", "0", "0"],
                         {"topology": "grid", "dead_injections": ((0, 0),)}),
    "variation": (["--levels", "2", "--variation", "0.1", "--seed", "3"],
                  {"variation": 0.1, "seed": 3}),
}
_DIRECT_DEFAULTS = dict(levels=2, topology="htree", n_sensors=2, fault=None,
                        variation=0.0, seed=0, grid_shape=(6, 6),
                        dead_injections=(), segments_per_wire=3)


@pytest.mark.parametrize("flags, call", _WHOLE_TREE_RUNS.values(),
                         ids=_WHOLE_TREE_RUNS)
def test_whole_tree_json_is_the_direct_simulation(capsys, flags, call):
    import math

    from repro.clocktree.whole_tree import simulate_whole_tree

    assert main(["whole-tree", *flags, "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    run = simulate_whole_tree(**{**_DIRECT_DEFAULTS, **call})
    assert printed["n_nodes"] == run.n_nodes
    # Placement order, a sink that never crosses as null.
    assert list(printed["skews_s"].items()) == [
        (label, skew if math.isfinite(skew) else None)
        for label, skew in run.skews.items()
    ]
    assert printed["codes"] == {k: list(v) for k, v in run.codes.items()}
    assert printed["flagged"] is run.flagged
    kernel = run.result.kernel_stats
    assert list(printed["kernel"]) == list(kernel)
    assert {k: v for k, v in printed["kernel"].items() if k[-2:] != "_s"} \
        == {k: v for k, v in kernel.items() if k[-2:] != "_s"}


def test_result_command_prints_the_served_order(capsys, monkeypatch):
    # A whole-tree run lists its sensor pairs in placement order.
    from repro.service.client import ServiceClient

    served = {"runs": [{"skews_s": {"s29|s7": 1e-12, "s10|s25": None}}],
              "kind": "whole_tree"}
    monkeypatch.setattr(ServiceClient, "result", lambda self, cid: served)
    assert main(["result", "--url", "http://127.0.0.1:9", "c1"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert list(printed) == ["runs", "kind"]
    assert list(printed["runs"][0]["skews_s"]) == ["s29|s7", "s10|s25"]


def test_whole_tree_json_is_the_fold_of_its_spec(capsys):
    from repro.service.specs import build_plan, run_plan

    assert main(["whole-tree", "--levels", "1", "--open-node", "s1",
                 "--open-ohms", "100000", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    plan = build_plan({"kind": "whole_tree", "levels": 1, "fault_node": "s1",
                       "fault_extra_kohm": 100})
    payload = plan.fold(run_plan(plan))
    (run,) = payload["runs"]
    assert printed["topology"] == payload["topology"]
    assert {key: printed[key] for key in ("n_nodes", "skews_s", "codes",
                                          "flagged")} \
        == {key: run[key] for key in ("n_nodes", "skews_s", "codes",
                                      "flagged")}


def test_export_command_stdout(capsys):
    assert main(["export"]) == 0
    out = capsys.readouterr().out
    assert ".MODEL" in out
    assert out.rstrip().endswith(".END")


def test_export_command_file(tmp_path, capsys):
    target = tmp_path / "sensor.sp"
    assert main(["export", "-o", str(target)]) == 0
    text = target.read_text()
    assert "Ma nA phi2 vdd" in text
    # The exported deck re-imports cleanly.
    from repro.circuit.spice import from_spice

    netlist = from_spice(text)
    assert len(netlist.mosfets) == 10


def test_campaign_checkpoint_resume(capsys, fresh_cache):
    journal = fresh_cache / "journal.jsonl"
    base = ["campaign", "--loads", "160", "--slews", "0.2", "--points", "2",
            "--tau-max", "0.4", "--no-cache", "--checkpoint", str(journal)]
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "2 evaluated" in out
    assert journal.exists()

    # The resumed run must replay the journal: zero new integrations,
    # even with the result cache disabled.
    assert main(base + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "0 evaluated" in out
    assert "2 resumed" in out
    assert "0 integration points" in out


def test_campaign_resume_requires_checkpoint(capsys):
    assert main(["campaign", "--loads", "160", "--points", "2",
                 "--tau-max", "0.4", "--resume"]) == 2
    assert "requires --checkpoint" in capsys.readouterr().err


def test_montecarlo_command_batch_backend(capsys, fresh_cache):
    assert main([
        "montecarlo", "--samples", "2", "--seed", "3",
        "--skews", "0.0", "0.3", "--backend", "batch", "--no-cache",
        "--stats",
    ]) == 0
    out = capsys.readouterr().out
    assert "2 samples x 2 skews (batch backend, seed 3)" in out
    assert "tau[ns]" in out
    # Every (sample, skew) point went through the lockstep engine.
    assert "4 sample(s) in lockstep, 0 scalar fallback(s)" in out


def test_montecarlo_seed_reproducible(capsys, fresh_cache):
    args = ["montecarlo", "--samples", "2", "--seed", "11",
            "--skews", "0.1", "--backend", "serial", "--no-cache"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_sample_population_seed_threading():
    from repro.montecarlo.sampling import sample_population
    from repro.units import fF

    a = sample_population(3, fF(160), seed=42)
    b = sample_population(3, fF(160), seed=42)
    c = sample_population(3, fF(160), seed=43)
    assert [s.slew1 for s in a] == [s.slew1 for s in b]
    assert [s.load1 for s in a] == [s.load1 for s in b]
    assert [s.slew1 for s in a] != [s.slew1 for s in c]
