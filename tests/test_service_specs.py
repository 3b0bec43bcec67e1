"""Service specs against the library: the same jobs give the same answers.

A spec compiled by :func:`repro.service.specs.build_plan`, run through
:func:`repro.runtime.run_campaign` and folded, must address the same
jobs (content keys) and return the same numbers, bit for bit, as the
library call it stands for - the promise of README "Serving campaigns".
"""

import threading

import pytest

from repro.core.sensitivity import sensitivity_family
from repro.montecarlo.analysis import sample_job, scatter_analysis
from repro.montecarlo.sampling import sample_population
from repro.runtime import run_campaign, sensitivity_job
from repro.service.api import create_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.specs import FAST_OPTIONS, SpecError, build_plan
from repro.units import fF, ns


def _serve(spec):
    """``(plan, folded payload)`` of one spec, run without a cache."""
    plan = build_plan(spec)
    campaign = run_campaign(plan.jobs, cache=None, **plan.executor)
    return plan, plan.fold(campaign)


def test_sensitivity_spec_matches_sensitivity_family():
    spec = {"kind": "sensitivity", "loads_ff": [160.0], "slews_ns": [0.2],
            "tau_max_ns": 0.3, "points": 3}
    plan, payload = _serve(spec)

    load, slew = fF(160.0), ns(0.2)
    skews = [ns(0.3) * k / 2 for k in range(3)]
    keys = [sensitivity_job(load, slew, tau, options=FAST_OPTIONS).key()
            for tau in skews]
    assert [job.key() for job in plan.jobs] == keys
    assert [entry["key"] for entry in payload["jobs"]] == keys

    (curve,) = sensitivity_family([load], [slew], skews,
                                  options=FAST_OPTIONS, cache=None)
    (served,) = payload["curves"]
    assert served["skews_s"] == skews
    assert served["vmins_v"] == [float(v) for v in curve.vmins]
    assert served["tau_min_s"] == curve.tau_min


def test_montecarlo_spec_matches_scatter_analysis():
    spec = {"kind": "montecarlo", "samples": 1, "seed": 7,
            "load_ff": 160.0, "skews_ns": [0.0, 0.3]}
    plan, payload = _serve(spec)

    samples = sample_population(1, fF(160.0), seed=7)
    skews = [ns(0.0), ns(0.3)]
    keys = [sample_job(sample, tau, options=FAST_OPTIONS).key()
            for sample in samples for tau in skews]
    assert [job.key() for job in plan.jobs] == keys
    assert [entry["key"] for entry in payload["jobs"]] == keys

    points = scatter_analysis(samples, skews, options=FAST_OPTIONS,
                              cache=None)
    assert payload["points"] == [
        {"skew_s": p.skew, "vmin_v": p.vmin, "sample_index": p.sample_index}
        for p in points
    ]


def test_whole_tree_campaign_keeps_the_largest_sparse_gauges():
    # The sparse pattern size and LU fill describe one run's matrix: a
    # campaign reports the largest, not the sum over its jobs.
    pytest.importorskip("scipy")
    from repro.runtime import Telemetry
    from repro.service.specs import run_plan

    plan = build_plan({"kind": "whole_tree", "levels": 2, "variation": 0.1,
                       "seeds": [0, 1], "no_cache": True})
    telemetry = Telemetry()
    campaign = run_plan(plan, telemetry=telemetry)
    per_job = [dict(result.kernel) for result in campaign.results]
    kernel = telemetry.kernel
    assert (kernel["sparse_nnz"], kernel["sparse_fill_nnz"]) == (371, 559)
    for gauge in ("sparse_nnz", "sparse_fill_nnz"):
        assert kernel[gauge] == max(job[gauge] for job in per_job)
    assert kernel["newton_iterations"] == sum(
        job["newton_iterations"] for job in per_job)


def test_whole_tree_spec_rejects_a_fault_it_cannot_apply():
    base = {"kind": "whole_tree", "levels": 1, "sensors": 1,
            "fault_extra_kohm": 5}
    # An unknown node is refused at submit time, naming the valid ones,
    # not by a bare KeyError at run time.
    with pytest.raises(SpecError, match="b0 s1 s2 b3 s4 s5"):
        build_plan({**base, "fault_node": "nope"})
    # A grid has no tree node to open: refused, not run fault-free.
    with pytest.raises(SpecError, match="htree"):
        build_plan({**base, "topology": "grid", "grid": [2, 2],
                    "fault_node": "s1"})
    plan = build_plan({**base, "fault_node": "s1"})
    assert plan.jobs[0].fault == ("resistive_open", "s1", 5e3)
    campaign = run_campaign(plan.jobs, cache=None, evaluate=plan.evaluate,
                            **plan.executor)
    assert "code" in plan.fold(campaign)["runs"][0]


def test_whole_tree_spec_rejects_inputs_its_topology_ignores():
    """A grid has no process variation and an H-tree no injection
    drivers: either input is refused, not planned as jobs that all run
    the unvaried, healthy network."""
    grid = {"kind": "whole_tree", "topology": "grid", "grid": [4, 4]}
    with pytest.raises(SpecError, match="variation needs topology 'htree'"):
        build_plan({**grid, "variation": 0.3, "seeds": [0, 1]})
    with pytest.raises(SpecError, match="dead_injections need topology"):
        build_plan({**_WHOLE_TREE, "dead_injections": [[0, 0]]})
    # The defaults still plan, on both topologies.
    assert build_plan({**grid, "dead_injections": [[0, 0]]}).jobs[0] \
        .dead_injections == ((0, 0),)
    assert build_plan({**_WHOLE_TREE, "variation": 0.1}).jobs[0] \
        .variation == 0.1


_SENSITIVITY = {"kind": "sensitivity", "loads_ff": [160.0],
                "slews_ns": [0.2], "tau_max_ns": 0.2, "points": 2}
_MONTECARLO = {"kind": "montecarlo", "samples": 1, "seed": 7,
               "load_ff": 160.0, "skews_ns": [0.1]}
_WHOLE_TREE = {"kind": "whole_tree", "levels": 1, "sensors": 1}


#: Spec -> the text its SpecError must carry, by case name.
_BAD_SPECS = {
    "nan-load": ({**_SENSITIVITY, "loads_ff": [float("nan")]}, "loads_ff"),
    "nan-tau-max": ({**_SENSITIVITY, "tau_max_ns": float("nan")},
                    "tau_max_ns"),
    "inf-tau-max": ({**_SENSITIVITY, "tau_max_ns": float("inf")},
                    "tau_max_ns"),
    "bool-load": ({**_SENSITIVITY, "loads_ff": [True]}, "loads_ff"),
    "bool-slew": ({**_SENSITIVITY, "slews_ns": [False]}, "slews_ns"),
    "bool-points": ({**_SENSITIVITY, "points": True}, "points"),
    "nan-points": ({**_SENSITIVITY, "points": float("nan")}, "points"),
    "negative-load": ({**_SENSITIVITY, "loads_ff": [-5.0]}, "non-negative"),
    "zero-slew": ({**_SENSITIVITY, "slews_ns": [0.0]},
                  "slew must be positive"),
    "half-period-slew": ({**_SENSITIVITY, "slews_ns": [12.0]}, "half period"),
    "inf-skew": ({**_MONTECARLO, "skews_ns": [float("inf")]}, "skews_ns"),
    # The measurement window would end before the run starts at t = 0.
    "skew-before-start": ({**_MONTECARLO, "skews_ns": [-12.0]},
                          "at or before t = 0"),
    "tau-max-before-start": ({**_SENSITIVITY, "tau_max_ns": -12.0},
                             "at or before t = 0"),
    "inf-mc-load": ({**_MONTECARLO, "load_ff": float("-inf")}, "load_ff"),
    "negative-mc-load": ({**_MONTECARLO, "load_ff": -160.0}, "non-negative"),
    "bool-seed": ({**_MONTECARLO, "seed": True}, "seed"),
    "nan-variation": ({**_WHOLE_TREE, "variation": float("nan")},
                      "variation"),
    "negative-variation": ({**_WHOLE_TREE, "variation": -0.1}, "variation"),
    "bool-sensors": ({**_WHOLE_TREE, "sensors": True}, "sensors"),
    "bool-tree-seed": ({**_WHOLE_TREE, "seeds": [True]}, "seeds"),
    "negative-open": ({**_WHOLE_TREE, "fault_node": "s1",
                       "fault_extra_kohm": -5}, "fault_extra_kohm"),
    "fractional-dead-injection": ({"kind": "whole_tree", "topology": "grid",
                                   "dead_injections": [[0.5, 0]]},
                                  "no driver to kill at"),
}


@pytest.mark.parametrize("spec, key", _BAD_SPECS.values(), ids=_BAD_SPECS)
def test_spec_rejects_non_finite_and_non_physical_numbers(spec, key):
    """A value the campaign would choke on, or silently simulate as
    NaN, is refused when the plan is built, naming what is wrong."""
    with pytest.raises(SpecError, match=key):
        build_plan(spec)


def test_server_answers_400_for_a_nan_spec(tmp_path):
    """Through the HTTP API: the bad spec is a 400 at submit, not a
    campaign that fails (or answers) later."""
    server = create_server(state_dir=str(tmp_path / "state"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.port}", retries=0)
    try:
        for bad in ({**_SENSITIVITY, "loads_ff": [float("nan")]},
                    {**_SENSITIVITY, "tau_max_ns": float("nan")}):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(bad)
            assert excinfo.value.status == 400
            assert "finite" in excinfo.value.message
        assert client.list() == []
    finally:
        server.shutdown_all()
        thread.join(5.0)
    assert not thread.is_alive()


def test_whole_tree_spec_refuses_the_batch_backend():
    """A kind with its own evaluate cannot run on the batch backend,
    which evaluates sensor jobs directly: refused at submit, not by a
    campaign that fails later."""
    with pytest.raises(SpecError, match="batch backend"):
        build_plan({**_WHOLE_TREE, "backend": "batch"})


class _Stop(Exception):
    pass


def test_whole_tree_fast_picks_the_options(monkeypatch):
    from dataclasses import replace

    from repro.analog.engine import TransientOptions
    from repro.clocktree import whole_tree

    fast, full = (build_plan({**_WHOLE_TREE, "fast": flag}).jobs[0]
                  for flag in (True, False))
    assert full.options == replace(TransientOptions(), jacobian_policy="auto")
    assert fast.options != full.options
    assert fast.key() != full.key()

    # The default spec runs what simulate_whole_tree runs given no options.
    seen = []

    def spy(netlist, **kwargs):
        seen.append(kwargs["options"])
        raise _Stop

    monkeypatch.setattr(whole_tree, "transient", spy)
    with pytest.raises(_Stop):
        whole_tree.simulate_whole_tree(levels=1)
    assert build_plan({"kind": "whole_tree"}).jobs[0].options == seen[0]


def test_whole_tree_open_defaults_to_8_kohm():
    plan = build_plan({**_WHOLE_TREE, "fault_node": "s1"})
    assert plan.jobs[0].fault == ("resistive_open", "s1", 8000.0)


def test_job_payload_carries_the_pair_readout_only_when_set():
    """A sensor job's payload keeps its keys; a whole-tree job's
    per-pair readout survives the JSON a journal line holds."""
    import json
    from dataclasses import replace

    from repro.runtime.jobs import JobResult

    sensor = JobResult(skew=0.0, vmin_y1=1.0, vmin_y2=2.0, code=(0, 1))
    assert list(sensor.to_payload()) == ["skew", "vmin_y1", "vmin_y2",
                                         "code", "steps", "escalations"]
    tree = replace(sensor, n_nodes=40, pairs=(("s1|s4", None, (1, 0)),
                                              ("s2|s5", 1.5e-10, (0, 1))))
    payload = json.loads(json.dumps(tree.to_payload()))
    assert JobResult.from_payload(payload) == tree


def test_whole_tree_campaign_resumes_its_per_pair_readout(tmp_path):
    """The per-pair readout rides the journal: a resumed campaign
    recomputes nothing and folds the runs the first one folded."""
    from repro.service.specs import run_plan

    plan = build_plan({"kind": "whole_tree", "levels": 1,
                       "variation": 0.1, "seeds": [0, 1]})
    journal = str(tmp_path / "journal.jsonl")
    first = plan.fold(run_plan(plan, checkpoint=journal))["runs"]
    assert [len(run["codes"]) for run in first] == [2, 2]
    assert all(list(run["skews_s"]) == list(run["codes"]) for run in first)
    assert all(run["n_nodes"] > 0 for run in first)

    campaign = run_plan(plan, checkpoint=journal, resume=True)
    assert all(result.resumed for result in campaign.results)
    assert plan.fold(campaign)["runs"] == first
