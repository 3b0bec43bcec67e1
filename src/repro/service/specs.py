"""Campaign specs: the JSON job descriptions the service accepts.

A *spec* is a plain JSON dict describing one campaign in the same
parameter conventions the CLI subcommands use (loads in fF, times in
ns): ``repro sensitivity``, ``campaign``, ``montecarlo`` and ``submit``
turn their flags into one, and a curl user can read the README
quickstart and write one by hand.  Three kinds ship:

``sensitivity``
    The Fig.-4 family: a (loads x slews x skews) grid, folded into
    ``Vmin(tau)`` curves with interpolated ``tau_min`` - exactly what
    the ``repro campaign`` subcommand computes.
``montecarlo``
    The Fig.-5 scatter: a seeded random population evaluated over a
    skew grid - exactly what ``repro montecarlo`` computes.
``whole_tree``
    Full-chip clock networks (buffered H-tree or TRIX-style grid) with
    N sensing circuits attached, one seed/fault scenario per job -
    exactly what ``repro whole-tree`` computes, on the sparse MNA path.

:func:`normalize_spec` validates a raw dict (unknown kinds and keys are
errors - a typo must not silently fall back to a default) and fills in
the defaults; :func:`build_plan` compiles a normalized spec into a
:class:`CampaignPlan`: the job list, the executor keyword arguments,
and a ``fold`` function reducing the ordered campaign results to the
JSON result payload.  The ``sensitivity`` and ``montecarlo`` kinds wrap
the library's own grids and folds
(:func:`repro.core.sensitivity.sensitivity_grid`,
:func:`repro.montecarlo.analysis.scatter_grid`), so a service campaign
runs the jobs a direct CLI run would and its results are bit-identical.

The registry is open: :func:`register_kind` lets tests and future job
families (jitter sweeps, aging campaigns, ...) plug in new kinds without
touching the store, scheduler or API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

# FAST_OPTIONS is re-exported: specs default to the options the CLI
# runs, so a service campaign reproduces the CLI run bit-identically.
from repro.analog.engine import FAST_OPTIONS, TransientOptions
from repro.units import fF, ns


class SpecError(ValueError):
    """A campaign spec failed validation (unknown kind/key, bad value)."""


@dataclass
class CampaignPlan:
    """A compiled spec: jobs, executor kwargs, and the result folder."""

    #: Ordered job list, exactly what a direct CLI run would submit.
    jobs: List[Any]
    #: Reduce the ordered campaign results to the JSON result payload.
    fold: Callable[[Any], Dict[str, Any]]
    #: Keyword arguments for :func:`repro.runtime.run_campaign`
    #: (``backend``, ``max_workers``, ``batch_workers``, ``chunksize``,
    #: ``on_error``).
    executor: Dict[str, Any] = field(default_factory=dict)
    #: Evaluation override (test kinds only; forces ``cache=None``).
    evaluate: Optional[Callable[[Any], Any]] = None
    #: The normalized spec the plan was compiled from (set by
    #: :func:`build_plan`); :func:`run_plan` picks the cache from it.
    spec: Dict[str, Any] = field(default_factory=dict)


#: Executor-facing keys shared by every spec kind, with defaults.
_COMMON_DEFAULTS: Dict[str, Any] = {
    "backend": "serial",
    "workers": None,
    "batch_workers": None,  # None = the workers value
    "chunksize": None,
    "on_error": "raise",
    "warm_start": True,
    "no_cache": False,
    "fast": True,         # FAST_OPTIONS vs engine defaults
    "tenant": "",         # cache namespace salt ("" = shared default)
    "timeout_s": None,    # per-campaign wall budget (scheduler-enforced)
}

_KIND_DEFAULTS: Dict[str, Dict[str, Any]] = {}
_KIND_BUILDERS: Dict[str, Callable[[Dict[str, Any]], CampaignPlan]] = {}


def register_kind(
    name: str,
    defaults: Dict[str, Any],
    build: Callable[[Dict[str, Any]], CampaignPlan],
) -> None:
    """Register a campaign kind: its spec defaults and plan builder."""
    _KIND_DEFAULTS[name] = dict(defaults)
    _KIND_BUILDERS[name] = build


def spec_kinds() -> List[str]:
    """The registered campaign kinds."""
    return sorted(_KIND_BUILDERS)


def normalize_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Validate ``spec`` and return a copy with every default explicit.

    Unknown kinds and unknown keys raise :class:`SpecError`; the service
    must reject a typo rather than quietly simulate something else.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"spec must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind", "sensitivity")
    if kind not in _KIND_BUILDERS:
        raise SpecError(
            f"unknown campaign kind {kind!r} (registered: {spec_kinds()})"
        )
    allowed = {"kind"} | set(_COMMON_DEFAULTS) | set(_KIND_DEFAULTS[kind])
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise SpecError(f"unknown spec key(s) for kind {kind!r}: {unknown}")
    normalized: Dict[str, Any] = {"kind": kind}
    for key, default in {**_COMMON_DEFAULTS, **_KIND_DEFAULTS[kind]}.items():
        normalized[key] = spec.get(key, default)
    if normalized["warm_start"] is None:
        # Older journals store null for the default, which was on.
        normalized["warm_start"] = True
    _validate_common(normalized)
    return normalized


def _validate_common(spec: Dict[str, Any]) -> None:
    from repro.runtime import BACKENDS, ON_ERROR_MODES

    if spec["backend"] not in BACKENDS:
        raise SpecError(
            f"unknown backend {spec['backend']!r} (use one of {BACKENDS})"
        )
    if spec["on_error"] not in ON_ERROR_MODES:
        raise SpecError(
            f"unknown on_error {spec['on_error']!r} "
            f"(use one of {ON_ERROR_MODES})"
        )
    timeout_s = spec["timeout_s"]
    if timeout_s is not None and (
        isinstance(timeout_s, bool) or not isinstance(timeout_s, (int, float))
        or not 0 < timeout_s < float("inf")
    ):
        raise SpecError("timeout_s must be a positive number or null")
    for key in ("workers", "batch_workers", "chunksize"):
        if spec[key] is not None and not _is_int(spec[key], minimum=1):
            raise SpecError(f"{key} must be a positive integer or null")
    for key in ("fast", "no_cache", "warm_start"):
        if not isinstance(spec[key], bool):
            raise SpecError(f"{key} must be a boolean")
    if not isinstance(spec["tenant"], str):
        raise SpecError("tenant must be a string")


def _is_int(value: Any, minimum: int) -> bool:
    """True for an int (never a bool) of at least ``minimum``."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum)


def build_plan(spec: Dict[str, Any]) -> CampaignPlan:
    """Compile a (normalized or raw) spec into its :class:`CampaignPlan`."""
    spec = normalize_spec(spec)
    plan = _KIND_BUILDERS[spec["kind"]](spec)
    if plan.evaluate is not None and spec["backend"] == "batch":
        raise SpecError(f"kind {spec['kind']!r} evaluates its own jobs; the "
                        "batch backend runs sensor jobs only")
    plan.spec = spec
    return plan


def run_plan(plan: CampaignPlan, **run_kwargs: Any) -> Any:
    """Run ``plan``'s jobs: the scheduler's and the CLI grid commands'
    one entry to :func:`repro.runtime.run_campaign`, to which
    ``run_kwargs`` pass.  The spec picks the result cache: none for
    ``no_cache`` or a kind with its own ``evaluate``, the tenant's
    namespace for a named ``tenant``, else the process-wide cache."""
    from repro.runtime import run_campaign, tenant_cache

    if plan.evaluate is not None or plan.spec.get("no_cache"):
        cache = None
    elif plan.spec.get("tenant"):
        cache = tenant_cache(plan.spec["tenant"])
    else:
        cache = "default"
    return run_campaign(plan.jobs, cache=cache, evaluate=plan.evaluate,
                        **{**plan.executor, **run_kwargs})


def _options(spec: Dict[str, Any]) -> Optional[TransientOptions]:
    return FAST_OPTIONS if spec.get("fast", True) else None


def _executor_kwargs(spec: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "backend": spec["backend"],
        "max_workers": spec["workers"],
        "batch_workers": spec["batch_workers"],
        "chunksize": spec["chunksize"],
        "on_error": spec["on_error"],
    }


def _number(value: Any, key: str) -> float:
    """``value`` as a float.  A boolean, a non-number or a non-finite
    number (JSON admits ``NaN`` and ``Infinity``) is a :class:`SpecError`."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise SpecError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(value: Any, key: str, minimum: int) -> int:
    """``value`` if it is an int of at least ``minimum`` (never a
    boolean), else a :class:`SpecError`."""
    if not _is_int(value, minimum):
        raise SpecError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _float_list(spec: Dict[str, Any], key: str) -> List[float]:
    values = spec[key]
    if not isinstance(values, (list, tuple)) or not values:
        raise SpecError(f"{key} must be a non-empty list of numbers")
    return [_number(v, key) for v in values]


def _check_circuits(jobs: List[Any]) -> None:
    """Check every job's skew and build each distinct sensor and clock
    pair of ``jobs`` once, so a value they reject (a negative load, a
    slew outside ``(0, period / 2)``, a skew that starts a clock edge at
    or before ``t = 0``) is a :class:`SpecError` at submit time instead
    of a ``ValueError`` inside the campaign."""
    from repro.core.response import check_skew
    from repro.runtime.jobs import job_circuit

    checked = set()
    for job in jobs:
        # The skew only moves a clock edge, so it needs no circuit.
        circuit = (job.load1, job.load2, job.slew1, job.slew2)
        try:
            check_skew(job.skew, job.settle)
            if circuit not in checked:
                checked.add(circuit)
                job_circuit(job)
        except ValueError as error:
            raise SpecError(f"bad circuit value: {error}") from None


def _jobs_payload(jobs: List[Any], campaign: Any) -> List[Dict[str, Any]]:
    """Per-job entries of a result payload (JobResult or JobError)."""
    from repro.errors import JobError

    entries = []
    for index, (job, result) in enumerate(zip(jobs, campaign.results)):
        if isinstance(result, JobError):
            entries.append({"index": index, "key": job.key(),
                            "error": result.error, "message": result.message})
        else:
            entries.append(dict(result.to_payload(), index=index, key=job.key(),
                                cached=result.cached, resumed=result.resumed))
    return entries


# --------------------------------------------------------------------- #
# Kind: sensitivity (the Fig.-4 family, = `repro campaign`).
# --------------------------------------------------------------------- #

def _build_sensitivity(spec: Dict[str, Any]) -> CampaignPlan:
    from repro.core.sensitivity import sensitivity_grid

    tau_max = ns(_number(spec["tau_max_ns"], "tau_max_ns"))
    points = _integer(spec["points"], "points", minimum=2)
    skews = [tau_max * k / (points - 1) for k in range(points)]
    jobs, curves_of = sensitivity_grid(
        [fF(v) for v in _float_list(spec, "loads_ff")],
        [ns(v) for v in _float_list(spec, "slews_ns")],
        skews, options=_options(spec), warm_start=spec["warm_start"],
    )
    _check_circuits(jobs)

    def fold(campaign: Any) -> Dict[str, Any]:
        return {
            "kind": "sensitivity",
            "curves": [
                {"load_f": c.load, "slew_s": c.slew, "skews_s": list(skews),
                 "vmins_v": [float(v) for v in c.vmins], "tau_min_s": c.tau_min}
                for c in curves_of(campaign.results)
            ],
            "jobs": _jobs_payload(jobs, campaign),
        }

    return CampaignPlan(jobs=jobs, fold=fold, executor=_executor_kwargs(spec))


register_kind(
    "sensitivity",
    defaults={
        "loads_ff": [80.0, 160.0, 240.0],
        "slews_ns": [0.2],
        "tau_max_ns": 0.5,
        "points": 8,
    },
    build=_build_sensitivity,
)


# --------------------------------------------------------------------- #
# Kind: montecarlo (the Fig.-5 scatter, = `repro montecarlo`).
# --------------------------------------------------------------------- #

def _build_montecarlo(spec: Dict[str, Any]) -> CampaignPlan:
    from repro.montecarlo.analysis import scatter_grid
    from repro.montecarlo.sampling import sample_population

    n_samples = _integer(spec["samples"], "samples", minimum=1)
    if spec["seed"] is None:
        # Fresh draws would make the campaign non-reproducible *and*
        # non-resumable (a restart would re-draw a different population).
        raise SpecError("montecarlo specs must carry an explicit seed")
    seed = _integer(spec["seed"], "seed", minimum=0)
    skews = [ns(v) for v in _float_list(spec, "skews_ns")]
    samples = sample_population(
        n_samples, fF(_number(spec["load_ff"], "load_ff")), seed=seed
    )
    jobs, points_of = scatter_grid(
        samples, skews, options=_options(spec), warm_start=spec["warm_start"]
    )
    _check_circuits(jobs)

    def fold(campaign: Any) -> Dict[str, Any]:
        points = points_of(campaign.results)
        return {
            "kind": "montecarlo",
            "points": [
                {"skew_s": p.skew, "vmin_v": p.vmin,
                 "sample_index": p.sample_index}
                for p in points
            ],
            "flagged": {
                repr(tau): sum(p.skew == tau and p.flags_error() for p in points)
                for tau in skews
            },
            "jobs": _jobs_payload(jobs, campaign),
        }

    return CampaignPlan(jobs=jobs, fold=fold, executor=_executor_kwargs(spec))


register_kind(
    "montecarlo",
    defaults={
        "samples": 30,
        "seed": None,
        "load_ff": 160.0,
        "skews_ns": [0.0, 0.05, 0.1, 0.15, 0.25, 0.4],
    },
    build=_build_montecarlo,
)


# --------------------------------------------------------------------- #
# Kind: whole_tree (full-chip clock network + N sensors, = `repro
# whole-tree`; runs on the sparse MNA path).
# --------------------------------------------------------------------- #

def _build_whole_tree(spec: Dict[str, Any]) -> CampaignPlan:
    from dataclasses import replace

    from repro.clocktree.whole_tree import (
        WholeTreeJob,
        check_scenario,
        evaluate_whole_tree_job,
    )

    topology = spec["topology"]
    seeds = spec["seeds"]
    if (not isinstance(seeds, (list, tuple)) or not seeds
            or not all(_is_int(s, minimum=0) for s in seeds)):
        raise SpecError("seeds must be a non-empty list of integers >= 0")
    levels = _integer(spec["levels"], "levels", minimum=1)
    sensors = _integer(spec["sensors"], "sensors", minimum=1)
    segments = _integer(spec["segments_per_wire"], "segments_per_wire",
                        minimum=1)
    grid = spec["grid"]
    if (not isinstance(grid, (list, tuple)) or len(grid) != 2
            or not all(_is_int(g, minimum=2) for g in grid)):
        raise SpecError("grid must be [rows, cols] with both >= 2")
    variation = _number(spec["variation"], "variation")
    if variation < 0:
        raise SpecError("variation must be >= 0")
    extra_kohm = _number(spec["fault_extra_kohm"], "fault_extra_kohm")
    fault = None
    if spec["fault_node"] is not None:
        if extra_kohm <= 0:
            raise SpecError("fault_extra_kohm must be > 0: an open of 0 ohm "
                            "is the healthy network")
        fault = ("resistive_open", str(spec["fault_node"]), extra_kohm * 1e3)
    # check_scenario refuses a point that is not a driver's, as given.
    dead = tuple(tuple(p) for p in spec["dead_injections"] or [])
    # Whole-chip instances are exactly the node counts the sparse path
    # exists for; "auto" keeps small test trees on dense reuse.
    options = replace(FAST_OPTIONS if spec["fast"] else TransientOptions(),
                      jacobian_policy="auto")
    jobs = [
        WholeTreeJob(
            topology=topology,
            levels=levels,
            rows=grid[0],
            cols=grid[1],
            n_sensors=sensors,
            variation=variation,
            seed=seed,
            fault=fault,
            dead_injections=dead,
            segments_per_wire=segments,
            options=options,
        )
        for seed in seeds
    ]
    try:
        check_scenario(topology, levels, fault=jobs[0].tree_fault(),
                       variation=variation, dead_injections=dead,
                       n_sensors=sensors, grid_shape=tuple(grid))
    except ValueError as error:
        raise SpecError(str(error)) from None

    def fold(campaign: Any) -> Dict[str, Any]:
        runs = []
        for i, result in enumerate(campaign.results):
            entry: Dict[str, Any] = {"seed": jobs[i].seed}
            if getattr(result, "ok", False):
                entry.update(
                    worst_skew_s=result.skew,
                    code=list(result.code),
                    flagged=result.error_detected,
                    n_nodes=result.n_nodes,
                    skews_s={label: skew for label, skew, _ in result.pairs},
                    codes={label: list(code)
                           for label, _, code in result.pairs},
                )
            runs.append(entry)
        return {
            "kind": "whole_tree",
            "topology": topology,
            "runs": runs,
            "flagged": sum(1 for r in runs if r.get("flagged")),
            "jobs": _jobs_payload(jobs, campaign),
        }

    return CampaignPlan(
        jobs=jobs, fold=fold, executor=_executor_kwargs(spec),
        evaluate=evaluate_whole_tree_job,
    )


register_kind(
    "whole_tree",
    defaults={
        "topology": "htree",
        "levels": 2,
        "grid": [6, 6],
        "sensors": 2,
        "variation": 0.0,
        "seeds": [0],
        "fault_node": None,
        "fault_extra_kohm": 8.0,
        "dead_injections": [],
        "segments_per_wire": 3,
    },
    build=_build_whole_tree,
)
