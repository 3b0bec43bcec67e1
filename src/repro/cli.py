"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``waves``        Fig.-2/3 style waveform report for a chosen skew.
``sensitivity``  Fig.-4 style Vmin-vs-tau sweep and tau_min extraction.
``campaign``     Runtime-orchestrated sensitivity campaign: choice of
                 serial/process/batch backend, cache reuse,
                 telemetry summary and JSON report.
``montecarlo``   Fig.-5 style Monte Carlo scatter with a seedable
                 population; ``--backend batch`` solves the whole
                 population in lockstep on the vectorised engine.
``cache``        Inspect or clear the content-addressed result cache.
``testability``  Sec.-3 fault-coverage analysis of the sensor.
``scheme``       Fig.-6 style campaign: sensors over an H-tree with an
                 injected fault, scan-path and checker readout.
``whole-tree``   Full-chip clock network (H-tree or TRIX-style grid)
                 with N sensing circuits, one transient on the sparse
                 MNA engine.
``export``       Write the sensor netlist as a SPICE deck.
``serve``        Run the campaign service (HTTP API + scheduler).
``submit``       Submit a campaign spec to a running service.
``status``       One campaign's lifecycle record.
``result``       A finished campaign's result payload.
``cancel``       Cancel a queued or running campaign.

``sensitivity``, ``campaign``, ``montecarlo`` and ``whole-tree`` run the
plan of their flags' spec through the scheduler's run entry,
:func:`repro.service.specs.run_plan`; a spec the service refuses exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.units import fF, ns, to_ns

#: Default service endpoint of the client subcommands.
DEFAULT_SERVICE_URL = "http://127.0.0.1:8765"


def _cmd_waves(args: argparse.Namespace) -> int:
    from repro.analog.engine import FAST_OPTIONS
    from repro.core.response import simulate_sensor
    from repro.core.sensing import SkewSensor
    from repro.report import waveform_report

    try:
        sensor = SkewSensor(load1=fF(args.load), load2=fF(args.load),
                            full_swing=args.full_swing)
        # The sensor, its clocks and their skew refuse a bad value with a
        # ValueError before the transient starts.
        response = simulate_sensor(
            sensor, skew=ns(args.skew), slew1=ns(args.slew),
            slew2=ns(args.slew), options=FAST_OPTIONS,
        )
    except ValueError as error:
        print(f"error: bad circuit value: {error}", file=sys.stderr)
        return 2
    print(waveform_report(response, t0=ns(1.0), t1=ns(14.0)))
    return 0


#: Spec key and default of each runtime flag a grid command or
#: ``repro submit`` may have (by argparse ``dest``).
_RUNTIME_FLAGS = (
    ("backend", "backend", "serial"),
    ("workers", "workers", None),
    ("batch_workers", "batch_workers", None),
    ("on_error", "on_error", "raise"),
    ("no_cache", "no_cache", False),
    ("tenant", "tenant", ""),
    ("timeout", "timeout_s", None),
)


def _spec(args: argparse.Namespace) -> dict:
    """The service spec of the flags of ``sensitivity``, ``campaign``,
    ``montecarlo``, ``whole-tree`` or ``submit``.  A runtime flag a
    command lacks, or leaves at its default, and a whole-tree flag not
    given stay out: the kind's default applies."""
    if args.kind == "sensitivity":
        spec = {"kind": "sensitivity", "loads_ff": args.loads,
                "slews_ns": args.slews, "tau_max_ns": args.tau_max,
                "points": args.points}
    elif args.kind == "whole_tree":
        given = {"topology": args.topology, "levels": args.levels,
                 "grid": args.grid, "sensors": args.sensors,
                 "variation": args.variation, "fault_node": args.open_node,
                 "dead_injections": args.dead_injection,
                 "segments_per_wire": args.segments,
                 "seeds": None if args.seed is None else [args.seed],
                 "fault_extra_kohm": (None if args.open_ohms is None
                                      else args.open_ohms / 1e3)}
        spec = {"kind": "whole_tree",
                **{key: v for key, v in given.items() if v is not None}}
    else:
        spec = {"kind": "montecarlo", "samples": args.samples,
                "seed": args.seed, "load_ff": args.load,
                "skews_ns": args.skews}
    for flag, key, default in _RUNTIME_FLAGS:
        value = getattr(args, flag, default)
        if value != default:
            spec[key] = value
    if getattr(args, "no_warm_start", False):
        spec["warm_start"] = False
    return spec


def _run(args: argparse.Namespace, spec: dict, **run_kwargs):
    """Build ``spec``'s plan once and run it through the scheduler's run
    entry: ``(plan, folded payload, telemetry)``, or ``None`` after
    printing the kind's refusal (an HTTP 400 there) as ``error: ...``."""
    from repro.runtime import Telemetry
    from repro.service.specs import SpecError, build_plan, run_plan

    try:
        plan = build_plan(spec)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    telemetry = Telemetry()
    with telemetry.timer(args.command):
        campaign = run_plan(plan, telemetry=telemetry, **run_kwargs)
    return plan, plan.fold(campaign), telemetry


def _print_telemetry(args: argparse.Namespace, telemetry) -> None:
    """The telemetry summary (on ``--stats``; ``campaign`` has no such
    flag and always prints it) and the ``--json`` report."""
    if getattr(args, "stats", True):
        print("--- runtime telemetry ---")
        print(telemetry.summary())
    if getattr(args, "json", None):
        telemetry.to_json(args.json)
        print(f"wrote {args.json}")


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.sensitivity import SensitivityCurve
    from repro.report import sensitivity_report

    ran = _run(args, _spec(args))
    if ran is None:
        return 2
    _, payload, telemetry = ran
    print(sensitivity_report([
        SensitivityCurve(load=c["load_f"], slew=c["slew_s"],
                         skews=np.array(c["skews_s"]),
                         vmins=np.array(c["vmins_v"]))
        for c in payload["curves"]
    ]))
    _print_telemetry(args, telemetry)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    ran = _run(args, _spec(args), checkpoint=args.checkpoint,
               resume=args.resume)
    if ran is None:
        return 2
    _, payload, telemetry = ran
    print(f"campaign: {len(payload['curves'])} curves x {args.points} skew "
          f"points ({args.backend} backend)")
    if telemetry.jobs_failed:
        print(f"  {telemetry.jobs_failed} job(s) failed and were collected "
              "as JobError records (see telemetry)")
    for curve in payload["curves"]:
        tau = curve["tau_min_s"]
        tau_text = f"{to_ns(tau):.3f} ns" if tau is not None else "no crossing"
        print(f"  load {curve['load_f'] * 1e15:6.1f} fF  slew "
              f"{curve['slew_s'] * 1e9:4.2f} ns : tau_min = {tau_text}")
    _print_telemetry(args, telemetry)
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    import numpy as np

    spec = _spec(args)
    if spec["seed"] is None:
        # The montecarlo kind needs a seed; without --seed the CLI draws
        # a fresh one, so the plan samples a fresh population.
        spec["seed"] = int(np.random.SeedSequence().entropy)
    ran = _run(args, spec)
    if ran is None:
        return 2
    _, payload, telemetry = ran
    seed_text = args.seed if args.seed is not None else "none (fresh draws)"
    print(f"montecarlo: {args.samples} samples x {len(args.skews)} skews "
          f"({args.backend} backend, seed {seed_text})")
    print("  tau[ns]   Vmin: min    mean    max   flagged")
    for tau_ns in args.skews:
        tau = ns(tau_ns)
        vmins = np.array([p["vmin_v"] for p in payload["points"]
                          if p["skew_s"] == tau])
        print(f"  {tau_ns:6.2f}   {vmins.min():9.2f} {vmins.mean():7.2f} "
              f"{vmins.max():6.2f}   {payload['flagged'][repr(tau)]}"
              f"/{len(vmins)}")
    _print_telemetry(args, telemetry)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime import get_cache, get_checkpoint_cache, parse_size
    from repro.runtime.cache import (
        ENV_CACHE_DIR, ENV_CACHE_DISABLE, ENV_CACHE_MAX_BYTES,
    )

    if args.checkpoints:
        cache = get_checkpoint_cache()
        tier = "checkpoint (prefix warm-start)"
    else:
        cache = get_cache()
        tier = "result"
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from the {tier} cache at "
              f"{cache.disk_dir or 'memory (disk tier disabled)'}")
        return 0
    if args.prune or args.max_bytes is not None:
        budget = cache.max_disk_bytes
        if args.max_bytes is not None:
            try:
                budget = parse_size(args.max_bytes)
            except ValueError as error:
                print(f"error: --max-bytes: {error}", file=sys.stderr)
                return 2
        if budget is None:
            print("error: no budget to prune to (pass --max-bytes or set "
                  f"{ENV_CACHE_MAX_BYTES})", file=sys.stderr)
            return 2
        before = cache.disk_total_bytes()
        removed = cache.prune(max_bytes=budget)
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
              f"({before / 1024:.1f} -> "
              f"{cache.disk_total_bytes() / 1024:.1f} KiB, budget "
              f"{budget / 1024:.1f} KiB)")
        return 0
    # info
    print(f"tier       : {tier}")
    print(f"version    : v{cache.version} (engine fingerprint)")
    if cache.disk_enabled:
        size = cache.disk_size_bytes()
        print(f"directory  : {cache.disk_dir}")
        print(f"entries    : {cache.disk_entries()} on disk "
              f"({size / 1024:.1f} KiB), {len(cache)} in memory")
        budget = cache.max_disk_bytes
        budget_text = (
            f"{budget / 1024:.1f} KiB" if budget is not None else "unbounded"
        )
        print(f"footprint  : {cache.disk_total_bytes() / 1024:.1f} KiB "
              f"across all namespaces (budget {budget_text})")
    else:
        print("directory  : disk tier disabled "
              f"(set {ENV_CACHE_DIR} or unset {ENV_CACHE_DISABLE})")
        print(f"entries    : {len(cache)} in memory")
    print(f"env        : {ENV_CACHE_DIR} overrides the directory, "
          f"{ENV_CACHE_DISABLE}=1 disables the disk tier, "
          f"{ENV_CACHE_MAX_BYTES} bounds it (LRU eviction)")
    return 0


def _cmd_testability(args: argparse.Namespace) -> int:
    from repro.analog.engine import FAST_OPTIONS
    from repro.report import testability_report_text
    from repro.testing.testability import analyze_sensor_testability

    report = analyze_sensor_testability(options=FAST_OPTIONS)
    print(testability_report_text(report))
    return 0


def _cmd_scheme(args: argparse.Namespace) -> int:
    from repro.clocktree import Buffer, ResistiveOpen, build_h_tree
    from repro.testing.scheme import ClockTestingScheme

    tree = build_h_tree(levels=args.levels, buffer=Buffer())
    scheme = ClockTestingScheme.plan(
        tree, tau_min=ns(args.tau_min), max_distance=args.max_distance_mm * 1e-3,
        top_k=args.sensors,
    )
    print(f"tree: {len(tree.sinks())} sinks; monitoring "
          f"{len(scheme.placements)} pairs")
    state = None
    if args.open_node:
        fault = ResistiveOpen(
            node=args.open_node, extra_resistance=args.open_ohms
        )
        print(f"injected: {fault.describe()}")
        state = fault.apply(tree)
    observations = scheme.observe(state)
    for obs in observations:
        print(
            f"  {obs.placement.indicator.name:<12} "
            f"skew {to_ns(obs.skew):+8.3f} ns  code {obs.code}"
        )
    print(f"scan path : {scheme.scan_out()}")
    print(f"checker   : {'ALARM' if scheme.online_alarm() else 'ok'}")
    from repro.testing.diagnosis import diagnose, diagnosis_report

    print("diagnosis :")
    for line in diagnosis_report(diagnose(scheme)).splitlines():
        print(f"  {line}")
    return 0


def _cmd_whole_tree(args: argparse.Namespace) -> int:
    ran = _run(args, _spec(args))
    if ran is None:
        return 2
    plan, payload, telemetry = ran
    (run,) = payload["runs"]
    kernel = telemetry.kernel
    if args.json:
        print(json.dumps({
            "topology": payload["topology"],
            **{key: run[key] for key in ("n_nodes", "skews_s", "codes",
                                         "flagged")},
            "kernel": kernel,
        }, indent=2))
        return 0
    print(f"{payload['topology']}: {run['n_nodes']} MNA nodes, "
          f"{len(run['codes'])} sensors")
    if kernel.get("sparse_nnz"):
        print(f"sparse: nnz {kernel['sparse_nnz']}, "
              f"LU fill {kernel.get('sparse_fill_nnz', 0)}")
    if args.open_node:
        print(f"injected: {plan.jobs[0].tree_fault().describe()}")
    for label, skew in run["skews_s"].items():
        shown = "   never" if skew is None else f"{to_ns(skew):+8.3f}"
        print(f"  {label:<16} skew {shown} ns  "
              f"code {tuple(run['codes'][label])}")
    print(f"checker   : {'ALARM' if run['flagged'] else 'ok'}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.circuit.spice import to_spice
    from repro.core.sensing import SkewSensor

    sensor = SkewSensor(
        load1=fF(args.load), load2=fF(args.load), full_swing=args.full_swing
    )
    netlist = sensor.build()
    netlist.drive_dc("phi1", 0.0)
    netlist.drive_dc("phi2", 0.0)
    deck = to_spice(netlist, title="skew sensing circuit (Favalli/Metra 1997)")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(deck)
        print(f"wrote {args.output}")
    else:
        print(deck, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.api import create_server, serve_forever

    server = create_server(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        quota=args.quota,
        access_log=args.access_log,
        max_concurrent=args.max_concurrent,
        max_queue_depth=args.max_queue_depth,
    )
    if args.port_file:
        with open(args.port_file, "w") as handle:
            handle.write(str(server.port))
    print(f"serving campaigns on http://{args.host}:{server.port} "
          f"(state: {server.scheduler.store.root})")
    serve_forever(server)
    return 0


def _load_spec(args: argparse.Namespace) -> dict:
    """The spec of a ``repro submit``: ``--spec JSON``, ``--spec @file``,
    or the one the run commands build from the same flags."""
    if args.spec:
        text = args.spec
        if text.startswith("@"):
            with open(text[1:]) as handle:
                text = handle.read()
        return json.loads(text)
    if args.kind == "montecarlo" and args.seed is None:
        print("error: montecarlo specs need --seed (reproducibility)",
              file=sys.stderr)
        raise SystemExit(2)
    return _spec(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        record = client.submit(
            _load_spec(args), client=args.client, priority=args.priority
        )
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    campaign_id = record["campaign_id"]
    print(f"submitted {campaign_id} "
          f"(priority {record['priority']}, state {record['state']})")
    if args.stream:
        for event in client.stream_events(campaign_id, timeout=args.wait):
            print(f"  {json.dumps(event)}")
    if args.stream or args.wait_done:
        final = client.wait(campaign_id, timeout=args.wait)
        print(f"final state: {final['state']} "
              f"({final['completed']}/{final['total']} jobs)")
        if final["state"] == "failed":
            print(f"error: {final['error']}", file=sys.stderr)
            return 1
        return 0 if final["state"] == "done" else 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.id:
            payload = client.status(args.id)
        else:
            # No id: the server's own health (scheduler liveness, last
            # heartbeat age, quarantined lines).
            payload = client.health()
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_service_compact(args: argparse.Namespace) -> int:
    from repro.service.store import JobStore

    with JobStore(args.root) as store:
        stats = store.compact()
    print(f"compacted {store.journal_path}: "
          f"{stats['campaigns']} campaign(s), "
          f"{stats['bytes_before']} -> {stats['bytes_after']} bytes")
    if store.quarantined:
        print(f"quarantined {store.quarantined} corrupt line(s) "
              f"to {store.quarantine_file}")
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        payload = client.result(args.id)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    # The served order, not sorted: a whole-tree run lists its sensor
    # pairs in placement order.
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        outcome = client.cancel(args.id)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"cancelled: {outcome['cancelled']} (state {outcome['state']})")
    return 0 if outcome["cancelled"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report.aggregate import build_report, write_report

    if args.output:
        path = write_report(args.out_dir, args.output)
        print(f"wrote {path}")
    else:
        print(build_report(args.out_dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clock-skew testing scheme reproduction "
        "(Favalli & Metra, ED&TC 1997)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    waves = sub.add_parser("waves", help="waveform report for one skew")
    waves.add_argument("--skew", type=float, default=1.0, help="tau in ns")
    waves.add_argument("--load", type=float, default=160.0, help="load in fF")
    waves.add_argument("--slew", type=float, default=0.2, help="slew in ns")
    waves.add_argument("--full-swing", action="store_true")
    waves.set_defaults(func=_cmd_waves)

    def add_executor_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", default="serial",
                       help="campaign executor backend: serial, process or "
                            "batch (lockstep vectorised engine)")
        p.add_argument("--workers", type=int, default=None,
                       help="pool width (default: half the CPUs)")
        p.add_argument("--batch-workers", type=int, default=None,
                       help="batch-backend shard workers: whole lockstep "
                            "stacks fan out over this many processes "
                            "(default: the --workers value; 1 = unsharded)")

    def add_runtime_flags(p: argparse.ArgumentParser) -> None:
        add_executor_flags(p)
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache")
        p.add_argument("--no-warm-start", action="store_true",
                       help="build each job's pre-skew prefix on the spot "
                            "instead of through the checkpoint cache tier "
                            "(same results)")

    def add_sweep_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--loads", type=float, nargs="+",
                       default=[80.0, 160.0, 240.0], help="loads in fF")
        p.add_argument("--tau-max", type=float, default=0.5,
                       help="sweep end, ns")
        p.add_argument("--points", type=int, default=8)

    def add_population_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--samples", type=int, default=30,
                       help="population size")
        p.add_argument("--seed", type=int, default=None,
                       help="population seed (same seed = same draws; "
                            "montecarlo draws a fresh one without it, "
                            "submit needs it)")
        p.add_argument("--load", type=float, default=160.0,
                       help="nominal load in fF")
        p.add_argument("--skews", type=float, nargs="+",
                       default=[0.0, 0.05, 0.1, 0.15, 0.25, 0.4],
                       help="skew grid in ns")

    sens = sub.add_parser("sensitivity", help="Vmin vs tau sweep")
    add_sweep_flags(sens)
    sens.add_argument("--slew", dest="slews", type=float, nargs=1,
                      default=[0.2], metavar="SLEW", help="slew in ns")
    add_runtime_flags(sens)
    sens.add_argument("--stats", action="store_true",
                      help="print runtime telemetry (cache hits, timings)")
    sens.set_defaults(func=_cmd_sensitivity, kind="sensitivity")

    camp = sub.add_parser(
        "campaign",
        help="runtime-orchestrated sensitivity campaign with telemetry",
    )
    add_sweep_flags(camp)
    camp.add_argument("--slews", type=float, nargs="+",
                      default=[0.1, 0.2, 0.3, 0.4], help="slews in ns")
    add_runtime_flags(camp)
    camp.add_argument("--json", type=str, default=None,
                      help="write the telemetry report to this JSON file")
    camp.add_argument("--on-error", default="raise",
                      help="abort on the first failed job (raise) or record "
                           "it as a JobError and keep going (collect)")
    camp.add_argument("--checkpoint", type=str, default=None,
                      help="journal completed jobs to this JSONL file "
                           "(append-only; enables --resume)")
    camp.add_argument("--resume", action="store_true",
                      help="skip jobs already completed in the --checkpoint "
                           "journal instead of re-running them")
    camp.set_defaults(func=_cmd_campaign, kind="sensitivity")

    mc = sub.add_parser(
        "montecarlo",
        help="Fig.-5 style Monte Carlo scatter (seedable population)",
    )
    add_population_flags(mc)
    add_runtime_flags(mc)
    mc.add_argument("--stats", action="store_true",
                    help="print runtime telemetry (batch counters, timings)")
    mc.add_argument("--json", type=str, default=None,
                    help="write the telemetry report to this JSON file")
    mc.set_defaults(func=_cmd_montecarlo, kind="montecarlo")

    cache = sub.add_parser(
        "cache", help="inspect or clear the content-addressed result cache"
    )
    cache.add_argument("action", choices=["info", "clear"], nargs="?",
                       default="info")
    cache.add_argument("--checkpoints", action="store_true",
                       help="operate on the prefix-checkpoint tier instead "
                            "of the result cache")
    cache.add_argument("--prune", action="store_true",
                       help="LRU-evict disk entries down to the budget "
                            "(REPRO_CACHE_MAX_BYTES or --max-bytes)")
    cache.add_argument("--max-bytes", type=str, default=None,
                       help="prune budget, bytes (k/m/g suffixes accepted; "
                            "implies --prune)")
    cache.set_defaults(func=_cmd_cache)

    testa = sub.add_parser("testability", help="Sec.-3 fault coverage")
    testa.set_defaults(func=_cmd_testability)

    scheme = sub.add_parser("scheme", help="Fig.-6 campaign on an H-tree")
    scheme.add_argument("--levels", type=int, default=2)
    scheme.add_argument("--sensors", type=int, default=6)
    scheme.add_argument("--tau-min", type=float, default=0.12,
                        help="calibrated sensitivity, ns")
    scheme.add_argument("--max-distance-mm", type=float, default=8.0)
    scheme.add_argument("--open-node", type=str, default=None,
                        help="inject a resistive open at this tree node")
    scheme.add_argument("--open-ohms", type=float, default=8000.0)
    scheme.set_defaults(func=_cmd_scheme)

    wtree = sub.add_parser(
        "whole-tree",
        help="full-chip clock network with N sensors (sparse engine)",
    )
    # No defaults here: a flag left out takes the whole_tree kind's.
    wtree.add_argument("--topology", choices=("htree", "grid"))
    wtree.add_argument("--levels", type=int,
                       help="H-tree levels (4**levels sinks)")
    wtree.add_argument("--grid", type=int, nargs=2,
                       metavar=("ROWS", "COLS"),
                       help="grid topology shape")
    wtree.add_argument("--sensors", type=int)
    wtree.add_argument("--variation", type=float,
                       help="relative RC/buffer process variation")
    wtree.add_argument("--seed", type=int)
    wtree.add_argument("--open-node", type=str,
                       help="inject a resistive open at this tree node")
    wtree.add_argument("--open-ohms", type=float)
    wtree.add_argument("--dead-injection", type=int, nargs=2,
                       action="append", metavar=("ROW", "COL"),
                       help="kill a grid injection driver (repeatable)")
    wtree.add_argument("--segments", type=int,
                       help="RC segments per wire")
    wtree.add_argument("--json", action="store_true")
    wtree.set_defaults(func=_cmd_whole_tree, kind="whole_tree")

    export = sub.add_parser("export", help="SPICE deck of the sensor")
    export.add_argument("--load", type=float, default=160.0, help="load in fF")
    export.add_argument("--full-swing", action="store_true")
    export.add_argument("-o", "--output", type=str, default=None)
    export.set_defaults(func=_cmd_export)

    serve = sub.add_parser(
        "serve", help="run the campaign service (HTTP API + scheduler)"
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 = ephemeral; see --port-file)")
    serve.add_argument("--state-dir", type=str, default=None,
                       help="journal/result directory (default: "
                            "REPRO_SERVICE_DIR or ~/.cache/repro/service)")
    serve.add_argument("--quota", type=int, default=None,
                       help="max campaigns in flight per client")
    serve.add_argument("--port-file", type=str, default=None,
                       help="write the bound port to this file (for "
                            "scripts using --port 0)")
    serve.add_argument("--max-concurrent", type=int, default=None,
                       help="campaigns executed concurrently (default 1; "
                            "wider schedulers split the worker budget)")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       help="bound on queued campaigns (503 + Retry-After "
                            "beyond it; default unbounded)")
    serve.add_argument("--access-log", action="store_true",
                       help="log every request to stderr")
    serve.set_defaults(func=_cmd_serve)

    def add_client_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", type=str, default=DEFAULT_SERVICE_URL,
                       help="service endpoint")

    submit = sub.add_parser(
        "submit", help="submit a campaign spec to a running service"
    )
    add_client_flags(submit)
    submit.add_argument("--spec", type=str, default=None,
                        help="raw spec JSON (or @file); overrides the "
                             "kind flags below")
    submit.add_argument("--kind", choices=["sensitivity", "montecarlo"],
                        default="sensitivity")
    add_sweep_flags(submit)
    submit.add_argument("--slews", type=float, nargs="+", default=[0.2],
                        help="slews in ns")
    add_population_flags(submit)
    add_executor_flags(submit)
    submit.add_argument("--tenant", type=str, default="",
                        help="cache namespace for this campaign")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-campaign wall budget, seconds")
    submit.add_argument("--client", type=str, default="",
                        help="client name (quota accounting)")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first")
    submit.add_argument("--stream", action="store_true",
                        help="stream progress events until the campaign "
                             "finishes")
    submit.add_argument("--wait-done", action="store_true",
                        help="block until the campaign is terminal")
    submit.add_argument("--wait", type=float, default=600.0,
                        help="--stream/--wait-done timeout, seconds")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status",
        help="one campaign's status record (no id: server health with "
             "scheduler liveness and heartbeat age)",
    )
    add_client_flags(status)
    status.add_argument("id", type=str, nargs="?", default=None)
    status.set_defaults(func=_cmd_status)

    service = sub.add_parser(
        "service", help="offline maintenance of a service state directory"
    )
    service_sub = service.add_subparsers(dest="service_command",
                                         required=True)
    compact = service_sub.add_parser(
        "compact",
        help="atomically rewrite the lifecycle journal as its minimal "
             "snapshot (quarantining any corrupt lines found)",
    )
    compact.add_argument("root", type=str,
                         help="service state directory (the --state-dir "
                              "of the server that owns it; stop the "
                              "server first)")
    compact.set_defaults(func=_cmd_service_compact)

    result = sub.add_parser("result", help="a finished campaign's result")
    add_client_flags(result)
    result.add_argument("id", type=str)
    result.add_argument("-o", "--output", type=str, default=None)
    result.set_defaults(func=_cmd_result)

    cancel = sub.add_parser("cancel", help="cancel a campaign")
    add_client_flags(cancel)
    cancel.add_argument("id", type=str)
    cancel.set_defaults(func=_cmd_cancel)

    report = sub.add_parser(
        "report", help="aggregate benchmark outputs into REPORT.md"
    )
    report.add_argument(
        "--out-dir", type=str, default="benchmarks/out",
        help="directory holding the bench result blocks",
    )
    report.add_argument("-o", "--output", type=str, default=None)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
