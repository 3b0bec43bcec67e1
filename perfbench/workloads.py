"""The benchmark's four workloads, driven through the program's public
entry points.

Each workload turns the seed into inputs in :meth:`Workload.setup`,
runs whole *passes* (fixed-composition units of work) in
:meth:`Workload.run` until its caller says stop, records one latency
per *answer* (the unit a user waits for), and checks correctness on a
held-out slice in :meth:`Workload.check`, outside the timed region.
What the program returns about its own work (``Telemetry``,
``kernel_stats``, ``/metrics``) is summed into :attr:`Workload.counters`
for the per-layer report.

The program sees only the generated inputs: every cache, checkpoint and
service store lives in a fresh directory under the run's work dir, and
worker counts, warm start and engine options are passed explicitly.
See README.md for why each workload exists and what it should move.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.runtime import Telemetry, reset_cache, run_campaign
from repro.service.specs import FAST_OPTIONS, build_plan

#: Seconds one pass takes on the 2-core box the benchmark was sized on.
PASS_SECONDS = {
    "mc_scatter": 2.0, "tau_search": 1.0, "tree_sparse": 2.0,
    "service_mix": 1.4,
}


#: Seconds one round of :func:`calibrate`'s loop takes on a quiet CPU of
#: the sizing box.
REFERENCE_S = 0.0085


def calibrate() -> float:
    """Seconds the reference loop takes now, averaged over the CPUs.

    The loop mixes interpreted arithmetic with small dense inverses, the
    two kinds of work the program's hot paths do, and touches no program
    code.  On the shared sizing box each CPU flips between full and
    about half speed every few seconds, independently of the other, so
    the calling thread times the loop on each CPU in turn (best of two,
    at most four CPUs) and returns the mean.
    """
    a = np.eye(12) + np.arange(144.0).reshape(12, 12) / 1440.0
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:4]:
            os.sched_setaffinity(0, {cpu})
            best = math.inf
            for _ in range(2):
                t0 = time.perf_counter()
                total = 0.0
                for i in range(16000):
                    total += i * 0.5
                for _ in range(800):
                    np.linalg.inv(a)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(times)


def passes(name: str, seconds: float) -> int:
    """Passes that take about ``seconds`` on the sizing box: a run does
    this fixed amount of work, so one seed always gives the same answers."""
    return max(1, round(seconds / PASS_SECONDS[name]))


class Answers:
    """Outcomes of the timed answers and of the correctness checks."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.jobs = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def record(self, latency: float, ok: bool, jobs: int = 1,
               what: str = "") -> None:
        """One timed answer; ``ok`` is its per-answer correctness."""
        with self._lock:
            self.latencies.append(latency)
            self.attempted += 1
            self.jobs += jobs
            if not ok:
                self.failed += 1
                self.problems.append(f"wrong answer: {what}")

    def fail(self, count: int, what: str) -> None:
        """``count`` answers that raised instead of answering."""
        with self._lock:
            self.attempted += count
            self.failed += count
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        """One correctness check on the held-out slice."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"check failed: {what}")


class Workload:
    """Base: fresh directories, counters and the run record."""

    name = ""

    def __init__(self, seed: int, work_dir: Path, tracer: Any = None) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.tracer = tracer
        self.counters: Dict[str, Any] = {
            "kernel": {}, "prefix": {}, "batch": {}, "sparse": {},
            "service": {},
        }
        #: Resolved configuration, printed with every run.
        self.record: Dict[str, Any] = {}
        self._dirs = 0

    def fresh_dir(self, tag: str) -> str:
        self._dirs += 1
        path = self.work_dir / f"{tag}-{self._dirs}"
        path.mkdir(parents=True)
        return str(path)

    def fresh_cache(self) -> None:
        """Point the default result and checkpoint caches at an empty
        directory (the program's documented knob for its cache root)."""
        os.environ["REPRO_CACHE_DIR"] = self.fresh_dir("cache")
        reset_cache()

    def answer(self, answer_id: Any):
        """Tag the spans of one answer (no-op when not tracing)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.answer(answer_id)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, answers: Answers, keep_going: Callable[[int], bool]) -> None:
        """Run passes while ``keep_going(passes_done)``."""
        raise NotImplementedError

    def check(self, answers: Answers) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    # ----------------------------------------------------------------- #
    # Returned counters.
    # ----------------------------------------------------------------- #

    def add_kernel(self, stats: Mapping[str, float]) -> None:
        kernel, sparse = self.counters["kernel"], self.counters["sparse"]
        for name, value in stats.items():
            if name.startswith("sparse_"):
                continue
            kernel[name] = kernel.get(name, 0) + value
        if stats.get("sparse_nnz"):
            sparse["runs"] = sparse.get("runs", 0) + 1
            sparse["nnz"] = sparse.get("nnz", 0) + stats["sparse_nnz"]
            sparse["fill_nnz"] = (sparse.get("fill_nnz", 0)
                                  + stats.get("sparse_fill_nnz", 0))
            sparse["fallbacks"] = (sparse.get("fallbacks", 0)
                                   + stats.get("sparse_fallback", 0))

    def add_telemetry(self, telemetry: Telemetry) -> None:
        self.add_kernel(telemetry.kernel)
        prefix = self.counters["prefix"]
        for name, value in (("hits", telemetry.prefix_hits),
                            ("builds", telemetry.prefix_builds),
                            ("build_s", telemetry.prefix_build_s),
                            ("saved_s", telemetry.prefix_saved_time_s)):
            prefix[name] = prefix.get(name, 0) + value
        if telemetry.batch_stack_size:
            batch = self.counters["batch"]
            batch["samples"] = batch.get("samples", 0) + telemetry.batched_samples
            batch["fallbacks"] = (batch.get("fallbacks", 0)
                                  + telemetry.batch_fallbacks)
            batch["stack_size"] = telemetry.batch_stack_size
            batch["workers"] = telemetry.batch_workers
            # Evaluated jobs' walls are their stacks' worker-side time.
            batch["busy_s"] = batch.get("busy_s", 0.0) + sum(
                r.wall for r in telemetry.records if not r.cached)
            batch["steps"] = batch.get("steps", 0) + telemetry.steps_integrated


# --------------------------------------------------------------------- #
# mc_scatter: Fig. 5 Monte Carlo through the sharded batch backend.
# --------------------------------------------------------------------- #

class McScatter(Workload):
    """Fig. 5 / Table 1 Monte Carlo: 3 loads x 6 samples x 6 skews per
    campaign, ``run_campaign(backend="batch", batch_workers=2)`` with an
    auto-tuned stack size, warm start on and a fresh result cache."""

    name = "mc_scatter"
    LOADS_FF = (80.0, 160.0, 240.0)
    SAMPLES = 6
    WORKERS = 2
    #: Distinct campaigns drawn from the seed; a longer run cycles them,
    #: each time with fresh caches, so every campaign costs the same.
    CAMPAIGNS = 6
    #: Held-out check tolerance against the serial scalar engine.  A
    #: lockstep stack walks a merged time grid, so it may differ from a
    #: scalar run by the FAST local-error scale ``reltol * vdd`` (times
    #: ``TOL_V``) or, on the steep flank of ``Vmin(tau)``, by the
    #: voltage a timing error of ``TOL_DT`` of ``dt_max`` makes there.
    TOL_V = 2.0
    TOL_DT = 0.25

    def _jobs(self, rng: np.random.Generator, samples: int) -> List[Any]:
        jobs: List[Any] = []
        for load in self.LOADS_FF:
            jobs += build_plan({
                "kind": "montecarlo", "samples": samples,
                "seed": int(rng.integers(2 ** 31)), "load_ff": load,
                "warm_start": True, "fast": True,
            }).jobs
        return jobs

    def setup(self) -> None:
        from repro.devices.process import nominal_process

        self.vdd = nominal_process().vdd
        rng = np.random.default_rng(self.seed)
        self.campaigns = [self._jobs(rng, self.SAMPLES)
                          for _ in range(self.CAMPAIGNS)]
        self.held_out = self._jobs(rng, 1)
        self.points: List[tuple] = []
        self.record.update(workers=self.WORKERS, stack_sizes=[],
                           stack_auto=None)

    def run(self, answers: Answers, keep_going: Callable[[int], bool]) -> None:
        k = 0
        while keep_going(k):
            jobs = self.campaigns[k % len(self.campaigns)]
            self.fresh_cache()
            landed: List[Optional[float]] = [None] * len(jobs)
            t0 = time.perf_counter()

            def progress(index: int, result: Any) -> None:
                landed[index] = time.perf_counter() - t0

            try:
                with self.answer(f"campaign{k}"):
                    campaign = run_campaign(
                        jobs, backend="batch", max_workers=self.WORKERS,
                        batch_workers=self.WORKERS, progress=progress,
                    )
            except Exception:  # noqa: BLE001 - count it, keep measuring
                answers.fail(len(jobs), traceback.format_exc(limit=3))
                k += 1
                continue
            for index, result in enumerate(campaign.results):
                vmin = getattr(result, "vmin_late", math.nan)
                ok = (landed[index] is not None
                      and -0.5 < vmin < self.vdd + 0.5)
                answers.record(landed[index] or 0.0, ok, 1,
                               f"{self.name} job {index} vmin={vmin}")
                self.points.append((jobs[index].skew, vmin))
            telemetry = campaign.telemetry
            self.add_telemetry(telemetry)
            if telemetry.batch_stack_size not in self.record["stack_sizes"]:
                self.record["stack_sizes"].append(telemetry.batch_stack_size)
            self.record["stack_auto"] = telemetry.batch_size_auto
            k += 1

    def check(self, answers: Answers) -> None:
        from repro.units import VTH_INTERPRET, ns

        self.fresh_cache()
        batch = run_campaign(self.held_out, backend="batch",
                             max_workers=self.WORKERS,
                             batch_workers=self.WORKERS, cache=None)
        serial = run_campaign(self.held_out, backend="serial", cache=None)
        vmins = [r.vmin_late for r in serial.results]
        skews = [job.skew for job in self.held_out]
        diffs = []
        for index, (fast, slow) in enumerate(zip(batch.results, serial.results)):
            diff = abs(fast.vmin_late - slow.vmin_late)
            # Steepest neighbouring slope of this sample's Vmin(tau).
            slope = max(
                abs(vmins[j] - vmins[index]) / abs(skews[j] - skews[index])
                for j in (index - 1, index + 1)
                if 0 <= j < len(vmins) and self.held_out[j].process
                is self.held_out[index].process
            )
            limit = max(self.TOL_V * FAST_OPTIONS.reltol * self.vdd,
                        self.TOL_DT * FAST_OPTIONS.dt_max * slope)
            answers.check(diff <= limit, f"held-out point {index}: batch vs "
                                         f"serial {diff:.4f} V > {limit:.4f} V")
            diffs.append(diff)
        self.record["held_out_dv"] = {"max": max(diffs),
                                      "mean": statistics.mean(diffs)}
        # The Fig. 5 shape: 0.4 ns is flagged, and the asymmetric
        # loads and slews of the population flag a minority at zero skew
        # (12-30 % per load over 60 samples each, seed 7).
        for tau, lo, hi in ((0.0, 0.0, 0.45), (ns(0.4), 0.90, 1.0)):
            vmins = [v for skew, v in self.points if skew == tau]
            share = sum(v > VTH_INTERPRET for v in vmins) / max(1, len(vmins))
            answers.check(bool(vmins) and lo <= share <= hi,
                          f"flagged share {share:.2f} at tau={tau:.2e} s")


# --------------------------------------------------------------------- #
# tau_search: Fig. 4 / Table 1 sensitivity by bisection.
# --------------------------------------------------------------------- #

class TauSearch(Workload):
    """Serial ``extract_tau_min`` calls at seeded (load, slew) pairs
    through the default cache pointed at a fresh directory."""

    name = "tau_search"
    PASS = 4
    #: Pairs drawn per run: distinct pairs never hit the result cache,
    #: and this many outlast a 60 s run at ~0.2 s an answer.
    PAIRS = 1000
    TOL_S = 1e-12

    def setup(self) -> None:
        from repro.core import sensitivity

        # Called through the module, so a traced run sees the wrapper
        # only while it is installed.
        self.sensitivity = sensitivity
        rng = np.random.default_rng(self.seed)
        loads = rng.uniform(60e-15, 260e-15, self.PAIRS)
        slews = rng.uniform(0.1e-9, 0.4e-9, self.PAIRS)
        self.pairs = list(zip(loads.tolist(), slews.tolist()))
        slew = float(rng.uniform(0.1e-9, 0.4e-9))
        self.held_out = [(float(rng.uniform(60e-15, 120e-15)), slew),
                         (float(rng.uniform(200e-15, 260e-15)), slew)]
        self.fresh_cache()
        self.record.update(warm_start=True, options="FAST")

    def run(self, answers: Answers, keep_going: Callable[[int], bool]) -> None:
        k = i = 0
        while keep_going(k):
            for _ in range(self.PASS):
                load, slew = self.pairs[i % len(self.pairs)]
                telemetry = Telemetry()
                t0 = time.perf_counter()
                try:
                    with self.answer(i):
                        tau = self.sensitivity.extract_tau_min(
                            load, slew, options=FAST_OPTIONS,
                            telemetry=telemetry, warm_start=True)
                except Exception:  # noqa: BLE001
                    answers.fail(1, traceback.format_exc(limit=3))
                    i += 1
                    continue
                answers.record(time.perf_counter() - t0,
                               math.isfinite(tau) and 0.0 < tau < 2e-9,
                               telemetry.jobs_total,
                               f"tau_min({load:.3e}, {slew:.3e}) = {tau}")
                self.add_telemetry(telemetry)
                i += 1
            k += 1

    def check(self, answers: Answers) -> None:
        warm = []
        for load, slew in self.held_out:
            hot = self.sensitivity.extract_tau_min(
                load, slew, options=FAST_OPTIONS, cache=None, warm_start=True)
            cold = self.sensitivity.extract_tau_min(
                load, slew, options=FAST_OPTIONS, cache=None, warm_start=False)
            answers.check(abs(hot - cold) <= self.TOL_S,
                          f"warm {hot:.6e} vs cold {cold:.6e} at {load:.3e} F")
            warm.append(hot)
        answers.check(warm[0] < warm[1],
                      f"tau_min not rising with load: {warm}")


# --------------------------------------------------------------------- #
# tree_sparse: Fig. 6 whole-chip networks on the sparse path.
# --------------------------------------------------------------------- #

class TreeSparse(Workload):
    """``simulate_whole_tree`` called the way ``repro whole-tree`` calls
    it (FAST options, jacobian policy ``"auto"``) on a fixed mix."""

    name = "tree_sparse"
    #: Passes drawn from the seed; longer runs cycle them (no cache is
    #: involved, so a repeated pass costs the same).
    PASSES = 32

    def _pass(self, rng: np.random.Generator) -> List[tuple]:
        """Two 10x10 grids (one with a dead corner driver), two 16x16
        grids with a dead corner driver and a 3-level H-tree with 10 %
        variation, in seeded order.  A 4-level H-tree (4.6 s alone) would
        leave too few passes in a run to take a median over."""
        def corner(size: int) -> tuple:
            return ((0, 0), (0, size - 1), (size - 1, 0),
                    (size - 1, size - 1))[int(rng.integers(4))]

        cases = [
            ("grid10", dict(topology="grid", grid_shape=(10, 10),
                            dead_injections=())),
            ("grid10", dict(topology="grid", grid_shape=(10, 10),
                            dead_injections=(corner(10),))),
        ]
        for _ in range(2):
            cases.append(("grid16", dict(topology="grid", grid_shape=(16, 16),
                                         dead_injections=(corner(16),))))
        cases.append(("htree3", dict(topology="htree", levels=3,
                                     variation=0.1,
                                     seed=int(rng.integers(2 ** 31)))))
        return [cases[i] for i in rng.permutation(len(cases))]

    def setup(self) -> None:
        from repro.clocktree import whole_tree
        from repro.sparse.linalg import scipy_splu

        scipy_splu()  # import the factor backend here, not in the first run
        self.whole_tree = whole_tree
        self.options = replace(FAST_OPTIONS, jacobian_policy="auto")
        rng = np.random.default_rng(self.seed)
        self.passes = [self._pass(rng) for _ in range(self.PASSES)]
        self.record.update(policies={})

    def run(self, answers: Answers, keep_going: Callable[[int], bool]) -> None:
        k = 0
        while keep_going(k):
            for i, (label, case) in enumerate(self.passes[k % self.PASSES]):
                t0 = time.perf_counter()
                try:
                    with self.answer(f"{k}.{i}"):
                        run = self.whole_tree.simulate_whole_tree(
                            n_sensors=2, segments_per_wire=3,
                            options=self.options, **case)
                except Exception:  # noqa: BLE001
                    answers.fail(1, traceback.format_exc(limit=3))
                    continue
                arrivals = list(run.arrivals.values())
                answers.record(time.perf_counter() - t0,
                               all(math.isfinite(a) for a in arrivals), 1,
                               f"{label} arrivals {arrivals}")
                stats = run.result.kernel_stats or {}
                self.add_kernel(stats)
                policy = "sparse" if stats.get("sparse_nnz") else "reuse"
                self.record["policies"][label] = f"{policy} ({run.n_nodes} nodes)"
            k += 1

    def check(self, answers: Answers) -> None:
        runs = {
            policy: self.whole_tree.simulate_whole_tree(
                topology="grid", grid_shape=(6, 6), n_sensors=2,
                options=replace(FAST_OPTIONS, jacobian_policy=policy),
            ).result
            for policy in ("reuse", "sparse")
        }
        dense, sparse = runs["reuse"], runs["sparse"]
        worst = max(
            float(np.max(np.abs(
                np.interp(dense.times, sparse.times, sparse.voltages[node])
                - dense.voltages[node])))
            for node in dense.voltages
        )
        answers.check(worst <= 1e-6,
                      f"sparse vs dense reuse differ by {worst:.3e} V")


# --------------------------------------------------------------------- #
# service_mix: the HTTP service under two closed-loop clients.
# --------------------------------------------------------------------- #

class ServiceMix(Workload):
    """An in-process ``create_server`` (one scheduler slot) and two
    client threads in a closed loop: submit, stream ``/events``, fetch
    ``/result``."""

    name = "service_mix"
    CLIENTS = 2
    #: One pass of one client: fresh specs ``F`` and repeats of that
    #: client's own earlier spec (index into the pass).  A third repeat
    #: keeps the median answer off the boundary between cache-served and
    #: computed campaigns.
    PASS = ("F", "F", 0, "F", "F", 3)
    #: Distinct rounds drawn from the seed (a 60 s run needs 43).
    ROUNDS = 64
    #: (client, pass, index) of the served results compared bit for bit
    #: with a direct run: each client's first two fresh campaigns.
    CHECKED = ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1))
    PINS = {"backend": "serial", "workers": 1, "warm_start": True,
            "fast": True}

    def _spec(self, rng: np.random.Generator, sensitivity: bool) -> dict:
        load = round(float(rng.uniform(80.0, 240.0)), 3)
        if sensitivity:
            spec = {"kind": "sensitivity", "loads_ff": [load],
                    "slews_ns": [round(float(rng.uniform(0.1, 0.4)), 4)],
                    "tau_max_ns": 0.4, "points": 6}
        else:
            spec = {"kind": "montecarlo", "samples": 1,
                    "seed": int(rng.integers(2 ** 31)), "load_ff": load,
                    "skews_ns": [0.0, 0.08, 0.16, 0.24, 0.32, 0.4]}
        return {**spec, **self.PINS}

    def _specs(self, client: int, k: int) -> List[tuple]:
        rng = np.random.default_rng([self.seed, client, k])
        out: List[tuple] = []
        fresh = 0
        for entry in self.PASS:
            if entry == "F":
                out.append(("fresh", self._spec(rng, fresh % 2 == 0)))
                fresh += 1
            else:
                out.append(("repeat", out[entry][1]))
        return out

    def setup(self) -> None:
        from repro.service.api import create_server
        from repro.service.client import ServiceClient

        self.client_class = ServiceClient
        self.fresh_cache()
        self.server = create_server(port=0, state_dir=self.fresh_dir("store"),
                                    max_concurrent=1)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="perfbench-service", daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.port}"
        # Inputs for as many rounds as a 60 s run can use.
        self.passes = {(c, k): self._specs(c, k)
                       for c in range(self.CLIENTS) for k in range(self.ROUNDS)}
        self.clients = [ServiceClient(self.url, timeout=120.0)
                        for _ in range(self.CLIENTS)]
        self.served: Dict[tuple, dict] = {}
        self._lock = threading.Lock()
        repeats = sum(entry != "F" for entry in self.PASS)
        self.record.update(clients=self.CLIENTS, max_concurrent=1,
                           repeat_share=round(repeats / len(self.PASS), 3))

    def _client(self, c: int, k: int, answers: Answers) -> None:
        """Client ``c`` runs its pass ``k``: one campaign at a time."""
        client = self.clients[c]
        service = self.counters["service"]
        first: Dict[int, dict] = {}
        for i, (kind, spec) in enumerate(self.passes[(c, k % self.ROUNDS)]):
            t0 = time.perf_counter()
            try:
                with self.answer(f"c{c}.{k}.{i}"):
                    record = client.submit(spec, client=f"client{c}")
                    t1 = time.perf_counter()
                    t_first = None
                    for _ in client.stream_events(record["campaign_id"],
                                                  timeout=120.0):
                        if t_first is None:
                            t_first = time.perf_counter()
                    t2 = time.perf_counter()
                    result = client.result(record["campaign_id"])
                    t3 = time.perf_counter()
            except Exception:  # noqa: BLE001 - count it, keep measuring
                answers.fail(1, traceback.format_exc(limit=3))
                continue
            body = _comparable(result)
            ok = (result.get("kind") == spec["kind"] and len(result["jobs"]) == 6
                  and not any("error" in job for job in result["jobs"]))
            if kind == "repeat":
                ok = ok and body == first.get(self.PASS[i])
            else:
                first[i] = body
            answers.record(t3 - t0, ok, len(result["jobs"]),
                           f"{kind} {spec['kind']} campaign")
            with self._lock:
                service.setdefault("submit_s", []).append(t1 - t0)
                service.setdefault("first_event_s", []).append(
                    (t_first or t2) - t0)
                service.setdefault("result_s", []).append(t3 - t2)
                if (c, k, i) in self.CHECKED:
                    self.served[(c, k, i)] = (spec, body)

    def run(self, answers: Answers, keep_going: Callable[[int], bool]) -> None:
        k = 0
        while keep_going(k):
            # One pass is a round: each client runs its pass k, and the
            # round ends when both are done.
            threads = [threading.Thread(target=self._client,
                                        args=(c, k, answers),
                                        name=f"perfbench-client{c}")
                       for c in range(self.CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            k += 1
        for client in self.clients:
            self.counters["service"]["retries"] = (
                self.counters["service"].get("retries", 0) + client.retried)
        telemetry = self.client_class(self.url).metrics()["telemetry"]
        self.add_kernel(telemetry["engine"]["kernel"])
        prefix = telemetry["engine"]["prefix"]
        self.counters["prefix"] = {
            "hits": prefix["hits"], "builds": prefix["builds"],
            "build_s": prefix["build_wall_s"],
            "saved_s": prefix["integrated_time_saved_s"],
        }

    def check(self, answers: Answers) -> None:
        for key in self.CHECKED:
            if key not in self.served:
                answers.check(False, f"campaign {key} was never served")
                continue
            spec, served = self.served[key]
            plan = build_plan(spec)
            direct = plan.fold(run_campaign(plan.jobs, cache=None,
                                            **plan.executor))
            answers.check(_comparable(json.loads(json.dumps(direct))) == served,
                          f"served {spec['kind']} result differs from a direct run")

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown_all()
            self.thread.join(timeout=30.0)


def _comparable(result: Dict[str, Any]) -> Dict[str, Any]:
    """A result payload without the fields that say where it came from."""
    body = dict(result)
    body["jobs"] = [{k: v for k, v in job.items()
                     if k not in ("cached", "resumed")}
                    for job in result.get("jobs", ())]
    return body


WORKLOADS = {cls.name: cls for cls in (McScatter, TauSearch, TreeSparse,
                                       ServiceMix)}
