"""The benchmark's four workloads: ``grid``, ``sampled``, ``serve``, ``verify``.

Each workload runs in *rounds*.  A round is one fixed unit of work made
from the run seed and the round index, timed in two passes:

* the **main pass** (``wall_s``) does the work from empty caches;
* the **warm pass** (``warm_s``) repeats the same inputs with the
  in-process memos cleared and the persistent stores the main pass filled
  kept, which is what a user re-running the same inputs pays.

A round also yields the latencies of its operations (``p50_ms``,
``p95_ms``): grid cells, sampled cells, serve requests, verifier verdicts.
Every result is checked against a reference; a mismatch is a failed check.
See ``NOTES.md`` for why each workload exists and what it should move.
"""

import asyncio
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spec import (
    CORES,
    ISAS,
    SCALES,
    generated_program,
    grid_cells,
    sampled_cells,
    sub_seed,
)
from tracing import MODULES as _TRACED_MODULES

HERE = os.path.dirname(os.path.abspath(__file__))

#: Every module a round can reach, imported during set-up.
STACK_MODULES = _TRACED_MODULES + (
    "repro.core.configs",
    "repro.guardrails",
    "repro.harness.runner",
    "repro.isa",
    "repro.obs",
    "repro.serve.loadgen",
    "repro.compiler.bb_backend",
    "repro.fastpath.codegen",
    "repro.fastpath.riscv_gen",
    "repro.fastpath.straight_gen",
)


class Checks:
    """Reference checks: every one is attempted; a mismatch is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


class RoundResult:
    def __init__(self, wall_s, warm_s, op_ms, extra=None):
        self.wall_s = wall_s
        self.warm_s = warm_s
        self.op_ms = op_ms
        self.extra = extra or {}


class Workload:
    """Shared round plumbing; subclasses define the work."""

    name = None
    #: Whether spans are recorded in this process (serve records them in
    #: the server process instead).
    traces_in_process = True

    def __init__(self, scale, seed, workdir, references, corrupt=False):
        self.scale = scale
        self.spec = SCALES[scale][self.name]
        self.seed = seed
        self.workdir = workdir
        self.references = references
        self.corrupt = corrupt

    def setup(self):
        """The in-process set-up the timed phase needs.

        Imports the whole simulator stack first, so that no round pays a
        first-use import the others do not, and keeps the persistent caches
        off until a round points them at its own directory.
        """
        import importlib

        for module in STACK_MODULES:
            importlib.import_module(module)
        from repro.harness import cache as cache_mod

        cache_mod.configure(enabled=False)

    def measure_setup(self, count, probe_command):
        """Seconds from process start to ready, ``count`` times.

        Each sample starts a fresh interpreter running :meth:`setup`, so it
        includes importing the simulator stack.
        """
        samples = []
        for _ in range(count):
            started = time.perf_counter()
            child = subprocess.Popen(probe_command, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True)
            try:
                line = child.stdout.readline()
                samples.append(time.perf_counter() - started)
            finally:
                child.stdout.close()
                child.wait(timeout=60)
            if child.returncode != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        return samples

    def round(self, index, checks, tracer):
        raise NotImplementedError

    def peak_rss_mb(self):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        """Stop whatever the workload started."""

    def _warm(self, tracer, work, check):
        """Median seconds of the round's warm passes.

        Each pass clears the in-process memos, then times ``work()``;
        ``check(result)`` runs after the clock stops.  Short passes are
        repeated (``warm_repeats``) so one noisy slice of time does not set
        the figure.
        """
        times = []
        for _ in range(self.spec["warm_repeats"]):
            _clear_memos()
            with _span(tracer, "pass.warm"):
                started = time.perf_counter()
                result = work()
                times.append(time.perf_counter() - started)
            check(result)
        return statistics.median(times)

    def _cache_dir(self, index):
        path = os.path.join(self.workdir, f"cache-{index}")
        shutil.rmtree(path, ignore_errors=True)
        return path


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _use_fresh_cache(path):
    """Point the persistent caches at ``path`` and drop in-process memos."""
    from repro.harness import cache as cache_mod

    cache_mod.configure(path, enabled=True)
    cache_mod.reset_cache_stats()
    _clear_memos()


def _clear_memos():
    from repro.harness.runner import clear_cache
    from repro.workloads.common import clear_build_cache

    clear_cache()
    clear_build_cache()


def _timed_sweep(tasks):
    """``(report, {task id: ms})`` of one inline ``run_sweep``."""
    from repro.harness.sweep import run_sweep

    latency = {}

    def progress(done, total, task_id, status, seconds):
        latency[task_id] = seconds * 1000.0

    return run_sweep(tasks, jobs=1, progress=progress), latency


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


class GridWorkload(Workload):
    """The golden grid: {dhrystone, coremark} x {SS, STRAIGHT-RE+, BB} x
    {2, 4}-way, full traced simulation at default scale.

    The main pass builds both workloads and sweeps every cell against an
    empty cache directory; the warm pass clears the in-process memos and
    sweeps again.  The inputs are the paper's fixed programs, in grid
    order, so the seed changes nothing here (a seeded cell order moved
    peak RSS by ±6% between seeds).
    """

    name = "grid"

    def setup(self):
        super().setup()
        from repro.core.configs import ALL_CORES
        from repro.harness.sweep import SweepTask

        cells = grid_cells(self.scale)
        self.tasks = [SweepTask(cell, workload, label, ALL_CORES[core](),
                                iterations=iterations)
                      for cell, workload, iterations, _isa, label, core
                      in cells]
        self.builds = sorted({(t.workload, t.iterations) for t in self.tasks},
                             key=str)
        self.expected = self.references["grid"][self.scale]
        if self.corrupt:
            first = sorted(self.expected)[0]
            self.expected = dict(self.expected)
            self.expected[first] = dict(self.expected[first],
                                        cycles=self.expected[first]["cycles"]
                                        + 1)

    def round(self, index, checks, tracer):
        from repro.workloads import build_workload

        cache_dir = self._cache_dir(index)
        _use_fresh_cache(cache_dir)
        with _span(tracer, "pass.cold"):
            started = time.perf_counter()
            for workload, iterations in self.builds:
                build_workload(workload, iterations)
            report, latency = _timed_sweep(self.tasks)
            wall_s = time.perf_counter() - started
        instructions = self._check(report, checks, "cold")
        warm_s = self._warm(tracer, lambda: _timed_sweep(self.tasks)[0],
                            lambda warm: self._check(warm, checks, "warm"))
        shutil.rmtree(cache_dir, ignore_errors=True)
        return RoundResult(wall_s, warm_s, list(latency.values()),
                           {"instructions": instructions})

    def _check(self, report, checks, phase):
        instructions = 0
        for task_id, payload in report.results.items():
            ref = self.expected[task_id]
            stats = payload.get("stats", {})
            got = {"instructions": stats.get("instructions"),
                   "cycles": stats.get("cycles"),
                   "output": payload.get("output")}
            want = {key: ref[key] for key in got}
            ipc = (got["instructions"] / got["cycles"]
                   if got["cycles"] else None)
            checks.check(got == want and ipc is not None
                         and abs(ipc - ref["ipc"]) < 1e-5,
                         f"grid {phase} {task_id}: {got} != {want}")
            instructions += stats.get("instructions") or 0
        return instructions


# ---------------------------------------------------------------------------
# sampled
# ---------------------------------------------------------------------------


class SampledWorkload(Workload):
    """SMARTS-style sampled timing of Dhrystone at 100x the default scale
    on the three 4-way cores, under the speed schedule.

    Compiled fast-forward with predictor warming executes ~95% of the
    instructions; the rest run through the cycle model in windows.  The
    seed sets each round's sampling seed.  Every estimate is checked
    against a committed full-simulation reference.
    """

    name = "sampled"

    def setup(self):
        super().setup()
        from repro.core.configs import ALL_CORES
        from repro.workloads import get_workload

        spec = self.spec
        self.source = get_workload(spec["workload"]).source(
            spec["iterations"])
        self.cells = [(cell, isa, ALL_CORES[core]())
                      for cell, isa, core in sampled_cells(self.scale)]
        self.expected = self.references["sampled"][self.scale]
        if self.corrupt:
            first = sorted(self.expected)[0]
            self.expected = dict(self.expected)
            self.expected[first] = dict(
                self.expected[first],
                output=[word + 1 for word in self.expected[first]["output"]])

    def _tasks(self, index):
        from repro.harness.sampling import SamplingParams
        from repro.harness.sweep import SweepTask

        params = SamplingParams(seed=sub_seed(self.seed, "sampling", index),
                                **self.spec["schedule"]).as_dict()
        return [SweepTask(cell, self.spec["workload"], config=config,
                          compile_opts={"source_text": self.source,
                                        "target": isa},
                          sampling=params)
                for cell, isa, config in self.cells]

    def round(self, index, checks, tracer):
        tasks = self._tasks(index)
        cache_dir = self._cache_dir(index)
        _use_fresh_cache(cache_dir)
        with _span(tracer, "pass.cold"):
            started = time.perf_counter()
            report, latency = _timed_sweep(tasks)
            wall_s = time.perf_counter() - started
        extra = self._check(report, checks, "cold")
        warm_s = self._warm(tracer, lambda: _timed_sweep(tasks)[0],
                            lambda warm: self._check(warm, checks, "warm"))
        shutil.rmtree(cache_dir, ignore_errors=True)
        return RoundResult(wall_s, warm_s, list(latency.values()), extra)

    def _check(self, report, checks, phase):
        instructions = 0
        errors = []
        for task_id, payload in report.results.items():
            ref = self.expected[task_id]
            stats = payload.get("stats", {})
            sampling = stats.get("sampling") or {}
            exact = (stats.get("instructions") == ref["instructions"]
                     and payload.get("output") == ref["output"]
                     and sampling.get("mode") == "sampled")
            err_pct = None
            if exact and stats.get("cycles"):
                ipc = stats["instructions"] / stats["cycles"]
                err_pct = (ipc / ref["ipc"] - 1.0) * 100.0
                errors.append(abs(err_pct))
            checks.check(exact and err_pct is not None
                         and abs(err_pct) <= self.spec["max_ipc_err_pct"],
                         f"sampled {phase} {task_id}: mode="
                         f"{sampling.get('mode')} ipc err {err_pct}")
            instructions += stats.get("instructions") or 0
        return {"instructions": instructions,
                "ipc_err_pct": max(errors) if errors else 0.0}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class VerdictTimer:
    """Times every call of the three static verifiers (one verdict each).

    Installed for the whole run: the verdict latency is this workload's
    end-to-end operation, measured at the verifier's public entry points.
    ``straight_ms`` keeps the STRAIGHT verdicts apart: they are the
    workload's main class, and a median over all three verifiers would sit
    on the boundary between the riscv and STRAIGHT verdict times.
    """

    def __init__(self):
        self.samples_ms = []
        self.straight_ms = []
        self.recording = False
        self._depth = 0

    def install(self):
        import tracing

        from repro.analysis import verifier
        from repro.bb import verify as bb_verify
        from repro.riscv import verify as riscv_verify

        for module in ("repro.analysis.mutation", "repro.analysis",
                       "repro.straight.descriptor", "repro.bb.descriptor"):
            __import__(module)
        for fn, straight in ((verifier.verify_program, True),
                             (riscv_verify.verify_program, False),
                             (bb_verify.verify_program, False)):
            tracing.replace_everywhere(fn, self._wrap(fn, straight), undo=[])
        return self

    def start(self):
        self.samples_ms = []
        self.straight_ms = []
        self.recording = True

    def _wrap(self, fn, straight):
        timer = self

        def timed(*args, **kwargs):
            timer._depth += 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timer._depth -= 1
                if timer.recording and timer._depth == 0:
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    timer.samples_ms.append(elapsed_ms)
                    if straight:
                        timer.straight_ms.append(elapsed_ms)

        return timed


class VerifyWorkload(Workload):
    """Seeded verifier mutation campaigns for straight, riscv and bb on the
    fault-campaign program, plus a clean verify of the shipped binaries.

    The STRAIGHT campaign program is compiled with distances bounded to
    ``campaign_max_distance``: a mutated distance costs the verifier time
    that grows with the distance (seconds per verdict near 1023), so an
    unbounded campaign's cost swings with the seed.  The seed sets each
    round's campaign seeds; the campaigns run through the result cache so
    the warm pass replays them.
    """

    name = "verify"

    def setup(self):
        super().setup()
        from repro import isa as isa_registry
        from repro.guardrails import DEFAULT_CAMPAIGN_SOURCE
        from repro.harness.sweep import compile_binary_cached
        from repro.workloads import get_workload

        bound = self.spec["campaign_max_distance"]
        self.campaign = {
            isa: compile_binary_cached(
                DEFAULT_CAMPAIGN_SOURCE, target=isa,
                max_distance=bound if isa == "straight" else 1023).program
            for isa, _label in ISAS}
        self.shipped = []
        for name in self.spec["shipped"]:
            source = (DEFAULT_CAMPAIGN_SOURCE if name == "fault-campaign"
                      else get_workload(name).source())
            for target, distances in (("straight", (1023, 31)),
                                      ("straight-raw", (1023, 31)),
                                      ("bb", (1023,))):
                descriptor, _opts = isa_registry.resolve_target(target)
                for max_distance in distances:
                    binary = compile_binary_cached(source, target=target,
                                                   max_distance=max_distance)
                    self.shipped.append(
                        (f"{name}/{target}/md={max_distance}", descriptor,
                         binary.program))
        self.timer = VerdictTimer().install()

    def _mutants(self, isa):
        return self.spec["straight_mutants" if isa == "straight"
                         else "gpr_mutants"]

    def _pass(self, index, checks, phase):
        """One verify pass; returns the number of undetected mutants."""
        from repro.analysis import cached_mutation_campaign

        missed = 0

        for name, descriptor, program in self.shipped:
            errors = descriptor.static_check(program).has_errors()
            checks.check(errors == self.corrupt,
                         f"verify {phase} {name}: clean verify errors="
                         f"{errors}")
        for isa, _label in ISAS:
            mutants = self._mutants(isa)
            report = cached_mutation_campaign(
                isa, self.campaign[isa], mutants=mutants,
                seed=sub_seed(self.seed, f"mutation-{isa}", index),
                max_distance=(self.spec["campaign_max_distance"]
                              if isa == "straight" else None))
            checks.check(report.total == mutants,
                         f"verify {phase} {isa}: {report.total} mutants")
            for record in report.records:
                if not checks.check(record["detected"],
                                    f"verify {phase} {isa}: missed "
                                    f"{record['target']} "
                                    f"{record['mutation']}"):
                    missed += 1
        return missed

    def round(self, index, checks, tracer):
        cache_dir = self._cache_dir(index)
        _use_fresh_cache(cache_dir)
        self.timer.start()
        with _span(tracer, "pass.cold"):
            started = time.perf_counter()
            missed = self._pass(index, checks, "cold")
            wall_s = time.perf_counter() - started
        self.timer.recording = False
        verdicts = self.timer.samples_ms
        warm_s = self._warm(tracer,
                            lambda: self._pass(index, checks, "warm"),
                            lambda missed: None)
        shutil.rmtree(cache_dir, ignore_errors=True)
        mutants = sum(self._mutants(isa) for isa, _label in ISAS)
        return RoundResult(wall_s, warm_s, self.timer.straight_ms,
                           {"verdicts": len(verdicts), "mutants": mutants,
                            "missed": missed})


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class _Server:
    """One ``straight serve`` process with its own empty cache directory.

    The server runs with one glibc malloc arena: with the default
    per-thread arenas its peak RSS depends on which executor thread ran
    which job and moved between ~230 and ~360 MB from run to run.
    """

    def __init__(self, workdir, tag, trace_out=None):
        self.cache_dir = os.path.join(workdir, f"serve-cache-{tag}")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        command = [sys.executable, os.path.join(HERE, "serve_child.py"),
                   "--cache-dir", self.cache_dir, "--jobs", "1",
                   "--quota-rate", "0", "--port", "0"]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=log,
                stdin=subprocess.DEVNULL,
                env=dict(os.environ, MALLOC_ARENA_MAX="1"))
        try:
            self.host, self.port = self._wait_announce()
            asyncio.run(self._wait_healthy())
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.started

    def _wait_announce(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            with open(self.log_path, encoding="utf-8") as log:
                for line in log:
                    if line.startswith("serving on http://"):
                        address = line.split("http://", 1)[1].split()[0]
                        host, port = address.rsplit(":", 1)
                        return host, int(port)
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    async def _wait_healthy(self):
        from repro.serve.loadgen import HttpClient

        client = HttpClient(self.host, self.port, pool_size=1)
        try:
            status, health = await client.get_json("/v1/healthz")
        finally:
            client.close()
        if status != 200 or not health.get("ok"):
            raise RuntimeError(f"server unhealthy: {status} {health}")

    def peak_rss_mb(self):
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class ServeWorkload(Workload):
    """A ``straight serve`` process driven by a closed-loop client over two
    keep-alive connections, each waiting on ``wait=`` for its result.

    A round is a seeded mix: unique small-source ``simulate`` requests,
    registry-workload ``simulate`` requests at small ``iterations``,
    repeats of earlier requests, and three-ISA ``explore`` requests.  Each
    round gets a fresh server (its start is set-up, not round time); the
    warm pass re-sends every distinct request of the round.
    """

    name = "serve"
    traces_in_process = False
    connections = 2
    wait_s = 120

    def setup(self):
        self.server = None
        self.servers_rss = []
        self.observed = []  # (kind, served, cache, latency ms, job wall ms)
        self.executor_stats = []

    def measure_setup(self, count, probe_command):
        samples = []
        for k in range(count):
            server = _Server(self.workdir, f"setup-{k}")
            samples.append(server.ready_s)
            if k < count - 1:
                server.stop()
            else:
                self.server = server
        return samples

    def _mix(self, index):
        """The round's requests: ``[(kind, path, body, expected)]``.

        The order of the classes and of the registry requests is the same
        in every round: each class is spread evenly over the round.  The
        seed draws the generated programs, their cores and what each
        repeat repeats.  A seeded class order would make the slowest
        requests collide on the two connections in a different pattern per
        seed, and move ``p95_ms`` between seeds with it.
        """
        spec = self.spec
        rng = random.Random(sub_seed(self.seed, "serve", index))
        by_workload = [[(workload, iterations, CORES[(isa, width)])
                        for isa, _label in ISAS for width in ("2way", "4way")]
                       for workload, iterations in spec["registry_keys"]]
        registry = [key for keys in zip(*by_workload) for key in keys]
        counts = (("unique", spec["unique"]), ("registry", len(registry)),
                  ("repeat", spec["repeat"]), ("explore", spec["explore"]))
        kinds = [kind for _position, _order, kind in sorted(
            ((j + 0.5) / count, order, kind)
            for order, (kind, count) in enumerate(counts)
            for j in range(count))]
        first_fresh = next(i for i, kind in enumerate(kinds)
                           if kind != "repeat")
        kinds[0], kinds[first_fresh] = kinds[first_fresh], kinds[0]
        registry_keys = iter(registry)
        cores = sorted(CORES.values())
        isas = sorted(isa for isa, _label in ISAS)
        mix = []
        for kind in kinds:
            if kind == "unique":
                source, output = generated_program(rng)
                mix.append(("unique", "/v1/simulate",
                            {"source": source, "core": rng.choice(cores)},
                            {"output": output}))
            elif kind == "registry":
                workload, iterations, core = next(registry_keys)
                ref = self.references["serve"][
                    f"{workload}x{iterations}/{core}"]
                mix.append(("registry", "/v1/simulate",
                            {"workload": workload, "iterations": iterations,
                             "core": core},
                            {key: ref[key] for key in
                             ("output", "cycles", "instructions")}))
            elif kind == "explore":
                source, output = generated_program(rng)
                mix.append(("explore", "/v1/explore",
                            {"source": source, "isas": isas, "trace": True},
                            {"output": output, "isas": isas}))
            else:
                fresh = [entry for entry in mix if entry[0] != "repeat"]
                original = fresh[rng.randrange(len(fresh))]
                mix.append(("repeat",) + original[1:])
        if self.corrupt:
            kind, path, body, expected = mix[0]
            expected = dict(expected,
                            output=[w + 1 for w in expected["output"]])
            mix[0] = (kind, path, body, expected)
        return mix

    def round(self, index, checks, tracer):
        trace_out = None
        if tracer is not None:
            trace_out = os.path.join(self.workdir, f"serve-spans-{index}.json")
        if self.server is None or tracer is not None:
            if self.server is not None:
                self.server.stop()
            self.server = _Server(self.workdir, f"round-{index}", trace_out)
        server = self.server
        mix = self._mix(index)
        try:
            outcome = asyncio.run(self._drive(server, mix))
            self.servers_rss.append(server.peak_rss_mb())
        finally:
            server.stop()
            self.server = None
        if trace_out is not None:
            with open(trace_out, encoding="utf-8") as handle:
                tracer.add_spans(json.load(handle)["spans"])
        responses, warm_responses, wall_s, warm_s, stats = outcome
        latencies = []
        by_class = {}
        for (kind, _path, _body, expected), response in zip(mix, responses):
            status, view, elapsed_ms = response
            latencies.append(elapsed_ms)
            by_class.setdefault(kind, []).append(elapsed_ms)
            self._check(checks, kind, expected, status, view, "mix")
            self.observed.append((view.get("kind"), view.get("served"),
                                  view.get("cache"), elapsed_ms,
                                  view.get("wall_ms")))
        distinct = self._distinct(mix)
        for (kind, _path, _body, expected), response in zip(
                distinct, warm_responses):
            status, view, _elapsed = response
            self._check(checks, kind, expected, status, view, "warm")
        self.executor_stats.append(stats.get("executor", {}))
        return RoundResult(wall_s, warm_s, latencies,
                           {"requests": len(mix), "by_class": by_class})

    @staticmethod
    def _distinct(mix):
        seen = set()
        distinct = []
        for entry in mix:
            key = json.dumps([entry[1], entry[2]], sort_keys=True)
            if key not in seen:
                seen.add(key)
                distinct.append(entry)
        return distinct

    async def _drive(self, server, mix):
        from repro.serve.loadgen import HttpClient

        client = HttpClient(server.host, server.port,
                            pool_size=self.connections)
        try:
            started = time.perf_counter()
            responses = await self._closed_loop(client, mix)
            wall_s = time.perf_counter() - started
            warm_times = []
            for _ in range(self.spec["warm_repeats"]):
                started = time.perf_counter()
                warm = await self._closed_loop(client, self._distinct(mix))
                warm_times.append(time.perf_counter() - started)
            _status, stats = await client.get_json("/v1/stats")
        finally:
            client.close()
        return (responses, warm, wall_s, statistics.median(warm_times),
                stats)

    async def _closed_loop(self, client, requests):
        """Each connection sends its next request when the last returns."""
        results = [None] * len(requests)
        pending = iter(range(len(requests)))

        async def connection(client_id):
            for i in pending:
                _kind, path, body, _expected = requests[i]
                started = time.perf_counter()
                try:
                    status, view = await client.post_json(
                        f"{path}?wait={self.wait_s}", body,
                        headers={"X-Client-Id": client_id})
                except (OSError, asyncio.IncompleteReadError,
                        ValueError) as exc:
                    status, view = 0, {"error": repr(exc)}
                results[i] = (status, view,
                              (time.perf_counter() - started) * 1000.0)

        await asyncio.gather(*[connection(f"bench-{k}")
                               for k in range(self.connections)])
        return results

    def _check(self, checks, kind, expected, status, view, phase):
        result = view.get("result") or {}
        if status != 200 or view.get("state") != "done":
            checks.check(False, f"serve {phase} {kind}: status {status} "
                                f"state {view.get('state')} "
                                f"{view.get('error')}")
            return
        if view.get("kind") == "explore":
            for isa in expected["isas"]:
                entry = result.get("isas", {}).get(isa, {})
                variants = entry.get("variants", {})
                ok = bool(variants) and all(
                    variant.get("asm")
                    and variant.get("diagnostics") is not None
                    and variant.get("output") == expected["output"]
                    for variant in variants.values())
                ok = ok and bool(entry.get("timing", {}).get("kanata"))
                checks.check(ok, f"serve {phase} explore[{isa}] failed the "
                                 "asm/diagnostics/output/kanata checks")
            return
        stats = result.get("stats", {})
        got = {"output": result.get("output"),
               "cycles": stats.get("cycles"),
               "instructions": stats.get("instructions")}
        want = {key: expected.get(key, got[key]) for key in got}
        checks.check(got == want, f"serve {phase} {kind}: {got} != {want}")

    def peak_rss_mb(self):
        return statistics.median(self.servers_rss)

    def serve_metrics(self):
        """Client-side per-layer metrics of the serve tier."""

        def median(values):
            return statistics.median(values) if values else 0.0

        fresh = [o for o in self.observed
                 if o[1] == "fresh" and o[4] is not None]
        saved = [o for o in self.observed
                 if o[1] in ("inflight", "store") or o[2] == "cache"]
        batches = sum(s.get("batches", 0) for s in self.executor_stats)
        inline = sum(s.get("inline_batches", 0) for s in self.executor_stats)
        return {
            "serve.queue_p50_ms": median([o[3] - o[4] for o in fresh]),
            "serve.exec_p50_ms.simulate":
                median([o[4] for o in fresh if o[0] == "simulate"]),
            "serve.exec_p50_ms.explore":
                median([o[4] for o in fresh if o[0] == "explore"]),
            "serve.saved_ratio":
                len(saved) / len(self.observed) if self.observed else 0.0,
            "serve.inline_batch_ratio": inline / batches if batches else 0.0,
        }

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    cls.name: cls
    for cls in (GridWorkload, SampledWorkload, ServeWorkload, VerifyWorkload)
}
