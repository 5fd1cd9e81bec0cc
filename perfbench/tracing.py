"""Span recorder and the wrappers that time the simulator's layers from outside.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces a fixed list of public functions and methods of the simulator
stack with thin wrappers that open a span around each call;
:meth:`Tracer.uninstall` puts the originals back.  A span records its
name, start, end, the id of the span that was open when it started (its
parent, per thread) and a few counts taken at the same boundary
(instructions, trace entries, hits).

A function imported by name into several modules (``from x import f``) is
replaced in every loaded ``repro`` module that holds it, so call sites that
bound the name at import time are timed too.
"""

import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time

#: Span name -> layer used for self-time accounting.
LAYER_OF = {
    "frontend.compile": "frontend",
    "compiler.backend": "compiler",
    "workloads.build": "workloads",
    "fastpath.compile": "fastpath",
    "functional.traced": "functional",
    "functional.ff": "functional",
    "uarch.run": "uarch",
    "sampling.run": "sampling",
    "cache.get": "cache",
    "cache.put": "cache",
    "sweep.run": "sweep",
    "sweep.task": "sweep",
    "analysis.verify": "analysis",
}

#: Modules imported before patching, so every name binding already exists.
MODULES = (
    "repro.core.api",
    "repro.frontend",
    "repro.compiler",
    "repro.compiler.riscv_backend.driver",
    "repro.compiler.straight_backend.driver",
    "repro.compiler.bb_backend.driver",
    "repro.compiler.common.driver",
    "repro.workloads.common",
    "repro.fastpath",
    "repro.straight.interpreter",
    "repro.riscv.interpreter",
    "repro.uarch.core",
    "repro.harness.sampling",
    "repro.harness.cache",
    "repro.harness.sweep",
    "repro.analysis",
    "repro.analysis.mutation",
    "repro.riscv.verify",
    "repro.bb.verify",
)


class Tracer:
    """In-memory span list; one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def add_spans(self, spans):
        """Adopt spans recorded by another process, renumbering their ids
        so they cannot collide with this tracer's."""
        offset = next(self._ids)
        for span in spans:
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
        self.spans.extend(spans)
        self._ids = itertools.count(
            max((s["id"] for s in spans), default=offset) + 1)

    def write(self, path):
        """Write every recorded span as one JSON document."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the simulator's layer boundaries; returns ``self``."""
        for name in MODULES:
            importlib.import_module(name)
        from repro.analysis import verifier
        from repro.bb import verify as bb_verify
        from repro.compiler import bb_backend, riscv_backend, straight_backend
        from repro.compiler.bb_backend import driver as bb_driver
        from repro.compiler.common import driver as common_driver
        from repro.compiler.riscv_backend import driver as riscv_driver
        from repro.compiler.straight_backend import driver as straight_driver
        from repro.frontend import compile_source
        from repro.harness import cache, sampling, sweep
        from repro.riscv import verify as riscv_verify
        from repro.riscv.interpreter import RiscvInterpreter
        from repro.straight.interpreter import StraightInterpreter
        from repro.uarch.core import OoOCore
        from repro.workloads.common import Workload
        import repro.fastpath as fastpath

        self._function(compile_source, "frontend.compile")
        for fn in (riscv_backend.compile_to_riscv,
                   straight_backend.compile_to_straight,
                   bb_backend.compile_to_bb):
            self._function(fn, "compiler.backend")
        for klass in (common_driver.BaseCompilation,
                      riscv_driver.RiscvCompilation,
                      straight_driver.StraightCompilation,
                      bb_driver.BbCompilation):
            if "link" in vars(klass):
                self._method(klass, "link", "compiler.backend")
        self._method(Workload, "build", "workloads.build")
        self._function(fastpath.compiled_for, "fastpath.compile")
        self._function(fastpath.run_compiled_warming, "functional.ff",
                       after=_count_return_steps)
        for klass in (StraightInterpreter, RiscvInterpreter):
            self._interpreter_run(klass)
        self._method(OoOCore, "run", "uarch.run", before=_count_trace_arg)
        self._function(sampling.simulate_sampled, "sampling.run",
                       after=_count_windows)
        self._method(cache._DiskCache, "get", "cache.get",
                     after=_count_cache_get)
        self._cache_put(cache._DiskCache)
        self._function(sweep.run_sweep, "sweep.run")
        self._function(sweep.execute_task, "sweep.task")
        for fn in (verifier.verify_program, riscv_verify.verify_program,
                   bb_verify.verify_program):
            self._function(fn, "analysis.verify")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _function(self, fn, name, before=None, after=None):
        replace_everywhere(fn, self._wrap(fn, name, before, after),
                           self._undo)

    def _method(self, klass, attr, name, before=None, after=None):
        self._replace(klass, attr,
                      self._wrap(vars(klass)[attr], name, before, after))

    def _wrap(self, fn, name, before, after):
        tracer = self

        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else {}
            with tracer.span(name, **attrs) as record:
                result = fn(*args, **kwargs)
                if after is not None:
                    record["attrs"].update(after(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _interpreter_run(self, klass):
        """``run`` is traced or fast-forward depending on the instance."""
        tracer = self
        original = vars(klass)["run"]

        def run(interp, *args, **kwargs):
            collecting = interp.collect_trace
            name = "functional.traced" if collecting else "functional.ff"
            entries = len(interp.trace) if collecting else 0
            with tracer.span(name) as record:
                result = original(interp, *args, **kwargs)
                record["attrs"]["steps"] = result.steps
                if collecting:
                    record["attrs"]["trace_entries"] = (
                        len(interp.trace) - entries)
            return result

        run.__wrapped__ = original
        self._replace(klass, "run", run)

    def _cache_put(self, klass):
        """Time ``put``; for artifacts, also read the entry back.

        ``ArtifactCache.put`` drops an entry it cannot pickle without a
        word, so the read-back is what tells a stored artifact from a lost
        one.  It runs outside the timed span.
        """
        tracer = self
        original = vars(klass)["put"]

        def put(layer, key_obj, value):
            kind = _layer_kind(layer)
            with tracer.span("cache.put", layer=kind) as record:
                original(layer, key_obj, value)
            if kind == "artifact":
                try:
                    layer._read(layer._path(key_obj))
                except Exception:  # noqa: BLE001 - any failure = not stored
                    record["attrs"]["stored"] = 0
                else:
                    record["attrs"]["stored"] = 1

        put.__wrapped__ = original
        self._replace(klass, "put", put)


def replace_everywhere(fn, wrapper, undo):
    """Bind ``wrapper`` wherever a loaded ``repro`` module holds ``fn``.

    Appends ``(module, attr, fn)`` to ``undo`` for each replacement.
    """
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                undo.append((module, attr, fn))
                setattr(module, attr, wrapper)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.record = {"id": 0, "parent": None, "name": name,
                       "start": 0.0, "end": 0.0, "attrs": dict(attrs),
                       "thread": threading.get_ident()}

    def __enter__(self):
        stack = self.tracer._stack()
        record = self.record
        record["id"] = next(self.tracer._ids)
        record["parent"] = stack[-1] if stack else None
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        return record

    def __exit__(self, *exc_info):
        record = self.record
        record["end"] = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(record)
        return False


def _layer_kind(layer):
    return "artifact" if type(layer).__name__ == "ArtifactCache" else "result"


def _count_return_steps(args, result):
    return {"steps": result}


def _count_trace_arg(args, kwargs):
    trace = args[1] if len(args) > 1 else kwargs.get("trace", ())
    return {"instructions": len(trace)}


def _count_windows(args, result):
    sampling = getattr(result.stats, "sampling", None) or {}
    return {"windows": sampling.get("windows", 0)}


def _count_cache_get(args, result):
    return {"layer": _layer_kind(args[0]), "hit": int(result is not None)}


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def self_times(spans):
    """``{span id: self seconds}``: duration minus its children's."""
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    return {span["id"]: span["end"] - span["start"]
            - child_time.get(span["id"], 0.0) for span in spans}


def descendants(spans, root_id):
    """Spans below ``root_id`` (not including it)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    found = []
    frontier = [root_id]
    while frontier:
        for span in children.get(frontier.pop(), ()):
            found.append(span)
            frontier.append(span["id"])
    return found


def _has_ancestor(span, by_id, names):
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] in names:
            return True
        parent = by_id.get(parent["parent"])
    return False


def layer_metrics(spans, rounds):
    """The per-layer metrics of ``spans`` recorded over ``rounds`` rounds.

    Times are self times in seconds per round; counts are per round.
    """
    rounds = max(1, rounds)
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    layer_self = {}
    for span in spans:
        layer = LAYER_OF.get(span["name"])
        if layer is not None:
            layer_self[layer] = layer_self.get(layer, 0.0) + own[span["id"]]

    def named(name):
        return [span for span in spans if span["name"] == name]

    def total_self(name):
        return sum(own[span["id"]] for span in named(name))

    def total_attr(name, attr):
        return sum(span["attrs"].get(attr, 0) for span in named(name))

    uarch_s = total_self("uarch.run")
    uarch_instr = total_attr("uarch.run", "instructions")
    ff_s = total_self("functional.ff")
    ff_steps = total_attr("functional.ff", "steps")
    sampled = named("sampling.run")
    sampled_s = sum(span["end"] - span["start"] for span in sampled)
    detail_s = sum(span["end"] - span["start"] for span in named("uarch.run")
                   if _has_ancestor(span, by_id, {"sampling.run"}))
    gets = [span for span in named("cache.get")
            if span["attrs"].get("layer") == "result"]
    artifact_puts = [span for span in named("cache.put")
                     if span["attrs"].get("layer") == "artifact"]
    verdicts = sorted(
        (span["end"] - span["start"]) * 1000.0
        for span in named("analysis.verify")
        if not _has_ancestor(span, by_id, {"analysis.verify"}))
    return {
        "frontend.compile_s": layer_self.get("frontend", 0.0) / rounds,
        "compiler.backend_s": layer_self.get("compiler", 0.0) / rounds,
        "workloads.build_s": layer_self.get("workloads", 0.0) / rounds,
        "fastpath.compile_s": layer_self.get("fastpath", 0.0) / rounds,
        "functional.traced_s": total_self("functional.traced") / rounds,
        "functional.trace_entries":
            total_attr("functional.traced", "trace_entries") / rounds,
        "functional.ff_s": ff_s / rounds,
        "functional.ff_mips": ff_steps / ff_s / 1e6 if ff_s else 0.0,
        "uarch.run_s": uarch_s / rounds,
        "uarch.kips": uarch_instr / uarch_s / 1e3 if uarch_s else 0.0,
        "sampling.windows": total_attr("sampling.run", "windows") / rounds,
        "sampling.detail_share": detail_s / sampled_s if sampled_s else 0.0,
        "cache.result_hits": sum(s["attrs"]["hit"] for s in gets) / rounds,
        "cache.result_misses":
            sum(1 - s["attrs"]["hit"] for s in gets) / rounds,
        "cache.get_s": total_self("cache.get") / rounds,
        "cache.put_s": total_self("cache.put") / rounds,
        "cache.artifact_put_ok_ratio": (
            sum(s["attrs"].get("stored", 0) for s in artifact_puts)
            / len(artifact_puts) if artifact_puts else 0.0),
        "sweep.task_s": layer_self.get("sweep", 0.0) / rounds,
        "sweep.tasks": len(named("sweep.task")) / rounds,
        "analysis.verdict_p50_ms":
            statistics.median(verdicts) if verdicts else 0.0,
        "analysis.verdict_max_ms": verdicts[-1] if verdicts else 0.0,
        "analysis.verdicts": len(verdicts) / rounds,
    }


def accounted_share(spans, pass_name):
    """Share of the ``pass_name`` spans covered by the layers' self times.

    What is left is time no wrapped layer claims: the benchmark's own glue
    and any code between the wrapped boundaries.
    """
    own = self_times(spans)
    covered = total = 0.0
    for root in (s for s in spans if s["name"] == pass_name):
        total += root["end"] - root["start"]
        covered += sum(own[s["id"]] for s in descendants(spans, root["id"])
                       if s["name"] in LAYER_OF)
    return covered / total if total else 0.0
