"""The simulator stack's benchmark: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads: ``grid``, ``sampled``, ``serve``, ``verify`` (see NOTES.md).
The run sets up the workload five times (``setup_s`` is the median), then
runs rounds until the next one would end after ``--seconds``, at least one.
With ``--trace 0`` it reports the end-to-end metrics of the untraced
rounds; with ``--trace 1`` it alternates untraced and traced rounds (at
least one of each), reports the per-layer metrics of the traced ones and
``trace_overhead_pct``, and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A human-readable report goes to standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: How many times set-up is measured per run.
SETUP_SAMPLES = 5

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "sampled", "serve", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (seconds per workload)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="check against a deliberately wrong reference "
                             "(the smoke test's proof that checks are live)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def quantile(values, q):
    """Inclusive-method quantile (``q`` in (0, 1)) of ``values``."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def main(argv=None):
    args = parse_args(argv)
    try:
        import repro  # noqa: F401 - the program under test, from ../src
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    from tracing import Tracer, accounted_share, layer_metrics
    from workloads import WORKLOADS, Checks

    scale = "tiny" if args.tiny else "full"
    workdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    workload = WORKLOADS[args.workload](scale, args.seed, workdir, references,
                                        corrupt=args.corrupt_reference)
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0
    os.makedirs(workdir, exist_ok=True)

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={scale}",
          flush=True)
    probe = [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--setup-probe"] + (
                 ["--tiny"] if args.tiny else [])
    checks = Checks()
    untraced, traced = [], []
    tracer = Tracer()
    try:
        workload.setup()
        setups = workload.measure_setup(SETUP_SAMPLES, probe)
        started = time.perf_counter()
        index = 0
        while True:
            tracing_round = bool(args.trace) and index % 2 == 1
            if tracing_round and workload.traces_in_process:
                tracer.install()
            round_started = time.perf_counter()
            try:
                result = workload.round(index, checks,
                                        tracer if tracing_round else None)
            finally:
                tracer.uninstall()
            (traced if tracing_round else untraced).append(result)
            index += 1
            elapsed = time.perf_counter() - started
            last = time.perf_counter() - round_started
            if index >= (2 if args.trace else 1) and (
                    elapsed + last > args.seconds):
                break
        peak_rss = workload.peak_rss_mb()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"seed": args.seed, "rounds": index,
              "sample_counts": {}, "extra": {}}
    if args.trace:
        spans = tracer.spans
        metrics = layer_metrics(spans, len(traced))
        metrics["sampling.ipc_err_pct"] = max(
            r.extra.get("ipc_err_pct", 0.0) for r in traced + untraced)
        verdicts = sum(r.extra.get("mutants", 0) for r in traced + untraced)
        missed = sum(r.extra.get("missed", 0) for r in traced + untraced)
        metrics["analysis.detect_rate"] = (
            (verdicts - missed) / verdicts if verdicts else 0.0)
        serve_metrics = getattr(workload, "serve_metrics", dict)()
        for name in units:
            if name.startswith("serve."):
                metrics[name] = serve_metrics.get(name, 0.0)
        metrics["trace.accounted_pct"] = 100.0 * accounted_share(
            spans, "pass.cold")
        untraced_wall = statistics.median(r.wall_s for r in untraced)
        traced_wall = statistics.median(r.wall_s for r in traced)
        metrics["trace_overhead_pct"] = (
            (traced_wall / untraced_wall - 1.0) * 100.0)
        report["extra"] = {"traced_rounds": len(traced)}
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans_path = os.path.join(
            ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, handle)
    else:
        ops = [ms for r in untraced for ms in r.op_ms]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "warm_s": statistics.median(r.warm_s for r in untraced),
            "p50_ms": quantile(ops, 0.50),
            "p95_ms": quantile(ops, 0.95),
            "peak_rss_mb": peak_rss,
        }
        report["sample_counts"] = {"setup": len(setups),
                                   "rounds": len(untraced), "ops": len(ops)}
        report["round_wall_s"] = [r.wall_s for r in untraced]
        report["extra"] = _report_figures(args.workload, untraced, checks)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    report["setup_samples_s"] = setups
    report["problems"] = checks.problems

    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}", file=sys.stderr)
    print("  " + json.dumps(report, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


def _report_figures(workload, rounds, checks):
    """The workload-specific figures the report prints beside the metrics."""
    wall = sum(r.wall_s for r in rounds)
    extra = {"error_rate": checks.failed / max(1, checks.attempted)}
    if workload in ("grid", "sampled"):
        extra["sim_kips"] = sum(r.extra["instructions"]
                                for r in rounds) / wall / 1e3
    if workload == "sampled":
        extra["ipc_err_pct"] = max(r.extra["ipc_err_pct"] for r in rounds)
    if workload == "serve":
        extra["rps"] = sum(r.extra["requests"] for r in rounds) / wall
        by_class = {}
        for r in rounds:
            for kind, values in r.extra["by_class"].items():
                by_class.setdefault(kind, []).extend(values)
        extra["class_p50_ms"] = {kind: statistics.median(values)
                                 for kind, values in by_class.items()}
        extra["class_max_ms"] = {kind: max(values)
                                 for kind, values in by_class.items()}
    if workload == "verify":
        extra["verdicts_per_s"] = sum(r.extra["verdicts"]
                                      for r in rounds) / wall
        mutants = sum(r.extra["mutants"] for r in rounds)
        extra["detect_rate"] = (mutants - sum(
            r.extra["missed"] for r in rounds)) / mutants
    return extra


if __name__ == "__main__":
    sys.exit(main())
