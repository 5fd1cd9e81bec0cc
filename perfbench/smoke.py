"""The benchmark's own smoke test: every workload at tiny scale.

Run from the repository root (about two minutes)::

    python3 perfbench/smoke.py

For each workload it checks that

* an untraced run passes every reference check and prints every
  end-to-end metric of ``BENCHMARK.json``, with its unit, never zero;
* a traced run prints every per-layer metric, with its unit;
* a run against a deliberately wrong reference fails checks, which proves
  the checks are live;

and that the benchmark exits non-zero, printing no result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid", "sampled", "serve", "verify")


def run(*extra, workload, cwd=ROOT, trace=0):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return done, result


def expect(condition, message, failures):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def check_metrics(result, declared, label, failures):
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared},
           f"{label}: metric names {sorted(metrics)}", failures)
    for metric in declared:
        got = metrics.get(metric["name"], {})
        expect(got.get("unit") == metric["unit"],
               f"{label}: {metric['name']} unit {got.get('unit')}", failures)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []
    for workload in WORKLOADS:
        done, result = run(workload=workload)
        expect(result is not None, f"{workload}: no result\n{done.stderr}",
               failures)
        if result is not None:
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload}: checks failed\n{done.stderr}", failures)
            check_metrics(result, bench["end_to_end"], workload, failures)
            expect(all(m["value"] > 0 for m in result["metrics"].values()),
                   f"{workload}: a zero end-to-end metric", failures)

        done, result = run(workload=workload, trace=1)
        expect(result is not None and result["correct"],
               f"{workload} traced: no passing result\n{done.stderr}",
               failures)
        if result is not None:
            check_metrics(result, bench["per_layer"], f"{workload} traced",
                          failures)

        done, result = run("--corrupt-reference", workload=workload)
        expect(result is not None and result["failed"] > 0
               and not result["correct"],
               f"{workload}: a wrong reference did not raise the error rate",
               failures)
        print(f"ok   {workload}", flush=True)

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done, result = run(workload="grid", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and result is None and not done.stdout.strip(),
           "bare checkout: the benchmark did not fail cleanly", failures)
    print("smoke: " + ("FAILED" if failures else "passed"), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
