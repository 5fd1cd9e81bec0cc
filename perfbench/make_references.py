"""Regenerate ``references.json``: full-simulation results every run checks.

Run from the repository root (takes a few minutes; every cell is a full
cycle-level ``simulate()``)::

    python3 perfbench/make_references.py

The references are committed so that a benchmark run compares its outputs
with results computed once, by full simulation, outside the run:

* ``grid``    — instructions, cycles, IPC and output words of every grid cell;
* ``sampled`` — the full-run instructions, cycles, IPC and output words the
  sampled estimates are checked against;
* ``serve``   — the same for every registry-workload simulate request the
  serve mix can send.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from spec import CORES, ISAS, SCALES, grid_cells, sampled_cells  # noqa: E402

PATH = os.path.join(HERE, "references.json")


def _entry(result):
    return {"instructions": result.stats.instructions,
            "cycles": result.stats.cycles,
            "ipc": round(result.stats.ipc, 6),
            "output": list(result.output)}


def main():
    from repro.core.api import simulate
    from repro.core.configs import ALL_CORES
    from repro.harness.sweep import compile_binary_cached
    from repro.workloads import build_workload, get_workload

    refs = {"grid": {}, "sampled": {}, "serve": {}}
    for scale in SCALES:
        refs["grid"][scale] = {}
        for cell, workload, iterations, _isa, label, core in grid_cells(scale):
            binary = build_workload(workload, iterations).all()[label]
            refs["grid"][scale][cell] = _entry(
                simulate(binary, ALL_CORES[core](), warm_caches=True))
            print(cell, refs["grid"][scale][cell]["ipc"], flush=True)

        spec = SCALES[scale]["sampled"]
        source = get_workload(spec["workload"]).source(spec["iterations"])
        refs["sampled"][scale] = {}
        for cell, isa, core in sampled_cells(scale):
            binary = compile_binary_cached(source, target=isa)
            refs["sampled"][scale][cell] = _entry(
                simulate(binary, ALL_CORES[core](), warm_caches=True))
            print(cell, refs["sampled"][scale][cell]["ipc"], flush=True)

        for workload, iterations in SCALES[scale]["serve"]["registry_keys"]:
            source = get_workload(workload).source(iterations)
            for isa, _label in ISAS:
                for width in ("2way", "4way"):
                    core = CORES[(isa, width)]
                    key = f"{workload}x{iterations}/{core}"
                    binary = compile_binary_cached(source, target=isa)
                    refs["serve"][key] = _entry(
                        simulate(binary, ALL_CORES[core](), warm_caches=True))
                    print(key, refs["serve"][key]["ipc"], flush=True)

    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
