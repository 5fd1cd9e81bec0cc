"""What each workload runs: the fixed grids, the scales and the seeded inputs.

Everything here is pinned in the benchmark, not read from ``src/``, so a
change to the program cannot silently change what the benchmark measures.
"""

import random

#: (ISA name, registry binary label) of the three evaluated ISAs.
ISAS = (("riscv", "SS"), ("straight", "STRAIGHT-RE+"), ("bb", "BB"))

#: Core-config factory name per (ISA, width), as in ``repro.core.configs``.
CORES = {
    ("riscv", "2way"): "SS-2way", ("riscv", "4way"): "SS-4way",
    ("straight", "2way"): "STRAIGHT-2way",
    ("straight", "4way"): "STRAIGHT-4way",
    ("bb", "2way"): "BB-2way", ("bb", "4way"): "BB-4way",
}

#: The sampling schedule of the ``sampled`` workload: the repository's
#: speed schedule (long windows, one per 64k instructions), pinned here.
SPEED_SCHEDULE = {"period": 64000, "window": 2000, "warmup": 600,
                  "cooldown": 300}

SCALES = {
    "full": {
        # The paper's golden grid at the registry's default scale.
        "grid": {"workloads": {"dhrystone": None, "coremark": None},
                 "widths": ("2way", "4way"), "warm_repeats": 3},
        # max_ipc_err_pct: the largest sampled-vs-full IPC error (percent)
        # a cell may show before it counts as a failed check; 2% is the
        # ``--max-sampling-error`` gate the repository's CI puts on its
        # sampled golden grid.  At 4000 iterations (~65 windows per cell)
        # every sampling phase stays inside it; at 2000 (~32 windows) a
        # first window drawn into the program's start-up errs by up to 3%.
        "sampled": {"workload": "dhrystone", "iterations": 4000,
                    "schedule": SPEED_SCHEDULE, "max_ipc_err_pct": 2.0,
                    "warm_repeats": 25},
        # Every registry key (workload, iterations) is sent once on each of
        # the six cores, so all seeds send the same registry requests.
        "serve": {"unique": 30, "repeat": 22, "explore": 11,
                  "registry_keys": (("dhrystone", 1), ("dhrystone", 2)),
                  "warm_repeats": 9},
        "verify": {"straight_mutants": 150, "gpr_mutants": 40,
                   "campaign_max_distance": 127,
                   "shipped": ("dhrystone", "coremark", "fault-campaign"),
                   "warm_repeats": 3},
    },
    # The smoke test's scale: every code path, seconds per workload.
    "tiny": {
        "grid": {"workloads": {"dhrystone": 2}, "widths": ("2way",),
                 "warm_repeats": 1},
        # ~25 windows per cell: a few percent of sampling error is normal.
        "sampled": {"workload": "dhrystone", "iterations": 200,
                    "schedule": {"period": 8000, "window": 2000,
                                 "warmup": 600, "cooldown": 300},
                    "max_ipc_err_pct": 5.0, "warm_repeats": 2},
        "serve": {"unique": 5, "repeat": 3, "explore": 1,
                  "registry_keys": (("dhrystone", 1),), "warm_repeats": 2},
        "verify": {"straight_mutants": 6, "gpr_mutants": 4,
                   "campaign_max_distance": 127,
                   "shipped": ("fault-campaign",), "warm_repeats": 2},
    },
}


def grid_cells(scale):
    """``[(cell id, workload, iterations, isa, label, core)]`` in grid order."""
    spec = SCALES[scale]["grid"]
    cells = []
    for workload, iterations in spec["workloads"].items():
        for isa, label in ISAS:
            for width in spec["widths"]:
                core = CORES[(isa, width)]
                cells.append((f"{workload}/{label}/{core}", workload,
                              iterations, isa, label, core))
    return cells


def sampled_cells(scale):
    """``[(cell id, isa, core)]`` of the sampled workload (4-way cores)."""
    spec = SCALES[scale]["sampled"]
    return [(f"{spec['workload']}x{spec['iterations']}/{label}/"
             f"{CORES[(isa, '4way')]}", isa, CORES[(isa, "4way")])
            for isa, label in ISAS]


def sub_seed(seed, purpose, index=0):
    """A seed derived from the run seed (string seeding is stable)."""
    return random.Random(f"{seed}:{purpose}:{index}").randrange(1 << 31)


# ---------------------------------------------------------------------------
# Generated mini-C programs with outputs known in advance
# ---------------------------------------------------------------------------

_MASK = 0xFFFFFFFF

#: Every generated program runs its loop this many times, so that requests
#: cost the same whatever the seed draws; the seed varies the constants and
#: the loop-body shape.
PROGRAM_LOOP_COUNT = 24

#: Loop-body shapes: (mini-C statement, the same update in Python).
_SHAPES = (
    ("acc = acc + i * {b};", lambda acc, i, b: acc + i * b),
    ("acc = acc * 3 + i * {b};", lambda acc, i, b: acc * 3 + i * b),
    ("acc = (acc ^ (i * {b})) + 7;", lambda acc, i, b: (acc ^ (i * b)) + 7),
)

_PROGRAM = """
int main() {{
    int acc = {a};
    int i;
    for (i = 0; i < {n}; ++i) {{
        {body}
    }}
    __out(acc);
    return 0;
}}
"""


def generated_program(rng):
    """``(source, expected output words)`` of one seeded small program.

    The expected output is computed here, in Python, with 32-bit
    wrap-around: an oracle that shares no code with the simulator.
    """
    shape, update = _SHAPES[rng.randrange(len(_SHAPES))]
    a = rng.randrange(1, 1000)
    b = rng.randrange(1, 1 << 20)
    n = PROGRAM_LOOP_COUNT
    acc = a
    for i in range(n):
        acc = update(acc, i, b) & _MASK
    source = _PROGRAM.format(a=a, n=n, body=shape.format(b=b))
    return source, [acc]
