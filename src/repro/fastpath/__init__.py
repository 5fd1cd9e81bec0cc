"""Threaded-code functional fast path: basic blocks compiled to closures.

The pre-decoded interpreters (:mod:`repro.straight.interpreter`,
:mod:`repro.riscv.interpreter`) still pay one Python dispatch per dynamic
instruction: an attribute-heavy ``step_op`` call, a big ``if/elif`` chain
over the kind int, a ``partial(eval_binop, ...)`` call per ALU op and two
dict updates per retired instruction.  This package removes all of it by
compiling each basic block of the pre-decoded ``DecodedOp`` array into one
specialized Python function (classic threaded-code / superinstruction
technique, done with textual codegen + ``exec``):

* operand accessors are pre-bound: register indices, wrapped immediates and
  branch targets are baked in as literals;
* ALU/compare semantics are inlined as native integer expressions (the
  exact :func:`repro.ir.passes.constfold.eval_binop` algebra, masked to 32
  bits); rare ops (divide/remainder) fall back to the pre-bound evaluators;
* common pairs are fused into superinstructions: a compare feeding the
  block-ending branch becomes one native boolean test, and intra-block
  producers are forwarded through Python locals, so address-generation
  feeding a load never round-trips the register file;
* per-instruction bookkeeping (``mnemonic_counts``, ``distance_hist``) is
  batched into precomputed per-block bumps, applied in the same
  first-occurrence order the baseline produces, so the final statistics
  dicts are identical — iteration order included.

One block function per basic block is generated per linked binary and
memoized by program (one compile per binary, like pre-decode itself).  The
blocks serve trace-free runs only — ``run(collect_trace=False)`` and the
sampled-simulation fast-forward.  A traced run spends most of its time
building ``TraceEntry`` records, which compiled code cannot make cheaper,
so traced runs, ``step()``, the lockstep golden machine and the odd
instruction before a ``max_steps`` boundary or after a computed jump into
a block's middle all execute the interpreter's own ``step_op``.  An
interpreter built to collect a trace never compiles.

Architectural state is bit-identical to the baseline interpreter loop on
every run that completes without a :class:`SimulationError`.  On error
paths the same exception (type and message) is raised, but the per-block
bookkeeping batching means partially-executed blocks leave statistics
dicts behind the baseline's — acceptable because erroring programs are
compiler bugs by definition and nothing asserts statistics after a crash.

Each interpreter takes ``compiled=False`` to run the baseline ``step_op``
loop instead — the reference the bit-identity tests compare against.
"""

import weakref

from repro.common.errors import SimulationError

__all__ = [
    "compiled_for",
    "run_compiled",
    "run_compiled_warming",
    "CompiledProgram",
]

#: program -> its :class:`CompiledProgram`.  Kept off the program object so
#: builds stay picklable for the artifact cache (generated functions are
#: not); the compiled unit never refers back to its program, so an entry
#: dies with the program it belongs to.
_compiled = weakref.WeakKeyDictionary()


def compiled_for(program, isa):
    """The memoized :class:`CompiledProgram` of ``program``.

    ``isa`` is the registered ISA name; ``straight`` programs compile via
    :mod:`repro.fastpath.straight_gen`, gpr programs (``riscv``, ``bb``)
    via :mod:`repro.fastpath.riscv_gen`.  Like the pre-decode array, the
    compiled unit is static (it holds no run state), so every interpreter
    over the same linked binary shares one compile.
    """
    cached = _compiled.get(program)
    if cached is not None and cached.n == len(program.instrs):
        return cached
    if isa == "straight":
        from repro.fastpath.straight_gen import compile_program
    else:
        from repro.fastpath.riscv_gen import compile_program
    compiled = compile_program(program)
    _compiled[program] = compiled
    return compiled


def run_compiled(it, max_steps):
    """Drive trace-free interpreter ``it`` through its compiled blocks.

    A block that would overrun ``max_steps``, and a computed jump (``JR``/
    ``JALR``) landing mid-block, single-step through ``step_op`` until the
    step count is exact or the next block boundary is reached.  Returns the
    number of instructions executed.
    """
    fast = it._fast
    blocks = fast.block_funcs
    lens = fast.block_lens
    decoded = it.decoded
    step_op = it.step_op
    n = fast.n
    steps = 0
    while not it.halted and steps < max_steps:
        index = it.pc_index
        if not 0 <= index < n:
            raise SimulationError(f"pc out of text segment: {it._pc():#x}")
        fn = blocks[index]
        if fn is not None and steps + lens[index] <= max_steps:
            fn(it)
            steps += lens[index]
        else:
            step_op(decoded[index])
            steps += 1
    return steps


def run_compiled_warming(it, max_steps, note):
    """Trace-less compiled run that reports every control transfer.

    The sampled-simulation fast-forward path: identical to
    :func:`run_compiled`, plus one ``note(term, next_index)`` call
    per executed branch/jump, where ``term`` is the
    :data:`CompiledProgram.term_at` descriptor.  The sampling runner feeds
    these into the branch predictor, BTB and RAS (functional warming) so
    their state entering each measurement window matches a continuous
    detailed run.  Returns the number of instructions executed.
    """
    fast = it._fast
    blocks = fast.block_funcs
    lens = fast.block_lens
    decoded = it.decoded
    step_op = it.step_op
    term_at = fast.term_at
    n = fast.n
    steps = 0
    while not it.halted and steps < max_steps:
        index = it.pc_index
        if not 0 <= index < n:
            raise SimulationError(f"pc out of text segment: {it._pc():#x}")
        fn = blocks[index]
        if fn is not None and steps + lens[index] <= max_steps:
            fn(it)
            steps += lens[index]
            term = term_at[index + lens[index] - 1]
        else:
            step_op(decoded[index])
            steps += 1
            term = term_at[index]
        if term is not None:
            note(term, it.pc_index)
    return steps


from repro.fastpath.codegen import CompiledProgram  # noqa: E402  (re-export)
