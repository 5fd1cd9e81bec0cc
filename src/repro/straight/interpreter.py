"""STRAIGHT functional instruction-set simulator.

Models the architectural state exactly as the paper defines it:

* a circular register file of ``MAX_RP`` write-once registers, the
  destination register of the N-th retired instruction being ``N mod MAX_RP``;
* sources resolved by subtracting the encoded distance from the instruction's
  own register number;
* the stack pointer SP, updated only by SPADD;
* a flat word memory and an output channel (OUT).

With ``check_distances=True`` (the default) every source read verifies that
the addressed physical register was written *exactly* ``distance``
instructions ago — i.e. that the value hasn't been overwritten by register
aliasing and that the compiler's static distances are dynamically exact.
This is the property STRAIGHT hardware relies on; violating code is a
compiler bug and the simulator raises immediately instead of computing
garbage.
"""

from repro import fastpath
from repro.common.bitops import wrap32
from repro.common.errors import SimulationError
from repro.common.layout import STACK_TOP, WORD_BYTES
from repro.common.trace import TraceEntry
from repro.straight.predecode import (
    K_ALU,
    K_ALU_IMM,
    K_BEZ,
    K_BNZ,
    K_CALL,
    K_CMP,
    K_CMP_IMM,
    K_HALT,
    K_JUMP,
    K_LOAD,
    K_LUI,
    K_NOP,
    K_OUT,
    K_RET,
    K_RMOV,
    K_SPADD,
    K_STORE,
    _decode_one,
    decode_program,
)


class RunResult:
    """Outcome of an interpreter run."""

    def __init__(self, status, steps, output):
        self.status = status  # 'halt' | 'limit'
        self.steps = steps
        self.output = output

    def __repr__(self):
        return f"RunResult({self.status}, steps={self.steps})"


class StraightInterpreter:
    """Executes a linked :class:`~repro.straight.linker.StraightProgram`."""

    def __init__(
        self,
        program,
        max_rp=None,
        collect_trace=False,
        check_distances=True,
        rob_entries=256,
        compiled=True,
    ):
        self.program = program
        #: Immutable pre-decoded instruction array, decoded once per linked
        #: binary and shared by every interpreter over the same program
        #: (primary, lockstep golden, fault campaigns).
        self.decoded = decode_program(program)
        # MAX_RP = max distance + ROB entries (paper §III-B); the functional
        # simulator only needs it large enough that live values never alias.
        self.max_rp = max_rp or (program.max_distance + rob_entries)
        self.regs = [0] * self.max_rp
        self.written_seq = [None] * self.max_rp
        self.sp = STACK_TOP
        self.seq = 0  # retired-instruction counter == next destination id
        self.pc_index = program.index_of_pc(program.entry_pc)
        self.memory = {}
        for offset, word in enumerate(program.data_words):
            self.memory[(program.data_base + offset * WORD_BYTES) // 4] = wrap32(word)
        self.output = []
        self.collect_trace = collect_trace
        self.check_distances = check_distances
        self.trace = []
        self.halted = False
        # Statistics for the evaluation (Fig. 15 instruction mix, Fig. 16
        # source-distance distribution).
        self.mnemonic_counts = {}
        self.distance_hist = {}
        #: Compiled blocks for trace-free runs (None: baseline step_op
        #: loop).  Only an interpreter built trace-free compiles — a traced
        #: run executes ``step_op`` — and ``compiled=False`` opts out.  The
        #: circular file must also be at least ``min_mrp`` registers for
        #: the compiled intra-block forwarding to be architecturally
        #: transparent.
        self._fast = None
        if compiled and not collect_trace:
            fast = fastpath.compiled_for(program, "straight")
            if self.max_rp >= fast.min_mrp:
                self._fast = fast

    # -- architectural helpers ---------------------------------------------------

    def _read_source(self, distance):
        """Resolve one distance operand; returns (value, producer_seq)."""
        if distance == 0:
            return 0, None
        producer = self.seq - distance
        if producer < 0:
            raise SimulationError(
                f"pc={self._pc():#x}: distance {distance} reaches before "
                "program start"
            )
        reg = producer % self.max_rp
        if self.check_distances and self.written_seq[reg] != producer:
            raise SimulationError(
                f"pc={self._pc():#x}: distance {distance} names instruction "
                f"#{producer} but register {reg} holds the value of "
                f"#{self.written_seq[reg]} (stale/aliased operand)"
            )
        self.distance_hist[distance] = self.distance_hist.get(distance, 0) + 1
        return self.regs[reg], producer

    def _write_dest(self, value):
        reg = self.seq % self.max_rp
        self.regs[reg] = wrap32(value)
        self.written_seq[reg] = self.seq

    def _pc(self):
        return self.program.text_base + self.pc_index * WORD_BYTES

    def _load_word(self, addr):
        if addr % 4 != 0:
            raise SimulationError(f"pc={self._pc():#x}: misaligned load {addr:#x}")
        return self.memory.get(addr // 4, 0)

    def _store_word(self, addr, value):
        if addr % 4 != 0:
            raise SimulationError(f"pc={self._pc():#x}: misaligned store {addr:#x}")
        self.memory[addr // 4] = wrap32(value)

    # -- execution -----------------------------------------------------------------

    def run(self, max_steps=10_000_000):
        """Run until HALT or ``max_steps``; returns a :class:`RunResult`."""
        if self._fast is not None and not self.collect_trace:
            steps = fastpath.run_compiled(self, max_steps)
            return RunResult(
                "halt" if self.halted else "limit", steps, self.output
            )
        steps = 0
        decoded = self.decoded
        n_instrs = len(decoded)
        step_op = self.step_op
        while not self.halted and steps < max_steps:
            index = self.pc_index
            if not 0 <= index < n_instrs:
                raise SimulationError(f"pc out of text segment: {self._pc():#x}")
            step_op(decoded[index])
            steps += 1
        return RunResult("halt" if self.halted else "limit", steps, self.output)

    def step(self, instr):
        """Execute one instruction, updating all architectural state.

        ``instr`` must be the instruction at the current ``pc_index`` (the
        contract every caller already honours); the pre-decoded record for it
        is reused when it matches, so external steppers (lockstep golden,
        fault campaigns) ride the same decode-once records as :meth:`run`.
        A non-matching ``instr`` (fault-injection campaigns mutate
        instructions in place) gets a one-off decode.
        """
        decoded = self.decoded
        index = self.pc_index
        if 0 <= index < len(decoded) and decoded[index].instr is instr:
            op = decoded[index]
        else:
            op = _decode_one(index, instr, self.program.text_base)
        self.step_op(op)

    def step_op(self, op):
        """Execute one pre-decoded instruction (the hot path)."""
        kind = op.kind
        pc = op.pc
        next_index = self.pc_index + 1
        dest_value = 0
        taken = False
        target_pc = None
        mem_addr = None

        # Inlined source reads (same semantics and diagnostics as
        # _read_source, without a function call per operand).
        seq = self.seq
        max_rp = self.max_rp
        regs = self.regs
        written_seq = self.written_seq
        distance_hist = self.distance_hist
        check = self.check_distances
        src_values = []
        src_seqs = []
        for distance in op.srcs:
            if distance == 0:
                src_values.append(0)
                src_seqs.append(None)
                continue
            producer = seq - distance
            if producer < 0:
                raise SimulationError(
                    f"pc={self._pc():#x}: distance {distance} reaches before "
                    "program start"
                )
            reg = producer % max_rp
            if check and written_seq[reg] != producer:
                raise SimulationError(
                    f"pc={self._pc():#x}: distance {distance} names "
                    f"instruction #{producer} but register {reg} holds the "
                    f"value of #{written_seq[reg]} (stale/aliased operand)"
                )
            distance_hist[distance] = distance_hist.get(distance, 0) + 1
            src_values.append(regs[reg])
            src_seqs.append(producer)

        if kind == K_ALU:
            dest_value = op.operand(src_values[0], src_values[1])
        elif kind == K_ALU_IMM:
            evaluator, imm = op.operand
            dest_value = evaluator(src_values[0], imm)
        elif kind == K_CMP:
            dest_value = op.operand(src_values[0], src_values[1])
        elif kind == K_CMP_IMM:
            evaluator, imm = op.operand
            dest_value = evaluator(src_values[0], imm)
        elif kind == K_LOAD:
            mem_addr = wrap32(src_values[0] + op.operand)
            dest_value = self._load_word(mem_addr)
        elif kind == K_STORE:
            mem_addr = wrap32(src_values[1] + op.operand)
            self._store_word(mem_addr, src_values[0])
            dest_value = src_values[0]  # "store value is returned" (§III-A)
        elif kind == K_BEZ or kind == K_BNZ:
            taken = (src_values[0] == 0) if kind == K_BEZ else (src_values[0] != 0)
            target_pc = op.target_pc
            if taken:
                next_index = op.target_index
        elif kind == K_RMOV:
            dest_value = src_values[0]
        elif kind == K_LUI:
            dest_value = op.operand
        elif kind == K_JUMP:
            taken = True
            target_pc = op.target_pc
            next_index = op.target_index
        elif kind == K_CALL:
            taken = True
            target_pc = op.target_pc
            next_index = op.target_index
            dest_value = op.operand
        elif kind == K_RET:
            taken = True
            target_pc = src_values[0]
            next_index = self.program.index_of_pc(target_pc)
        elif kind == K_SPADD:
            self.sp = wrap32(self.sp + op.operand)
            dest_value = self.sp
        elif kind == K_OUT:
            self.output.append(src_values[0])
            dest_value = src_values[0]
        elif kind == K_NOP:
            dest_value = 0
        elif kind == K_HALT:
            self.halted = True
        else:  # pragma: no cover - the opcode table is closed
            raise SimulationError(f"unimplemented mnemonic {op.mnemonic}")

        dest_reg = seq % max_rp
        dest_value = wrap32(dest_value)
        regs[dest_reg] = dest_value
        written_seq[dest_reg] = seq
        mnemonic = op.mnemonic
        self.mnemonic_counts[mnemonic] = self.mnemonic_counts.get(mnemonic, 0) + 1

        if self.collect_trace:
            self.trace.append(
                TraceEntry(
                    pc=pc,
                    op_class=op.op_class,
                    mnemonic=mnemonic,
                    dest=seq,
                    srcs=src_seqs,
                    taken=taken,
                    target_pc=target_pc,
                    next_pc=self.program.text_base + next_index * WORD_BYTES,
                    mem_addr=mem_addr,
                    is_call=(kind == K_CALL),
                    is_return=(kind == K_RET),
                    is_rmov=(kind == K_RMOV),
                    is_spadd=(kind == K_SPADD),
                    src_distances=op.srcs,
                    dest_value=dest_value,
                )
            )
        self.seq = seq + 1
        self.pc_index = next_index

    # -- checkpointing -------------------------------------------------------------

    def checkpoint(self):
        """Snapshot the complete architectural + bookkeeping state.

        Used by the sampled-simulation runner (window replay, debugging)
        and by resumable campaigns; ``restore`` rewinds exactly — a run
        restarted from a checkpoint is bit-identical to one that never
        stopped.
        """
        return {
            "regs": list(self.regs),
            "written_seq": list(self.written_seq),
            "sp": self.sp,
            "seq": self.seq,
            "pc_index": self.pc_index,
            "memory": dict(self.memory),
            "output": list(self.output),
            "halted": self.halted,
            "mnemonic_counts": dict(self.mnemonic_counts),
            "distance_hist": dict(self.distance_hist),
        }

    def restore(self, snap):
        """Rewind to a :meth:`checkpoint` snapshot (exact)."""
        self.regs = list(snap["regs"])
        self.written_seq = list(snap["written_seq"])
        self.sp = snap["sp"]
        self.seq = snap["seq"]
        self.pc_index = snap["pc_index"]
        self.memory = dict(snap["memory"])
        self.output = list(snap["output"])
        self.halted = snap["halted"]
        self.mnemonic_counts = dict(snap["mnemonic_counts"])
        self.distance_hist = dict(snap["distance_hist"])

    # -- statistics ---------------------------------------------------------------

    def class_counts(self):
        """Retired counts grouped the way Fig. 15 groups them."""
        groups = {
            "jump_branch": 0,
            "alu": 0,
            "load": 0,
            "store": 0,
            "rmov": 0,
            "nop": 0,
            "other": 0,
        }
        from repro.straight.isa import OPCODES

        for mnemonic, count in self.mnemonic_counts.items():
            if mnemonic == "RMOV":
                groups["rmov"] += count
            elif mnemonic == "NOP":
                groups["nop"] += count
            elif OPCODES[mnemonic].op_class in ("branch", "jump"):
                groups["jump_branch"] += count
            elif OPCODES[mnemonic].op_class in ("alu", "mul", "div"):
                groups["alu"] += count
            elif OPCODES[mnemonic].op_class == "load":
                groups["load"] += count
            elif OPCODES[mnemonic].op_class == "store":
                groups["store"] += count
            else:
                groups["other"] += count
        return groups
