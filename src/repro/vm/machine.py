"""The virtual machine: one class, two execution tiers.

``Machine`` executes an assembled :class:`~repro.vm.program.Program`
and captures the dynamic instruction stream.  :meth:`Machine.run` is
tiered:

- **tier 0** runs each static instruction as a closure with its
  operands and trace columns bound as cells, so cold code costs one
  call per dynamic instruction and nothing up front;
- **tier 1** runs a hot pc's superblock as one compiled function of
  straight-line code (:mod:`repro.vm.fastmachine`).  A head compiles
  once the instructions it retired in tier 0 pass
  :data:`COMPILE_BAR`, the point at which compiling would already
  have paid for itself.

Both tiers are generated from the ISA table (:mod:`repro.isa.table`):
tier 0 compiles one closure factory per opcode, once per process, and
tier 1 one fragment per instruction of a block.  Both write one
column layout into columns the machine owns, and both are bound to
them once per machine; :meth:`Machine.run` drains the columns into a
:class:`~repro.vm.trace.ColumnarTrace` at its end.  :meth:`Machine.step`
and :meth:`Machine.run_rows` are the one-at-a-time interpreter, kept
hand-written, apart from the table, as the independent oracle for both
tiers.

Architectural model:

- 32 integer registers (``r0`` hardwired to zero) and 32 FP registers;
- word-addressed flat memory (a dict; unwritten words read as 0);
- 64-bit two's-complement integer arithmetic;
- IEEE double floating point (Python floats).
"""

from __future__ import annotations

import functools
import gc
import math
import re
import sys
from array import array

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import FP_REG_BASE, MEM_LOC_BASE
from repro.isa.table import ISA, substitute, wrap64
from repro.vm.errors import VMError
from repro.vm.fastmachine import (
    _BRANCHES,
    _REGFILE,
    _bounds_from_counts,
    _split_pcn,
    _Unsupported,
    form_trace,
    generate_block_source,
    unroll_loop_path,
)
from repro.vm.program import Program
from repro.vm.trace import ColumnarTrace, DynInst, Trace

#: Initial stack pointer (word address); the stack grows downwards.
DEFAULT_STACK_TOP = 1 << 20

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


def _wrap64(x: int) -> int:
    """Wrap a Python int to 64-bit two's-complement."""
    x &= _MASK64
    return x - (1 << 64) if x & _SIGN64 else x


def _shift_amount(b: int) -> int:
    return b & 63


def _srl(a: int, b: int) -> int:
    return _wrap64((a & _MASK64) >> _shift_amount(b))


#: The fault of ``lw`` of a float word and ``cvtfi`` when the value is
#: ±inf or nan, which have no integer.
_NON_FINITE = "integer conversion of a non-finite value"

#: Semantics of the opcode groups :meth:`Machine.step` dispatches
#: through one handler each; they serve only the oracle.
_INT_RR_FN = {
    Opcode.ADD: lambda a, b: _wrap64(a + b),
    Opcode.SUB: lambda a, b: _wrap64(a - b),
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: _wrap64(a << _shift_amount(b)),
    Opcode.SRL: _srl,
    Opcode.SRA: lambda a, b: a >> _shift_amount(b),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.MUL: lambda a, b: _wrap64(a * b),
}
_INT_RI_FN = {
    Opcode.ADDI: lambda a, b: _wrap64(a + b),
    Opcode.ANDI: lambda a, b: a & b,
    Opcode.ORI: lambda a, b: a | b,
    Opcode.XORI: lambda a, b: a ^ b,
    Opcode.SLLI: lambda a, b: _wrap64(a << _shift_amount(b)),
    Opcode.SRLI: _srl,
    Opcode.SRAI: lambda a, b: a >> _shift_amount(b),
    Opcode.SLTI: lambda a, b: 1 if a < b else 0,
    Opcode.MULI: lambda a, b: _wrap64(a * b),
}
_BRANCH_FN = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
    Opcode.BLE: lambda a, b: a <= b,
    Opcode.BGT: lambda a, b: a > b,
}
_FP_RR_FN = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
}
_FP_CMP_FN = {
    Opcode.FEQ: lambda a, b: 1 if a == b else 0,
    Opcode.FLT: lambda a, b: 1 if a < b else 0,
    Opcode.FLE: lambda a, b: 1 if a <= b else 0,
}


#: Tier-0 instructions a head must retire per instruction of its
#: compiled block before the block compiles.  This is the ski-rental
#: rule of tiered JITs: compile once the time tier 1 would already have
#: saved equals the compile cost, so no run pays more than about twice
#: what the better choice in hindsight costs.  The bar is their ratio:
#: compiling costs 160-185 us per compiled instruction and tier 1
#: saves 0.6-0.74 us per retired instruction (14 kernels, 2-CPU x86-64
#: host, CPython 3.11), a ratio of 220-310; of the bars swept at
#: budgets from 20k to 1M, 217 was the best at 50k and 250k and within
#: 15% of the best at 20k and 1M (DESIGN.md §8.1).
COMPILE_BAR = 217

#: Budget of an unbounded run.
_UNBOUNDED = sys.maxsize


class Machine:
    """The tiered virtual machine with dynamic-trace capture.

    Parameters
    ----------
    program:
        The assembled program to run.
    stack_top:
        Initial value of the stack pointer register (``sp``).
    """

    def __init__(self, program: Program, *, stack_top: int = DEFAULT_STACK_TOP):
        self.program = program
        self.regs: list[int] = [0] * 32
        self.fregs: list[float] = [0.0] * 32
        self.memory: dict[int, int | float] = dict(program.data)
        self.regs[29] = stack_top  # sp
        self.pc = program.text_labels.get("main", 0)
        self.halted = False
        self.instruction_count = 0
        self._dispatch = self._build_dispatch()
        self._bind()

    def _bind(self) -> None:
        """Bind tier 0 to this machine's state and trace columns, and
        set up the tier-1 bookkeeping.  Runs once per machine: every
        :meth:`run` drains the same columns in place."""
        instrs = self.program.instructions
        n = len(instrs)
        # the trace columns: interleaved [pc, next_pc] plus the pairs
        self._pcn = pcn = array("i")
        self._rlocs = rlocs = array("q")
        self._rvals: list = []
        self._wlocs = wlocs = array("q")
        self._wvals: list = []
        #: tier-0 branch profile: executions taken minus not taken
        self._bal = [0] * n
        cols = (self.regs, self.fregs, self.memory, self.memory.get,
                self._bal, n, pcn, pcn.extend, rlocs, rlocs.extend,
                self._rvals.append, wlocs, wlocs.extend, self._wvals.append)
        self._execs = []
        # per-pc pair counts: both tiers skip the bounds columns, which
        # the drain rebuilds from these
        self._rcounts = []
        self._wcounts = []
        for pc, inst in enumerate(instrs):
            factory, nreads, nwrites = _exec_factory(
                inst.op, inst.rd == 0 and ISA[inst.op].files[0] == "i")
            self._execs.append(factory(self, pc, inst.rd, inst.rs1, inst.rs2,
                                       inst.imm, inst.line, *cols))
            self._rcounts.append(nreads)
            self._wcounts.append(nwrites)
        self._runtime = (
            self, self.regs, self.fregs, self.memory, self.memory.get,
            pcn, pcn.extend, rlocs, rlocs.extend, self._rvals.extend,
            wlocs, wlocs.extend, self._wvals.extend, VMError,
            self._trunc_div,
        )
        self._op_table = [int(inst.op) for inst in instrs]
        self._lat_table = [inst.latency for inst in instrs]
        # tier-0 entries left before a pc is considered for compiling;
        # _promote tops this up once it knows the block's shape
        self._credit = [COMPILE_BAR] * n
        self._entries: dict[int, int] = {}  # credit granted so far, per pc
        self._fns: list = [None] * n        # bound compiled blocks
        self._paths: dict[int, tuple[int, ...]] = {}
        self._sizes = [0] * n
        self._shorts: dict[int, int] = {}
        self._retired: dict[int, int] = {}
        #: (head, path position) of a block that tier 0 is standing in
        #: for; see _run_shadow
        self._shadow: tuple[int, int] | None = None
        #: instructions retired by the current head so far: a block
        #: that comes back to its own head is still one call
        self._held = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, max_instructions: int | None = None) -> ColumnarTrace:
        """Execute until HALT or the instruction budget, capturing a trace.

        The budget is absolute against ``instruction_count``, so
        repeated calls with growing budgets resume execution exactly.
        On a fault the instructions before the faulting one count as
        retired and the ``VMError`` propagates; their records are
        discarded.
        """
        count0 = self.instruction_count
        # Execution allocates in bursts (value tuples, column growth)
        # that never form reference cycles; cyclic-gc passes over the
        # growing value columns are pure overhead.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            self._execute(_UNBOUNDED if max_instructions is None
                          else max_instructions)
        except BaseException:
            self.instruction_count = count0 + len(self._pcn) // 2
            self._clear()
            raise
        finally:
            if gc_enabled:
                gc.enable()
        return self._drain()

    def _execute(self, budget: int) -> None:
        if self.halted:
            return
        execs = self._execs
        credit = self._credit
        fns = self._fns
        sizes = self._sizes
        n = len(execs)
        count = self.instruction_count
        pc = self.pc
        if self._shadow is not None:
            pc, count = self._run_shadow(pc, count, budget)
        held = self._held
        while count < budget:
            if not 0 <= pc < n:
                if self.halted:
                    break
                self.pc = pc
                raise VMError(f"pc {pc} outside program", pc=pc)
            c = credit[pc]
            if c:  # tier 0
                credit[pc] = c - 1
                pc = execs[pc]()
                count += 1
                continue
            fn = fns[pc]
            if fn is None:
                self._promote(pc)
                continue
            # a superblock may exit early or loop internally, so gate
            # on its full size, hand it the remaining room and advance
            # by what it actually executed
            size = sizes[pc]
            if count + size > budget:
                self._shadow = (pc, 0)
                self._held = held
                pc, count = self._run_shadow(pc, count, budget)
                held = self._held
                continue
            head = pc
            k, pc = fn(budget - count)
            count += k
            if pc == head:  # looped to its head, out of room or via jr
                held += k
                continue
            if held:
                k += held
                held = 0
            if k * 4 < size:
                self._short_exit(head, k, pc)
        self._held = held
        if not self.halted:
            self.pc = pc
        self.instruction_count = count

    def _promote(self, pc: int) -> None:
        """``pc`` used up its tier-0 credit: compile its superblock if
        the instructions it retired in tier 0, one trace path per
        entry, pass :data:`COMPILE_BAR` per compiled instruction (an
        unrolled loop compiles several paths); else top its credit up
        to that bar."""
        bal = self._bal
        trace = form_trace(self.program, pc, bias=lambda q: bal[q] > 0)
        path = unroll_loop_path(self.program, trace)
        entries = self._entries.get(pc, COMPILE_BAR)
        short = COMPILE_BAR * len(path) // len(trace) - entries
        if short > 0:
            self._credit[pc] = short
            self._entries[pc] = entries + short
            return
        try:
            code = compile(generate_block_source(self.program, path),
                           f"<block {self.program.name}:{pc}>", "exec")
        except _Unsupported:
            self._credit[pc] = _UNBOUNDED  # tier 0 for good
            return
        ns = {"_array": array, "inf": math.inf}
        exec(code, ns)
        self._fns[pc] = ns["_factory"](*self._runtime)
        self._paths[pc] = path
        self._sizes[pc] = len(path)

    def _short_exit(self, head: int, k: int, pc: int) -> None:
        """The block at ``head`` left in its first quarter, at ``pc``
        after ``k`` instructions.

        A trace formed from a misleading profile keeps exiting near
        its head, and its divergent branch only ever executes inside
        tier 1, so the tier-0 profile would never self-correct.  After
        64 such exits, feed the observed direction back into the
        profile and retire the block so it re-forms along the real hot
        path (at most 4 times per head, so a genuinely irregular block
        cannot churn).
        """
        sh = self._shorts.get(head, 0) + 1
        self._shorts[head] = sh % 64
        r = self._retired.get(head, 0)
        if sh < 64 or r >= 4:
            return
        self._retired[head] = r + 1
        div = self._paths[head][k - 1]
        if self.program.instructions[div].op in _BRANCHES:
            self._bal[div] += 64 if pc != div + 1 else -64
            self._credit[head] = 0  # re-form on the next entry
        else:
            self._credit[head] = COMPILE_BAR
            self._entries.pop(head, None)
        self._fns[head] = None

    def _run_shadow(self, pc: int, count: int, budget: int) -> tuple[int, int]:
        """Run tier 0 in place of a compiled block that does not fit
        the budget, up to where the block would have left.

        Tier 0 charges no credit and feeds no branch profile here, and
        the block's exit is checked for a short exit as if the block
        had run; the position survives a return at the budget, and
        back at its head the block takes over again.  So how a budget
        is split into :meth:`run` calls never changes what compiles.
        """
        head, pos = self._shadow
        kt = self._held
        path = self._paths[head]
        execs = self._execs
        bal = self._bal
        while count < budget:
            saved = bal[pc]
            nxt = execs[pc]()
            bal[pc] = saved
            count += 1
            kt += 1
            pos += 1
            if pos < len(path) and nxt == path[pos]:
                pc = nxt
                continue
            self._shadow = None
            if nxt == head:  # the block would go on: hand it back
                self._held = kt
                return nxt, count
            self._held = 0
            if kt * 4 < len(path):
                self._short_exit(head, kt, nxt)
            return nxt, count
        self._shadow = (head, pos)
        self._held = kt
        return pc, count

    def _drain(self) -> ColumnarTrace:
        """Move the records retired since the last drain into a trace,
        emptying the machine's columns in place."""
        pcn = self._pcn
        pcs, ops, lats, npcs = _split_pcn(pcn, self._op_table,
                                          self._lat_table)
        trace = ColumnarTrace(
            program_name=self.program.name,
            halted=self.halted,
            truncated=not self.halted,
        )
        trace.pcs = pcs
        trace.ops = ops
        trace.lats = lats
        trace.next_pcs = npcs
        trace.read_bounds = _bounds_from_counts(self._rcounts, pcs)
        trace.write_bounds = _bounds_from_counts(self._wcounts, pcs)
        trace.read_locs = self._rlocs[:]
        trace.read_vals = self._rvals[:]
        trace.write_locs = self._wlocs[:]
        trace.write_vals = self._wvals[:]
        self._clear()
        if (trace.read_bounds[-1] != len(trace.read_locs)
                or trace.write_bounds[-1] != len(trace.write_locs)
                or len(trace.read_locs) != len(trace.read_vals)
                or len(trace.write_locs) != len(trace.write_vals)):
            raise RuntimeError(
                "inconsistent trace columns "
                f"(internal error in {self.program.name})"
            )
        return trace

    def _clear(self) -> None:
        del self._pcn[:]
        del self._rlocs[:]
        self._rvals.clear()
        del self._wlocs[:]
        self._wvals.clear()

    def run_rows(self, max_instructions: int | None = None) -> Trace:
        """Execute via the one-at-a-time interpreter, returning the
        row-layout :class:`Trace`.

        This is the one-at-a-time interpreter (``step`` in a loop),
        independent of both tiers of :meth:`run`: it is their
        differential-testing oracle.
        """
        records: list[DynInst] = []
        budget = max_instructions if max_instructions is not None else float("inf")
        while not self.halted and self.instruction_count < budget:
            records.append(self.step())
        return Trace(
            instructions=records,
            program_name=self.program.name,
            halted=self.halted,
            truncated=not self.halted,
        )

    def step(self) -> DynInst:
        """Execute one instruction and return its trace record."""
        if self.halted:
            raise VMError("machine is halted", pc=self.pc)
        instrs = self.program.instructions
        if not 0 <= self.pc < len(instrs):
            raise VMError(f"pc {self.pc} outside program", pc=self.pc)
        inst = instrs[self.pc]
        handler = self._dispatch.get(inst.op)
        if handler is None:  # pragma: no cover - all opcodes are wired up
            raise VMError(f"unimplemented opcode {inst.op.name}", pc=self.pc,
                          line=inst.line)
        reads, writes, next_pc = handler(inst)
        record = DynInst(self.pc, inst.op, reads, writes, inst.latency, next_pc)
        self.pc = next_pc
        self.instruction_count += 1
        return record

    def read_memory(self, addr: int) -> int | float:
        """Architectural memory read (unwritten words read as zero)."""
        return self.memory.get(addr, 0)

    def register(self, index: int) -> int:
        """Architectural integer-register read."""
        return self.regs[index]

    def fp_register(self, index: int) -> float:
        """Architectural FP-register read."""
        return self.fregs[index]

    # ------------------------------------------------------------------
    # helpers used by handlers
    # ------------------------------------------------------------------
    def _write_reg(self, idx: int, value: int):
        """Write an int register; returns the trace-write tuple or ()."""
        if idx == 0:
            return ()  # r0 is hardwired zero; the write is discarded
        self.regs[idx] = value
        return ((idx, value),)

    def _mem_addr(self, inst: Instruction) -> int:
        addr = self.regs[inst.rs1] + inst.imm
        if addr < 0:
            raise VMError(f"negative memory address {addr}", pc=self.pc,
                          line=inst.line)
        return addr

    # ------------------------------------------------------------------
    # opcode handlers: return (reads, writes, next_pc)
    # ------------------------------------------------------------------
    def _alu_rr(self, inst: Instruction, fn):
        a = self.regs[inst.rs1]
        b = self.regs[inst.rs2]
        result = fn(a, b)
        reads = ((inst.rs1, a), (inst.rs2, b))
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _alu_ri(self, inst: Instruction, fn):
        a = self.regs[inst.rs1]
        result = fn(a, inst.imm)
        reads = ((inst.rs1, a),)
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _build_dispatch(self):
        table = {}
        for op, fn in _INT_RR_FN.items():
            table[op] = (lambda inst, f=fn: self._alu_rr(inst, f))
        for op, fn in _INT_RI_FN.items():
            table[op] = (lambda inst, f=fn: self._alu_ri(inst, f))
        for op, fn in _BRANCH_FN.items():
            table[op] = (lambda inst, f=fn: self._branch(inst, f))
        for op, fn in _FP_RR_FN.items():
            table[op] = (lambda inst, f=fn: self._fp_rr(inst, f))
        for op, fn in _FP_CMP_FN.items():
            table[op] = (lambda inst, f=fn: self._fp_cmp(inst, f))
        table[Opcode.DIV] = self._op_div
        table[Opcode.REM] = self._op_rem
        table[Opcode.LI] = self._op_li
        table[Opcode.MOV] = self._op_mov
        table[Opcode.LW] = self._op_lw
        table[Opcode.SW] = self._op_sw
        table[Opcode.FLW] = self._op_flw
        table[Opcode.FSW] = self._op_fsw
        table[Opcode.J] = self._op_j
        table[Opcode.JAL] = self._op_jal
        table[Opcode.JR] = self._op_jr
        table[Opcode.FDIV] = self._op_fdiv
        table[Opcode.FSQRT] = self._op_fsqrt
        table[Opcode.FNEG] = self._op_fneg
        table[Opcode.FABS] = self._op_fabs
        table[Opcode.FMOV] = self._op_fmov
        table[Opcode.FLI] = self._op_fli
        table[Opcode.CVTIF] = self._op_cvtif
        table[Opcode.CVTFI] = self._op_cvtfi
        table[Opcode.NOP] = self._op_nop
        table[Opcode.HALT] = self._op_halt
        return table

    def _branch(self, inst: Instruction, cond):
        a = self.regs[inst.rs1]
        b = self.regs[inst.rs2]
        taken = cond(a, b)
        next_pc = inst.imm if taken else self.pc + 1
        return ((inst.rs1, a), (inst.rs2, b)), (), next_pc

    def _fp_rr(self, inst: Instruction, fn):
        a = self.fregs[inst.rs1]
        b = self.fregs[inst.rs2]
        result = fn(a, b)
        self.fregs[inst.rd] = result
        reads = ((FP_REG_BASE + inst.rs1, a), (FP_REG_BASE + inst.rs2, b))
        return reads, ((FP_REG_BASE + inst.rd, result),), self.pc + 1

    def _fp_cmp(self, inst: Instruction, fn):
        a = self.fregs[inst.rs1]
        b = self.fregs[inst.rs2]
        result = fn(a, b)
        reads = ((FP_REG_BASE + inst.rs1, a), (FP_REG_BASE + inst.rs2, b))
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    @staticmethod
    def _trunc_div(a: int, b: int) -> int:
        """Exact integer division truncating toward zero."""
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    def _op_div(self, inst: Instruction):
        a = self.regs[inst.rs1]
        b = self.regs[inst.rs2]
        if b == 0:
            raise VMError("integer division by zero", pc=self.pc, line=inst.line)
        result = _wrap64(self._trunc_div(a, b))
        reads = ((inst.rs1, a), (inst.rs2, b))
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _op_rem(self, inst: Instruction):
        a = self.regs[inst.rs1]
        b = self.regs[inst.rs2]
        if b == 0:
            raise VMError("integer remainder by zero", pc=self.pc, line=inst.line)
        result = _wrap64(a - self._trunc_div(a, b) * b)
        reads = ((inst.rs1, a), (inst.rs2, b))
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _op_li(self, inst: Instruction):
        return (), self._write_reg(inst.rd, int(inst.imm)), self.pc + 1

    def _op_mov(self, inst: Instruction):
        a = self.regs[inst.rs1]
        return ((inst.rs1, a),), self._write_reg(inst.rd, a), self.pc + 1

    def _op_lw(self, inst: Instruction):
        base = self.regs[inst.rs1]
        addr = self._mem_addr(inst)
        value = self.memory.get(addr, 0)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise VMError(_NON_FINITE, pc=self.pc, line=inst.line)
            value = int(value)
        reads = ((inst.rs1, base), (MEM_LOC_BASE + addr, value))
        return reads, self._write_reg(inst.rd, value), self.pc + 1

    def _op_sw(self, inst: Instruction):
        base = self.regs[inst.rs1]
        value = self.regs[inst.rs2]
        addr = self._mem_addr(inst)
        self.memory[addr] = value
        reads = ((inst.rs1, base), (inst.rs2, value))
        return reads, ((MEM_LOC_BASE + addr, value),), self.pc + 1

    def _op_flw(self, inst: Instruction):
        base = self.regs[inst.rs1]
        addr = self._mem_addr(inst)
        value = float(self.memory.get(addr, 0))
        self.fregs[inst.rd] = value
        reads = ((inst.rs1, base), (MEM_LOC_BASE + addr, value))
        return reads, ((FP_REG_BASE + inst.rd, value),), self.pc + 1

    def _op_fsw(self, inst: Instruction):
        base = self.regs[inst.rs1]
        value = self.fregs[inst.rs2]
        addr = self._mem_addr(inst)
        self.memory[addr] = value
        reads = ((inst.rs1, base), (FP_REG_BASE + inst.rs2, value))
        return reads, ((MEM_LOC_BASE + addr, value),), self.pc + 1

    def _op_j(self, inst: Instruction):
        return (), (), int(inst.imm)

    def _op_jal(self, inst: Instruction):
        link = self.pc + 1
        return (), self._write_reg(inst.rd, link), int(inst.imm)

    def _op_jr(self, inst: Instruction):
        a = self.regs[inst.rs1]
        return ((inst.rs1, a),), (), a

    def _op_fdiv(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        b = self.fregs[inst.rs2]
        if b == 0.0:
            raise VMError("floating division by zero", pc=self.pc, line=inst.line)
        result = a / b
        self.fregs[inst.rd] = result
        reads = ((FP_REG_BASE + inst.rs1, a), (FP_REG_BASE + inst.rs2, b))
        return reads, ((FP_REG_BASE + inst.rd, result),), self.pc + 1

    def _op_fsqrt(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        if a < 0.0:
            raise VMError("square root of a negative value", pc=self.pc,
                          line=inst.line)
        result = a ** 0.5
        self.fregs[inst.rd] = result
        reads = ((FP_REG_BASE + inst.rs1, a),)
        return reads, ((FP_REG_BASE + inst.rd, result),), self.pc + 1

    def _op_fneg(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        result = -a
        self.fregs[inst.rd] = result
        return (((FP_REG_BASE + inst.rs1, a),),
                ((FP_REG_BASE + inst.rd, result),), self.pc + 1)

    def _op_fabs(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        result = abs(a)
        self.fregs[inst.rd] = result
        return (((FP_REG_BASE + inst.rs1, a),),
                ((FP_REG_BASE + inst.rd, result),), self.pc + 1)

    def _op_fmov(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        self.fregs[inst.rd] = a
        return (((FP_REG_BASE + inst.rs1, a),),
                ((FP_REG_BASE + inst.rd, a),), self.pc + 1)

    def _op_fli(self, inst: Instruction):
        value = float(inst.imm)
        self.fregs[inst.rd] = value
        return (), ((FP_REG_BASE + inst.rd, value),), self.pc + 1

    def _op_cvtif(self, inst: Instruction):
        a = self.regs[inst.rs1]
        result = float(a)
        self.fregs[inst.rd] = result
        return (((inst.rs1, a),),
                ((FP_REG_BASE + inst.rd, result),), self.pc + 1)

    def _op_cvtfi(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        if not math.isfinite(a):
            raise VMError(_NON_FINITE, pc=self.pc, line=inst.line)
        result = _wrap64(int(a))
        reads = ((FP_REG_BASE + inst.rs1, a),)
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _op_nop(self, inst: Instruction):
        return (), (), self.pc + 1

    def _op_halt(self, inst: Instruction):
        self.halted = True
        return (), (), self.pc


# ----------------------------------------------------------------------
# tier 0: one closure per static instruction
# ----------------------------------------------------------------------
#
# Each opcode's closure factory is generated from its ISA-table entry
# (one per opcode, and one more that drops the result, for an int
# destination of r0), compiled on first use and kept for the process.
# ``_bind`` calls it per static instruction with the machine, the pc,
# the instruction's fields, and ``cols``, the machine's state and
# trace-column sinks; it binds the operands, the pc/next-pc pair and
# the static location arrays as cells and returns a zero-argument
# closure that executes the instruction once: it reads and mutates the
# machine state, appends the trace record to the machine's columns,
# and returns the next pc.  A record is its ``[pc, next_pc]`` pair,
# extended from a bind-time array, plus its (loc, value) pairs: static
# locations are extended from bind-time arrays too, and a memory
# location is patched in by negative index.  Opcode, latency and the
# bounds columns are rebuilt from per-pc tables when the run drains.
#
# The closures must stay observationally identical to the ``step()``
# handlers — same records, same state mutations, same errors — which
# the differential tests assert over every workload and the golden ISA
# test over every opcode.

_NAME = re.compile(r"(?<![.\w])[A-Za-z_]\w*")
_STRING = re.compile(r"'[^']*'")


def _reg(file: str, field: str) -> tuple[str, str]:
    """A register operand's list and location, as source text."""
    regs, base, _, _ = _REGFILE[file]
    return regs, f"{base} + {field}" if base else field


def _raises(faults) -> list[str]:
    """Tier-0 lines raising each of ``faults`` when its condition holds."""
    out = []
    for cond, msg, *arg in faults:
        msg = repr(msg) + "".join(f" % {x}" for x in arg)
        out += [f"if {cond}:", "    m.pc = pc",
                f"    raise VMError({msg}, pc=pc, line=line)"]
    return out


def _exec_source(op: Opcode, r0: bool) -> tuple[str, int, int]:
    """Source of the tier-0 closure factory of ``op`` (``r0`` drops the
    result, for an int destination of r0), and the number of read and
    write pairs its record holds."""
    spec = ISA[op]
    fmt = spec.operands
    dfile, sfile, tfile = spec.files
    mem = spec.is_load or spec.is_store
    body: list[str] = []
    rvals, rlocs, wvals, wlocs = [], [], [], []
    if "s" in fmt or mem:
        regs, loc = _reg(sfile, "rs1")
        body.append(f"a = {regs}[rs1]")
        rvals.append("a")
        rlocs.append(loc)
    if "t" in fmt:
        regs, loc = _reg(tfile, "rs2")
        body.append(f"b = {regs}[rs2]")
        rvals.append("b")
        rlocs.append(loc)
    if mem:
        body.append("ad = a + i")
    body += _raises(spec.faults_at("ad") + spec.faults_at(""))
    if spec.is_load:
        body.append("v = mem_get(ad, 0)")
        if dfile == "f":
            body.append("if v.__class__ is not float: v = _float(v)")
        else:
            body += ["if v.__class__ is float:",
                     *("    " + x for x in _raises(spec.faults_at("v"))),
                     "    v = _int(v)"]
        rvals.append("v")
        rlocs.append("0")
    if spec.is_store:
        body.append(f"memory[ad] = {spec.expr}")
        wvals.append(spec.expr)
        wlocs.append("0")
    elif "d" in fmt and not r0:
        expr = substitute(spec.expr, {"n": "(b & 63)" if "t" in fmt
                                      else "(i & 63)", "link": "npc"})
        regs, loc = _reg(dfile, "rd")
        body.append(f"{regs}[rd] = r = "
                    f"{wrap64(expr, 't') if spec.wrap else expr}")
        wvals.append("r")
        wlocs.append(loc)
    record = []
    if rvals:
        record.append("RLX(rl)")
        if spec.is_load:
            record.append(f"RL[-1] = {MEM_LOC_BASE} + ad")
        record += [f"RV({x})" for x in rvals]
    if wvals:
        record.append("WLX(wl)")
        if spec.is_store:
            record.append(f"WL[-1] = {MEM_LOC_BASE} + ad")
        record += [f"WV({x})" for x in wvals]

    if spec.cls is OpClass.BRANCH:
        body += [*record, f"if {spec.expr}:", "    bal[pc] += 1",
                 "    PX(jump)", "    return i",
                 "bal[pc] -= 1", "PX(fall)", "return npc"]
    elif op is Opcode.HALT:
        body += ["m.halted = True", "m.pc = pc", "PX(stay)", "return stop"]
    elif "L" in fmt:  # j / jal
        body += ["PX(jump)", *record, "return i"]
    elif spec.cls is OpClass.JUMP:  # jr
        body += ["PX(dyn)", "PCN[-1] = a", *record, "return a"]
    else:
        body += ["PX(fall)", *record, "return npc"]

    # bind-time locals, each kept only if the closure or a kept local
    # after it uses it (``i`` is also a branch or jump target); the
    # [pc, next_pc] pairs are fall through, jump or take the branch, a
    # jr's dynamic target (patched in), and halt
    prelude = [
        ("i", f"{'_float' if 'f' in fmt else '_int'}(imm)"),
        ("npc", "pc + 1"),
        ("fall", "_A('i', (pc, npc))"), ("jump", "_A('i', (pc, i))"),
        ("dyn", "_A('i', (pc, 0))"), ("stay", "_A('i', (pc, pc))"),
        ("rl", f"_A('q', ({', '.join(rlocs)},))"),
        ("wl", f"_A('q', ({', '.join(wlocs)},))"),
    ]
    used = _names("\n".join(body))
    kept = []
    for name, src in reversed(prelude):
        if name in used:
            kept.insert(0, f"    {name} = {src}")
            used |= _names(src)
    source = "".join([
        "def _factory(m, pc, rd, rs1, rs2, imm, line, regs, fregs, memory, "
        "mem_get, bal, stop, PCN, PX, RL, RLX, RV, WL, WLX, WV):\n",
        *(x + "\n" for x in kept),
        "    def ex():\n", *(f"        {x}\n" for x in body),
        "    return ex\n"])
    return source, len(rvals), len(wvals)


def _names(code: str) -> set[str]:
    """The names ``code`` loads, leaving out attributes and strings."""
    return set(_NAME.findall(_STRING.sub("", code)))


@functools.cache
def _exec_factory(op: Opcode, r0: bool) -> tuple:
    """The compiled tier-0 closure factory of ``op`` (see above), and
    its record's read and write pair counts."""
    source, nreads, nwrites = _exec_source(op, r0)
    ns = {"_A": array, "VMError": VMError, "trunc": Machine._trunc_div,
          "inf": math.inf, "_int": int, "_float": float, "_abs": abs}
    exec(compile(source, f"<tier 0 {op.name.lower()}>", "exec"), ns)
    return ns["_factory"], nreads, nwrites


def run_source(source: str, *, name: str = "<anonymous>",
               max_instructions: int | None = None) -> ColumnarTrace:
    """Assemble and run source text in one call (convenience for tests)."""
    from repro.vm.assembler import assemble

    machine = Machine(assemble(source, name=name))
    return machine.run(max_instructions=max_instructions)
