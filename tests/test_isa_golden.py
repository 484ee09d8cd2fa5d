"""Golden per-opcode ISA cases, written by hand.

Every expected read, write, next pc and fault below is a literal, not
derived from the ISA table (``repro.isa.table``) or from the
interpreter, so the cases pin the ISA's semantics independently of
both.  Each case runs one instruction at pc 0 (source line 1), with
``halt`` at pcs 1-3 as branch and jump targets, through three
executors: the one-at-a-time interpreter (``Machine.step``), tier 0
alone (``COMPILE_BAR`` = ``sys.maxsize``) and tier 1 (``COMPILE_BAR`` =
0: the block at pc 0 compiles on its first entry).  Values compare by
``repr``, so ``1`` differs from ``1.0``, ``-0.0`` from ``0.0``, and a
nan matches a nan.
"""

import sys
from typing import NamedTuple
from unittest import mock

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.table import ISA
from repro.vm import machine as machine_mod
from repro.vm.errors import VMError
from repro.vm.program import Program

MIN = -(2**63)
MAX = 2**63 - 1
INF = float("inf")
NAN = float("nan")
#: location ids: fp register f<n> is F + n, memory word a is M + a
F = 32
M = 64


class Case(NamedTuple):
    op: Opcode
    desc: str
    inst: Instruction
    regs: dict
    fregs: dict
    mem: dict
    reads: tuple = ()
    writes: tuple = ()
    next_pc: int = 1
    fault: str | None = None


CASES: list[Case] = []


def case(op, desc, *, rd=0, rs1=0, rs2=0, imm=0, regs=None, fregs=None,
         mem=None, **expect):
    CASES.append(Case(op, desc, Instruction(op, rd=rd, rs1=rs1, rs2=rs2,
                                            imm=imm, line=1),
                      regs or {}, fregs or {}, mem or {}, **expect))


def rrr(op, desc, a, b, result, rd=3):
    """``op rd, r1, r2`` with r1 = a and r2 = b (int registers)."""
    case(op, desc, rd=rd, rs1=1, rs2=2, regs={1: a, 2: b},
         reads=((1, a), (2, b)), writes=((rd, result),) if rd else ())


def rri(op, desc, a, imm, result, rd=3):
    """``op rd, r1, imm`` with r1 = a."""
    case(op, desc, rd=rd, rs1=1, imm=imm, regs={1: a},
         reads=((1, a),), writes=((rd, result),) if rd else ())


def fff(op, desc, a, b, result):
    """``op f3, f1, f2``."""
    case(op, desc, rd=3, rs1=1, rs2=2, fregs={1: a, 2: b},
         reads=((F + 1, a), (F + 2, b)), writes=((F + 3, result),))


def ff(op, desc, a, result):
    """``op f3, f1``."""
    case(op, desc, rd=3, rs1=1, fregs={1: a},
         reads=((F + 1, a),), writes=((F + 3, result),))


def fcmp(op, desc, a, b, result, rd=3):
    """``op rd, f1, f2``: an fp compare into an int register."""
    case(op, desc, rd=rd, rs1=1, rs2=2, fregs={1: a, 2: b},
         reads=((F + 1, a), (F + 2, b)), writes=((rd, result),) if rd else ())


def branch(op, a, b, taken):
    """``op r1, r2, 3``."""
    case(op, f"{a}-{b}-{'taken' if taken else 'not-taken'}", rs1=1, rs2=2,
         imm=3, regs={1: a, 2: b}, reads=((1, a), (2, b)),
         next_pc=3 if taken else 1)


# --- integer ALU ------------------------------------------------------
rrr(Opcode.ADD, "small", 2, 3, 5)
rrr(Opcode.ADD, "wrap-max-plus-1", MAX, 1, MIN)
rrr(Opcode.ADD, "wrap-min-minus-1", MIN, -1, MAX)
rrr(Opcode.ADD, "r0-destination", 2, 3, None, rd=0)
case(Opcode.ADD, "r0-source", rd=3, rs1=0, rs2=2, regs={2: 9},
     reads=((0, 0), (2, 9)), writes=((3, 9),))
rrr(Opcode.SUB, "small", 5, 7, -2)
rrr(Opcode.SUB, "wrap-min-minus-1", MIN, 1, MAX)
rrr(Opcode.SUB, "wrap-max-minus-neg1", MAX, -1, MIN)
rrr(Opcode.MUL, "signs", 3, -4, -12)
rrr(Opcode.MUL, "wrap-max-times-2", MAX, 2, -2)
rrr(Opcode.MUL, "wrap-min-times-neg1", MIN, -1, MIN)
rrr(Opcode.MUL, "r0-destination", MAX, MAX, None, rd=0)
rrr(Opcode.AND, "negative", -1, 0xF0, 240)
rrr(Opcode.AND, "disjoint", -8, 7, 0)
rrr(Opcode.OR, "negative", 5, -8, -3)
rrr(Opcode.XOR, "negative", -1, 5, -6)
rrr(Opcode.SLL, "shift-0", 5, 0, 5)
rrr(Opcode.SLL, "shift-63", 1, 63, MIN)
rrr(Opcode.SLL, "shift-64-is-0", 1, 64, 1)
rrr(Opcode.SLL, "shift-negative-is-63", 1, -1, MIN)
rrr(Opcode.SLL, "wrap", 3, 62, -4611686018427387904)
rrr(Opcode.SRL, "shift-0-of-negative", -1, 0, -1)
rrr(Opcode.SRL, "shift-1-of-negative", -1, 1, MAX)
rrr(Opcode.SRL, "shift-63-of-negative", -8, 63, 1)
rrr(Opcode.SRL, "shift-64-is-0", 16, 64, 16)
rrr(Opcode.SRL, "shift-negative-is-63", 16, -1, 0)
rrr(Opcode.SRA, "negative", -8, 1, -4)
rrr(Opcode.SRA, "shift-63", -1, 63, -1)
rrr(Opcode.SRA, "shift-63-of-min", MIN, 63, -1)
rrr(Opcode.SRA, "shift-64-is-0", -8, 64, -8)
rrr(Opcode.SRA, "shift-negative", 5, -63, 2)
rrr(Opcode.SLT, "less", -1, 0, 1)
rrr(Opcode.SLT, "equal", 3, 3, 0)
rrr(Opcode.SEQ, "equal", 4, 4, 1)
rrr(Opcode.SEQ, "unequal", 4, 5, 0)
rri(Opcode.ADDI, "negative-immediate", 5, -7, -2)
rri(Opcode.ADDI, "wrap", MAX, 1, MIN)
rri(Opcode.ADDI, "r0-destination", 5, 1, None, rd=0)
rri(Opcode.ANDI, "negative", -1, 255, 255)
rri(Opcode.ORI, "small", 8, 3, 11)
rri(Opcode.XORI, "not", 6, -1, -7)
rri(Opcode.SLLI, "shift-0", 5, 0, 5)
rri(Opcode.SLLI, "shift-63", 1, 63, MIN)
rri(Opcode.SLLI, "shift-64-is-0", 1, 64, 1)
rri(Opcode.SLLI, "shift-negative-is-63", 1, -1, MIN)
rri(Opcode.SRLI, "shift-1-of-negative", -1, 1, MAX)
rri(Opcode.SRLI, "shift-64-is-0", -1, 64, -1)
rri(Opcode.SRLI, "shift-60-of-negative", -16, 60, 15)
rri(Opcode.SRLI, "shift-negative-is-63", -1, -1, 1)
rri(Opcode.SRAI, "negative", -16, 2, -4)
rri(Opcode.SRAI, "shift-64-is-0", -16, 64, -16)
rri(Opcode.SRAI, "shift-63", MIN, 63, -1)
rri(Opcode.SLTI, "less", -5, -4, 1)
rri(Opcode.SLTI, "equal", 0, 0, 0)
rri(Opcode.MULI, "signs", 7, -3, -21)
rri(Opcode.MULI, "wrap", MAX, 3, 9223372036854775805)
rri(Opcode.MULI, "wrap-min-times-neg1", MIN, -1, MIN)
case(Opcode.LI, "negative", rd=3, imm=-42, writes=((3, -42),))
case(Opcode.LI, "r0-destination", rd=0, imm=5)
case(Opcode.MOV, "copy", rd=3, rs1=1, regs={1: 7}, reads=((1, 7),),
     writes=((3, 7),))
case(Opcode.MOV, "r0-destination", rd=0, rs1=1, regs={1: 7},
     reads=((1, 7),))

# --- divide: every sign combination, INT64_MIN / -1, zero ---------------
rrr(Opcode.DIV, "pos-pos", 7, 2, 3)
rrr(Opcode.DIV, "neg-pos", -7, 2, -3)
rrr(Opcode.DIV, "pos-neg", 7, -2, -3)
rrr(Opcode.DIV, "neg-neg", -7, -2, 3)
rrr(Opcode.DIV, "min-by-neg1-wraps", MIN, -1, MIN)
rrr(Opcode.DIV, "r0-destination", 7, 2, None, rd=0)
case(Opcode.DIV, "by-zero", rd=3, rs1=1, rs2=2, regs={1: 7, 2: 0},
     fault="integer division by zero")
case(Opcode.DIV, "by-zero-r0-destination", rd=0, rs1=1, rs2=2,
     regs={1: 7}, fault="integer division by zero")
rrr(Opcode.REM, "pos-pos", 7, 2, 1)
rrr(Opcode.REM, "neg-pos", -7, 2, -1)
rrr(Opcode.REM, "pos-neg", 7, -2, 1)
rrr(Opcode.REM, "neg-neg", -7, -2, -1)
rrr(Opcode.REM, "min-by-neg1", MIN, -1, 0)
case(Opcode.REM, "by-zero", rd=3, rs1=1, rs2=2, regs={1: 7, 2: 0},
     fault="integer remainder by zero")

# --- memory: base r1 = 100, offset 4 -> word 104 ------------------------
W = M + 104
case(Opcode.LW, "int-word", rd=3, rs1=1, imm=4, regs={1: 100},
     mem={104: 9}, reads=((1, 100), (W, 9)), writes=((3, 9),))
case(Opcode.LW, "unwritten-word", rd=3, rs1=1, imm=4, regs={1: 100},
     reads=((1, 100), (W, 0)), writes=((3, 0),))
case(Opcode.LW, "float-word-truncates", rd=3, rs1=1, imm=4, regs={1: 100},
     mem={104: 2.75}, reads=((1, 100), (W, 2)), writes=((3, 2),))
case(Opcode.LW, "negative-float-word", rd=3, rs1=1, imm=4, regs={1: 100},
     mem={104: -2.75}, reads=((1, 100), (W, -2)), writes=((3, -2),))
case(Opcode.LW, "r0-base", rd=3, rs1=0, imm=104, mem={104: 5},
     reads=((0, 0), (W, 5)), writes=((3, 5),))
case(Opcode.LW, "r0-destination", rd=0, rs1=1, imm=4, regs={1: 100},
     mem={104: 9}, reads=((1, 100), (W, 9)))
case(Opcode.LW, "inf-word", rd=3, rs1=1, imm=4, regs={1: 100},
     mem={104: INF}, fault="integer conversion of a non-finite value")
case(Opcode.LW, "neg-inf-word", rd=3, rs1=1, imm=4, regs={1: 100},
     mem={104: -INF}, fault="integer conversion of a non-finite value")
case(Opcode.LW, "nan-word", rd=0, rs1=1, imm=4, regs={1: 100},
     mem={104: NAN}, fault="integer conversion of a non-finite value")
case(Opcode.LW, "negative-address", rd=3, rs1=1, imm=-3, regs={1: 2},
     fault="negative memory address -1")
case(Opcode.SW, "int", rs1=1, rs2=2, imm=4, regs={1: 100, 2: -5},
     reads=((1, 100), (2, -5)), writes=((W, -5),))
case(Opcode.SW, "r0-value", rs1=1, rs2=0, imm=4, regs={1: 100},
     reads=((1, 100), (0, 0)), writes=((W, 0),))
case(Opcode.SW, "negative-address", rs1=1, rs2=2, imm=-3, regs={1: 2},
     fault="negative memory address -1")
case(Opcode.FLW, "int-word", rd=3, rs1=1, imm=4, regs={1: 100},
     mem={104: 7}, reads=((1, 100), (W, 7.0)), writes=((F + 3, 7.0),))
case(Opcode.FLW, "float-word", rd=3, rs1=1, imm=4, regs={1: 100},
     mem={104: 1.5}, reads=((1, 100), (W, 1.5)), writes=((F + 3, 1.5),))
case(Opcode.FLW, "nan-word", rd=3, rs1=1, imm=4, regs={1: 100},
     mem={104: NAN}, reads=((1, 100), (W, NAN)), writes=((F + 3, NAN),))
case(Opcode.FLW, "f0-destination", rd=0, rs1=1, imm=4, regs={1: 100},
     reads=((1, 100), (W, 0.0)), writes=((F, 0.0),))
case(Opcode.FLW, "negative-address", rd=3, rs1=1, imm=-3, regs={1: 2},
     fault="negative memory address -1")
case(Opcode.FSW, "float", rs1=1, rs2=2, imm=4, regs={1: 100},
     fregs={2: 2.5}, reads=((1, 100), (F + 2, 2.5)), writes=((W, 2.5),))
case(Opcode.FSW, "inf", rs1=1, rs2=2, imm=4, regs={1: 100},
     fregs={2: INF}, reads=((1, 100), (F + 2, INF)), writes=((W, INF),))
case(Opcode.FSW, "negative-address", rs1=1, rs2=2, imm=-3, regs={1: 2},
     fault="negative memory address -1")

# --- control flow -------------------------------------------------------
branch(Opcode.BEQ, 4, 4, True)
branch(Opcode.BEQ, 4, 5, False)
case(Opcode.BEQ, "r0-operand", rs1=1, rs2=0, imm=3, regs={1: 0},
     reads=((1, 0), (0, 0)), next_pc=3)
branch(Opcode.BNE, 4, 5, True)
branch(Opcode.BNE, 4, 4, False)
branch(Opcode.BLT, -1, 0, True)
branch(Opcode.BLT, 0, 0, False)
branch(Opcode.BGE, 0, 0, True)
branch(Opcode.BGE, -1, 0, False)
branch(Opcode.BLE, MIN, MAX, True)
branch(Opcode.BLE, 1, 0, False)
branch(Opcode.BGT, 1, 0, True)
branch(Opcode.BGT, 0, 0, False)
case(Opcode.J, "forward", imm=2, next_pc=2)
case(Opcode.JAL, "link", rd=31, imm=2, writes=((31, 1),), next_pc=2)
case(Opcode.JAL, "r0-link", rd=0, imm=2, next_pc=2)
case(Opcode.JR, "register-target", rs1=5, regs={5: 3}, reads=((5, 3),),
     next_pc=3)
case(Opcode.NOP, "nothing")
case(Opcode.HALT, "stays", next_pc=0)

# --- floating point -----------------------------------------------------
fff(Opcode.FADD, "exact", 1.5, 2.25, 3.75)
fff(Opcode.FADD, "inf-minus-inf", INF, -INF, NAN)
fff(Opcode.FSUB, "exact", 1.0, 0.25, 0.75)
fff(Opcode.FSUB, "zero-minus-zero", 0.0, 0.0, 0.0)
fff(Opcode.FMUL, "overflow-to-inf", 1e308, 10.0, INF)
fff(Opcode.FMUL, "negative-zero", -1.0, 0.0, -0.0)
fff(Opcode.FDIV, "exact", 1.0, 4.0, 0.25)
fff(Opcode.FDIV, "inf-numerator", INF, 2.0, INF)
case(Opcode.FDIV, "by-zero", rd=3, rs1=1, rs2=2, fregs={1: 1.0, 2: 0.0},
     fault="floating division by zero")
case(Opcode.FDIV, "by-negative-zero", rd=3, rs1=1, rs2=2,
     fregs={1: 1.0, 2: -0.0}, fault="floating division by zero")
ff(Opcode.FSQRT, "exact", 4.0, 2.0)
ff(Opcode.FSQRT, "negative-zero", -0.0, 0.0)
case(Opcode.FSQRT, "negative", rd=3, rs1=1, fregs={1: -1.0},
     fault="square root of a negative value")
ff(Opcode.FNEG, "zero", 0.0, -0.0)
ff(Opcode.FNEG, "negative", -2.5, 2.5)
ff(Opcode.FABS, "negative-zero", -0.0, 0.0)
ff(Opcode.FABS, "negative", -3.5, 3.5)
ff(Opcode.FMOV, "nan", NAN, NAN)
case(Opcode.FLI, "value", rd=3, imm=2.5, writes=((F + 3, 2.5),))
case(Opcode.FLI, "f0-destination", rd=0, imm=-0.5, writes=((F, -0.5),))
case(Opcode.CVTIF, "negative", rd=3, rs1=1, regs={1: -3}, reads=((1, -3),),
     writes=((F + 3, -3.0),))
case(Opcode.CVTIF, "max-rounds", rd=3, rs1=1, regs={1: MAX},
     reads=((1, MAX),), writes=((F + 3, 9.223372036854776e18),))
case(Opcode.CVTFI, "truncates", rd=3, rs1=1, fregs={1: 2.7},
     reads=((F + 1, 2.7),), writes=((3, 2),))
case(Opcode.CVTFI, "truncates-negative", rd=3, rs1=1, fregs={1: -2.7},
     reads=((F + 1, -2.7),), writes=((3, -2),))
case(Opcode.CVTFI, "2**63-wraps", rd=3, rs1=1, fregs={1: 2.0**63},
     reads=((F + 1, 2.0**63),), writes=((3, MIN),))
case(Opcode.CVTFI, "-2**63", rd=3, rs1=1, fregs={1: -(2.0**63)},
     reads=((F + 1, -(2.0**63)),), writes=((3, MIN),))
case(Opcode.CVTFI, "2**64-wraps-to-0", rd=3, rs1=1, fregs={1: 2.0**64},
     reads=((F + 1, 2.0**64),), writes=((3, 0),))
case(Opcode.CVTFI, "1e19-wraps", rd=3, rs1=1, fregs={1: 1e19},
     reads=((F + 1, 1e19),), writes=((3, -8446744073709551616),))
case(Opcode.CVTFI, "1.5e300-wraps-to-0", rd=3, rs1=1, fregs={1: 1.5e300},
     reads=((F + 1, 1.5e300),), writes=((3, 0),))
case(Opcode.CVTFI, "r0-destination", rd=0, rs1=1, fregs={1: 2.7},
     reads=((F + 1, 2.7),))
case(Opcode.CVTFI, "inf", rd=3, rs1=1, fregs={1: INF},
     fault="integer conversion of a non-finite value")
case(Opcode.CVTFI, "neg-inf", rd=3, rs1=1, fregs={1: -INF},
     fault="integer conversion of a non-finite value")
case(Opcode.CVTFI, "nan-r0-destination", rd=0, rs1=1, fregs={1: NAN},
     fault="integer conversion of a non-finite value")
fcmp(Opcode.FEQ, "equal", 1.0, 1.0, 1)
fcmp(Opcode.FEQ, "signed-zeros", -0.0, 0.0, 1)
fcmp(Opcode.FEQ, "nan-nan", NAN, NAN, 0)
fcmp(Opcode.FEQ, "r0-destination", 1.0, 1.0, None, rd=0)
fcmp(Opcode.FLT, "less", -1.0, 1.0, 1)
fcmp(Opcode.FLT, "nan-left", NAN, 1.0, 0)
fcmp(Opcode.FLT, "nan-right", 1.0, NAN, 0)
fcmp(Opcode.FLT, "signed-zeros", -0.0, 0.0, 0)
fcmp(Opcode.FLE, "signed-zeros", 0.0, -0.0, 1)
fcmp(Opcode.FLE, "nan-nan", NAN, NAN, 0)
fcmp(Opcode.FLE, "greater", 2.0, 1.0, 0)


def build(c: Case) -> machine_mod.Machine:
    halt = Instruction(Opcode.HALT, line=2)
    m = machine_mod.Machine(Program(instructions=[c.inst, halt, halt, halt]))
    for i, v in c.regs.items():
        m.regs[i] = v
    for i, v in c.fregs.items():
        m.fregs[i] = v
    m.memory.update(c.mem)
    return m


def run_step(c: Case):
    m = build(c)
    rec = m.step()
    return m, rec.reads, rec.writes, rec.next_pc


def run_tiered(bar: int):
    def run(c: Case):
        with mock.patch.object(machine_mod, "COMPILE_BAR", bar):
            m = build(c)
            try:
                trace = m.run(max_instructions=10)
            finally:
                # tier 1 ran iff the block at pc 0 compiled
                assert (m._fns[0] is not None) == (bar == 0)
        return m, trace.reads_of(0), trace.writes_of(0), trace.next_pcs[0]
    return run


EXECUTORS = {
    "step": run_step,
    "tier0": run_tiered(sys.maxsize),
    "tier1": run_tiered(0),
}


def test_every_opcode_has_an_entry_and_a_case():
    assert set(ISA) == set(Opcode)
    assert {c.op for c in CASES} == set(Opcode)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("c", CASES, ids=lambda c: f"{c.op.name.lower()}-{c.desc}")
def test_golden(c: Case, executor: str):
    if c.fault is not None:
        with pytest.raises(VMError) as info:
            EXECUTORS[executor](c)
        assert str(info.value) == f"{c.fault} (pc=0, source line 1)"
        assert (info.value.pc, info.value.line) == (0, 1)
        return
    m, reads, writes, next_pc = EXECUTORS[executor](c)
    assert repr(tuple(reads)) == repr(c.reads)
    assert repr(tuple(writes)) == repr(c.writes)
    assert next_pc == c.next_pc


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "c", [c for c in CASES if c.fault is not None],
    ids=lambda c: f"{c.op.name.lower()}-{c.desc}")
def test_fault_leaves_state(c: Case, executor: str):
    """A faulting instruction retires nothing and leaves pc on itself."""
    with mock.patch.object(machine_mod, "COMPILE_BAR",
                           0 if executor == "tier1" else sys.maxsize):
        m = build(c)
        with pytest.raises(VMError):
            m.step() if executor == "step" else m.run(max_instructions=10)
    assert (m.pc, m.instruction_count, m.halted) == (0, 0, False)
