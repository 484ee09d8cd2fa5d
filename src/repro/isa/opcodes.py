"""Opcode set, operation classes and the instruction latency table.

Latencies follow the Alpha 21164 hardware reference manual, which is
the latency model the paper borrows (section 4): single-cycle integer
ALU, 8-cycle integer multiply, 2-cycle D-cache load hit, 4-cycle
floating add/multiply pipeline, long non-pipelined divides and square
roots.  Each opcode's class is part of its entry in the ISA table
(:mod:`repro.isa.table`).
"""

from __future__ import annotations

from enum import Enum, IntEnum, auto


class OpClass(Enum):
    """Coarse functional classes used by analyses and statistics."""

    INT_ALU = auto()
    INT_MUL = auto()
    INT_DIV = auto()
    LOAD = auto()
    STORE = auto()
    BRANCH = auto()
    JUMP = auto()
    FP_ADD = auto()
    FP_MUL = auto()
    FP_DIV = auto()
    FP_SQRT = auto()
    FP_CVT = auto()
    CONTROL = auto()  # HALT / NOP


class Opcode(IntEnum):
    """Every operation the VM executes.

    Register-register integer ops take ``rd, rs1, rs2``; immediate
    forms take ``rd, rs1, imm``.  Memory ops use ``reg, imm(base)``
    addressing.  Branches compare two registers against a label.
    """

    # --- integer ALU -------------------------------------------------
    ADD = auto()
    SUB = auto()
    AND = auto()
    OR = auto()
    XOR = auto()
    SLL = auto()
    SRL = auto()
    SRA = auto()
    SLT = auto()
    SEQ = auto()
    ADDI = auto()
    ANDI = auto()
    ORI = auto()
    XORI = auto()
    SLLI = auto()
    SRLI = auto()
    SRAI = auto()
    SLTI = auto()
    LI = auto()
    MOV = auto()
    # --- integer multiply / divide ----------------------------------
    MUL = auto()
    MULI = auto()
    DIV = auto()
    REM = auto()
    # --- memory ------------------------------------------------------
    LW = auto()
    SW = auto()
    FLW = auto()
    FSW = auto()
    # --- control flow -------------------------------------------------
    BEQ = auto()
    BNE = auto()
    BLT = auto()
    BGE = auto()
    BLE = auto()
    BGT = auto()
    J = auto()
    JAL = auto()
    JR = auto()
    # --- floating point ----------------------------------------------
    FADD = auto()
    FSUB = auto()
    FMUL = auto()
    FDIV = auto()
    FSQRT = auto()
    FNEG = auto()
    FABS = auto()
    FMOV = auto()
    FLI = auto()
    CVTIF = auto()  # int reg -> fp reg
    CVTFI = auto()  # fp reg -> int reg (truncate)
    FEQ = auto()  # fp compare, result into int reg
    FLT = auto()
    FLE = auto()
    # --- misc ----------------------------------------------------------
    NOP = auto()
    HALT = auto()


#: Cycles from issue to result availability, per operation class,
#: following the Alpha 21164 hardware reference manual.
CLASS_LATENCY: dict[OpClass, int] = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 8,
    OpClass.INT_DIV: 16,
    OpClass.LOAD: 2,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
    OpClass.FP_ADD: 4,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 18,
    OpClass.FP_SQRT: 33,
    OpClass.FP_CVT: 4,
    OpClass.CONTROL: 1,
}

# Each opcode's class comes from its entry in the ISA table, which
# needs the two enums above: import it only now.
from repro.isa.table import ISA  # noqa: E402

_OP_CLASS: dict[Opcode, OpClass] = {op: ISA[op].cls for op in Opcode}

#: Per-opcode latency, flattened for fast lookup in the VM hot loop.
LATENCY: dict[Opcode, int] = {op: CLASS_LATENCY[_OP_CLASS[op]] for op in Opcode}


def op_class(op: Opcode) -> OpClass:
    """The functional class of an opcode."""
    return _OP_CLASS[op]


def latency_of(op: Opcode) -> int:
    """Result latency in cycles of an opcode."""
    return LATENCY[op]
