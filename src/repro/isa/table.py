"""The instruction set as one table: each opcode is defined once.

:data:`ISA` maps every :class:`~repro.isa.opcodes.Opcode` to an
:class:`OpSpec`.  Everything that needs an opcode's syntax or
semantics reads it from here, except the one-at-a-time interpreter
(``Machine.step`` and its ``_op_*`` handlers), which stays
hand-written as the independent oracle the generated code is tested
against:

- tier 0 of the machine compiles one closure factory per opcode from
  its entry (:mod:`repro.vm.machine`);
- tier 1 emits each instruction's superblock fragment from it, and
  derives the per-pc trace-record sizes (:mod:`repro.vm.fastmachine`);
- the assembler and disassembler take the mnemonic
  (``op.name.lower()``) and the operand syntax;
- :mod:`repro.isa.opcodes` takes the class, and with it the latency.

Fields of an entry:

``fmt``
    The operand syntax, comma separated: ``d``, ``s`` and ``t`` are
    the rd, rs1 and rs2 registers; ``i`` is an integer immediate or
    data label, ``f`` a float immediate and ``L`` a code label, all
    three held in ``imm``; ``i(s)`` is a memory operand ``imm(rs1)``.
    A load (``d,i(s)``) writes rd from memory, a store (``t,i(s)``)
    writes rs2 to memory.
``files``
    The register file of rd, rs1 and rs2: ``i`` integer, ``f``
    floating point, ``-`` unused.
``cls``
    The functional class, which sets the latency.
``expr``
    The value written to rd or to memory, or a branch's taken
    condition, as a Python expression over the operand names ``a``
    (rs1's value), ``b`` (rs2's value), ``i`` (the immediate), ``n``
    (a shift amount: the low six bits of ``b`` or ``i``), ``v`` (the
    loaded word, already converted to rd's file) and ``link`` (the
    return address ``pc + 1``).  ``trunc`` is integer division
    truncating toward zero; ``_int``, ``_float`` and ``_abs`` are the
    builtins.
``wrap``
    The result wraps to 64-bit two's complement.
``faults``
    ``(condition, message)`` or ``(condition, message, arg)``: the
    instruction raises ``VMError(message % arg)`` when the condition
    holds, before it changes any state.  A condition over ``ad`` (the
    memory address) is checked once the address is known; one over
    ``v`` is checked only when the loaded word is a float.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.isa.opcodes import OpClass, Opcode

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63
_OPERAND = re.compile(r"\b(a|b|i|n|v|ad|link)\b")


class OpSpec:
    """One opcode's syntax and semantics (see the module docstring)."""

    __slots__ = ("fmt", "files", "cls", "expr", "wrap", "faults",
                 "operands", "is_load", "is_store", "_stages")

    def __init__(self, fmt: str, files: str, cls: OpClass,
                 expr: str | None = None, *, wrap: bool = False,
                 faults: tuple[tuple[str, ...], ...] = ()):
        self.fmt = fmt
        self.files = files
        self.cls = cls
        self.expr = expr
        self.wrap = wrap
        self.faults = faults
        #: the operand tokens of ``fmt``, in syntax order
        self.operands = tuple(fmt.split(",")) if fmt else ()
        self.is_load = fmt == "d,i(s)"
        self.is_store = fmt == "t,i(s)"
        self._stages: dict[str, list[tuple[str, ...]]] = {}
        for fault in faults:
            names = set(_OPERAND.findall(fault[0]))
            stage = "ad" if "ad" in names else "v" if "v" in names else ""
            self._stages.setdefault(stage, []).append(fault)

    def faults_at(self, stage: str) -> list[tuple[str, ...]]:
        """The faults checked at ``stage``: ``"ad"`` once the memory
        address is known, ``"v"`` when the loaded word is a float, and
        ``""`` once the source registers are read."""
        return self._stages.get(stage, [])


_NEG_ADDR = ("ad < 0", "negative memory address %d", "ad")
_NON_FINITE = "integer conversion of a non-finite value"


def _r3(expr, cls=OpClass.INT_ALU, files="iii", **kw) -> OpSpec:
    return OpSpec("d,s,t", files, cls, expr, **kw)


def _ri(expr, cls=OpClass.INT_ALU, **kw) -> OpSpec:
    return OpSpec("d,s,i", "ii-", cls, expr, **kw)


def _r2(expr, files, cls, **kw) -> OpSpec:
    return OpSpec("d,s", files, cls, expr, **kw)


def _branch(cond: str) -> OpSpec:
    return OpSpec("s,t,L", "-ii", OpClass.BRANCH, cond)


#: Every opcode's entry.
ISA: dict[Opcode, OpSpec] = {
    Opcode.ADD: _r3("a + b", wrap=True),
    Opcode.SUB: _r3("a - b", wrap=True),
    Opcode.AND: _r3("a & b"),
    Opcode.OR: _r3("a | b"),
    Opcode.XOR: _r3("a ^ b"),
    Opcode.SLL: _r3("a << n", wrap=True),
    Opcode.SRL: _r3(f"(a & {_MASK64}) >> n", wrap=True),
    Opcode.SRA: _r3("a >> n"),
    Opcode.SLT: _r3("(1 if a < b else 0)"),
    Opcode.SEQ: _r3("(1 if a == b else 0)"),
    Opcode.ADDI: _ri("a + i", wrap=True),
    Opcode.ANDI: _ri("a & i"),
    Opcode.ORI: _ri("a | i"),
    Opcode.XORI: _ri("a ^ i"),
    Opcode.SLLI: _ri("a << n", wrap=True),
    Opcode.SRLI: _ri(f"(a & {_MASK64}) >> n", wrap=True),
    Opcode.SRAI: _ri("a >> n"),
    Opcode.SLTI: _ri("(1 if a < i else 0)"),
    Opcode.LI: OpSpec("d,i", "i--", OpClass.INT_ALU, "i"),
    Opcode.MOV: _r2("a", "ii-", OpClass.INT_ALU),
    Opcode.MUL: _r3("a * b", OpClass.INT_MUL, wrap=True),
    Opcode.MULI: _ri("a * i", OpClass.INT_MUL, wrap=True),
    Opcode.DIV: _r3("trunc(a, b)", OpClass.INT_DIV, wrap=True,
                    faults=(("b == 0", "integer division by zero"),)),
    Opcode.REM: _r3("a - trunc(a, b) * b", OpClass.INT_DIV, wrap=True,
                    faults=(("b == 0", "integer remainder by zero"),)),
    Opcode.LW: OpSpec("d,i(s)", "ii-", OpClass.LOAD, "v", faults=(
        _NEG_ADDR, ("not -inf < v < inf", _NON_FINITE))),
    Opcode.SW: OpSpec("t,i(s)", "-ii", OpClass.STORE, "b", faults=(_NEG_ADDR,)),
    Opcode.FLW: OpSpec("d,i(s)", "fi-", OpClass.LOAD, "v", faults=(_NEG_ADDR,)),
    Opcode.FSW: OpSpec("t,i(s)", "-if", OpClass.STORE, "b", faults=(_NEG_ADDR,)),
    Opcode.BEQ: _branch("a == b"),
    Opcode.BNE: _branch("a != b"),
    Opcode.BLT: _branch("a < b"),
    Opcode.BGE: _branch("a >= b"),
    Opcode.BLE: _branch("a <= b"),
    Opcode.BGT: _branch("a > b"),
    Opcode.J: OpSpec("L", "---", OpClass.JUMP),
    Opcode.JAL: OpSpec("d,L", "i--", OpClass.JUMP, "link"),
    Opcode.JR: OpSpec("s", "-i-", OpClass.JUMP),
    Opcode.FADD: _r3("a + b", OpClass.FP_ADD, "fff"),
    Opcode.FSUB: _r3("a - b", OpClass.FP_ADD, "fff"),
    Opcode.FMUL: _r3("a * b", OpClass.FP_MUL, "fff"),
    Opcode.FDIV: _r3("a / b", OpClass.FP_DIV, "fff",
                     faults=(("b == 0.0", "floating division by zero"),)),
    Opcode.FSQRT: _r2("a ** 0.5", "ff-", OpClass.FP_SQRT,
                      faults=(("a < 0.0", "square root of a negative value"),)),
    Opcode.FNEG: _r2("-a", "ff-", OpClass.FP_ADD),
    Opcode.FABS: _r2("_abs(a)", "ff-", OpClass.FP_ADD),
    Opcode.FMOV: _r2("a", "ff-", OpClass.FP_ADD),
    Opcode.FLI: OpSpec("d,f", "f--", OpClass.FP_ADD, "i"),
    Opcode.CVTIF: _r2("_float(a)", "fi-", OpClass.FP_CVT),
    Opcode.CVTFI: _r2("_int(a)", "if-", OpClass.FP_CVT, wrap=True,
                      faults=(("not -inf < a < inf", _NON_FINITE),)),
    Opcode.FEQ: _r3("(1 if a == b else 0)", OpClass.FP_ADD, "iff"),
    Opcode.FLT: _r3("(1 if a < b else 0)", OpClass.FP_ADD, "iff"),
    Opcode.FLE: _r3("(1 if a <= b else 0)", OpClass.FP_ADD, "iff"),
    Opcode.NOP: OpSpec("", "---", OpClass.CONTROL),
    Opcode.HALT: OpSpec("", "---", OpClass.CONTROL),
}



class _Names(dict):
    def __missing__(self, name: str) -> str:
        return name


@lru_cache(maxsize=None)
def _template(expr: str) -> str:
    return _OPERAND.sub(lambda m: "{" + m[1] + "}", expr)


def substitute(expr: str, names: dict[str, str]) -> str:
    """``expr`` with each operand name in ``names`` replaced by its
    source text (the table's expressions hold no string literals or
    braces)."""
    return _template(expr).format_map(_Names(names))


def wrap64(expr: str, t: str) -> str:
    """Source of ``expr`` wrapped to 64-bit two's complement, binding
    the local ``t``.

    The wrap arithmetic allocates multi-digit longs, so it only runs
    when the value actually left the int64 range: the common in-range
    case is two compares.  The walrus binding lives in the condition,
    which Python evaluates first.
    """
    return (
        f"({t} if {-_SIGN64} <= ({t} := {expr}) <= {_SIGN64 - 1} "
        f"else (({t} + {_SIGN64}) & {_MASK64}) - {_SIGN64})"
    )
