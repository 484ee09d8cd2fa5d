"""Disassembler: decoded instructions back to assembly text.

Primarily a debugging and reporting aid — trace dumps, RTM inspection
and error messages all want readable instructions — but also the
round-trip oracle for the assembler's property tests: for any program,
``assemble(disassemble(program))`` must reproduce the instruction
stream exactly.  Mnemonics and operand syntax come from the ISA table
(:mod:`repro.isa.table`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.isa.instruction import Instruction
from repro.isa.table import ISA
from repro.vm.program import Program


def disassemble_instruction(inst: Instruction) -> str:
    """One instruction as assembly text (branch targets as absolute PCs)."""
    spec = ISA[inst.op]
    d, s, t = (("f" if f == "f" else "r") + str(r)
               for f, r in zip(spec.files, (inst.rd, inst.rs1, inst.rs2)))
    text = {"d": d, "s": s, "t": t, "i": str(inst.imm), "L": str(inst.imm),
            "f": repr(float(inst.imm)), "i(s)": f"{inst.imm}({s})"}
    operands = ", ".join(text[tok] for tok in spec.operands)
    mnemonic = inst.op.name.lower()
    return f"{mnemonic} {operands}" if operands else mnemonic


def disassemble(
    program: Program | Iterable[Instruction], *, with_pcs: bool = False
) -> str:
    """A whole program as assembly text.

    Branch/jump targets are emitted as absolute instruction indices,
    which the assembler accepts, so the output re-assembles to the
    same instruction stream (data segments are not reconstructed —
    disassembly covers the text segment).
    """
    instructions = (
        program.instructions if isinstance(program, Program) else list(program)
    )
    lines = []
    for pc, inst in enumerate(instructions):
        text = disassemble_instruction(inst)
        lines.append(f"{pc:6d}: {text}" if with_pcs else f"    {text}")
    return "\n".join(lines)
