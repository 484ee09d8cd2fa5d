"""Two-pass assembler for the reproduction ISA.

Syntax overview (MIPS-flavoured)::

    .data
    table:  .word 1 2 3 4        # four consecutive words
    grid:   .space 64            # 64 zero-initialised words
    pi:     .float 3.14159
    .text
    main:   li   t0, 10
            la   t1, table       # address of a data label
    loop:   lw   t2, 0(t1)
            addi t1, t1, 1
            subi t0, t0, 1
            bgtz t0, loop
            halt

Comments start with ``#`` or ``;``.  Labels may share a line with a
statement.  Memory is word-addressed: offsets and ``.space`` counts
are in words.  The first pass expands pseudo-instructions and assigns
PCs; the second resolves label references and emits decoded
:class:`~repro.isa.instruction.Instruction` records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import parse_register
from repro.isa.table import ISA
from repro.vm.program import DATA_BASE, Program


class AssemblyError(ValueError):
    """A syntax or semantic error in assembly source."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


#: mnemonic -> opcode; operand syntax comes from the ISA table
_MNEMONICS = {op.name.lower(): op for op in ISA}

#: branch-against-zero pseudo-mnemonic -> real branch mnemonic
_BZ = {"beqz": "beq", "bnez": "bne", "bltz": "blt", "bgez": "bge",
       "blez": "ble", "bgtz": "bgt"}


@dataclass(slots=True)
class _Proto:
    """A pre-decoded statement awaiting label resolution."""

    mnemonic: str
    operands: list[str]
    line: int


def _split_operands(text: str) -> list[str]:
    """Split an operand string on commas that sit outside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _parse_int(token: str, line: int) -> int:
    tok = token.strip()
    try:
        if tok.startswith("'") and tok.endswith("'") and len(tok) >= 3:
            body = tok[1:-1]
            if body.startswith("\\"):
                escapes = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\\\": "\\",
                           "\\'": "'"}
                if body not in escapes:
                    raise ValueError(body)
                return ord(escapes[body])
            if len(body) != 1:
                raise ValueError(body)
            return ord(body)
        return int(tok, 0)
    except ValueError as exc:
        raise AssemblyError(f"bad integer literal {token!r}", line) from exc


def _parse_float(token: str, line: int) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise AssemblyError(f"bad float literal {token!r}", line) from exc


def _is_int_literal(token: str) -> bool:
    tok = token.strip()
    if tok.startswith("'"):
        return True
    if tok and tok[0] in "+-":
        tok = tok[1:]
    if tok.isdigit():
        return True
    lower = tok.lower()
    return lower.startswith(("0x", "0b", "0o")) and len(lower) > 2


def _expand_pseudo(mnemonic: str, ops: list[str], line: int) -> list[_Proto]:
    """Expand pseudo-instructions into base-ISA protos."""
    m = mnemonic
    if m == "la":
        return [_Proto("li", ops, line)]
    if m == "subi":
        if len(ops) != 3:
            raise AssemblyError("subi needs 3 operands", line)
        neg = _parse_int(ops[2], line)
        return [_Proto("addi", [ops[0], ops[1], str(-neg)], line)]
    if m in _BZ:
        if len(ops) != 2:
            raise AssemblyError(f"{m} needs 2 operands", line)
        return [_Proto(_BZ[m], [ops[0], "r0", ops[1]], line)]
    if m == "call":
        if len(ops) != 1:
            raise AssemblyError("call needs 1 operand", line)
        return [_Proto("jal", ["ra", ops[0]], line)]
    if m == "ret":
        if ops:
            raise AssemblyError("ret takes no operands", line)
        return [_Proto("jr", ["ra"], line)]
    if m == "push":
        if len(ops) != 1:
            raise AssemblyError("push needs 1 operand", line)
        return [
            _Proto("addi", ["sp", "sp", "-1"], line),
            _Proto("sw", [ops[0], "0(sp)"], line),
        ]
    if m == "pop":
        if len(ops) != 1:
            raise AssemblyError("pop needs 1 operand", line)
        return [
            _Proto("lw", [ops[0], "0(sp)"], line),
            _Proto("addi", ["sp", "sp", "1"], line),
        ]
    if m == "not":
        if len(ops) != 2:
            raise AssemblyError("not needs 2 operands", line)
        return [_Proto("xori", [ops[0], ops[1], "-1"], line)]
    if m == "neg":
        if len(ops) != 2:
            raise AssemblyError("neg needs 2 operands", line)
        return [_Proto("sub", [ops[0], "r0", ops[1]], line)]
    return [_Proto(m, ops, line)]


class _Assembler:
    def __init__(self, source: str, name: str):
        self.source = source
        self.name = name
        self.protos: list[_Proto] = []
        self.text_labels: dict[str, int] = {}
        self.data_labels: dict[str, int] = {}
        self.data: dict[int, int | float] = {}
        self._data_cursor = DATA_BASE
        self._section = "text"

    # -- pass 1 -------------------------------------------------------
    def first_pass(self) -> None:
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if not line:
                continue
            # peel off leading labels (there may be several)
            while True:
                head, sep, rest = line.partition(":")
                if sep and " " not in head and "\t" not in head and head:
                    self._bind_label(head, lineno)
                    line = rest.strip()
                    if not line:
                        break
                else:
                    break
            if not line:
                continue
            if line.startswith("."):
                self._directive(line, lineno)
                continue
            if self._section != "text":
                raise AssemblyError("instruction outside .text section", lineno)
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            operands = _split_operands(parts[1]) if len(parts) > 1 else []
            self.protos.extend(_expand_pseudo(mnemonic, operands, lineno))

    def _bind_label(self, label: str, lineno: int) -> None:
        if label in self.text_labels or label in self.data_labels:
            raise AssemblyError(f"duplicate label {label!r}", lineno)
        if self._section == "text":
            self.text_labels[label] = len(self.protos)
        else:
            self.data_labels[label] = self._data_cursor

    def _directive(self, line: str, lineno: int) -> None:
        parts = line.split()
        name = parts[0].lower()
        args = parts[1:]
        if name == ".text":
            self._section = "text"
        elif name == ".data":
            self._section = "data"
        elif name == ".word":
            if self._section != "data":
                raise AssemblyError(".word outside .data section", lineno)
            for tok in args:
                self.data[self._data_cursor] = _parse_int(tok, lineno)
                self._data_cursor += 1
        elif name == ".float":
            if self._section != "data":
                raise AssemblyError(".float outside .data section", lineno)
            for tok in args:
                self.data[self._data_cursor] = _parse_float(tok, lineno)
                self._data_cursor += 1
        elif name == ".space":
            if self._section != "data":
                raise AssemblyError(".space outside .data section", lineno)
            if len(args) != 1:
                raise AssemblyError(".space needs a word count", lineno)
            count = _parse_int(args[0], lineno)
            if count < 0:
                raise AssemblyError(".space count must be non-negative", lineno)
            for _ in range(count):
                self.data[self._data_cursor] = 0
                self._data_cursor += 1
        elif name == ".asciiz" or name == ".ascii":
            if self._section != "data":
                raise AssemblyError(f"{name} outside .data section", lineno)
            text = line.split(None, 1)[1].strip()
            if not (text.startswith('"') and text.endswith('"')):
                raise AssemblyError(f"{name} needs a quoted string", lineno)
            body = text[1:-1].encode().decode("unicode_escape")
            for ch in body:
                self.data[self._data_cursor] = ord(ch)
                self._data_cursor += 1
            if name == ".asciiz":
                self.data[self._data_cursor] = 0
                self._data_cursor += 1
        else:
            raise AssemblyError(f"unknown directive {name!r}", lineno)

    # -- pass 2 -------------------------------------------------------
    def _reg(self, token: str, line: int, *, fp: bool) -> int:
        try:
            is_fp, idx = parse_register(token)
        except ValueError as exc:
            raise AssemblyError(str(exc), line) from exc
        if is_fp != fp:
            kind = "floating-point" if fp else "integer"
            raise AssemblyError(f"expected {kind} register, got {token!r}", line)
        return idx

    def _imm_or_label(self, token: str, line: int) -> int:
        if _is_int_literal(token):
            return _parse_int(token, line)
        if token in self.data_labels:
            return self.data_labels[token]
        if token in self.text_labels:
            return self.text_labels[token]
        raise AssemblyError(f"undefined label or bad immediate {token!r}", line)

    def _branch_target(self, token: str, line: int) -> int:
        if token in self.text_labels:
            return self.text_labels[token]
        if _is_int_literal(token):
            return _parse_int(token, line)
        raise AssemblyError(f"undefined code label {token!r}", line)

    def _mem_operand(self, token: str, line: int) -> tuple[int, int]:
        """Parse ``off(base)`` / ``(base)`` / ``label`` into (imm, base)."""
        tok = token.strip()
        if tok.endswith(")") and "(" in tok:
            off_text, _, base_text = tok.partition("(")
            base = self._reg(base_text[:-1], line, fp=False)
            off_text = off_text.strip()
            if not off_text:
                return 0, base
            if _is_int_literal(off_text):
                return _parse_int(off_text, line), base
            if off_text in self.data_labels:
                return self.data_labels[off_text], base
            raise AssemblyError(f"bad offset {off_text!r}", line)
        if tok in self.data_labels:
            return self.data_labels[tok], 0
        if _is_int_literal(tok):
            return _parse_int(tok, line), 0
        raise AssemblyError(f"bad memory operand {token!r}", line)

    def _need(self, ops: list[str], n: int, mnem: str, line: int) -> None:
        if len(ops) != n:
            raise AssemblyError(f"{mnem} needs {n} operands, got {len(ops)}", line)

    def encode(self, proto: _Proto) -> Instruction:
        m, ops, line = proto.mnemonic, proto.operands, proto.line
        op = _MNEMONICS.get(m)
        if op is None:
            raise AssemblyError(f"unknown mnemonic {m!r}", line)
        spec = ISA[op]
        if op is Opcode.JAL and len(ops) == 1:
            ops = ["ra", ops[0]]
        self._need(ops, len(spec.operands), m, line)
        dfp, sfp, tfp = (f == "f" for f in spec.files)
        fields: dict = {}
        for tok, text in zip(spec.operands, ops):
            if tok == "d":
                fields["rd"] = self._reg(text, line, fp=dfp)
            elif tok == "s":
                fields["rs1"] = self._reg(text, line, fp=sfp)
            elif tok == "t":
                fields["rs2"] = self._reg(text, line, fp=tfp)
            elif tok == "i":
                fields["imm"] = self._imm_or_label(text, line)
            elif tok == "f":
                fields["imm"] = _parse_float(text, line)
            elif tok == "L":
                fields["imm"] = self._branch_target(text, line)
            else:  # i(s)
                fields["imm"], fields["rs1"] = self._mem_operand(text, line)
        return Instruction(op, line=line, **fields)

    def assemble(self) -> Program:
        self.first_pass()
        instructions = [self.encode(proto) for proto in self.protos]
        return Program(
            instructions=instructions,
            text_labels=self.text_labels,
            data_labels=self.data_labels,
            data=self.data,
            name=self.name,
        )


def assemble(source: str, name: str = "<anonymous>") -> Program:
    """Assemble source text into a :class:`~repro.vm.program.Program`."""
    return _Assembler(source, name).assemble()
