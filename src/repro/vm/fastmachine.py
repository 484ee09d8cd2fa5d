"""Block-compiling machine: ``FastMachine``.

:class:`~repro.vm.machine.Machine` already compiles each *static
instruction* into a closure; at paper-scale budgets (50M dynamic
instructions) the remaining cost is the per-instruction closure call
plus ten bound-method appends per trace record.  ``FastMachine``
removes both: any pc that becomes *hot* seeds a superblock trace
(profile-biased, optionally loop-unrolled) which compiles once into
one specialised Python function of straight-line code (register
indices constant-folded, ``r0`` reads folded to ``0``, 64-bit wraps
inlined, trace emission batched per exit site), while cold or
irregular code — including mid-block entries via ``jr`` — runs
through the inherited one-at-a-time interpreter.

The contract is **bit-identical traces**: for any program, budget and
machine state, ``FastMachine.run`` must produce exactly the trace,
final architectural state and errors of ``Machine.run``.  The
differential suite (``tests/test_fastmachine.py``) enforces this with
``Machine`` as the oracle, over every workload kernel and over
generated ``repro.lang`` programs.

Mechanics worth knowing:

- Blocks are *superblocks*: a conditional branch does not end one.
  Normally its taken side compiles to an early exit and the
  fallthrough continues straight-line; when the interpreter's warm-up
  branch profile says the branch is mostly *taken*, :func:`form_trace`
  follows the taken side instead and the emitted compare is inverted —
  which is what keeps loop-shaped code inside one trace.  A pure loop
  trace (sole backedge is the final transition) is additionally
  unrolled (:func:`unroll_loop_path`) and compiles to an internal loop
  that re-enters itself while budget remains.
- Trace emission happens exactly once per block invocation, at
  whichever exit is taken: the dynamic fixed-width columns (pc and
  next-pc) are staged as one interleaved pair array sliced from
  bind-time constants — one slice-assign per exit site — while the
  static ones (op, latency) are never staged at all, being gathered
  from per-pc tables at the end; the variable-width pair columns get
  at most one
  ``list.extend``/``array.extend`` per column per site, with dynamic
  memory locations patched in by negative index.  A fault exit
  flushes every instruction before the faulting one and raises the
  interpreter's exact ``VMError`` (message, pc, line).
- ``read_bounds``/``write_bounds`` are not maintained in the hot loop
  at all: the number of read/write pairs an instruction emits is a
  static property of its opcode and destination, so both columns are
  reconstructed in one vectorised (numpy) or
  :func:`itertools.accumulate` pass at the end.
- A block whose executions keep exiting in its first quarter was
  formed from a stale profile; after 64 short exits the driver
  retires it, feeds the observed exit direction back into the branch
  profile and recompiles (at most 4 times per head), so mispredicted
  traces self-correct even when the divergent branch only ever
  executes inside compiled code.
- Cyclic GC is disabled for the duration of :meth:`FastMachine.run`
  (steady-state allocations are acyclic; generational passes over the
  ever-growing trace columns are what makes the plain interpreter
  *degrade* at paper-scale budgets) and restored on exit.
"""

from __future__ import annotations

import gc

from array import array
from itertools import accumulate
from math import isfinite

try:  # vectorised bounds reconstruction; stdlib fallback below
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

from repro.isa.opcodes import Opcode
from repro.isa.registers import FP_REG_BASE, MEM_LOC_BASE
from repro.vm.errors import VMError
from repro.vm.machine import DEFAULT_STACK_TOP, Machine
from repro.vm.program import Program
from repro.vm.trace import ColumnarTrace, preallocated_pcn

#: Compile a block once it has been entered this many times; earlier
#: entries run through the interpreter (cold path), which doubles as
#: the warm-up branch profile that steers how traces are formed.
HOT_THRESHOLD = 8

#: Upper bound on compiled-block length.  Deliberately modest: besides
#: bounding generated-function compile time, short blocks keep the
#: emitted bytecode friendly to CPython's adaptive interpreter and the
#: CPU's caches, and a shorter biased trace overruns its real
#: divergence point less often — a (48, 32, 8) sweep optimum beat
#: (96, 64, 16) by 10-15% on the branchy and FP kernels.  Longer
#: straight-line stretches split into consecutive blocks linked by
#: fallthrough returns.
MAX_BLOCK_LEN = 48

#: Pure loop traces (sole backedge at the end) are unrolled until the
#: generated block reaches about this many entries, capped at
#: :data:`MAX_LOOP_UNROLL` copies, so one exit-site flush covers many
#: iterations of a short loop body.
LOOP_UNROLL_ENTRIES = 32
MAX_LOOP_UNROLL = 8

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


class _Unsupported(Exception):
    """Internal: this block cannot be compiled; interpret it forever."""


_wrap_n = 0


def _wrap(e: str) -> str:
    """Inline 64-bit two's-complement wrap of an int expression.

    The wrap arithmetic allocates multi-digit longs, so it only runs
    when the value actually left the int64 range: the common in-range
    case is two compares.  The walrus binding lives in the condition,
    which Python evaluates first.
    """
    global _wrap_n
    _wrap_n += 1
    t = f"t{_wrap_n}"
    return (
        f"({t} if {-_SIGN64} <= ({t} := {e}) <= {_SIGN64 - 1} "
        f"else (({t} + {_SIGN64}) & {_MASK64}) - {_SIGN64})"
    )


def _lit(v) -> str:
    """A Python literal for an int/float constant operand."""
    s = repr(v)
    if isinstance(v, float) and not isfinite(v):
        raise _Unsupported("non-finite float immediate")
    return f"({s})" if s.startswith("-") else s


_INT_RR_EXPR = {
    Opcode.ADD: lambda a, b: _wrap(f"{a} + {b}"),
    Opcode.SUB: lambda a, b: _wrap(f"{a} - {b}"),
    Opcode.AND: lambda a, b: f"{a} & {b}",
    Opcode.OR: lambda a, b: f"{a} | {b}",
    Opcode.XOR: lambda a, b: f"{a} ^ {b}",
    Opcode.SLL: lambda a, b: _wrap(f"{a} << ({b} & 63)"),
    Opcode.SRL: lambda a, b: _wrap(f"({a} & {_MASK64}) >> ({b} & 63)"),
    Opcode.SRA: lambda a, b: f"{a} >> ({b} & 63)",
    Opcode.SLT: lambda a, b: f"(1 if {a} < {b} else 0)",
    Opcode.SEQ: lambda a, b: f"(1 if {a} == {b} else 0)",
    Opcode.MUL: lambda a, b: _wrap(f"{a} * {b}"),
}
#: Immediate forms; shift amounts fold to ``imm & 63`` at codegen time.
_INT_RI_EXPR = {
    Opcode.ADDI: lambda a, v: _wrap(f"{a} + {_lit(v)}"),
    Opcode.ANDI: lambda a, v: f"{a} & {_lit(v)}",
    Opcode.ORI: lambda a, v: f"{a} | {_lit(v)}",
    Opcode.XORI: lambda a, v: f"{a} ^ {_lit(v)}",
    Opcode.SLLI: lambda a, v: _wrap(f"{a} << {v & 63}"),
    Opcode.SRLI: lambda a, v: _wrap(f"({a} & {_MASK64}) >> {v & 63}"),
    Opcode.SRAI: lambda a, v: f"{a} >> {v & 63}",
    Opcode.SLTI: lambda a, v: f"(1 if {a} < {_lit(v)} else 0)",
    Opcode.MULI: lambda a, v: _wrap(f"{a} * {_lit(v)}"),
}
_BRANCH_SYM = {
    Opcode.BEQ: "==", Opcode.BNE: "!=", Opcode.BLT: "<",
    Opcode.BGE: ">=", Opcode.BLE: "<=", Opcode.BGT: ">",
}
#: Negated comparison, for branches followed along their taken side
#: (the block then *exits* on the fallthrough condition).
_BRANCH_NEG = {
    Opcode.BEQ: "!=", Opcode.BNE: "==", Opcode.BLT: ">=",
    Opcode.BGE: "<", Opcode.BLE: ">", Opcode.BGT: "<=",
}
_FP_RR_SYM = {Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*"}
_FP_CMP_SYM = {Opcode.FEQ: "==", Opcode.FLT: "<", Opcode.FLE: "<="}

#: Opcodes that unconditionally end a superblock.  Conditional
#: branches do *not*: their taken side compiles to an early exit and
#: the fallthrough side continues in the same block.
_UNCOND_CTRL = frozenset({Opcode.J, Opcode.JAL, Opcode.JR, Opcode.HALT})

#: All control-transfer opcodes (kept for external callers/tests).
_CTRL_OPS = frozenset(_BRANCH_SYM) | _UNCOND_CTRL

#: Upper bound on conditional-branch exits per superblock; bounds the
#: per-exit flush code the block factory carries.
MAX_BLOCK_EXITS = 16


# ----------------------------------------------------------------------
# static program analysis
# ----------------------------------------------------------------------

def discover_blocks(
    program: Program, max_len: int = MAX_BLOCK_LEN,
    max_exits: int = MAX_BLOCK_EXITS,
) -> dict[int, tuple[int, ...]]:
    """Superblock traces as ``{leader_pc: (pc, pc, ...)}`` paths.

    Leaders are the entry point, every branch/jump target and the
    instruction after an unconditional transfer.  From each leader the
    trace follows the static fallthrough path: a conditional branch
    does *not* end it (the taken side becomes an early exit), and
    neither does an unconditional ``j``/``jal`` with an in-range
    target — the jump is *folded* into the trace and formation
    continues at its target, so a path is not necessarily contiguous
    and may duplicate the tail of another block.  Formation stops at
    ``jr``/``halt``, at a backedge into the path itself, and at the
    ``max_len``/``max_exits`` bounds.  ``jr`` targets are dynamic and
    therefore not leaders; entering the middle of a path that way
    simply runs on the interpreter until the next leader.
    """
    instrs = program.instructions
    n = len(instrs)
    if n == 0:
        return {}
    leaders = {0, program.text_labels.get("main", 0)} & set(range(n))
    for pc, inst in enumerate(instrs):
        op = inst.op
        if op in _UNCOND_CTRL:
            if pc + 1 < n:
                leaders.add(pc + 1)
            if op is Opcode.J or op is Opcode.JAL:
                target = int(inst.imm)
                if 0 <= target < n:
                    leaders.add(target)
        elif op in _BRANCH_SYM:
            target = int(inst.imm)
            if 0 <= target < n:
                leaders.add(target)
    blocks: dict[int, tuple[int, ...]] = {}
    work = sorted(leaders)
    while work:
        start = work.pop()
        if start in blocks:
            continue
        path, cont = form_trace(program, start, max_len=max_len,
                                max_exits=max_exits)
        blocks[start] = path
        # a cut not at an unconditional terminator starts a
        # continuation block, so long stretches chain instead of
        # falling back to the interpreter
        if 0 <= cont < n and cont not in blocks:
            work.append(cont)
    return blocks


def form_trace(
    program: Program, start: int, *, max_len: int = MAX_BLOCK_LEN,
    max_exits: int = MAX_BLOCK_EXITS, bias=None,
) -> tuple[tuple[int, ...], int]:
    """One superblock trace from ``start``: ``(path, continuation)``.

    Walks the static fallthrough path, folding unconditional
    ``j``/``jal`` jumps into the trace.  With ``bias`` (a
    ``pc -> bool`` predicate fed by the interpreter's warm-up branch
    profile), a conditional branch observed to be mostly *taken* is
    followed along its taken side instead — the block then exits on
    the fallthrough condition — which is what keeps loop-shaped code
    inside one trace.  ``continuation`` is the pc where a
    length/exit-bound cut left off (−1 when the trace closed itself).
    """
    instrs = program.instructions
    n = len(instrs)
    path: list[int] = []
    seen: set[int] = set()
    exits = 0
    pc = start
    cont = -1  # continuation leader when cut mid-stream
    while True:
        path.append(pc)
        seen.add(pc)
        inst = instrs[pc]
        op = inst.op
        if op in _UNCOND_CTRL:
            if op is Opcode.J or op is Opcode.JAL:
                t = int(inst.imm)
                if 0 <= t < n and t not in seen and len(path) < max_len:
                    pc = t  # fold the jump; continue at its target
                    continue
            break  # jr/halt, or a jump we do not fold
        if op in _BRANCH_SYM:
            exits += 1
            if exits >= max_exits:
                cont = pc + 1
                break
            if bias is not None and bias(pc):
                t = int(inst.imm)
                if 0 <= t < n and t not in seen and len(path) < max_len:
                    pc = t  # follow the taken side; exit on fallthrough
                    continue
        nxt = pc + 1
        if nxt >= n or nxt in seen or len(path) >= max_len:
            cont = nxt
            break
        pc = nxt
    return tuple(path), cont


def emission_counts(program: Program) -> tuple[list[int], list[int]]:
    """Per-static-pc ``(reads, writes)`` pair counts of the trace record.

    Both are static properties of the decoded instruction (an ``r0``
    destination discards the write), which is what lets FastMachine
    rebuild the bounds columns after the run instead of maintaining
    them per instruction.
    """
    rcounts: list[int] = []
    wcounts: list[int] = []
    for inst in program.instructions:
        op = inst.op
        dst = 1 if inst.rd else 0
        if op in _INT_RR_EXPR or op is Opcode.DIV or op is Opcode.REM:
            r, w = 2, dst
        elif op in _INT_RI_EXPR:
            r, w = 1, dst
        elif op in _BRANCH_SYM:
            r, w = 2, 0
        elif op in _FP_RR_SYM or op is Opcode.FDIV:
            r, w = 2, 1
        elif op in _FP_CMP_SYM:
            r, w = 2, dst
        elif op is Opcode.LI:
            r, w = 0, dst
        elif op is Opcode.MOV:
            r, w = 1, dst
        elif op is Opcode.LW:
            r, w = 2, dst
        elif op in (Opcode.SW, Opcode.FLW, Opcode.FSW):
            r, w = 2, 1
        elif op is Opcode.J:
            r, w = 0, 0
        elif op is Opcode.JAL:
            r, w = 0, dst
        elif op is Opcode.JR:
            r, w = 1, 0
        elif op in (Opcode.FSQRT, Opcode.FNEG, Opcode.FABS, Opcode.FMOV,
                    Opcode.CVTIF):
            r, w = 1, 1
        elif op is Opcode.CVTFI:
            r, w = 1, dst
        elif op is Opcode.FLI:
            r, w = 0, 1
        elif op in (Opcode.NOP, Opcode.HALT):
            r, w = 0, 0
        else:  # pragma: no cover - all opcodes are wired up
            raise VMError(f"unimplemented opcode {op.name}")
        rcounts.append(r)
        wcounts.append(w)
    return rcounts, wcounts


# ----------------------------------------------------------------------
# block code generation
# ----------------------------------------------------------------------

class _BlockCodegen:
    """Generates the factory source for one superblock.

    The factory binds machine state and column sinks once per run and
    returns ``_block(c)``: execute from the block leader with the trace
    cursor at ``c``, mutate architectural state in place, and return an
    ``(executed, next_pc)`` tuple.  Taken conditional branches and
    faults are *early exits*; every exit site — including the final
    fallthrough — flushes exactly the trace prefix it executed in one
    batch (slice assignments from arrays sliced once at bind time, at
    most one ``extend`` per pair column), so nothing is emitted per
    instruction on the way through.
    """

    def __init__(self, n_static: int, leader: int = -1,
                 loop_mode: bool = False):
        self.n_static = n_static
        self.leader = leader
        #: when the trace has an exit targeting its own leader, the
        #: block iterates internally: the backedge site advances the
        #: cursors and re-enters the top while ``room`` allows
        self.loop_mode = loop_mode
        self.body: list[str] = []
        self.consts: list[str] = []
        self.entries: list[tuple] = []  # (pc, op, lat, fall_next, reads, writes)
        self.regmap: dict[int, str] = {}
        self.fregmap: dict[int, str] = {}
        self.site = 0
        self.closed = False        # an unconditional terminator was emitted
        self.uses_fexit = False
        self.full_size: int | None = None
        self.final_ret: int | None = None   # next pc for J/JAL/HALT ends
        self.final_dyn: str | None = None   # next-pc expression for JR

    # -- operand helpers ------------------------------------------------
    def _rread(self, r: int, off: int) -> str:
        if r == 0:
            return "0"  # r0 is hardwired zero; skip the list load
        name = self.regmap.get(r)
        if name is None:
            name = f"r{r}_{off}"
            self.body.append(f"{name} = regs[{r}]")
            self.regmap[r] = name
        return name

    def _fread(self, r: int, off: int) -> str:
        name = self.fregmap.get(r)
        if name is None:
            name = f"f{r}_{off}"
            self.body.append(f"{name} = fregs[{r}]")
            self.fregmap[r] = name
        return name

    def _rwrite(self, rd: int, expr: str, off: int, writes: list) -> None:
        if rd == 0:
            return  # r0 is hardwired zero; the write is discarded
        name = f"w{rd}_{off}"
        self.body.append(f"{name} = {expr}")
        self.body.append(f"regs[{rd}] = {name}")
        self.regmap[rd] = name
        writes.append((rd, name))

    def _fwrite(self, rd: int, expr: str, off: int, writes: list) -> None:
        name = f"g{rd}_{off}"
        self.body.append(f"{name} = {expr}")
        self.body.append(f"fregs[{rd}] = {name}")
        self.fregmap[rd] = name
        writes.append((FP_REG_BASE + rd, name))

    def _fault(self, cond: str, off: int, pc: int, line: int,
               msg: str) -> None:
        """Emit a guarded fault exit: the shared ``_fexit`` helper
        flushes the executed prefix, restores machine state, and builds
        the ``VMError`` with the interpreter's exact message."""
        self.uses_fexit = True
        ents = self.entries  # exactly the ``off`` instructions before us
        rl = [p[0] for t in ents for p in t[4]]
        rv = [p[1] for t in ents for p in t[4]]
        wl = [p[0] for t in ents for p in t[5]]
        wv = [p[1] for t in ents for p in t[5]]
        self.body.append(
            f"if {cond}: raise _fexit(c, {pc}, {off}, {line}, {msg}, "
            f"{self._tuple(rl)}, {self._tuple(rv)}, "
            f"{self._tuple(wl)}, {self._tuple(wv)})"
        )

    # -- emission -------------------------------------------------------
    @staticmethod
    def _fmt(x) -> str:
        return x if isinstance(x, str) else repr(x)

    def _tuple(self, xs: list) -> str:
        if not xs:
            return "()"
        return "(" + ", ".join(self._fmt(x) for x in xs) + ",)"

    def _const(self, name: str, src: str) -> None:
        self.consts.append(f"{name} = {src}")

    def _pair_lines(self, ents: list, s: int) -> list[str]:
        """Pair-column emission for a prefix: one ``extend`` per column.

        Locations are almost entirely static, so each site extends the
        ``array('q')`` loc column from a constant array (a memcpy) and
        then *patches* the few dynamic memory locations in place by
        negative index — no per-entry Python-object loc traffic and no
        end-of-run list-to-array conversion.  Values are genuinely
        dynamic and go through one tuple ``extend`` per column.
        """
        out: list[str] = []
        for idx, arr, lext, vext, tag in ((4, "RL", "RLx", "RVx", "r"),
                                          (5, "WL", "WLx", "WVx", "w")):
            pairs = [p for t in ents for p in t[idx]]
            if not pairs:
                continue
            k = len(pairs)
            locs = [p[0] for p in pairs]
            vals = [p[1] for p in pairs]
            name = f"_{tag}l{s}"
            self._const(name, "_A('q', %r)" % (
                tuple(0 if isinstance(x, str) else x for x in locs),))
            out.append(f"{lext}({name})")
            for d, x in enumerate(locs):
                if isinstance(x, str):  # dynamic memory loc: patch
                    out.append(f"{arr}[{d - k}] = {x}")
            if all(not isinstance(x, str) for x in vals):
                vname = f"_{tag}v{s}"
                self._const(vname, repr(tuple(vals)))
                out.append(f"{vext}({vname})")
            else:
                out.append(f"{vext}({self._tuple(vals)})")
        return out

    def _flush_lines(self, k: int, last_next: int | None, s: int) -> list[str]:
        """Batched emission of ``entries[:k]``; ``last_next`` overrides
        the final entry's next-pc column (taken-branch exits)."""
        ents = self.entries[:k]
        if self.full_size is not None and k == self.full_size:
            qa = "_q"
        else:
            qa = f"_qe{s}"
            self._const(qa, f"_q[:{2 * k}]")
            if last_next is not None and last_next != ents[-1][3]:
                # patch the exit's own next pc once, at bind time
                self.consts.append(f"{qa}[{2 * k - 1}] = {last_next}")
        out = [f"PCN[c2:c2+{2 * k}] = {qa}"]
        out += self._pair_lines(ents, s)
        return out

    def _branch_exit(self, cond: str, target: int) -> None:
        """The exiting side of a conditional branch: flush the prefix
        (including the branch itself) and leave — or, for a backedge
        into the block's own leader, loop internally while the budget
        ``room`` holds another full iteration."""
        k = len(self.entries)
        s = self.site
        self.site += 1
        B = self.body.append
        B(f"if {cond}:")
        for line in self._flush_lines(k, target, s):
            B("    " + line)
        if self.loop_mode and target == self.leader:
            B(f"    c2 += {2 * k}")
            B(f"    c += {k}")
            B(f"    kt += {k}")
            B(f"    room -= {k}")
            B("    if room >= _SZ:")
            B("        continue")
            B(f"    return (kt, {target})")
        elif self.loop_mode:
            B(f"    return (kt + {k}, {target})")
        else:
            self._const(f"_x{s}", repr((k, target)))
            B(f"    return _x{s}")

    # -- per-instruction translation ------------------------------------
    def emit(self, inst, pc: int, off: int, follow: bool = False,
             invert: bool = False) -> None:
        """Translate one instruction at path offset ``off``.

        ``follow`` marks a ``j``/``jal`` folded into the path: it
        emits its trace record (next pc = target) without closing the
        block, because the caller continues emission at the target.
        ``invert`` marks a conditional branch followed along its
        *taken* side: the block continues at the branch target and
        exits on the fallthrough condition instead.
        """
        if self.closed:
            raise _Unsupported("unconditional terminator mid-block")
        op = inst.op
        rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm
        line = inst.line
        reads: list = []
        writes: list = []
        nxt: int = pc + 1

        if op in _INT_RR_EXPR:
            a = self._rread(rs1, off)
            b = self._rread(rs2, off)
            reads = [(rs1, a), (rs2, b)]
            self._rwrite(rd, _INT_RR_EXPR[op](a, b), off, writes)
        elif op in _INT_RI_EXPR:
            a = self._rread(rs1, off)
            reads = [(rs1, a)]
            self._rwrite(rd, _INT_RI_EXPR[op](a, imm), off, writes)
        elif op in _BRANCH_SYM:
            a = self._rread(rs1, off)
            b = self._rread(rs2, off)
            reads = [(rs1, a), (rs2, b)]
            # the record's next pc is the direction the block keeps
            # going; the other side exits with its own prefix flush
            if invert:
                self.entries.append(
                    (pc, int(op), inst.latency, int(imm), reads, writes)
                )
                self._branch_exit(f"{a} {_BRANCH_NEG[op]} {b}", pc + 1)
            else:
                self.entries.append(
                    (pc, int(op), inst.latency, pc + 1, reads, writes)
                )
                self._branch_exit(f"{a} {_BRANCH_SYM[op]} {b}", int(imm))
            return
        elif op in _FP_RR_SYM:
            a = self._fread(rs1, off)
            b = self._fread(rs2, off)
            reads = [(FP_REG_BASE + rs1, a), (FP_REG_BASE + rs2, b)]
            self._fwrite(rd, f"{a} {_FP_RR_SYM[op]} {b}", off, writes)
        elif op in _FP_CMP_SYM:
            a = self._fread(rs1, off)
            b = self._fread(rs2, off)
            reads = [(FP_REG_BASE + rs1, a), (FP_REG_BASE + rs2, b)]
            self._rwrite(rd, f"(1 if {a} {_FP_CMP_SYM[op]} {b} else 0)",
                         off, writes)
        elif op is Opcode.DIV or op is Opcode.REM:
            a = self._rread(rs1, off)
            b = self._rread(rs2, off)
            reads = [(rs1, a), (rs2, b)]
            kind = "remainder" if op is Opcode.REM else "division"
            self._fault(f"{b} == 0", off, pc, line,
                        f"'integer {kind} by zero'")
            q = f"q{off}"
            self.body.append(f"{q} = trunc({a}, {b})")
            expr = (_wrap(f"{a} - {q} * {b}") if op is Opcode.REM
                    else _wrap(q))
            self._rwrite(rd, expr, off, writes)
        elif op is Opcode.LI:
            v = int(imm)
            if rd:
                self.body.append(f"regs[{rd}] = {_lit(v)}")
                self.regmap[rd] = _lit(v)
                writes = [(rd, v)]
        elif op is Opcode.MOV:
            a = self._rread(rs1, off)
            reads = [(rs1, a)]
            self._rwrite(rd, a, off, writes)
        elif op is Opcode.LW:
            base = self._rread(rs1, off)
            ad = f"ad{off}"
            if imm:
                self.body.append(f"{ad} = {base} + {_lit(imm)}")
            else:
                ad = base
            self._fault(f"{ad} < 0", off, pc, line,
                        f"'negative memory address %d' % {ad}")
            v = f"v{off}"
            self.body.append(f"{v} = mem_get({ad}, 0)")
            self.body.append(f"if {v}.__class__ is float: {v} = _int({v})")
            reads = [(rs1, base), (f"{MEM_LOC_BASE} + {ad}", v)]
            self._rwrite(rd, v, off, writes)
        elif op is Opcode.SW:
            base = self._rread(rs1, off)
            ad = f"ad{off}"
            if imm:
                self.body.append(f"{ad} = {base} + {_lit(imm)}")
            else:
                ad = base
            self._fault(f"{ad} < 0", off, pc, line,
                        f"'negative memory address %d' % {ad}")
            v = self._rread(rs2, off)
            self.body.append(f"memory[{ad}] = {v}")
            reads = [(rs1, base), (rs2, v)]
            writes = [(f"{MEM_LOC_BASE} + {ad}", v)]
        elif op is Opcode.FLW:
            base = self._rread(rs1, off)
            ad = f"ad{off}"
            if imm:
                self.body.append(f"{ad} = {base} + {_lit(imm)}")
            else:
                ad = base
            self._fault(f"{ad} < 0", off, pc, line,
                        f"'negative memory address %d' % {ad}")
            v = f"v{off}"
            self.body.append(f"{v} = mem_get({ad}, 0)")
            self.body.append(
                f"if {v}.__class__ is not float: {v} = _float({v})"
            )
            self.body.append(f"fregs[{rd}] = {v}")
            self.fregmap[rd] = v
            reads = [(rs1, base), (f"{MEM_LOC_BASE} + {ad}", v)]
            writes = [(FP_REG_BASE + rd, v)]
        elif op is Opcode.FSW:
            base = self._rread(rs1, off)
            ad = f"ad{off}"
            if imm:
                self.body.append(f"{ad} = {base} + {_lit(imm)}")
            else:
                ad = base
            self._fault(f"{ad} < 0", off, pc, line,
                        f"'negative memory address %d' % {ad}")
            v = self._fread(rs2, off)
            self.body.append(f"memory[{ad}] = {v}")
            reads = [(rs1, base), (FP_REG_BASE + rs2, v)]
            writes = [(f"{MEM_LOC_BASE} + {ad}", v)]
        elif op is Opcode.J:
            nxt = int(imm)
            if not follow:
                self.closed = True
                self.final_ret = nxt
        elif op is Opcode.JAL:
            link = pc + 1
            if rd:
                self.body.append(f"regs[{rd}] = {link}")
                self.regmap[rd] = str(link)
                writes = [(rd, link)]
            nxt = int(imm)
            if not follow:
                self.closed = True
                self.final_ret = nxt
        elif op is Opcode.JR:
            a = self._rread(rs1, off)
            reads = [(rs1, a)]
            nxt = 0  # placeholder; patched with the dynamic target
            self.closed = True
            self.final_dyn = a
        elif op is Opcode.FDIV:
            a = self._fread(rs1, off)
            b = self._fread(rs2, off)
            reads = [(FP_REG_BASE + rs1, a), (FP_REG_BASE + rs2, b)]
            self._fault(f"{b} == 0.0", off, pc, line,
                        "'floating division by zero'")
            self._fwrite(rd, f"{a} / {b}", off, writes)
        elif op is Opcode.FSQRT:
            a = self._fread(rs1, off)
            reads = [(FP_REG_BASE + rs1, a)]
            self._fault(f"{a} < 0.0", off, pc, line,
                        "'square root of a negative value'")
            self._fwrite(rd, f"{a} ** 0.5", off, writes)
        elif op is Opcode.FNEG:
            a = self._fread(rs1, off)
            reads = [(FP_REG_BASE + rs1, a)]
            self._fwrite(rd, f"-{a}", off, writes)
        elif op is Opcode.FABS:
            a = self._fread(rs1, off)
            reads = [(FP_REG_BASE + rs1, a)]
            self._fwrite(rd, f"_abs({a})", off, writes)
        elif op is Opcode.FMOV:
            a = self._fread(rs1, off)
            reads = [(FP_REG_BASE + rs1, a)]
            self._fwrite(rd, a, off, writes)
        elif op is Opcode.FLI:
            v = float(imm)
            lit = _lit(v)
            self.body.append(f"fregs[{rd}] = {lit}")
            self.fregmap[rd] = lit
            writes = [(FP_REG_BASE + rd, v)]
        elif op is Opcode.CVTIF:
            a = self._rread(rs1, off)
            reads = [(rs1, a)]
            self._fwrite(rd, f"_float({a})", off, writes)
        elif op is Opcode.CVTFI:
            a = self._fread(rs1, off)
            reads = [(FP_REG_BASE + rs1, a)]
            # computed even for an r0 destination, like the interpreter
            # (int(inf) raises on both machines)
            r = f"cv{off}"
            self.body.append(f"{r} = {_wrap(f'_int({a})')}")
            if rd:
                self.body.append(f"regs[{rd}] = {r}")
                self.regmap[rd] = r
                writes = [(rd, r)]
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.HALT:
            self.body.append("m.halted = True")
            self.body.append(f"m.pc = {pc}")
            nxt = pc
            self.closed = True
            self.final_ret = self.n_static  # out-of-range sentinel;
            # the driver breaks on the halted flag and restores m.pc
        else:
            raise _Unsupported(op.name)

        self.entries.append((pc, int(op), inst.latency, nxt, reads, writes))

    def source(self, fallthrough: int) -> str:
        """Assemble the factory source after all instructions emitted."""
        size = len(self.entries)
        self.full_size = size
        s = self.site
        self.site += 1
        body = list(self.body)
        body += self._flush_lines(size, None, s)
        if self.final_dyn is not None:  # JR: patch the dynamic target
            body.append(f"PCN[c2+{2 * size - 1}] = {self.final_dyn}")
            if self.loop_mode:
                body.append(f"return (kt + {size}, {self.final_dyn})")
            else:
                body.append(f"return ({size}, {self.final_dyn})")
        else:
            npc = self.final_ret if self.closed else fallthrough
            if self.loop_mode and npc == self.leader:
                body += [
                    f"c2 += {2 * size}", f"c += {size}",
                    f"kt += {size}", f"room -= {size}",
                    "if room >= _SZ:", "    continue",
                    f"return (kt, {npc})",
                ]
            elif self.loop_mode:
                body.append(f"return (kt + {size}, {npc})")
            else:
                self._const(f"_x{s}", repr((size, npc)))
                body.append(f"return _x{s}")
        if self.loop_mode:
            self._const("_SZ", str(size))
            body = ["kt = 0", "while 1:"] + ["    " + line for line in body]

        flat: list[int] = []
        for t in self.entries:
            flat += (t[0], t[3])
        heads = [f"_q = _A('i', {tuple(flat)!r})"]
        out = [
            "def _factory(m, regs, fregs, memory, mem_get, PCN, "
            "RL, RLx, RVx, WL, WLx, WVx, VMError, trunc, B0):",
            "    _int = int; _float = float; _abs = abs; _A = _array",
        ]
        out += [f"    {line}" for line in heads]
        out += [f"    {line}" for line in self.consts]
        if self.uses_fexit:
            out += [
                "    def _fexit(c, pc, off, line, msg, "
                "rlocs, rvals, wlocs, wvals):",
                "        q = 2 * c",
                "        PCN[q:q + 2 * off] = _q[:2 * off]",
                "        if rlocs:",
                "            RLx(rlocs)",
                "            RVx(rvals)",
                "        if wlocs:",
                "            WLx(wlocs)",
                "            WVx(wvals)",
                "        m.pc = pc",
                "        m.instruction_count = B0 + c + off",
                "        return VMError(msg, pc=pc, line=line)",
            ]
        out.append("    def _block(c, room):")
        out.append("        c2 = 2 * c")
        out += [f"        {line}" for line in body]
        out.append("    return _block")
        return "\n".join(out) + "\n"


def _trace_steps(instrs, path: tuple[int, ...]):
    """Per-element ``(pc, follow, invert, exit_target)`` of a path.

    ``follow`` folds a ``j``/``jal`` into the trace; ``invert`` means
    a conditional branch is followed along its taken side (so its exit
    target is the fallthrough).  ``exit_target`` is the pc an early
    exit at this element would leave to (None when it cannot exit).
    """
    last = len(path) - 1
    for off, pc in enumerate(path):
        inst = instrs[pc]
        op = inst.op
        follow = invert = False
        exit_target = None
        if op is Opcode.J or op is Opcode.JAL:
            follow = off < last and path[off + 1] == int(inst.imm)
        elif op in _BRANCH_SYM and off < last:
            nxt = path[off + 1]
            target = int(inst.imm)
            if nxt == target and nxt != pc + 1:
                invert = True
                exit_target = pc + 1
            else:
                exit_target = target
        elif op in _BRANCH_SYM:
            exit_target = int(inst.imm)
        yield off, pc, follow, invert, exit_target


def generate_block_source(program: Program, path: tuple[int, ...]) -> str:
    """The factory source for the superblock trace along ``path``.

    A ``j``/``jal`` whose target is the next path element is folded;
    a conditional branch followed along its taken side is inverted.
    When any exit (or the final next pc) targets the path's own
    leader, the block compiles to an internal loop gated on the
    remaining budget.  Exposed for tests and for ``repro
    disasm``-style debugging; raises :class:`_Unsupported` when the
    path cannot be compiled.
    """
    global _wrap_n
    _wrap_n = 0  # temp names restart per block: same path -> same source
    instrs = program.instructions
    leader = path[0]
    steps = list(_trace_steps(instrs, path))
    loop_mode = any(t == leader for _, _, _, _, t in steps)
    if not loop_mode:
        # the final transition may also re-enter the leader
        lpc = path[-1]
        lop = instrs[lpc].op
        if lop is Opcode.J or lop is Opcode.JAL:
            loop_mode = int(instrs[lpc].imm) == leader
        elif lop not in _UNCOND_CTRL:
            loop_mode = lpc + 1 == leader
    gen = _BlockCodegen(len(instrs), leader=leader, loop_mode=loop_mode)
    for off, pc, follow, invert, _ in steps:
        gen.emit(instrs[pc], pc, off, follow, invert)
    return gen.source(path[-1] + 1)


def unroll_loop_path(program: Program, path: tuple[int, ...]) -> tuple[int, ...]:
    """Repeat a *pure* loop trace so one flush covers many iterations.

    A pure loop trace is one whose only backedge into its own leader
    is the final transition.  Exit-site emission has a fixed cost of a
    handful of C calls regardless of span, so short loop bodies pay it
    every iteration; repeating the path lets the generated block run
    up to :data:`MAX_LOOP_UNROLL` iterations between flushes.
    Unrolling is literally path repetition — ``_trace_steps`` folds
    each seam (a ``j`` or fallthrough continues, a backedge branch
    inverts into the next copy) exactly like any followed transition,
    so the emitted trace records are unchanged.  Traces with a
    mid-path backedge (loop plus epilogue) are returned as-is.
    """
    if len(path) >= LOOP_UNROLL_ENTRIES:
        return path
    instrs = program.instructions
    leader = path[0]
    steps = list(_trace_steps(instrs, path))
    if any(t == leader for *_, t in steps[:-1]):
        return path  # impure: mid-path backedge
    back = steps[-1][4] == leader
    if not back:
        lpc = path[-1]
        lop = instrs[lpc].op
        if lop is Opcode.J or lop is Opcode.JAL:
            back = int(instrs[lpc].imm) == leader
        elif lop not in _UNCOND_CTRL:
            back = lpc + 1 == leader
    if not back:
        return path
    unroll = min(MAX_LOOP_UNROLL, LOOP_UNROLL_ENTRIES // len(path))
    return path * unroll if unroll > 1 else path


def _bounds_from_counts(counts: list[int], pcs: array) -> array:
    """Cumulative pair-count column for an executed-pc column.

    ``counts[pc]`` is the (static) number of read or write pairs the
    instruction at ``pc`` emits; the bounds column is its running sum
    with a leading 0.  The numpy path is a gather + cumsum over the
    whole run; the stdlib path streams through ``accumulate``.
    """
    if _np is not None and len(pcs) >= 4096:
        gathered = _np.asarray(counts, dtype=_np.uint32)[
            _np.frombuffer(pcs, dtype=_np.int32)
        ]
        bounds = _np.empty(len(pcs) + 1, dtype=_np.uint32)
        bounds[0] = 0
        _np.cumsum(gathered, out=bounds[1:])
        out = array("I")
        out.frombytes(memoryview(bounds).cast("B"))
        return out
    return array("I", accumulate(map(counts.__getitem__, pcs), initial=0))


def _split_pcn(
    pcn: array, op_table: list[int], lat_table: list[int],
) -> tuple[array, array, array, array]:
    """Expand the staged ``[pc, next_pc]`` pairs into ``(pcs, ops,
    lats, next_pcs)`` with the :class:`ColumnarTrace` typecodes.

    Opcode and latency are static per-pc properties, so they are never
    staged in the hot path at all — they are gathered here from the
    per-pc tables in one vectorised pass (numpy) or one ``map``
    (stdlib fallback).
    """
    n = len(pcn) // 2
    if _np is not None and n >= 4096:
        m = _np.frombuffer(pcn, dtype=_np.int32).reshape(n, 2)
        pcs_np = _np.ascontiguousarray(m[:, 0])
        pcs = array("i")
        pcs.frombytes(memoryview(pcs_np).cast("B"))
        ops = array("h")
        ops.frombytes(memoryview(
            _np.asarray(op_table, dtype=_np.int16)[pcs_np]).cast("B"))
        lats = array("h")
        lats.frombytes(memoryview(
            _np.asarray(lat_table, dtype=_np.int16)[pcs_np]).cast("B"))
        npcs = array("i")
        npcs.frombytes(memoryview(_np.ascontiguousarray(m[:, 1])).cast("B"))
        return pcs, ops, lats, npcs
    pcs = pcn[0::2]
    return (pcs, array("h", map(op_table.__getitem__, pcs)),
            array("h", map(lat_table.__getitem__, pcs)), pcn[1::2])


# ----------------------------------------------------------------------
# the machine
# ----------------------------------------------------------------------

class FastMachine(Machine):
    """Drop-in ``Machine`` whose :meth:`run` executes hot basic blocks
    as compiled straight-line Python.

    A block is compiled on its :data:`HOT_THRESHOLD`-th entry; before
    that (and for irregular code such as ``jr`` targets into the middle
    of a block) execution single-steps through the inherited
    interpreter against the same trace columns.
    """

    def __init__(self, program: Program, *,
                 stack_top: int = DEFAULT_STACK_TOP):
        super().__init__(program, stack_top=stack_top)
        self._blocks: dict[int, tuple[int, ...]] | None = None
        self._sizes: list[int] = []
        self._codes: dict[int, object] = {}
        self._rcounts: list[int] = []
        self._wcounts: list[int] = []
        self._hits: list[int] | None = None

    def _analyze(self) -> None:
        n = len(self.program.instructions)
        self._blocks = discover_blocks(self.program)
        self._sizes = [0] * n
        for leader, path in self._blocks.items():
            self._sizes[leader] = len(path)
        self._rcounts, self._wcounts = emission_counts(self.program)
        # static per-pc columns, gathered into the trace at the end
        self._op_table = [int(inst.op) for inst in self.program.instructions]
        self._lat_table = [inst.latency for inst in self.program.instructions]
        self._btaken = [0] * n   # warm-up branch profile: taken count
        self._bseen = [0] * n    # ... and total executions, per branch
        self._isbr = [inst.op in _BRANCH_SYM
                      for inst in self.program.instructions]

    def _bias(self, pc: int) -> bool:
        """Warm-up verdict: was this branch mostly taken so far?"""
        return 2 * self._btaken[pc] > self._bseen[pc] > 0

    def _block_code(self, leader: int):
        """Compiled factory code object for a block (None: uncompilable).

        The trace is (re-)formed here, at compile time, so the warm-up
        branch profile can steer it through the observed hot direction
        of each conditional branch; the leader's dispatch size is
        updated to the profiled trace's length.
        """
        try:
            return self._codes[leader]
        except KeyError:
            pass
        path, _ = form_trace(self.program, leader, bias=self._bias)
        path = unroll_loop_path(self.program, path)
        try:
            src = generate_block_source(self.program, path)
            code = compile(
                src, f"<fastblock {self.program.name}:{leader}>", "exec"
            )
            self._blocks[leader] = path
            self._sizes[leader] = len(path)
        except _Unsupported:
            code = None
        self._codes[leader] = code
        return code

    def run(self, max_instructions: int | None = None) -> ColumnarTrace:
        """Execute until HALT or the budget; bit-identical to
        :meth:`Machine.run` by construction (and by the differential
        suite)."""
        if self._blocks is None:
            self._analyze()
        instrs = self.program.instructions
        n_static = len(instrs)
        sizes = self._sizes
        threshold = HOT_THRESHOLD

        count0 = self.instruction_count
        count = count0
        cur = 0
        pc = self.pc
        finite = max_instructions is not None
        budget = max_instructions if finite else float("inf")

        cap = max(max_instructions - count0, 0) if finite else 1024
        PCN = preallocated_pcn(cap)
        read_locs = array("q")
        read_vals: list = []
        write_locs = array("q")
        write_vals: list = []
        RLa, RVa = read_locs.append, read_vals.append
        WLa, WVa = write_locs.append, write_vals.append
        runtime = (
            self, self.regs, self.fregs, self.memory, self.memory.get,
            PCN,
            read_locs, read_locs.extend, read_vals.extend,
            write_locs, write_locs.extend, write_vals.extend,
            VMError, Machine._trunc_div, count0,
        )

        def ensure(need: int) -> None:
            nonlocal cap
            while cap < need:
                add = max(cap, 1024)
                PCN.frombytes(bytes(2 * add * PCN.itemsize))
                cap += add

        fns: list = [None] * n_static
        # ``hits`` persists across run() calls so chunked execution
        # (run_chunks) recompiles already-hot blocks immediately
        # instead of re-warming per chunk; ``fns`` must stay per-call
        # because each closure binds this call's trace columns.
        hits = self._hits
        if hits is None or len(hits) != n_static:
            hits = self._hits = [0] * n_static
        shorts = [0] * n_static  # entries that exited in the 1st quarter
        retired: dict[int, int] = {}
        blocks = self._blocks
        isbr = self._isbr
        btaken = self._btaken
        bseen = self._bseen

        # Block execution allocates in bursts (value tuples, column
        # growth) that never form reference cycles; cyclic-gc passes
        # over the ever-growing value columns are pure overhead, so
        # collection is paused for the duration of the loop.
        gc_enabled = gc.isenabled()
        if gc_enabled:
            gc.disable()
        try:
            halted_at_entry = self.halted
            while not halted_at_entry and count < budget:
                if not 0 <= pc < n_static:
                    if self.halted:
                        break
                    self.pc = pc
                    self.instruction_count = count
                    raise VMError(f"pc {pc} outside program", pc=pc)
                fn = fns[pc]
                if fn is not None:
                    # a superblock may exit early or loop internally,
                    # so gate on its full size, hand it the remaining
                    # room and advance by what it actually executed
                    size = sizes[pc]
                    if count + size <= budget:
                        if cur + size > cap:
                            ensure(cur + size)
                        head = pc
                        k, pc = fn(
                            cur, budget - count if finite else cap - cur
                        )
                        cur += k
                        count += k
                        # a trace formed from a misleading warm-up
                        # profile keeps exiting near its head; its
                        # divergent branch only ever executes inside
                        # compiled blocks, so the interpreter-side
                        # profile would never self-correct.  Feed the
                        # observed outcome back into the profile and
                        # retire the trace so it re-forms along the
                        # real hot path (capped per head so a
                        # genuinely irregular block cannot churn).
                        if k * 4 < size:
                            shorts[head] = sh = shorts[head] + 1
                            if sh >= 64:
                                shorts[head] = 0
                                r = retired.get(head, 0)
                                if r < 4:
                                    retired[head] = r + 1
                                    div = blocks[head][k - 1]
                                    if isbr[div]:
                                        bseen[div] += 64
                                        if pc != div + 1:
                                            btaken[div] += 64
                                        hits[head] = threshold - 1
                                    else:
                                        hits[head] = 0
                                    fns[head] = None
                                    self._codes.pop(head, None)
                        continue
                else:
                    # every pc can become a trace head (a biased trace
                    # may exit into the middle of a static block, and
                    # ``jr`` lands on dynamic targets)
                    hits[pc] = h = hits[pc] + 1
                    if h >= threshold:
                        code = self._block_code(pc)
                        if code is not None:
                            ns = {"_array": array}
                            exec(code, ns)
                            fns[pc] = ns["_factory"](*runtime)
                            continue
                # cold path: one interpreter step into the same columns
                if cur >= cap:
                    ensure(cur + 1)
                self.pc = pc
                self.instruction_count = count
                rec = self.step()
                q = 2 * cur
                PCN[q] = pc
                PCN[q + 1] = rec.next_pc
                for loc, val in rec.reads:
                    RLa(loc)
                    RVa(val)
                for loc, val in rec.writes:
                    WLa(loc)
                    WVa(val)
                cur += 1
                count += 1
                if isbr[pc]:  # feed the warm-up branch profile
                    bseen[pc] += 1
                    if rec.next_pc != pc + 1:
                        btaken[pc] += 1
                pc = rec.next_pc
                if self.halted:
                    break
        finally:
            if gc_enabled:
                gc.enable()
        if self.halted:
            pc = self.pc
        self.pc = pc
        self.instruction_count = count

        del PCN[2 * cur:]
        PCS, OPS, LATS, NPCS = _split_pcn(
            PCN, self._op_table, self._lat_table
        )
        trace = ColumnarTrace(
            program_name=self.program.name,
            halted=self.halted,
            truncated=not self.halted,
        )
        trace.pcs = PCS
        trace.ops = OPS
        trace.lats = LATS
        trace.next_pcs = NPCS
        trace.read_bounds = _bounds_from_counts(self._rcounts, PCS)
        trace.write_bounds = _bounds_from_counts(self._wcounts, PCS)
        if (trace.read_bounds[-1] != len(read_locs)
                or trace.write_bounds[-1] != len(write_locs)
                or len(read_locs) != len(read_vals)
                or len(write_locs) != len(write_vals)):
            raise RuntimeError(
                "FastMachine emitted inconsistent trace columns "
                f"(internal error in {self.program.name})"
            )
        trace.read_locs = read_locs
        trace.read_vals = read_vals
        trace.write_locs = write_locs
        trace.write_vals = write_vals
        return trace
