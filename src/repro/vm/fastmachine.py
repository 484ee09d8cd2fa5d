"""Tier 1 of :class:`~repro.vm.machine.Machine`: compiled superblocks.

``Machine`` runs cold code one closure per instruction (tier 0).  A pc
whose tier-0 work passes the machine's compile bar seeds a superblock
trace here (profile-biased, optionally loop-unrolled), which compiles
once into one specialised Python function of straight-line code, each
instruction's fragment generated from its entry in the ISA table
(:mod:`repro.isa.table`): register indices constant-folded, ``r0``
reads folded to ``0``, 64-bit wraps inlined, trace emission batched
per exit site.  The machine binds each compiled block to its own
state and trace columns once, and calls it until the block retires.

The contract is **bit-identical traces**: a compiled block emits
exactly the records, state changes and faults of the tier-0 closures
for the instructions it retires, which the differential suite
(``tests/test_fastmachine.py``) checks against the one-at-a-time
interpreter (``Machine.step`` / ``Machine.run_rows``) over every
workload kernel and generated ``repro.lang`` programs.

Mechanics worth knowing:

- Blocks are *superblocks*: a conditional branch does not end one.
  Normally its taken side compiles to an early exit and the
  fallthrough continues straight-line; when the tier-0 branch profile
  says the branch is mostly *taken*, :func:`form_trace` follows the
  taken side instead and the emitted compare is inverted — which is
  what keeps loop-shaped code inside one trace.  A pure loop trace
  (sole backedge is the final transition) is additionally unrolled
  (:func:`unroll_loop_path`) and compiles to an internal loop that
  re-enters itself while budget remains.
- Both tiers write one column layout: an interleaved ``[pc, next_pc]``
  ``array('i')`` plus the read/write ``(loc, value)`` pair columns.
  A block extends the pc column once per exit site from an array
  sliced at bind time, and each pair column at most once, with dynamic
  memory locations patched in by negative index.  Opcode, latency and
  the ``*_bounds`` columns are static per-pc properties, rebuilt at the
  end of a run by :func:`_split_pcn` and :func:`_bounds_from_counts`.
  A fault exit flushes the instructions before the faulting one and
  raises the interpreter's exact ``VMError`` (message, pc, line).
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from math import isfinite

try:  # vectorised bounds reconstruction; stdlib fallback below
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import FP_REG_BASE, MEM_LOC_BASE
from repro.isa.table import ISA, substitute, wrap64
from repro.vm.program import Program

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


class _Unsupported(Exception):
    """Internal: this block cannot be compiled; interpret it forever."""


def _lit(v) -> str:
    """A Python literal for an int/float constant operand."""
    s = repr(v)
    if isinstance(v, float) and not isfinite(v):
        raise _Unsupported("non-finite float immediate")
    return f"({s})" if s.startswith("-") else s


#: Conditional branches: superblock exits, not block ends.
_BRANCHES = frozenset(op for op, s in ISA.items() if s.cls is OpClass.BRANCH)

#: Negated comparison, for branches followed along their taken side
#: (the block then *exits* on the fallthrough condition).
_NEGATE = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


#: Per register file: the machine's list, the location base, and the
#: prefixes of a block's read temps and result temps.
_REGFILE = {"i": ("regs", 0, "r", "w"), "f": ("fregs", FP_REG_BASE, "f", "g")}


def _negated(cond: str) -> str:
    """A branch's ``a OP b`` condition with the comparison negated."""
    a, sym, b = cond.split()
    return f"{a} {_NEGATE[sym]} {b}"


#: Opcodes that unconditionally end a superblock.  Conditional
#: branches do *not*: their taken side compiles to an early exit and
#: the fallthrough side continues in the same block.
_UNCOND_CTRL = frozenset({Opcode.J, Opcode.JAL, Opcode.JR, Opcode.HALT})

#: Upper bound on conditional-branch exits per superblock; bounds the
#: per-exit flush code the block factory carries.
MAX_BLOCK_EXITS = 16


def form_trace(program: Program, start: int, *, bias=None) -> tuple[int, ...]:
    """The superblock trace from ``start``, as a path of pcs.

    Walks the static fallthrough path, folding unconditional
    ``j``/``jal`` jumps into the trace.  With ``bias`` (a
    ``pc -> bool`` predicate fed by the tier-0 branch profile), a
    conditional branch observed to be mostly *taken* is followed along
    its taken side instead — the block then exits on the fallthrough
    condition — which is what keeps loop-shaped code inside one trace.
    Formation stops at ``jr``/``halt``, at a backedge into the path
    itself, and at the :data:`MAX_BLOCK_LEN` / :data:`MAX_BLOCK_EXITS`
    bounds.
    """
    instrs = program.instructions
    n = len(instrs)
    path: list[int] = []
    seen: set[int] = set()
    exits = 0
    pc = start
    while True:
        path.append(pc)
        seen.add(pc)
        inst = instrs[pc]
        op = inst.op
        if op in _UNCOND_CTRL:
            if op is Opcode.J or op is Opcode.JAL:
                t = int(inst.imm)
                if 0 <= t < n and t not in seen and len(path) < MAX_BLOCK_LEN:
                    pc = t  # fold the jump; continue at its target
                    continue
            break  # jr/halt, or a jump we do not fold
        if op in _BRANCHES:
            exits += 1
            if exits >= MAX_BLOCK_EXITS:
                break
            if bias is not None and bias(pc):
                t = int(inst.imm)
                if 0 <= t < n and t not in seen and len(path) < MAX_BLOCK_LEN:
                    pc = t  # follow the taken side; exit on fallthrough
                    continue
        pc += 1
        if pc >= n or pc in seen or len(path) >= MAX_BLOCK_LEN:
            break
    return tuple(path)


# ----------------------------------------------------------------------
# block code generation
# ----------------------------------------------------------------------

class _BlockCodegen:
    """Generates the factory source for one superblock.

    The factory binds machine state and column sinks once per machine
    and returns ``_block(room)``: execute from the block leader, mutate
    architectural state in place, and return an ``(executed,
    next_pc)`` tuple.  Taken conditional branches and faults are
    *early exits*; every exit site — including the final fallthrough —
    flushes exactly the trace prefix it executed in one batch (one pc
    column ``extend`` from an array sliced once at bind time, at most
    one ``extend`` per pair column), so nothing is emitted per
    instruction on the way through.
    """

    def __init__(self, n_static: int, leader: int = -1,
                 loop_mode: bool = False):
        self.n_static = n_static
        self.leader = leader
        #: when the trace has an exit targeting its own leader, the
        #: block iterates internally: the backedge site re-enters the
        #: top while ``room`` allows
        self.loop_mode = loop_mode
        self.body: list[str] = []
        self.consts: list[str] = []
        self.entries: list[tuple] = []  # (pc, op, lat, fall_next, reads, writes)
        #: the entries' read locs, read values, write locs and write
        #: values as source text, kept in step for the fault exits
        self.prefix: tuple[list[str], ...] = ([], [], [], [])
        #: per register file, the name holding each register's value
        self.regmaps: dict[str, dict[int, str]] = {"i": {}, "f": {}}
        self.site = 0
        self.closed = False        # an unconditional terminator was emitted
        self.uses_fexit = False
        self.full_size: int | None = None
        self.final_ret: int | None = None   # next pc for J/JAL/HALT ends
        self.final_dyn: str | None = None   # next-pc expression for JR
        self.temps = 0  # wrap temps t1, t2, ... numbered per block

    # -- operand helpers ------------------------------------------------
    def _read(self, file: str, r: int, off: int) -> tuple[int, str]:
        """A source register's location and the name of its value,
        loaded into a local on first use."""
        regs, base, tag, _ = _REGFILE[file]
        if file == "i" and r == 0:
            return 0, "0"  # r0 is hardwired zero; skip the list load
        regmap = self.regmaps[file]
        name = regmap.get(r)
        if name is None:
            name = regmap[r] = f"{tag}{r}_{off}"
            self.body.append(f"{name} = {regs}[{r}]")
        return base + r, name

    def _write(self, file: str, rd: int, text: str, writes: list, *,
               off: int | None = None, value=None) -> None:
        """Write ``text`` to rd: with ``off``, through a new result temp;
        else as is (a literal or an existing temp), recorded as
        ``value``.  An int destination of r0 discards the write."""
        regs, base, _, tag = _REGFILE[file]
        if file == "i" and rd == 0:
            return
        if off is not None:
            value = f"{tag}{rd}_{off}"
            self.body.append(f"{value} = {text}")
            text = value
        self.body.append(f"{regs}[{rd}] = {text}")
        self.regmaps[file][rd] = text
        writes.append((base + rd, value))

    def _wrap(self, e: str) -> str:
        self.temps += 1
        return wrap64(e, f"t{self.temps}")

    def _faults(self, spec, stage: str, names: dict, off: int, pc: int,
                line: int, indent: str = "") -> None:
        """Emit the entry's faults checked at ``stage`` as guarded fault
        exits: the shared ``_fexit`` helper flushes the executed
        prefix, restores machine state, and builds the ``VMError``
        with the interpreter's exact message.

        ``Machine.run`` discards the records of a faulting run and
        counts the retired instructions from the pc column alone, so
        the guard of a loaded float word (stage ``"v"``) flushes only
        that column: its exit costs no prefix-sized code to compile.
        """
        for cond, msg, *arg in spec.faults_at(stage):
            self.uses_fexit = True
            msg = repr(msg) + "".join(f" % {names[x]}" for x in arg)
            # exactly the ``off`` instructions before us
            flush = ", ".join(
                "(" + ", ".join(xs) + ",)" if xs and stage != "v" else "()"
                for xs in self.prefix)
            self.body.append(
                f"{indent}if {substitute(cond, names)}: raise _fexit({pc}, "
                f"{off}, {line}, {msg}, {flush})"
            )

    def _retire(self, entry: tuple) -> None:
        """Append an instruction's entry (see ``entries``)."""
        self.entries.append(entry)
        rl, rv, wl, wv = self.prefix
        for locs, vals, pairs in ((rl, rv, entry[4]), (wl, wv, entry[5])):
            for loc, val in pairs:
                locs.append(self._fmt(loc))
                vals.append(self._fmt(val))

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
        out = [f"PX({qa})"]
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
        """Translate one instruction at path offset ``off`` from its
        :data:`~repro.isa.table.ISA` entry: register temps and literals
        are substituted for the entry's operand names.

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
        spec = ISA[op]
        fmt = spec.operands
        dfile, sfile, tfile = spec.files
        mem = spec.is_load or spec.is_store
        B = self.body.append
        reads: list = []
        writes: list = []
        nxt: int = pc + 1
        names: dict[str, str] = {}
        if "i" in fmt:
            imm = int(inst.imm)
            names["i"] = _lit(imm)
            names["n"] = str(imm & 63)  # a shift amount folds here
        elif "f" in fmt:
            imm = float(inst.imm)
            names["i"] = _lit(imm)

        if "s" in fmt or mem:
            loc, names["a"] = self._read(sfile, inst.rs1, off)
            reads.append((loc, names["a"]))
        if mem:
            ad = names["ad"] = f"ad{off}"
            if inst.imm:
                B(f"{ad} = {names['a']} + {_lit(inst.imm)}")
            else:
                ad = names["ad"] = names["a"]
            self._faults(spec, "ad", names, off, pc, inst.line)
        if "t" in fmt:
            loc, names["b"] = self._read(tfile, inst.rs2, off)
            reads.append((loc, names["b"]))
            names["n"] = f"({names['b']} & 63)"
        if spec.faults:
            self._faults(spec, "", names, off, pc, inst.line)
        if spec.is_load:
            v = names["v"] = f"v{off}"
            B(f"{v} = mem_get({ad}, 0)")
            if dfile == "f":
                B(f"if {v}.__class__ is not float: {v} = _float({v})")
            else:
                B(f"if {v}.__class__ is float:")
                self._faults(spec, "v", names, off, pc, inst.line, "    ")
                B(f"    {v} = _int({v})")
            reads.append((f"{MEM_LOC_BASE} + {ad}", v))

        if spec.cls is OpClass.BRANCH:
            # the record's next pc is the direction the block keeps
            # going; the other side exits with its own prefix flush
            cond, stay, leave = spec.expr, pc + 1, int(inst.imm)
            if invert:
                cond, stay, leave = _negated(cond), leave, stay
            self._retire((pc, int(op), inst.latency, stay, reads, writes))
            self._branch_exit(substitute(cond, names), leave)
            return
        if spec.is_store:
            value = substitute(spec.expr, names)
            B(f"memory[{ad}] = {value}")
            writes.append((f"{MEM_LOC_BASE} + {ad}", value))
        elif spec.expr in ("i", "link"):  # a constant: written as a literal
            value = imm if spec.expr == "i" else pc + 1
            self._write(dfile, inst.rd, _lit(value), writes, value=value)
        elif spec.is_load and dfile == "f":  # the converted word itself
            self._write(dfile, inst.rd, v, writes, value=v)
        elif spec.expr is not None:
            expr = substitute(spec.expr, names)
            if spec.wrap:
                expr = self._wrap(expr)
            self._write(dfile, inst.rd, expr, writes, off=off)

        if "L" in fmt:  # j / jal
            nxt = int(inst.imm)
            if not follow:
                self.closed = True
                self.final_ret = nxt
        elif spec.cls is OpClass.JUMP:  # jr
            nxt = 0  # placeholder; patched with the dynamic target
            self.closed = True
            self.final_dyn = names["a"]
        elif op is Opcode.HALT:
            B("m.halted = True")
            B(f"m.pc = {pc}")
            nxt = pc
            self.closed = True
            self.final_ret = self.n_static  # out-of-range sentinel;
            # the driver breaks on the halted flag and restores m.pc
        self._retire((pc, int(op), inst.latency, nxt, reads, writes))

    def source(self, fallthrough: int) -> str:
        """Assemble the factory source after all instructions emitted."""
        size = len(self.entries)
        self.full_size = size
        s = self.site
        self.site += 1
        body = list(self.body)
        body += self._flush_lines(size, None, s)
        if self.final_dyn is not None:  # JR: patch the dynamic target
            body.append(f"PCN[-1] = {self.final_dyn}")
            if self.loop_mode:
                body.append(f"return (kt + {size}, {self.final_dyn})")
            else:
                body.append(f"return ({size}, {self.final_dyn})")
        else:
            npc = self.final_ret if self.closed else fallthrough
            if self.loop_mode and npc == self.leader:
                body += [
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
            "def _factory(m, regs, fregs, memory, mem_get, PCN, PX, "
            "RL, RLx, RVx, WL, WLx, WVx, VMError, trunc):",
            "    _int = int; _float = float; _abs = abs; _A = _array",
        ]
        out += [f"    {line}" for line in heads]
        out += [f"    {line}" for line in self.consts]
        if self.uses_fexit:
            out += [
                "    def _fexit(pc, off, line, msg, "
                "rlocs, rvals, wlocs, wvals):",
                "        PX(_q[:2 * off])",
                "        if rlocs:",
                "            RLx(rlocs)",
                "            RVx(rvals)",
                "        if wlocs:",
                "            WLx(wlocs)",
                "            WVx(wvals)",
                "        m.pc = pc",
                "        return VMError(msg, pc=pc, line=line)",
            ]
        out.append("    def _block(room):")
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
        elif op in _BRANCHES and off < last:
            nxt = path[off + 1]
            target = int(inst.imm)
            if nxt == target and nxt != pc + 1:
                invert = True
                exit_target = pc + 1
            else:
                exit_target = target
        elif op in _BRANCHES:
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


#: Drains of at least this many instructions gather and sum their
#: per-pc columns with numpy; below it the stdlib loops are faster
#: (measured break-even about 100 instructions, 2-CPU x86-64 host).
_NP_MIN = 128


def _bounds_from_counts(counts: list[int], pcs: array) -> array:
    """Cumulative pair-count column for an executed-pc column.

    ``counts[pc]`` is the (static) number of read or write pairs the
    instruction at ``pc`` emits; the bounds column is its running sum
    with a leading 0.  The numpy path is a gather + cumsum over the
    whole run; the stdlib path streams through ``accumulate``.
    """
    if _np is not None and len(pcs) >= _NP_MIN:
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
    if _np is not None and n >= _NP_MIN:
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
