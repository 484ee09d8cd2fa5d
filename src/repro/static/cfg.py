"""ISA-level control-flow facts: blocks, loops, trip counts, frequencies.

Everything in this module is derived from a decoded
:class:`~repro.vm.program.Program` alone — the text segment is never
executed.  The central products are:

- :func:`build_cfg` — basic blocks with successor/predecessor edges
  (``JAL`` is treated as a straight-line call: control returns to the
  fall-through, with the callee entry recorded separately so
  interprocedural consumers can follow it);
- :func:`ControlFlowGraph.dominators` / :func:`find_loops` — natural
  loops from back edges, merged per header, nested by containment;
- :func:`infer_trip_count` — loop bounds recovered from the
  ``li``-init / ``addi``-step / compare-branch idiom the ``repro.lang``
  compiler and the hand-written kernels both emit.  Unknown bounds
  degrade to :data:`DEFAULT_TRIP_COUNT` with ``exact=False`` rather
  than failing;
- :func:`estimate_frequencies` — per-block dynamic execution counts
  (products of enclosing trip counts), optionally rescaled so the
  whole-program total matches an instruction budget the way a
  truncated run would: by cutting outer-loop repetitions first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpClass, Opcode, op_class
from repro.isa.registers import FP_REG_BASE
from repro.isa.table import ISA
from repro.vm.program import Program

#: Branch opcodes: the blocks they end have two successors.
_BRANCHES = frozenset(op for op, s in ISA.items() if s.cls is OpClass.BRANCH)
#: Trip count assumed for loops whose bounds resist static inference.
DEFAULT_TRIP_COUNT = 16

#: The one place the analyses depart from the ISA table: ``flw``'s
#: destination is read as an integer register (the machine writes an
#: fp one).  Every static answer, and the error bands in
#: ``BENCH_static.json``, were recorded with it; ROADMAP item 10.
_INT_DEST = Opcode.FLW


def _location_bases(op: Opcode) -> tuple[int | None, int | None, int | None]:
    """The location id of register 0 in the file ``op`` reads rs1 from,
    reads rs2 from and writes rd to (``None``: the field is unused), by
    the rule the machine's tiers apply: an ``s`` or memory operand reads
    rs1, a ``t`` operand reads rs2, and a ``d`` operand writes rd."""
    spec = ISA[op]
    fmt = spec.operands
    dfile, sfile, tfile = spec.files
    if op is _INT_DEST:
        dfile = "i"

    def base(file: str) -> int:
        return FP_REG_BASE if file == "f" else 0

    return (
        base(sfile) if "s" in fmt or spec.is_load or spec.is_store else None,
        base(tfile) if "t" in fmt else None,
        base(dfile) if "d" in fmt else None,
    )


_BASES = {op: _location_bases(op) for op in Opcode}


def stored_value(inst) -> int:
    """Location id of the register a store writes to memory (``r0``
    included)."""
    return _BASES[inst.op][1] + inst.rs2


def reg_reads(inst) -> tuple[int, ...]:
    """Location ids of the registers a static instruction reads, rs1
    before rs2.

    ``r0`` is hardwired zero, so it never appears as a read — its
    value cannot vary, which matters for the variance analysis.
    """
    s, t, _ = _BASES[inst.op]
    out = ()
    if s is not None and s + inst.rs1:
        out = (s + inst.rs1,)
    if t is not None and t + inst.rs2:
        out += (t + inst.rs2,)
    return out


def reg_writes(inst) -> tuple[int, ...]:
    """Location ids of the registers a static instruction writes
    (writes to ``r0`` are dropped by the machine)."""
    d = _BASES[inst.op][2]
    if d is None or not d + inst.rd:
        return ()
    return (d + inst.rd,)


@dataclass(slots=True)
class BasicBlock:
    """A maximal straight-line instruction run ``[start, stop)``."""

    index: int
    start: int
    stop: int
    successors: tuple[int, ...] = ()
    predecessors: tuple[int, ...] = ()
    #: pc of a JAL target when the block ends in a call (else None)
    call_target: int | None = None

    def __len__(self) -> int:
        return self.stop - self.start

    def pcs(self) -> range:
        return range(self.start, self.stop)


@dataclass(slots=True)
class Loop:
    """A natural loop: header block + body block set."""

    header: int
    blocks: frozenset[int]
    #: immediate parent loop index in ``ControlFlowGraph.loops`` (or None)
    parent: int | None = None
    #: 1 for outermost loops, parents' depth + 1 otherwise
    depth: int = 1
    #: estimated iterations each time the loop is entered
    trip_count: float = float(DEFAULT_TRIP_COUNT)
    #: True when the trip count was recovered from literal bounds
    exact: bool = False


@dataclass(slots=True)
class ControlFlowGraph:
    """Blocks, edges and loop structure of one program."""

    program: Program
    blocks: list[BasicBlock] = field(default_factory=list)
    #: pc -> owning block index
    block_of: dict[int, int] = field(default_factory=dict)
    #: reachable block indices (from pc 0)
    reachable: frozenset[int] = frozenset()
    loops: list[Loop] = field(default_factory=list)
    #: block index -> innermost loop index (or None)
    loop_of_block: dict[int, int | None] = field(default_factory=dict)

    def loops_enclosing(self, block: int) -> list[int]:
        """Loop indices containing ``block``, outermost first."""
        chain: list[int] = []
        loop = self.loop_of_block.get(block)
        while loop is not None:
            chain.append(loop)
            loop = self.loops[loop].parent
        chain.reverse()
        return chain

    def depth_of_block(self, block: int) -> int:
        """Loop-nest depth of a block (0 = not in any loop)."""
        loop = self.loop_of_block.get(block)
        return 0 if loop is None else self.loops[loop].depth


def build_cfg(program: Program) -> ControlFlowGraph:
    """Partition a program into basic blocks and wire the CFG.

    ``JAL`` falls through (call-return abstraction) with the callee
    recorded in :attr:`BasicBlock.call_target`; ``JR`` ends a block
    with no successors (returns/indirect jumps are opaque); ``HALT``
    ends a block with no successors.
    """
    insts = program.instructions
    n = len(insts)
    cfg = ControlFlowGraph(program=program)
    if n == 0:
        return cfg

    leaders = {0}
    for pc, inst in enumerate(insts):
        op = inst.op
        if op in _BRANCHES or op in (Opcode.J, Opcode.JAL):
            target = int(inst.imm)
            if 0 <= target < n:
                leaders.add(target)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif op in (Opcode.JR, Opcode.HALT):
            if pc + 1 < n:
                leaders.add(pc + 1)

    starts = sorted(leaders)
    bounds = starts + [n]
    succ: list[list[int]] = []
    for bi, start in enumerate(starts):
        stop = bounds[bi + 1]
        block = BasicBlock(index=bi, start=start, stop=stop)
        cfg.blocks.append(block)
        for pc in range(start, stop):
            cfg.block_of[pc] = bi

    for block in cfg.blocks:
        last = insts[block.stop - 1]
        op = last.op
        out: list[int] = []
        if op in _BRANCHES:
            target = int(last.imm)
            if 0 <= target < n:
                out.append(cfg.block_of[target])
            if block.stop < n:
                out.append(cfg.block_of[block.stop])
        elif op is Opcode.J:
            target = int(last.imm)
            if 0 <= target < n:
                out.append(cfg.block_of[target])
        elif op is Opcode.JAL:
            block.call_target = int(last.imm)
            if block.stop < n:
                out.append(cfg.block_of[block.stop])
        elif op in (Opcode.JR, Opcode.HALT):
            pass
        elif block.stop < n:  # plain fall-through
            out.append(cfg.block_of[block.stop])
        # dedupe, keep order (branch target before fall-through)
        seen: set[int] = set()
        block.successors = tuple(
            s for s in out if not (s in seen or seen.add(s))
        )
        succ.append(list(block.successors))

    preds: dict[int, list[int]] = {b.index: [] for b in cfg.blocks}
    for block in cfg.blocks:
        for s in block.successors:
            preds[s].append(block.index)
    for block in cfg.blocks:
        block.predecessors = tuple(preds[block.index])

    # interprocedural reachability: follow normal edges and call edges
    worklist = [0]
    reachable: set[int] = set()
    while worklist:
        b = worklist.pop()
        if b in reachable:
            continue
        reachable.add(b)
        worklist.extend(cfg.blocks[b].successors)
        target = cfg.blocks[b].call_target
        if target is not None and 0 <= target < n:
            worklist.append(cfg.block_of[target])
    cfg.reachable = frozenset(reachable)

    _attach_loops(cfg)
    return cfg


def _dominators(cfg: ControlFlowGraph) -> dict[int, set[int]]:
    """Iterative dominator sets over the *intra-procedural* edges.

    Entry points are block 0 plus every call target (each function is
    its own little flow graph; a callee's header is not dominated by
    its callers under the call-return abstraction).
    """
    entries = {0}
    for block in cfg.blocks:
        if block.call_target is not None:
            entries.add(cfg.block_of[block.call_target])
    nodes = set(cfg.reachable)
    dom: dict[int, set[int]] = {}
    for b in nodes:
        dom[b] = {b} if b in entries else set(nodes)
    changed = True
    while changed:
        changed = False
        for b in sorted(nodes):
            if b in entries:
                continue
            preds = [p for p in cfg.blocks[b].predecessors if p in nodes]
            if preds:
                new = set.intersection(*(dom[p] for p in preds))
            else:
                new = set()
            new = new | {b}
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def _attach_loops(cfg: ControlFlowGraph) -> None:
    """Find natural loops, merge per header, nest, infer trip counts."""
    dom = _dominators(cfg)
    bodies: dict[int, set[int]] = {}
    for block in cfg.blocks:
        if block.index not in cfg.reachable:
            continue
        for s in block.successors:
            if s in dom.get(block.index, set()):
                # back edge block -> s
                body = bodies.setdefault(s, {s})
                stack = [block.index]
                while stack:
                    b = stack.pop()
                    if b in body:
                        continue
                    body.add(b)
                    stack.extend(
                        p for p in cfg.blocks[b].predecessors
                        if p in cfg.reachable
                    )
                bodies[s] = body

    loops = [
        Loop(header=header, blocks=frozenset(body))
        for header, body in sorted(bodies.items())
    ]
    # nesting: the parent is the smallest strictly-containing loop
    for i, loop in enumerate(loops):
        best: int | None = None
        for j, other in enumerate(loops):
            if i == j or loop.header not in other.blocks:
                continue
            if other.blocks == loop.blocks:
                continue
            if not loop.blocks <= other.blocks:
                continue
            if best is None or other.blocks < loops[best].blocks:
                best = j
        loop.parent = best
    for loop in loops:
        depth = 1
        parent = loop.parent
        while parent is not None:
            depth += 1
            parent = loops[parent].parent
        loop.depth = depth

    loop_of_block: dict[int, int | None] = {
        b.index: None for b in cfg.blocks
    }
    # innermost loop wins: assign deeper loops later
    for li in sorted(range(len(loops)), key=lambda k: loops[k].depth):
        for b in loops[li].blocks:
            loop_of_block[b] = li

    cfg.loops = loops
    cfg.loop_of_block = loop_of_block

    for i, loop in enumerate(loops):
        trip, exact = infer_trip_count(cfg, i, dom)
        loop.trip_count = trip
        loop.exact = exact


def _constant_defs(cfg: ControlFlowGraph) -> dict[int, list[tuple[int, int]]]:
    """``reg -> [(pc, constant)]`` for every LI of an int literal."""
    out: dict[int, list[tuple[int, int]]] = {}
    for pc, inst in enumerate(cfg.program.instructions):
        if inst.op is Opcode.LI and isinstance(inst.imm, int):
            out.setdefault(inst.rd, []).append((pc, int(inst.imm)))
    return out


def _reaching_constant(
    cfg: ControlFlowGraph,
    reg: int,
    loop: Loop,
    dom: dict[int, set[int]],
    consts: dict[int, list[tuple[int, int]]],
) -> int | None:
    """The literal a register holds on loop entry, if provable.

    A definition qualifies when it is the *only* write to ``reg``
    outside the loop that sits in a block dominating the header, and
    no other out-of-loop write could intervene.  This covers the
    ``li``-before-loop idiom without a full dataflow solver.
    """
    candidates: list[int] = []
    writes_outside = 0
    for pc, inst in enumerate(cfg.program.instructions):
        block = cfg.block_of.get(pc)
        if block is None or block in loop.blocks:
            continue
        if reg in reg_writes(inst):
            writes_outside += 1
            if (
                inst.op is Opcode.LI
                and isinstance(inst.imm, int)
                and block in dom.get(loop.header, set())
            ):
                candidates.append(int(inst.imm))
    if writes_outside == 1 and len(candidates) == 1:
        return candidates[0]
    if len(candidates) == 1 and writes_outside == len(candidates):
        return candidates[0]
    return None


def _loop_step(cfg: ControlFlowGraph, loop: Loop, reg: int) -> int | None:
    """Constant per-iteration increment of ``reg`` inside the loop."""
    step = 0
    found = False
    for b in loop.blocks:
        block = cfg.blocks[b]
        for pc in block.pcs():
            inst = cfg.program.instructions[pc]
            if reg not in reg_writes(inst):
                continue
            if (
                inst.op is Opcode.ADDI
                and inst.rs1 == reg
                and isinstance(inst.imm, int)
            ):
                step += int(inst.imm)
                found = True
            else:
                return None  # non-affine update
    return step if found and step != 0 else None


def infer_trip_count(
    cfg: ControlFlowGraph,
    loop_index: int,
    dom: dict[int, set[int]] | None = None,
) -> tuple[float, bool]:
    """Estimate iterations per entry for one loop.

    Recognises the compare-and-branch idiom: a conditional branch in
    the loop whose taken/fall-through edge leaves the loop, comparing
    an affine induction register against a register (or ``r0``) with a
    provable entry constant.  Returns ``(trips, exact)``;
    unrecognised loops report ``(DEFAULT_TRIP_COUNT, False)``.
    """
    loop = cfg.loops[loop_index]
    if dom is None:
        dom = _dominators(cfg)
    consts = _constant_defs(cfg)
    insts = cfg.program.instructions

    best: tuple[float, bool] | None = None
    for b in loop.blocks:
        block = cfg.blocks[b]
        last = insts[block.stop - 1]
        if last.op not in _BRANCHES:
            continue
        # the branch must decide between staying and leaving
        stays = [s for s in block.successors if s in loop.blocks]
        leaves = [s for s in block.successors if s not in loop.blocks]
        if not stays or not leaves:
            continue
        taken_block = cfg.block_of.get(int(last.imm))
        taken_stays = taken_block in loop.blocks

        if last.rs2 == 0 and last.op in (Opcode.BEQ, Opcode.BNE):
            candidate = _compare_trips(
                cfg, loop, b, last, taken_stays, dom, consts
            )
            if candidate is not None:
                if best is None or candidate[0] < best[0]:
                    best = candidate
                continue

        for ind_reg, bound_reg, flipped in (
            (last.rs1, last.rs2, False),
            (last.rs2, last.rs1, True),
        ):
            step = _loop_step(cfg, loop, ind_reg)
            if step is None:
                continue
            init = _reaching_constant(cfg, ind_reg, loop, dom, consts)
            bound = (
                0 if bound_reg == 0
                else _reaching_constant(cfg, bound_reg, loop, dom, consts)
            )
            if bound is None:
                # in-loop constant bound (li inside the loop body)
                bound = _in_loop_constant(cfg, loop, bound_reg)
            if init is None or bound is None:
                continue
            trips = _solve_trips(
                last.op, init, bound, step, flipped, taken_stays
            )
            if trips is None:
                continue
            candidate = (float(max(trips, 1)), True)
            if best is None or candidate[0] < best[0]:
                best = candidate
    if best is not None:
        return best
    return float(DEFAULT_TRIP_COUNT), False


def _block_const_before(
    cfg: ControlFlowGraph, block: BasicBlock, pc: int, reg: int
) -> int | None:
    """The literal ``reg`` holds at ``pc`` when defined by an in-block li."""
    if reg == 0:
        return 0
    insts = cfg.program.instructions
    for p in range(pc - 1, block.start - 1, -1):
        inst = insts[p]
        if reg in reg_writes(inst):
            if inst.op is Opcode.LI and isinstance(inst.imm, int):
                return int(inst.imm)
            return None
    return None


def _loads_slot_before(
    cfg: ControlFlowGraph,
    block: BasicBlock,
    pc: int,
    reg: int,
    slot: tuple[int, int],
) -> bool:
    """Whether ``reg``'s last in-block def before ``pc`` loads ``slot``."""
    insts = cfg.program.instructions
    for p in range(pc - 1, block.start - 1, -1):
        inst = insts[p]
        if reg in reg_writes(inst):
            return (
                inst.op is Opcode.LW
                and inst.rs1 == slot[0]
                and int(inst.imm) == slot[1]
            )
    return False


def _slot_step(
    cfg: ControlFlowGraph, loop: Loop, slot: tuple[int, int]
) -> int | None:
    """Constant per-iteration increment of a memory-resident counter.

    Compilers that keep locals in stack slots (the RL compiler does)
    emit ``lw x, off(fp); li c; add x, x, c; sw x, off(fp)`` per
    iteration; every in-loop store to the slot must match the same
    increment for the step to be provable.
    """
    base, off = slot
    insts = cfg.program.instructions
    step: int | None = None
    for b in loop.blocks:
        block = cfg.blocks[b]
        for pc in block.pcs():
            inst = insts[pc]
            if (
                inst.op is not Opcode.SW
                or inst.rs1 != base
                or int(inst.imm) != off
            ):
                continue
            def_pc = None
            for p in range(pc - 1, block.start - 1, -1):
                if inst.rs2 in reg_writes(insts[p]):
                    def_pc = p
                    break
            if def_pc is None:
                return None
            d = insts[def_pc]
            inc: int | None = None
            if d.op is Opcode.ADDI and _loads_slot_before(
                cfg, block, def_pc, d.rs1, slot
            ):
                inc = int(d.imm)
            elif d.op is Opcode.ADD:
                for x, y in ((d.rs1, d.rs2), (d.rs2, d.rs1)):
                    if _loads_slot_before(cfg, block, def_pc, x, slot):
                        c = _block_const_before(cfg, block, def_pc, y)
                        if c is not None:
                            inc = c
                        break
            if inc is None:
                return None
            if step is None:
                step = inc
            elif step != inc:
                return None
    return step


def _slot_init(
    cfg: ControlFlowGraph,
    loop: Loop,
    slot: tuple[int, int],
    dom: dict[int, set[int]],
) -> int | None:
    """The literal a memory-resident counter holds on loop entry."""
    base, off = slot
    insts = cfg.program.instructions
    header_dom = dom.get(loop.header, set())
    inits: list[int | None] = []
    for block in cfg.blocks:
        if block.index in loop.blocks or block.index not in header_dom:
            continue
        for pc in block.pcs():
            inst = insts[pc]
            if (
                inst.op is Opcode.SW
                and inst.rs1 == base
                and int(inst.imm) == off
            ):
                inits.append(_block_const_before(cfg, block, pc, inst.rs2))
    if len(inits) == 1 and inits[0] is not None:
        return inits[0]
    return None


def _compare_trips(
    cfg: ControlFlowGraph,
    loop: Loop,
    block_index: int,
    branch,
    taken_stays: bool,
    dom: dict[int, set[int]],
    consts: dict[int, list[tuple[int, int]]],
) -> tuple[float, bool] | None:
    """Trips for the materialised-compare idiom: slt/seq then beq/bne r0.

    The RL compiler (like most simple code generators) lowers ``while
    (i < n)`` to a compare writing 0/1 followed by a branch against
    ``r0``, with the counter living in a stack slot.  This recognises
    both register and memory-slot induction through the compare.
    """
    block = cfg.blocks[block_index]
    insts = cfg.program.instructions
    cmp_pc = None
    for pc in range(block.stop - 2, block.start - 1, -1):
        if branch.rs1 in reg_writes(insts[pc]):
            cmp_pc = pc
            break
    if cmp_pc is None:
        return None
    cmp_inst = insts[cmp_pc]
    if cmp_inst.op not in (Opcode.SLT, Opcode.SLTI, Opcode.SEQ):
        return None
    synth_op = Opcode.BEQ if cmp_inst.op is Opcode.SEQ else Opcode.BLT
    # beq t, r0 branches when the compare came out FALSE
    if branch.op is Opcode.BEQ:
        taken_stays = not taken_stays

    if cmp_inst.op is Opcode.SLTI:
        bound: int | None = int(cmp_inst.imm)
    else:
        bound_reg = cmp_inst.rs2
        bound = _block_const_before(cfg, block, cmp_pc, bound_reg)
        if bound is None:
            bound = (
                0 if bound_reg == 0
                else _reaching_constant(cfg, bound_reg, loop, dom, consts)
            )
        if bound is None:
            bound = _in_loop_constant(cfg, loop, bound_reg)
    if bound is None:
        return None

    a_reg = cmp_inst.rs1
    slot: tuple[int, int] | None = None
    for pc in range(cmp_pc - 1, block.start - 1, -1):
        if a_reg in reg_writes(insts[pc]):
            ld = insts[pc]
            if ld.op is Opcode.LW:
                slot = (ld.rs1, int(ld.imm))
            break
    if slot is not None:
        step = _slot_step(cfg, loop, slot)
        init = _slot_init(cfg, loop, slot, dom)
    else:
        step = _loop_step(cfg, loop, a_reg)
        init = _reaching_constant(cfg, a_reg, loop, dom, consts)
    if step is None or init is None:
        return None
    trips = _solve_trips(synth_op, init, bound, step, False, taken_stays)
    if trips is None:
        return None
    return (float(max(trips, 1)), True)


def _in_loop_constant(cfg: ControlFlowGraph, loop: Loop, reg: int) -> int | None:
    """A bound register reloaded with the same literal every iteration."""
    values: set[int] = set()
    for b in loop.blocks:
        for pc in cfg.blocks[b].pcs():
            inst = cfg.program.instructions[pc]
            if reg in reg_writes(inst):
                if inst.op is Opcode.LI and isinstance(inst.imm, int):
                    values.add(int(inst.imm))
                else:
                    return None
    return values.pop() if len(values) == 1 else None


def _solve_trips(
    op: Opcode, init: int, bound: int, step: int,
    flipped: bool, taken_stays: bool,
) -> int | None:
    """Iterations until the compare-branch stops staying in the loop.

    ``flipped`` means the induction register is the branch's second
    operand; ``taken_stays`` means the taken edge remains in the loop.
    Simulation in closed form: find the smallest k >= 0 where the
    "stay" condition fails, capped for pathological parameters.
    """
    def cond(x: int) -> bool:
        a, b = (bound, x) if flipped else (x, bound)
        if op is Opcode.BLT:
            taken = a < b
        elif op is Opcode.BGE:
            taken = a >= b
        elif op is Opcode.BLE:
            taken = a <= b
        elif op is Opcode.BGT:
            taken = a > b
        elif op is Opcode.BEQ:
            taken = a == b
        elif op is Opcode.BNE:
            taken = a != b
        else:  # pragma: no cover - _BRANCHES is exhaustive
            return False
        return taken if taken_stays else not taken

    # closed forms for the common monotone comparisons
    if op in (Opcode.BLT, Opcode.BGE, Opcode.BLE, Opcode.BGT):
        lo = init
        if not cond(lo):
            return 1  # body runs once in do-while shape before the test
        # distance to the bound in steps
        span = bound - init if step > 0 else init - bound
        if span <= 0:
            return 1
        import math

        k = math.ceil(span / abs(step))
        slack = 2  # <=/>= off-by-one; verify around the closed form
        for candidate in range(max(k - slack, 1), k + slack + 1):
            x = init + candidate * step
            if not cond(x):
                return candidate
        return k
    # equality tests: walk a bounded number of steps
    x = init
    for k in range(1, 1 << 16):
        x += step
        if not cond(x):
            return k
    return None


# ---------------------------------------------------------------------------
# value-repetition inference
# ---------------------------------------------------------------------------

#: compare-style ops: results are 0/1 regardless of input cardinality
_BOOL_OPS = frozenset({
    Opcode.SLT, Opcode.SEQ, Opcode.SLTI,
    Opcode.FEQ, Opcode.FLT, Opcode.FLE,
})
#: cardinality products beyond this are indistinguishable from "varies"
_CARD_CAP = 1e18


def data_regions(program: Program) -> list[tuple[int, int, float]]:
    """Per-label data regions as ``(start, end, cardinality)``.

    Cardinality is the number of distinct initialised words in the
    region — the static upper bound on what any load from it can
    produce.  Uniform regions (``.space`` scratch buffers assemble to
    all-zeros) are runtime-written, so their contents are unknowable
    statically and report ``inf``.
    """
    import math

    if not program.data_labels:
        return []
    starts = sorted(set(program.data_labels.values()))
    data_end = max(program.data) + 1 if program.data else starts[-1]
    regions: list[tuple[int, int, float]] = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else data_end
        values = {
            program.data[a] for a in range(start, end) if a in program.data
        }
        card = float(len(values)) if len(values) > 1 else math.inf
        regions.append((start, end, card))
    return regions


def loop_value_cardinality(
    cfg: ControlFlowGraph,
    loop_index: int,
    regions: list[tuple[int, int, float]] | None = None,
    dom: dict[int, set[int]] | None = None,
) -> dict[int, float]:
    """Distinct values each register can take across one loop's run.

    Control structure bounds *when* an instruction re-executes; data
    contents bound *what* it can see.  A register loaded through a
    small-alphabet region (a token stream of ten kinds, a text buffer
    over a sixteen-symbol alphabet) takes at most that many values no
    matter how many iterations run — and everything computed from it
    inherits the bound (products across sources, 2 for compare
    results, the divisor for a constant modulus).  The estimator
    clamps structural signature counts with these bounds, which is
    where kernels whose reuse is carried by value repetition rather
    than loop re-entry (the paper's ``gcc``/``compress`` pattern)
    become visible statically.

    Returns ``{register: cardinality}``; unbounded registers report
    ``inf``.  Registers invariant in the loop are not included —
    their trajectory is a single value per entry by definition.
    """
    import math

    loop = cfg.loops[loop_index]
    if regions is None:
        regions = data_regions(cfg.program)
    if dom is None:
        dom = _dominators(cfg)
    consts = _constant_defs(cfg)
    insts = cfg.program.instructions
    pcs = sorted(pc for b in loop.blocks for pc in cfg.blocks[b].pcs())

    def region_of(addr: int) -> tuple[int, int, float] | None:
        for start, end, card in regions:
            if start <= addr < end:
                return (start, end, card)
        return None

    # seed register facts reaching the loop: literal values (for
    # modulus divisors) and data-region base addresses
    known: dict[int, int] = {}
    tags: dict[int, tuple[int, int, float]] = {}
    seen: set[int] = set()
    for pc in pcs:
        inst = insts[pc]
        for r in reg_reads(inst):
            if r in seen:
                continue
            seen.add(r)
            value = _reaching_constant(cfg, r, loop, dom, consts)
            if value is None:
                continue
            known[r] = value
            region = region_of(value)
            if region is not None:
                tags[r] = region

    card: dict[int, float] = {}

    def card_of(reg: int) -> float:
        return card.get(reg, math.inf)

    def transfer(inst) -> float | None:
        op = inst.op
        reads = reg_reads(inst)
        if op in _BOOL_OPS:
            return 2.0
        if ISA[op].is_load:
            # the loaded value: bounded by the region's alphabet, and
            # by how many distinct addresses the base can form
            base = reads[0] if reads else None
            bound = math.inf
            if base is not None:
                region = tags.get(base)
                if region is not None:
                    bound = region[2]
                bound = min(bound, card_of(base)) if base in card else bound
            return bound
        if op is Opcode.REM and len(reads) == 2:
            divisor = known.get(inst.rs2)
            if divisor:
                return float(abs(divisor))
        if op is Opcode.ANDI and isinstance(inst.imm, int) and inst.imm >= 0:
            return float(inst.imm + 1)
        if not reads:
            return 1.0
        product = 1.0
        for r in reads:
            product *= card_of(r)
            if product > _CARD_CAP:
                return math.inf
        return product

    # fixpoint: variant registers start unbounded and only tighten
    # (min-combine), so a loop-carried ``tok = successor[tok]`` chain
    # settles at the region alphabet instead of diverging
    for _ in range(8):
        changed = False
        for pc in pcs:
            inst = insts[pc]
            writes = reg_writes(inst)
            if not writes:
                # in-body li feeding a modulus: record the literal
                continue
            if inst.op is Opcode.LI and isinstance(inst.imm, int):
                known.setdefault(writes[0], int(inst.imm))
                region = region_of(int(inst.imm))
                if region is not None and writes[0] not in tags:
                    tags[writes[0]] = region
            if inst.op in (Opcode.ADD, Opcode.ADDI, Opcode.MOV):
                for r in reg_reads(inst):
                    region = tags.get(r)
                    if region is not None and writes[0] not in tags:
                        tags[writes[0]] = region
                        changed = True
            new = transfer(inst)
            if new is not None and new < card.get(writes[0], math.inf):
                card[writes[0]] = new
                changed = True
        if not changed:
            break
    return card


@dataclass(slots=True)
class FrequencyEstimate:
    """Block execution counts plus the trip counts that produced them."""

    #: block index -> estimated dynamic executions
    blocks: dict[int, float]
    #: loop index -> iterations per entry *after* budget trimming
    eff_trips: dict[int, float]

    # dict-compatible read access (census and older callers index by
    # block): ``freqs[block_index]`` keeps working either way
    def __getitem__(self, block: int) -> float:
        return self.blocks[block]

    def get(self, block: int, default: float = 0.0) -> float:
        return self.blocks.get(block, default)


def estimate_frequencies(
    cfg: ControlFlowGraph,
    budget: int | None = None,
) -> FrequencyEstimate:
    """Estimated dynamic executions per *block*.

    The frequency of a block is the product of the trip counts of its
    enclosing loops, times the entry count of the outermost enclosing
    structure (1 for top-level code, the caller's frequency for called
    functions — approximated by the total frequency of call sites).

    With ``budget`` set, outer-loop repetitions are trimmed first —
    the shape a truncated run has — until the estimated dynamic
    instruction total fits the budget; whatever excess remains after
    every outer loop has hit one iteration (e.g. recursion-amplified
    call multipliers) is removed by a final uniform rescale.
    """
    eff_trips = {i: loop.trip_count for i, loop in enumerate(cfg.loops)}

    def block_freq(call_mult: dict[int, float]) -> dict[int, float]:
        freqs: dict[int, float] = {}
        for block in cfg.blocks:
            if block.index not in cfg.reachable:
                freqs[block.index] = 0.0
                continue
            f = call_mult.get(_function_entry(cfg, block.index), 1.0)
            for li in cfg.loops_enclosing(block.index):
                f *= max(eff_trips[li], 1.0)
            freqs[block.index] = f
        return freqs

    call_mult = _call_multipliers(cfg, eff_trips)
    freqs = block_freq(call_mult)

    if budget is not None:
        total = sum(
            freqs[b.index] * len(b) for b in cfg.blocks
        )
        guard = 0
        while total > budget and guard < 64:
            guard += 1
            outer = [
                i for i, loop in enumerate(cfg.loops)
                if loop.parent is None and eff_trips[i] > 1.0
            ]
            if not outer:
                break
            factor = budget / total
            for i in outer:
                eff_trips[i] = max(eff_trips[i] * factor, 1.0)
            call_mult = _call_multipliers(cfg, eff_trips)
            freqs = block_freq(call_mult)
            total = sum(freqs[b.index] * len(b) for b in cfg.blocks)
        if total > budget and total > 0:
            # loops are all at one iteration yet the total still
            # overshoots (recursion-amplified call multipliers):
            # truncate uniformly
            factor = budget / total
            freqs = {b: f * factor for b, f in freqs.items()}
    return FrequencyEstimate(blocks=freqs, eff_trips=eff_trips)


def function_entry(cfg: ControlFlowGraph, block: int) -> int:
    """Public alias of :func:`_function_entry` (0 = top-level code)."""
    return _function_entry(cfg, block)


def _function_entry(cfg: ControlFlowGraph, block: int) -> int:
    """The entry block of the function containing ``block``.

    Approximated as the closest call-target block at or before it
    (functions are laid out contiguously by both the RL compiler and
    the hand-written kernels); top-level code maps to block 0.
    """
    targets = sorted(
        cfg.block_of[b.call_target]
        for b in cfg.blocks
        if b.call_target is not None and b.call_target in cfg.block_of
    )
    entry = 0
    for t in targets:
        if t <= block:
            entry = max(entry, t)
    return entry


def _call_multipliers(
    cfg: ControlFlowGraph, eff_trips: dict[int, float]
) -> dict[int, float]:
    """Entry frequency per function-entry block, from call sites.

    One bounded fixpoint round (call graphs here are shallow; the RL
    compiler only emits direct calls).
    """
    mult: dict[int, float] = {0: 1.0}
    for _round in range(8):
        changed = False
        new: dict[int, float] = {0: 1.0}
        for block in cfg.blocks:
            if block.call_target is None or block.index not in cfg.reachable:
                continue
            entry = cfg.block_of.get(block.call_target)
            if entry is None:
                continue
            f = mult.get(_function_entry(cfg, block.index), 1.0)
            for li in cfg.loops_enclosing(block.index):
                f *= max(eff_trips[li], 1.0)
            new[entry] = new.get(entry, 0.0) + f
        for k, v in new.items():
            if abs(mult.get(k, 0.0) - v) > 1e-9:
                changed = True
        mult = new
        if not changed:
            break
    return mult


def class_census(
    cfg: ControlFlowGraph,
    freqs: FrequencyEstimate | dict[int, float] | None = None,
) -> dict[int, dict[str, float]]:
    """Instruction-class census per loop depth.

    Returns ``{depth: {op-class name: estimated dynamic count}}``;
    depth 0 is straight-line code outside any loop.
    """
    if freqs is None:
        freqs = estimate_frequencies(cfg)
    census: dict[int, dict[str, float]] = {}
    for block in cfg.blocks:
        if block.index not in cfg.reachable:
            continue
        depth = cfg.depth_of_block(block.index)
        bucket = census.setdefault(depth, {})
        f = freqs[block.index]
        for pc in block.pcs():
            name = op_class(cfg.program.instructions[pc].op).name
            bucket[name] = bucket.get(name, 0.0) + f
    return census
