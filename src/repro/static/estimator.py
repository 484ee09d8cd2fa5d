"""Simulation-free reuse-profile estimation.

The :class:`StaticReuseEstimator` predicts every figure-level metric a
dynamic :class:`~repro.exp.runner.BenchmarkProfile` carries — percent
reusable, trace count/size, base IPC, ILR/TLR speed-up sweeps —
purely from the structure the CFG passes recover.  No
:class:`~repro.vm.machine.Machine` ever runs.

The model rests on two observations about loop programs:

1. **Signature repetition follows value trajectories, not writes.**
   An instruction's inputs repeat whenever every enclosing loop in
   which they *vary across iterations* re-plays the same value
   sequence.  A register is variant in loop L only if it carries
   state across L's iterations (read before written in the body — an
   accumulator or a non-reset induction variable) or derives from one
   that does; a counter re-initialised inside an outer loop re-plays
   the identical trajectory every outer iteration, so everything it
   feeds is reusable across outer entries — exactly the re-scan reuse
   the paper measures.  Distinct signatures per instruction are the
   product of the (budget-trimmed) trip counts of its variant loops.

2. **The dataflow limit is a chain, not a sum.**  Iterations of one
   loop entry serialise through the loop-carried dependence cycle
   (the initiation interval II); separate entries re-start the chain
   and overlap freely.  The critical path of a nest is therefore
   ``trips*II`` of each level plus one instance of its deepest child,
   and base IPC is the instruction total over that path.  Finite
   windows bound how many iterations can overlap (window /
   iteration-footprint), and reuse shortens chains (ILR caps a chain
   edge at the reuse latency; TLR collapses covered iterations to one
   reuse operation).

All tunable constants live in :class:`ModelParams`; the validated
error of the model against dynamic profiles is recorded per kernel by
:mod:`repro.static.validate` into ``BENCH_static.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exp.runner import BenchmarkProfile
from repro.isa.opcodes import Opcode
from repro.static.cfg import (
    ControlFlowGraph,
    FrequencyEstimate,
    Loop,
    function_entry,
    reg_reads,
    reg_writes,
)
from repro.static.driver import AnalysisDriver, AnalysisUnit

#: Ops whose input signature is empty — every instance after the first
#: with the same pc is trivially reusable (constant loads, jumps).
_NO_INPUT_OPS = frozenset({
    Opcode.LI, Opcode.FLI, Opcode.J, Opcode.JAL, Opcode.NOP, Opcode.HALT,
})
_LOAD_OPS = frozenset({Opcode.LW, Opcode.FLW})
_STORE_OPS = frozenset({Opcode.SW, Opcode.FSW})
#: ops producing continuous FP values — trajectories essentially never
#: revisit a value, so dependence chains through them cannot collapse
_FP_VALUE_OPS = frozenset({
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FSQRT,
    Opcode.FNEG, Opcode.FABS, Opcode.FMOV, Opcode.FLW, Opcode.FLI,
    Opcode.CVTIF,
})
#: argument-passing registers (a0..a3) — what a call's signature
#: variance flows through
_ARG_REGS = (4, 5, 6, 7)


def _call_contexts(
    cfg: ControlFlowGraph,
    freqs: FrequencyEstimate,
    variants: dict[int, frozenset[int]],
    recursion_signatures: float = 4.0,
) -> dict[int, tuple[float, int | None]]:
    """Loop context inherited by each called function's body.

    For every function entry block, the dominant (highest-frequency)
    call site decides: how many *distinct* argument signatures reach
    the function (the product of the trip counts of site-enclosing
    loops in which an argument register is variant) and which loop
    the body's executions effectively iterate in (the site's
    innermost loop).  A lisp ``eval`` called from the driver loop
    re-sees the same expressions every outer pass — that is where
    interpreter-style kernels get their reuse, and a model that
    priced function bodies as straight-line code would miss it
    entirely.  Nested/recursive call chains resolve transitively with
    a cycle guard.
    """
    sites: dict[int, list[int]] = {}
    for b in cfg.blocks:
        if b.call_target is not None and b.index in cfg.reachable:
            entry = cfg.block_of.get(b.call_target)
            if entry is not None:
                sites.setdefault(entry, []).append(b.index)

    ctx: dict[int, tuple[float, int | None]] = {}

    def resolve(entry: int, stack: frozenset[int]) -> tuple[float, int | None]:
        if entry in ctx:
            return ctx[entry]
        if entry in stack:
            return (1.0, None)  # recursion adds calls, not signatures
        site_list = sites.get(entry)
        if not site_list:
            ctx[entry] = (1.0, None)
            return ctx[entry]
        distinct = 1.0
        inner: int | None = None
        outer = [
            s for s in site_list if function_entry(cfg, s) != entry
        ]
        if len(outer) < len(site_list):
            # self-recursive: calls at different recursion depths see
            # different arguments even from one outer invocation
            distinct *= recursion_signatures
        if outer:
            site = max(outer, key=lambda s: freqs.get(s, 0.0))
            for li in cfg.loops_enclosing(site):
                if any(r in variants[li] for r in _ARG_REGS):
                    distinct *= max(freqs.eff_trips.get(li, 1.0), 1.0)
                inner = li
            parent = function_entry(cfg, site)
            if parent != 0 and parent != entry:
                pd, pl = resolve(parent, stack | {entry})
                distinct *= pd
                if inner is None:
                    inner = pl
        ctx[entry] = (distinct, inner)
        return ctx[entry]

    for entry in list(sites):
        resolve(entry, frozenset())
    return ctx


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Calibration constants of the static model (see DESIGN.md §11)."""

    #: reuse-rate threshold for an instruction to join a trace span
    span_threshold: float = 0.5
    #: ILP assumed for called-function bodies (call instances from
    #: separate loop iterations overlap in the dataflow limit)
    call_ilp: float = 12.0
    #: haircut applied to load reuse per unit of store density in the
    #: same loop (stores may clobber re-read locations)
    load_store_interference: float = 0.5
    #: ILP assumed for straight-line (non-loop) code
    straight_line_ilp: float = 2.0
    #: fraction of the window usable as overlapped in-flight work
    #: (calibrated against the dynamic window-limited IPCs)
    window_efficiency: float = 0.07
    #: absolute IPC ceiling of the dataflow limit (resource proxy)
    ipc_cap: float = 512.0
    #: exponent turning mean body reuse rate into whole-iteration
    #: trace coverage (higher = stricter full-coverage requirement)
    coverage_exponent: float = 2.0
    #: floor on a collapsed iteration's chain contribution (cycles)
    collapsed_ii_floor: float = 0.25
    #: longest register-dependence cycle searched for the loop II
    max_recurrence_edges: int = 4


DEFAULT_PARAMS = ModelParams()


@dataclass(slots=True)
class StaticEstimate:
    """A predicted profile plus the evidence behind it."""

    profile: BenchmarkProfile
    #: {loop depth: {op-class name: estimated dynamic count}}
    census: dict[int, dict[str, float]] = field(default_factory=dict)
    #: one row per loop: header pc, depth, trips, exactness, II
    loop_table: list[dict] = field(default_factory=list)
    #: predicted distinct input signatures (reuse-table footprint proxy)
    signature_count: float = 0.0
    #: predicted reuse-distance summary (dynamic instructions between
    #: signature repeats), weighted over reusable instructions
    reuse_distance: dict[str, float] = field(default_factory=dict)
    #: places where the model fell back to a default assumption
    assumptions: list[str] = field(default_factory=list)


def loop_variant_registers(
    cfg: ControlFlowGraph, loop_index: int
) -> frozenset[int]:
    """Registers whose value *trajectory* differs across iterations.

    Seeds are the loop-carried registers — read in the body before
    any body write reaches them (approximated in pc order from the
    header, which matches the contiguous layout both the RL compiler
    and the hand-written kernels use).  Variance then propagates
    through in-loop definitions: a register written from a variant
    source is variant.  Registers reset at the top of every iteration
    (``li i, 0`` then counted up) re-play the same values, so they —
    and everything computed from them — stay invariant *for this
    loop*, which is what makes re-scan reuse visible statically.
    """
    loop = cfg.loops[loop_index]
    pcs = sorted(pc for b in loop.blocks for pc in cfg.blocks[b].pcs())
    insts = cfg.program.instructions

    first_read: dict[int, int] = {}
    first_write: dict[int, int] = {}
    for pc in pcs:
        inst = insts[pc]
        for r in reg_reads(inst):
            first_read.setdefault(r, pc)
        for r in reg_writes(inst):
            first_write.setdefault(r, pc)
    variant: set[int] = {
        r for r, wpc in first_write.items()
        if first_read.get(r, wpc + 1) < wpc
    }

    changed = True
    while changed:
        changed = False
        for pc in pcs:
            inst = insts[pc]
            writes = reg_writes(inst)
            if not writes or writes[0] in variant:
                continue
            if any(r in variant for r in reg_reads(inst)):
                variant.add(writes[0])
                changed = True
    return frozenset(variant)


def _loop_store_density(cfg: ControlFlowGraph, loop: Loop) -> float:
    """Fraction of the loop's static instructions that are stores."""
    total = stores = 0
    for b in loop.blocks:
        for pc in cfg.blocks[b].pcs():
            total += 1
            if cfg.program.instructions[pc].op in _STORE_OPS:
                stores += 1
    return stores / total if total else 0.0


def _recurrence_ii(
    cfg: ControlFlowGraph,
    loop: Loop,
    params: ModelParams,
    edge_latency=None,
) -> float:
    """The loop's initiation interval: its heaviest dependence cycle.

    Builds the intra-loop register dependence graph (edge ``src ->
    dst`` of weight ``latency`` for every instruction reading ``src``
    and writing ``dst``) and searches cycles up to
    ``params.max_recurrence_edges`` edges long.  Iterations of a loop
    overlap in the dataflow limit down to this latency — a counter
    loop recurs through its ``addi`` in 1 cycle, a float accumulation
    through its ``fadd`` in 4, a pointer chase through its ``lw`` in
    the load latency.

    ``edge_latency(pc, inst) -> float`` overrides the weight per
    instruction — the hook the reuse scenarios use to cap a reused
    edge at the reuse-test latency.
    """
    from repro.static.cfg import _block_const_before

    written: set[int] = set()
    for b in loop.blocks:
        for pc in cfg.blocks[b].pcs():
            written.update(reg_writes(cfg.program.instructions[pc]))

    def slot_node(block, pc, inst):
        """Pseudo-register for a stable memory slot, or None.

        A slot is stable when its base address is provably the same
        every iteration — a constant (globals) or a register the loop
        never rewrites (frame pointer).  Array walks advance their
        base, so they don't serialise and are excluded.
        """
        base = inst.rs1
        const = _block_const_before(cfg, block, pc, base)
        if const is not None:
            return ("mem", const + int(inst.imm))
        if base not in written:
            return ("mem", base, int(inst.imm))
        return None

    edges: dict[object, list[tuple[object, float]]] = {}
    loads: list[tuple[object, int, float]] = []
    stores: list[tuple[object, int, float]] = []
    for b in loop.blocks:
        block = cfg.blocks[b]
        for pc in block.pcs():
            inst = cfg.program.instructions[pc]
            if edge_latency is not None:
                lat = float(edge_latency(pc, inst))
            else:
                lat = float(max(inst.latency, 1))
            for dst in reg_writes(inst):
                for src in reg_reads(inst):
                    edges.setdefault(src, []).append((dst, lat))
            if inst.op in (Opcode.LW, Opcode.FLW):
                node = slot_node(block, pc, inst)
                if node is not None:
                    for dst in reg_writes(inst):
                        loads.append((node, dst, lat))
            elif inst.op in (Opcode.SW, Opcode.FSW):
                node = slot_node(block, pc, inst)
                if node is not None:
                    value = inst.rs2 + (
                        32 if inst.op is Opcode.FSW else 0
                    )
                    stores.append((node, value, lat))
    # memory-carried recurrence: only slots both stored and reloaded
    # in the body serialise iterations (counter / accumulator slots)
    stored_nodes = {node for node, _, _ in stores}
    for node, dst, lat in loads:
        if node in stored_nodes:
            edges.setdefault(node, []).append((dst, lat))
    for node, value, lat in stores:
        edges.setdefault(value, []).append((node, lat))

    best = 1.0

    def walk(start: int, node: int, weight: float, depth: int) -> None:
        nonlocal best
        if depth > params.max_recurrence_edges:
            return
        for nxt, lat in edges.get(node, ()):
            if nxt == start:
                if weight + lat > best:
                    best = weight + lat
            elif depth < params.max_recurrence_edges:
                walk(start, nxt, weight + lat, depth + 1)

    for start in edges:
        walk(start, start, 0.0, 1)
    return best


def _memory_ii(cfg: ControlFlowGraph, loop: Loop) -> float:
    """Cross-entry serial cost of a memory-carried recurrence.

    A loop that keeps its carried state in a stable memory slot (a
    stack-frame counter, a global accumulator) serialises its
    *entries* as well as its iterations: the slot address is the same
    on every entry, and memory is not renamed, so iteration k of
    entry n+1 still waits on the store of entry n.  The serial cost
    per iteration is the slot round-trip — reload, one update op,
    store back — which is what a dynamic dataflow limit actually
    observes (unlike the full II, whose cycle search conservatively
    mixes in same-register reuse).  Returns the heaviest round-trip
    over slots both stored and reloaded in the body, or 0.0 when the
    loop carries no state through memory.
    """
    from repro.static.cfg import _block_const_before

    written: set[int] = set()
    for b in loop.blocks:
        for pc in cfg.blocks[b].pcs():
            written.update(reg_writes(cfg.program.instructions[pc]))

    def slot_node(block, pc, inst):
        base = inst.rs1
        const = _block_const_before(cfg, block, pc, base)
        if const is not None:
            return ("mem", const + int(inst.imm))
        if base not in written:
            return ("mem", base, int(inst.imm))
        return None

    load_lat: dict[object, float] = {}
    store_lat: dict[object, float] = {}
    for b in loop.blocks:
        block = cfg.blocks[b]
        for pc in block.pcs():
            inst = cfg.program.instructions[pc]
            if inst.op in _LOAD_OPS or inst.op in _STORE_OPS:
                node = slot_node(block, pc, inst)
                if node is None:
                    continue
                lat = float(max(inst.latency, 1))
                side = (
                    load_lat if inst.op in _LOAD_OPS else store_lat
                )
                side[node] = max(side.get(node, 0.0), lat)
    best = 0.0
    for node in load_lat.keys() & store_lat.keys():
        best = max(best, load_lat[node] + store_lat[node] + 1.0)
    return best


@dataclass(slots=True)
class _InstModel:
    """Per-static-instruction model outputs (one block pass)."""

    pc: int
    freq: float
    reuse_rate: float
    latency: float
    #: dynamic distance between signature repeats (0 = never reuses)
    repeat_distance: float


@dataclass(slots=True)
class _LoopModel:
    """Per-loop aggregates feeding the cycle model."""

    index: int
    ii: float
    eff_trips: float
    #: total iterations across all entries (header executions)
    total_iters: float
    #: dynamic instructions per iteration
    iter_insts: float
    #: dynamic instructions whose *innermost* loop is this one
    own_work: float
    #: freq-weighted mean reuse rate over the body
    body_rate: float
    #: fraction of iterations assumed fully covered by one trace
    coverage: float
    #: slot round-trip of a memory-carried recurrence (0 = none);
    #: the slot survives re-entry, so entries serialise through it
    mem_ii: float = 0.0


class StaticReuseEstimator:
    """Predicts a dynamic reuse profile from program structure alone."""

    def __init__(
        self,
        driver: AnalysisDriver | None = None,
        params: ModelParams = DEFAULT_PARAMS,
    ) -> None:
        self.driver = driver or AnalysisDriver()
        self.params = params

    # -- the per-instruction model ------------------------------------

    def _instruction_models(
        self,
        cfg: ControlFlowGraph,
        freqs: FrequencyEstimate,
        variants: dict[int, frozenset[int]],
        assumptions: list[str],
        contexts: dict[int, tuple[float, int | None]],
        cards: dict[int, dict[int, float]] | None = None,
    ) -> dict[int, list[_InstModel]]:
        """Reuse rate and repeat distance per instruction, per block."""
        params = self.params
        cards = cards or {}
        insts = cfg.program.instructions
        store_density = {
            i: _loop_store_density(cfg, loop)
            for i, loop in enumerate(cfg.loops)
        }
        iter_size = _iteration_sizes(cfg, freqs)

        out: dict[int, list[_InstModel]] = {}
        for block in cfg.blocks:
            if block.index not in cfg.reachable:
                continue
            f = freqs[block.index]
            if f <= 0.0:
                continue
            chain = cfg.loops_enclosing(block.index)
            entry = function_entry(cfg, block.index)
            ctx_distinct, ctx_loop = (
                contexts.get(entry, (1.0, None)) if entry else (1.0, None)
            )
            models: list[_InstModel] = []
            for pc in block.pcs():
                inst = insts[pc]
                reads = reg_reads(inst)
                no_inputs = inst.op in _NO_INPUT_OPS or (
                    not reads and inst.op not in _LOAD_OPS
                )
                if no_inputs:
                    distinct = 1.0
                    innermost_variant = None
                else:
                    distinct = 1.0
                    innermost_variant = None
                    for li in chain:
                        if any(r in variants[li] for r in reads):
                            trips = max(freqs.eff_trips.get(li, 1.0), 1.0)
                            # value repetition: data contents bound
                            # the signature alphabet independently of
                            # how many iterations replay it
                            value_bound = 1.0
                            loop_cards = cards.get(li, {})
                            for r in reads:
                                if r in variants[li]:
                                    value_bound *= loop_cards.get(
                                        r, float("inf")
                                    )
                            distinct *= min(trips, max(value_bound, 1.0))
                            innermost_variant = li
                    if entry:
                        # function bodies inherit the dominant call
                        # site's loop context: the distinct argument
                        # signatures reaching the function multiply
                        # the body's own loop variance
                        distinct = min(
                            distinct * ctx_distinct, max(f, 1.0)
                        )
                    elif not chain:
                        distinct = f  # top-level straight-line code
                # repeat scope: the innermost loop whose iterations
                # replay this signature (inside the variant scope)
                stable = [
                    li for li in chain
                    if innermost_variant is None
                    or cfg.loops[li].depth
                    > cfg.loops[innermost_variant].depth
                ]
                if stable:
                    repeat = iter_size[stable[0]]
                elif entry and ctx_loop is not None:
                    repeat = iter_size[ctx_loop]
                else:
                    repeat = 0.0
                rate = max(0.0, 1.0 - distinct / f) if f > 0 else 0.0
                if inst.op in _LOAD_OPS:
                    scopes = list(chain)
                    if entry and ctx_loop is not None:
                        scopes.append(ctx_loop)
                    if scopes:
                        density = max(store_density[li] for li in scopes)
                        rate *= max(
                            0.0,
                            1.0 - params.load_store_interference
                            * min(density * 8.0, 1.0),
                        )
                models.append(_InstModel(
                    pc=pc,
                    freq=f,
                    reuse_rate=rate,
                    latency=float(max(inst.latency, 1)),
                    repeat_distance=repeat,
                ))
            out[block.index] = models
        for loop in cfg.loops:
            if not loop.exact:
                assumptions.append(
                    f"loop at block {loop.header} (depth {loop.depth}): "
                    f"trip count not statically provable, assumed "
                    f"{loop.trip_count:.0f}"
                )
        return out

    # -- the cycle model -----------------------------------------------

    def _loop_models(
        self,
        cfg: ControlFlowGraph,
        freqs: FrequencyEstimate,
        models: dict[int, list[_InstModel]],
    ) -> dict[int, _LoopModel]:
        params = self.params
        iter_size = _iteration_sizes(cfg, freqs)
        own_work: dict[int, float] = {i: 0.0 for i in range(len(cfg.loops))}
        for block in cfg.blocks:
            li = cfg.loop_of_block.get(block.index)
            if li is not None and block.index in cfg.reachable:
                own_work[li] += freqs[block.index] * len(block)
        out: dict[int, _LoopModel] = {}
        for i, loop in enumerate(cfg.loops):
            rate_sum = weight = 0.0
            for b in loop.blocks:
                for m in models.get(b, ()):
                    rate_sum += m.freq * m.reuse_rate
                    weight += m.freq
            body_rate = rate_sum / weight if weight else 0.0
            coverage = body_rate ** params.coverage_exponent
            out[i] = _LoopModel(
                index=i,
                ii=_recurrence_ii(cfg, loop, params),
                eff_trips=max(freqs.eff_trips.get(i, 1.0), 1.0),
                total_iters=max(freqs.get(loop.header, 0.0), 0.0),
                iter_insts=iter_size[i],
                own_work=own_work[i],
                body_rate=body_rate,
                coverage=coverage,
                mem_ii=_memory_ii(cfg, loop),
            )
        return out

    def _chain_cycles(
        self,
        cfg: ControlFlowGraph,
        loop_models: dict[int, _LoopModel],
        ii_of,
        straight_cycles: float,
    ) -> float:
        """Critical path: each nest level adds trips*II plus one
        instance of its deepest child (other instances overlap)."""
        children: dict[int | None, list[int]] = {}
        for i, loop in enumerate(cfg.loops):
            children.setdefault(loop.parent, []).append(i)

        def chain(i: int) -> float:
            lm = loop_models[i]
            own = lm.eff_trips * ii_of(lm)
            # entries of a memory-carried loop serialise through the
            # slot at mem_ii per iteration; the store still has to
            # land even for reused iterations, so no scenario
            # shortens this floor
            if lm.mem_ii > 0.0:
                own = max(own, lm.total_iters * lm.mem_ii)
            kids = children.get(i, [])
            deepest = max((chain(c) for c in kids), default=0.0)
            return own + deepest

        roots = children.get(None, [])
        return sum(chain(r) for r in roots) + straight_cycles

    def _windowed_cycles(
        self,
        loop_models: dict[int, _LoopModel],
        ii_of,
        occupancy_of,
        straight_cycles: float,
        window: int,
    ) -> float:
        """Finite-window cycles via Little's law per loop.

        A loop's window-limited throughput is the usable window over
        its initiation interval (each in-flight iteration retires one
        body per II), so its cycle cost is ``work * II / usable``.
        ``occupancy_of(lm)`` scales the footprint an average body
        instruction keeps in the window — trace reuse shrinks it (a
        whole span holds one slot), raising effective throughput.
        """
        params = self.params
        usable = max(window * params.window_efficiency, 1.0)
        cycles = straight_cycles
        for lm in loop_models.values():
            ii = max(ii_of(lm), params.collapsed_ii_floor)
            occupancy = max(occupancy_of(lm), 1e-3)
            term = lm.own_work * ii * occupancy / usable
            # a memory-carried loop is recurrence-bound, not
            # window-bound: one iteration in flight sustains the
            # slot round-trip rate, so the window adds no cost
            # beyond the serial chain
            if lm.mem_ii > 0.0:
                term = min(term, lm.total_iters * lm.mem_ii)
            cycles += term
        return max(cycles, 1.0)

    # -- aggregation ----------------------------------------------------

    def estimate(self, unit: AnalysisUnit) -> StaticEstimate:
        """The full static estimate for one unit (pure analysis)."""
        from repro.exp.config import ExperimentConfig

        return self.estimate_with_config(unit, ExperimentConfig())

    def estimate_with_config(
        self, unit: AnalysisUnit, config
    ) -> StaticEstimate:
        params = self.params
        cfg: ControlFlowGraph = self.driver.get(unit, "cfg")
        freqs: FrequencyEstimate = self.driver.get(unit, "frequencies")
        variants: dict[int, frozenset[int]] = self.driver.get(
            unit, "variants"
        )
        census = self.driver.get(unit, "census")
        assumptions: list[str] = []
        contexts = _call_contexts(cfg, freqs, variants)
        cards = self.driver.get(unit, "cardinality")
        models = self._instruction_models(
            cfg, freqs, variants, assumptions, contexts, cards
        )
        loop_models = self._loop_models(cfg, freqs, models)

        total = sum(m.freq for ms in models.values() for m in ms)
        reusable = sum(
            m.freq * m.reuse_rate for ms in models.values() for m in ms
        )
        signature_count = sum(
            m.freq * (1.0 - m.reuse_rate)
            for ms in models.values() for m in ms
        )

        # expected trace spans: per block pass, a span starts at every
        # high-reuse instruction whose predecessor is low-reuse
        span_starts = 0.0
        span_insts = 0.0
        for ms in models.values():
            prev_rate = 0.0
            for m in ms:
                if m.reuse_rate >= params.span_threshold:
                    span_insts += m.freq * m.reuse_rate
                    if prev_rate < params.span_threshold:
                        span_starts += m.freq * m.reuse_rate
                prev_rate = m.reuse_rate
        trace_count = span_starts
        avg_trace = span_insts / span_starts if span_starts else 0.0

        # reuse-distance summary over reusable work
        dist_weight = 0.0
        dist_sum = 0.0
        dists: list[tuple[float, float]] = []
        for ms in models.values():
            for m in ms:
                w = m.freq * m.reuse_rate
                if w > 0.0 and m.repeat_distance > 0.0:
                    dist_weight += w
                    dist_sum += w * m.repeat_distance
                    dists.append((m.repeat_distance, w))
        reuse_distance: dict[str, float] = {}
        if dist_weight > 0.0:
            dists.sort()
            acc = 0.0
            median = dists[-1][0]
            for d, w in dists:
                acc += w
                if acc >= dist_weight / 2:
                    median = d
                    break
            reuse_distance = {
                "mean": dist_sum / dist_weight,
                "p50": median,
            }

        # base IPC from the chain model.  Non-loop code splits two
        # ways: true top-level glue is straight-line (limited by local
        # ILP), while called-function bodies overlap across call
        # instances (separate iterations of the calling loop restart
        # the body independently) and reuse collapses them per
        # scenario, like a loop II.
        straight = 0.0
        call_insts: list[_InstModel] = []
        for b in cfg.blocks:
            if (
                b.index not in cfg.reachable
                or cfg.loop_of_block.get(b.index) is not None
            ):
                continue
            if function_entry(cfg, b.index):
                call_insts.extend(models.get(b.index, ()))
            else:
                straight += (
                    freqs[b.index] * len(b) / params.straight_line_ilp
                )
        call_work = sum(m.freq for m in call_insts)
        call_rate = (
            sum(m.freq * m.reuse_rate for m in call_insts) / call_work
            if call_work else 0.0
        )
        call_cov = call_rate ** params.coverage_exponent

        def call_serial(rho=None, collapse=False, k=None) -> float:
            """Serial cycles of called-function bodies per scenario.

            Base: latency-weighted work over the call ILP.  ILR caps
            each reused instruction at the reuse latency; TLR/prop
            collapse the covered fraction to one reuse op (or a
            k-proportional cost) amortised over a span.
            """
            if not call_insts:
                return 0.0
            cycles = 0.0
            for m in call_insts:
                lat = m.latency
                # chains through continuous FP values never re-see a
                # value, so reuse cannot shorten them
                gate = (
                    0.0
                    if cfg.program.instructions[m.pc].op in _FP_VALUE_OPS
                    else 1.0
                )
                if rho is not None:
                    r = m.reuse_rate * gate
                    lat = (1.0 - r) * lat + r * max(rho, 1.0)
                if collapse and rho is not None:
                    covered = max(rho, params.collapsed_ii_floor) / max(
                        avg_trace, 1.0
                    )
                    cov = call_cov * gate
                    lat = (1.0 - cov) * lat + cov * covered
                if k is not None:
                    covered = max(k, 1.0 / max(avg_trace, 1.0))
                    lat = (
                        (1.0 - call_cov) * m.latency
                        + call_cov * covered
                    )
                cycles += m.freq * lat
            return cycles / params.call_ilp

        call_base = call_serial()
        cycles_inf = max(
            self._chain_cycles(
                cfg, loop_models, lambda lm: lm.ii, straight + call_base
            ),
            total / params.ipc_cap,
            1.0,
        )
        win = getattr(config, "window_size", 256)
        cycles_win = max(
            self._windowed_cycles(
                loop_models,
                lambda lm: lm.ii,
                lambda lm: 1.0,
                straight + call_base,
                win,
            ),
            cycles_inf,
        )
        ipc_inf = min(max(total / cycles_inf, 0.05), params.ipc_cap)
        ipc_win = min(max(total / cycles_win, 0.05), ipc_inf)

        profile = BenchmarkProfile(
            name=unit.name,
            suite=_suite_of(unit.name),
            dynamic_count=int(round(total)),
            percent_reusable=(100.0 * reusable / total) if total else 0.0,
            avg_trace_size=avg_trace,
            trace_count=int(round(trace_count)),
            base_ipc_inf=ipc_inf,
            base_ipc_win=ipc_win,
        )

        # reuse scenarios: recompute the chains with reuse-shortened
        # edges (ILR) and trace-collapsed iterations (TLR)
        rate_of_pc = {
            m.pc: m.reuse_rate for ms in models.values() for m in ms
        }

        # chain-collapse gate: a loop's recurrence carries its variant
        # registers, and reuse only shortens the chain when those
        # values themselves repeat (finite cardinality).  A float
        # accumulator never re-sees a sum, so its chain keeps full
        # length no matter how reusable the rest of the body is; a
        # token-successor chain over a ten-symbol alphabet collapses.
        import math

        chain_gate: dict[int, float] = {}
        for i in loop_models:
            regs = variants[i]
            if not regs:
                chain_gate[i] = 1.0
                continue
            loop_cards = cards.get(i, {})
            bounded = sum(
                1 for r in regs
                if math.isfinite(loop_cards.get(r, math.inf))
            )
            chain_gate[i] = bounded / len(regs)

        def ilr_ii(loop_index: int, rho: float) -> float:
            loop = cfg.loops[loop_index]
            gate = chain_gate[loop_index]

            def edge_latency(pc, inst) -> float:
                lat = float(max(inst.latency, 1))
                r = rate_of_pc.get(pc, 0.0) * gate
                return (1.0 - r) * lat + r * max(rho, 1.0)

            return _recurrence_ii(cfg, loop, params, edge_latency)

        def scenario_cycles(
            ii_fn, occupancy_fn=None, serial=0.0
        ) -> tuple[float, float]:
            inf = max(
                self._chain_cycles(
                    cfg, loop_models, ii_fn, straight + serial
                ),
                total / params.ipc_cap,
                1.0,
            )
            wn = max(
                self._windowed_cycles(
                    loop_models,
                    ii_fn,
                    occupancy_fn or (lambda lm: 1.0),
                    straight + serial,
                    win,
                ),
                inf,
            )
            return inf, wn

        for latency in config.reuse_latencies:
            rho = float(latency)
            ilr_iis = {
                i: ilr_ii(i, rho) for i in loop_models
            }
            inf_c, win_c = scenario_cycles(
                lambda lm: ilr_iis[lm.index],
                serial=call_serial(rho=rho),
            )
            profile.ilr_speedup_inf[latency] = max(cycles_inf / inf_c, 1.0)
            profile.ilr_speedup_win[latency] = max(cycles_win / win_c, 1.0)

            def tlr_ii(lm: _LoopModel) -> float:
                # covered iterations complete in one reuse op of
                # latency rho; uncovered ones keep the ILR-shortened
                # II — but only chains whose carried values repeat
                # can collapse at all
                base = ilr_iis[lm.index]
                collapsed = max(rho, params.collapsed_ii_floor)
                cov = lm.coverage * chain_gate[lm.index]
                return (1.0 - cov) * base + cov * collapsed

            def tlr_occupancy(lm: _LoopModel) -> float:
                # a reused span holds one window slot instead of
                # one per instruction
                span = max(avg_trace, 1.0)
                return (1.0 - lm.coverage) + lm.coverage / span

            inf_c, win_c = scenario_cycles(
                tlr_ii,
                tlr_occupancy,
                serial=call_serial(rho=rho, collapse=True),
            )
            profile.tlr_speedup_inf[latency] = max(cycles_inf / inf_c, 1.0)
            profile.tlr_speedup_win[latency] = max(cycles_win / win_c, 1.0)

        for k in config.proportional_ks:

            def prop_ii(lm: _LoopModel) -> float:
                reuse_cost = max(
                    k * lm.iter_insts, params.collapsed_ii_floor
                )
                return (
                    (1.0 - lm.coverage) * lm.ii
                    + lm.coverage * min(reuse_cost, lm.ii + reuse_cost)
                )

            def prop_occupancy(lm: _LoopModel) -> float:
                # a span reused at k cycles/instruction holds its
                # slot for a k-proportional time
                span = max(avg_trace, 1.0)
                return (1.0 - lm.coverage) + lm.coverage * max(
                    k, 1.0 / span
                )

            _, win_c = scenario_cycles(
                prop_ii, prop_occupancy, serial=call_serial(k=k)
            )
            profile.tlr_speedup_win_prop[k] = max(cycles_win / win_c, 1.0)

        loop_table = [
            {
                "header_block": loop.header,
                "header_pc": cfg.blocks[loop.header].start,
                "depth": loop.depth,
                "trip_count": loop.trip_count,
                "eff_trips": round(loop_models[i].eff_trips, 2),
                "exact": loop.exact,
                "ii": loop_models[i].ii,
                "body_reuse_rate": round(loop_models[i].body_rate, 3),
                "variant_registers": sorted(variants[i]),
            }
            for i, loop in enumerate(cfg.loops)
        ]
        return StaticEstimate(
            profile=profile,
            census=census,
            loop_table=loop_table,
            signature_count=signature_count,
            reuse_distance=reuse_distance,
            assumptions=assumptions,
        )


def _iteration_sizes(
    cfg: ControlFlowGraph, freqs: FrequencyEstimate
) -> dict[int, float]:
    """Dynamic instructions per iteration of each loop."""
    out: dict[int, float] = {}
    for i, loop in enumerate(cfg.loops):
        body = sum(freqs[b] * len(cfg.blocks[b]) for b in loop.blocks)
        iters = max(freqs.get(loop.header, 1.0), 1.0)
        out[i] = max(body / iters, 1.0)
    return out


def _suite_of(name: str) -> str:
    from repro.workloads.base import FP_SUITE, INT_SUITE

    if name in FP_SUITE:
        return "FP"
    if name in INT_SUITE:
        return "INT"
    return "GEN"


def estimate_workload(
    name: str,
    config=None,
    *,
    params: ModelParams = DEFAULT_PARAMS,
) -> StaticEstimate:
    """Full static estimate for a registered kernel — never executes."""
    from repro.exp.config import ExperimentConfig

    if config is None:
        config = ExperimentConfig()
    unit = AnalysisUnit.from_workload(
        name, scale=config.scale, budget=config.max_instructions
    )
    estimator = StaticReuseEstimator(params=params)
    return estimator.estimate_with_config(unit, config)


def estimate_profile(name: str, config=None) -> BenchmarkProfile:
    """The :class:`BenchmarkProfile`-shaped prediction for one kernel.

    Drop-in shaped like :func:`repro.exp.runner.run_profile` output,
    computed without executing a single instruction.
    """
    return estimate_workload(name, config).profile


def estimate_profiles(config=None):
    """Static predictions for every configured kernel (ProfileRun-shaped)."""
    from repro.exp.config import ExperimentConfig
    from repro.exp.runner import ProfileRun

    if config is None:
        config = ExperimentConfig()
    profiles = [estimate_profile(name, config) for name in config.workloads]
    return ProfileRun(profiles)


def estimate_source(
    source: str,
    config=None,
    *,
    name: str = "<rl>",
    params: ModelParams = DEFAULT_PARAMS,
) -> StaticEstimate:
    """Static estimate for a ``repro.lang`` source text."""
    from repro.exp.config import ExperimentConfig

    if config is None:
        config = ExperimentConfig()
    unit = AnalysisUnit.from_rl_source(
        source, name=name, budget=config.max_instructions
    )
    estimator = StaticReuseEstimator(params=params)
    return estimator.estimate_with_config(unit, config)
