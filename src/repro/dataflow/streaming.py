"""One-pass streaming dataflow analysis over chunked trace streams.

:class:`StreamingDataflowEngine` is the production dataflow engine.
It drains a chunk stream (see :mod:`repro.vm.tracestream`) exactly
once and evaluates every timing scenario *plus* the reusability
summary, the maximal-span statistics and the section-4.5 I/O stats —
everything :func:`repro.exp.runner.run_profile` needs — while holding
O(sub-block) memory instead of the whole trace.

Bit-identity with the per-scenario oracle
-----------------------------------------
:class:`repro.dataflow.model.DataflowModel` scans the stream once per
scenario with a ``ready[loc]`` table and a materialized reuse plan.
The engine instead resolves every read to its producer once, shared by
all scenarios, and evaluates every scenario of a sub-block in one of
two folds — a **generated fold** that steps one instruction at a time
and a **level fold** that steps one dataflow level at a time.  Both do
the oracle's float operations on the oracle's operands, so both are
bit-identical to it, and a cost rule picks one per sub-block.

Sub-blocks.  The stream is cut into sub-blocks of at most
:data:`SUB_BLOCK_CAP` instructions, each cut just after a
non-reusable instruction, so every maximal reusable span — a trace
candidate — lies wholly inside one sub-block.  That is load-bearing:
a span's live-in gate is evaluated at span entry over its *full*
live-in set, and its proportional latency depends on its total I/O
counts.  A span longer than the cap makes its sub-block longer (a
wholly reusable stream is one sub-block, the same stream would also
defeat the paper's trace-collection limits).  The cap exists for
memory: the live completion lists are O(cap x scenarios), where one
list per scenario over a whole 64k-instruction chunk cost tens of MB.

Shared precompute.  Per sub-block, numpy sorts the read and write
events by (location, program position); a running maximum of "last
write + 1" within each location gives every read its last writer, and
the first event of each (location, span) run gives each span's
live-in/live-out counts and its gate producers (the last writers of
its live-ins before entry).  The reusability flags come a chunk at a
time from :func:`repro.baselines.ilr.signature_flags`: numpy gathers
the key columns, ``zip`` builds the signature tuples from the trace's
own value objects and ``dict.setdefault`` inserts them into one flat
history.  No value is encoded, so equality stays Python's (``1 ==
1.0``), which any bit-level batch encoding of the value columns would
split.

The prelude.  A producer is a non-negative index into a scenario's
completion list.  The list starts with a prelude: index 0 is the
constant 0.0 (the never-written location, exactly as a ``ready.get()``
miss contributes nothing in the oracle), followed by the carried
completion times of the locations the sub-block reads before writing.
Those are gathered from a per-scenario ``vals`` array indexed by an
engine-wide location -> slot table, and the sub-block's last writers
are scattered back into it when the fold ends.  Instructions are
encoded by their distinct producers, one column each, padded with the
constant's index 0 (the ISA's instructions read at most two
locations; the differential tests' streams read up to four).

The generated fold.  For each scenario-list signature (kind,
fetch-freedom, latency model and window group per scenario) the engine
emits, compiles and caches one loop that folds every scenario per
instruction, with each scenario's kind inlined (the way the
machine's tier 1, :mod:`repro.vm.fastmachine`, compiles blocks), so
no scenario pays a per-instruction type dispatch or slot branch.  It
encodes one producer as ``(p, p)``, two as ``(p1, p2)`` and more as a
getter over a list.

Levels.  An instruction's level is 1 + the highest level among its
producers; the prelude is level 0.  Its producers are its read
producers, its span's gate producers (with a TLR scenario) and its
window gate: a windowed scenario's gate is its running best as of the
fetched instruction W fetches back, which depends on every instruction
up to that one, so the gate counts as a producer at the highest level
among them.  One Python pass over the sub-block levels it (~3
generated steps per instruction).  The level fold then renumbers the
instructions level by level and keeps an (instruction x scenario)
completion array: a level is a run of rows, and one numpy call per
operation folds all its instructions for every scenario at once --
gather the producers and take their max ``s``; the candidate
``min(s + x, u)`` (ILR's ``w = s + x`` before the window gate, TLR's
span start ``u``, +inf where a scenario has no reuse); ``max(s, gate)
+ lat``; the reuse count; the min.  A scenario list without some
family gets neutral operands (+inf candidates, 0.0 gates), so every
level runs the same calls.  Span starts ``u = max(gate producers) +
latency`` are taken in batches, each span at a level between the one
its gate producers are done by and the first one that reads it,
choosing the fewest levels.  Running bests are a max-accumulate over
program order, extended whenever a level reads past the last one;
the first W gates of each ring group come from its carried ring, and
the ring and ``vals`` are carried out as the generated fold leaves
them.  Fetch-free TLR scenarios are ungated inside spans and their
ring advances only outside them, as in the oracle.

The rule.  The level fold costs a pass per instruction plus a step per
level (:data:`PASS_NS`, :data:`LEVEL_NS`), the generated fold a step
per instruction per scenario (:data:`STEP_NS`); a sub-block takes the
level fold when its level count x LEVEL_NS is below instructions x
scenarios x STEP_NS.  The count needs the pass, so the pass itself
runs on a prediction: the width (instructions per level) last measured
in the drain.  While that says the generated fold wins, the width is
re-measured after 1, 2, 4 ... up to :data:`RELEVEL` sub-blocks.  A
scenario count too small for the level fold to pay even at the widest
sub-block any kernel has (:data:`WIDEST`) never levels: the 6-scenario
``repro analyze`` set folds as it did before.

Windows.  A windowed scenario's ring starts filled with ``0.0``, as
``DataflowModel``'s does.  Reading a 0.0 gate for the first W fetched
instructions changes nothing, because every start time is already
>= 0.0 (latencies are non-negative), so the fold needs no "ring still
filling" phase.  Graduation time is the running maximum of every
completion, so for windowed scenarios it *is* the running best.  The
ring index depends only on how many fetched instructions came before,
so it is shared per (advance class, window): base, ILR and
non-fetch-free TLR scenarios advance on every instruction, fetch-free
TLR scenarios only outside spans.  An infinite-window scenario has no
per-instruction best: it is taken once per sub-block with ``max()``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle, islice, repeat
from operator import itemgetter

import numpy as np

from repro.baselines.ilr import signature_flags
from repro.core.stats import TraceIOStats
from repro.dataflow.model import Scenario, TimingResult
from repro.isa.registers import MEM_LOC_BASE
from repro.vm.trace import ColumnarTrace, extend_columnar, slice_columnar
from repro.vm.tracestream import DEFAULT_CHUNK_SIZE, as_chunk_stream

#: The cost rule that picks a sub-block's fold (DESIGN.md §7.1), in
#: ns: the generated fold's step per instruction per scenario, the
#: level fold's step per level, and the level pass per instruction.
STEP_NS = 150
LEVEL_NS = 16_500
PASS_NS = 450
#: The widest sub-block (instructions per level) of the 14 kernels at
#: 256-entry windows: where even that width cannot pay for the level
#: pass, no sub-block is leveled.
WIDEST = 28
#: Most sub-blocks folded on a predicted width before it is measured
#: again (the wait doubles from 1 each time the level fold loses).
RELEVEL = 16

#: Forces one fold for every sub-block ("generated" or "level"); the
#: differential tests patch it, nothing else sets it.
_FORCE_FOLD: str | None = None


#: Most instructions one fold covers (unless a span is longer): bounds
#: the per-scenario completion lists, i.e. the engine's working set.
SUB_BLOCK_CAP = 4096


@dataclass(frozen=True, slots=True)
class StreamReusability:
    """Instruction-level reusability summary of a drained stream.

    The streaming engine never materialises the per-instruction flag
    list, so this carries the counts only; the rates are computed with
    the same integer operands as
    :class:`repro.baselines.ilr.ReusabilityResult`, hence bit-equal.
    """

    reusable_count: int
    total_count: int
    static_count: int
    signature_count: int

    @property
    def percent_reusable(self) -> float:
        """Percentage of dynamic instructions that were reusable."""
        if self.total_count == 0:
            return 0.0
        return 100.0 * self.reusable_count / self.total_count


class StreamingDataflowEngine:
    """Evaluates many reuse scenarios over a chunk stream in one drain.

    Parameters
    ----------
    traceish:
        Anything :func:`repro.vm.tracestream.as_chunk_stream` accepts —
        a chunk stream (file-, execution- or slice-backed) or a
        materialized trace.
    chunk_size:
        Segmentation used when ``traceish`` is a materialized trace.

    After :meth:`analyze_all` the summary attributes are populated:
    ``n``, ``reuse`` (:class:`StreamReusability`), ``span_count``,
    ``span_covered``, ``avg_span_length`` and ``io_stats``
    (:class:`repro.core.stats.TraceIOStats`) — each bit-identical to
    its materialized counterpart — plus ``producer_seconds``, the time
    spent inside the stream producing chunks (execute, decode, tee).
    """

    def __init__(self, traceish, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self._stream = as_chunk_stream(traceish, chunk_size=chunk_size)
        self.n = 0
        self.reuse: StreamReusability | None = None
        self.span_count = 0
        self.span_covered = 0
        self.avg_span_length = 0.0
        self.io_stats: TraceIOStats | None = None
        self.producer_seconds = 0.0

    # ------------------------------------------------------------------
    def analyze_all(self, scenarios: Sequence[Scenario]) -> list[TimingResult]:
        """Evaluate every scenario in one pass; order matches the input."""
        given = list(scenarios)
        # fold columns: infinite windows first, then each ring-index
        # group's scenarios side by side
        group = {g: i for i, g in enumerate(_window_groups(given))}
        order = sorted(range(len(given)), key=lambda m: group.get(
            (_advance_class(given[m]), given[m].window_size), -1))
        scenarios = [given[m] for m in order]
        self._scenarios = scenarios
        self._generated = None  # compiled when a sub-block first picks it
        # ring-index groups: window and next index of each
        self._windows = [w for _, w in _window_groups(scenarios)]
        self._ring_pos = [0] * len(self._windows)
        # per-scenario fold state: reuse latency (or K), window ring,
        # running best, reuse count, carried completion time per slot
        self._consts = [s.latency if s.k is None else s.k for s in scenarios]
        self._columns = _Columns(scenarios, self._consts)
        self._rings = _Rings(self._columns)
        self._bests = [0.0] * len(scenarios)
        self._reused = [0] * len(scenarios)
        self._vals = np.zeros((len(scenarios), 1024))
        #: location -> slot (slot 0 is the never-written constant 0.0)
        self._slots: dict[int, int] = {}
        # span gate producers are gathered only when a TLR scenario
        # reads them
        self._gates = any(s.kind == "tlr" for s in scenarios)
        #: sub-blocks each fold took, and the levels of those leveled
        self.folds = {"generated": 0, "level": 0, "levels": 0, "leveled": 0}
        self._width = WIDEST  # the predicted instructions per level
        self._predicted = 0  # sub-blocks folded on that prediction
        self._wait = 1  # sub-blocks to rely on a losing prediction
        self.n = 0
        self.span_count = 0
        self.span_covered = 0
        self.producer_seconds = 0.0
        self._span_io = [0, 0, 0, 0]  # live-ins, reg live-ins, outs, reg outs

        history: dict = {}

        buf: ColumnarTrace | None = None
        bflags = bytearray()
        chunks = iter(self._stream.chunks())
        clock = time.perf_counter
        while True:
            t0 = clock()
            try:
                chunk = next(chunks, None)
            finally:
                self.producer_seconds += clock() - t0
            if chunk is None:
                break
            nc = len(chunk)
            if not nc:
                continue
            # infinite ILR history: signature -> first stream position
            cflags = bytearray(signature_flags(chunk, history, self.n))
            self.n += nc

            if buf is None:
                cur, curflags = chunk, cflags
            else:
                extend_columnar(buf, chunk)
                bflags += cflags
                cur, curflags = buf, bflags
            done = self._fold_sub_blocks(cur, curflags, final=False)
            if done == len(cur):
                buf, bflags = None, bytearray()
            elif done or cur is chunk:
                # the slice's arrays are fresh copies: safe to extend
                buf = slice_columnar(cur, done, len(cur))
                bflags = bytearray(curflags[done:])
        if buf is not None:
            self._fold_sub_blocks(buf, bflags, final=True)

        self.reuse = StreamReusability(
            reusable_count=self.n - len(history),
            total_count=self.n,
            static_count=len({sig[0] for sig in history}),
            signature_count=len(history),
        )
        self._finalize_span_stats()
        n = self.n
        results = [None] * len(scenarios)
        for m, sc, best, reused in zip(order, scenarios, self._bests,
                                       self._reused):
            if sc.kind == "tlr" and sc.fetch_free:
                reused = self.span_covered
            results[m] = TimingResult(
                instruction_count=n,
                total_cycles=max(best, 1.0) if n else 0.0,
                window_size=sc.window_size,
                reused_count=reused,
            )
        return results

    # ------------------------------------------------------------------
    def _finalize_span_stats(self) -> None:
        count = self.span_count
        covered = self.span_covered
        self.avg_span_length = covered / count if count else 0.0
        if count == 0:
            self.io_stats = TraceIOStats(
                0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            return
        total_in, total_reg_in, total_out, total_reg_out = self._span_io
        total_mem_in = total_in - total_reg_in
        total_mem_out = total_out - total_reg_out
        self.io_stats = TraceIOStats(
            trace_count=count,
            total_instructions=covered,
            avg_trace_size=covered / count,
            avg_inputs=total_in / count,
            avg_reg_inputs=total_reg_in / count,
            avg_mem_inputs=total_mem_in / count,
            avg_outputs=total_out / count,
            avg_reg_outputs=total_reg_out / count,
            avg_mem_outputs=total_mem_out / count,
            reads_per_instruction=total_in / covered if covered else 0.0,
            writes_per_instruction=total_out / covered if covered else 0.0,
        )

    # ------------------------------------------------------------------
    def _fold_sub_blocks(self, cur: ColumnarTrace, flags: bytearray, *,
                         final: bool) -> int:
        """Fold the whole sub-blocks at the head of ``cur``; returns how
        many instructions were consumed.  A sub-block ends just after
        the last non-reusable instruction within :data:`SUB_BLOCK_CAP`
        (or, inside a longer span, the first one after it); with
        ``final`` the wholly reusable tail is folded too."""
        n = len(cur)
        cols = None
        pos = 0
        while pos < n:
            cut = flags.rfind(0, pos, pos + SUB_BLOCK_CAP)
            if cut < 0:
                cut = flags.find(0, pos + SUB_BLOCK_CAP)
            if cut < 0:
                if not final:
                    break
                cut = n - 1
            if cols is None:
                cols = (
                    np.asarray(cur.read_bounds, np.int64),
                    np.asarray(cur.read_locs, np.int64),
                    np.asarray(cur.write_bounds, np.int64),
                    np.asarray(cur.write_locs, np.int64),
                    np.asarray(cur.lats),
                    np.asarray(flags),
                )
            block = self._precompute(cols, pos, cut + 1)
            if self._scenarios:
                self._fold(block)
            pos = cut + 1
        return pos

    def _precompute(self, cols, a: int, b: int) -> "_SubBlock":
        """The shared columns of instructions ``[a, b)``: producers,
        span gates and statistics, carried-in and carried-out slots.
        The sort's working arrays die with this call, before a fold
        allocates its own."""
        rbounds, rlocs, wbounds, wlocs, lats, allflags = cols
        n = b - a
        rb = rbounds[a:b + 1]
        wb = wbounds[a:b + 1]
        rcount = np.diff(rb)
        wcount = np.diff(wb)
        nr = int(rb[-1] - rb[0])
        ne = nr + int(wb[-1] - wb[0])
        # events in program order (an instruction's reads, then its
        # writes), sorted by (location, position): within a location,
        # a running max of "write instruction + 1" is each event's
        # last writer, reads strictly after it
        ev_r = np.arange(nr) + np.repeat(wb[:-1] - wb[0], rcount)
        ev_w = np.arange(ne - nr) + np.repeat(rb[1:] - rb[0], wcount)
        ev_loc = np.empty(ne, np.int64)
        ev_loc[ev_r] = rlocs[rb[0]:rb[-1]]
        ev_loc[ev_w] = wlocs[wb[0]:wb[-1]]
        ev_inst = np.repeat(np.arange(n), rcount + wcount)
        is_write = np.zeros(ne, bool)
        is_write[ev_w] = True
        bits = max(ne, 1).bit_length()
        key = ev_loc
        if ne and not 0 <= ev_loc.min() <= ev_loc.max() < 1 << (62 - bits):
            key = np.unique(ev_loc, return_inverse=True)[1].reshape(-1)
        order = np.sort((key << bits) | np.arange(ne)) & ((1 << bits) - 1)
        loc = ev_loc[order]
        inst = ev_inst[order]
        write = is_write[order]
        first = np.ones(ne, bool)
        np.not_equal(loc[1:], loc[:-1], out=first[1:])
        group = np.cumsum(first) - 1
        base = group * (n + 1)
        last = np.maximum.accumulate(np.where(write, inst + 1, 0) + base) - base
        # a location read before any write here comes from the prelude
        heads = np.flatnonzero(first)
        imported = ~write[heads]
        slots = self._slots
        prelude = np.fromiter(
            map(slots.get, loc[heads[imported]].tolist(), repeat(0)),
            np.int64, int(imported.sum()))
        pre = 1 + len(prelude)
        rank = np.cumsum(imported)[group]
        ref = np.where(last > 0, last - 1 + pre, rank)
        ref_of_read = np.empty(ne, np.int64)
        ref_of_read[order] = ref
        ref_of_read = ref_of_read[ev_r]

        # producers per instruction, one column per read, padded with
        # the constant 0.0 (index 0)
        start = rb[:-1] - rb[0]
        prod = np.zeros((n, max(int(rcount.max()), 1)), np.int64)
        prod[np.repeat(np.arange(n), rcount),
             np.arange(nr) - np.repeat(start, rcount)] = ref_of_read
        # distinct producers only, compacted to the left: a row's
        # producers are its leading non-zero entries (0, the constant
        # 0.0, adds nothing to a max of non-negative times)
        for c in range(1, prod.shape[1]):
            for d in range(c):
                prod[prod[:, c] == prod[:, d], c] = 0
        if prod.shape[1] == 2:
            swap = prod[:, 0] == 0
            prod[swap] = prod[swap, ::-1]
        elif prod.shape[1] > 2:
            prod = -np.sort(-prod, axis=1)
        fl = allflags[a:b]
        entry = np.diff(fl.astype(np.int8), prepend=0) == 1

        gates = self._span_stats(fl, entry, loc, inst, write, group, last,
                                 ref, pre + n)

        # the last writer of each location written here, carried out
        tails = np.flatnonzero(np.append(first[1:], True)[:ne])
        tails = tails[last[tails] > 0]
        out_locs = loc[tails].tolist()
        carried = np.fromiter(map(slots.get, out_locs, repeat(0)),
                              np.int64, len(out_locs))
        new = np.flatnonzero(carried == 0)
        if len(new):
            carried[new] = np.arange(len(slots) + 1, len(slots) + 1 + len(new))
            slots.update(zip([out_locs[i] for i in new.tolist()],
                             carried[new].tolist()))

        return _SubBlock(np.concatenate(([0], prelude)), prod, fl, entry,
                         gates, lats[a:b] + 0.0, last[tails] - 1 + pre,
                         carried)

    def _fold(self, block: "_SubBlock") -> None:
        """Fold every scenario over a sub-block, by the fold the cost
        rule picks."""
        width = len(self._scenarios)
        n = len(block.fl)
        vals = self._vals
        if len(self._slots) >= vals.shape[1]:
            grown = np.zeros((width, 2 * len(self._slots) + 1))
            grown[:, :vals.shape[1]] = vals
            self._vals = grown
        levels = None
        if _FORCE_FOLD == "level" or \
                _FORCE_FOLD is None and self._level_pass_pays(n):
            levels = _levels(block, self._columns, self._ring_pos)
            self._width = n / levels.count
            self._predicted = 0
            self.folds["levels"] += levels.count
            self.folds["leveled"] += n
            if levels.count * LEVEL_NS < n * width * STEP_NS:
                self._wait = 1
            else:
                self._wait = min(2 * self._wait, RELEVEL)
                if _FORCE_FOLD is None:
                    levels = None
        if levels is None:
            self.folds["generated"] += 1
            self._fold_generated(block)
        else:
            self.folds["level"] += 1
            self._fold_levels(block, levels)

    def _level_pass_pays(self, n: int) -> bool:
        """Whether to level a sub-block of ``n`` instructions: when the
        level fold, pass included, is predicted to beat the generated
        one at the width last measured (at first, the widest any kernel
        reaches), or when that width has been relied on for as many
        sub-blocks as the wait, and the level fold can win at all."""
        scenarios = len(self._scenarios)
        generated = n * scenarios * STEP_NS
        if generated <= n * PASS_NS + n / WIDEST * LEVEL_NS:
            return False
        if self._predicted >= self._wait:
            return True
        self._predicted += 1
        return n * PASS_NS + n / self._width * LEVEL_NS < generated

    def _fold_generated(self, blk: "_SubBlock") -> None:
        """Fold a sub-block with the generated per-instruction loop."""
        if self._generated is None:
            self._generated = _fold_for(_signature(self._scenarios))
        prod, fl, entry = blk.prod, blk.fl, blk.entry
        n = len(fl)
        pre = len(blk.prelude)
        # one producer as (p, p), two as (p1, p2), more as a getter;
        # the form picks the fold's branch
        p1 = prod[:, 0]
        p2 = prod[:, 1] if prod.shape[1] > 1 else p1
        p2 = np.where(p2 > 0, p2, p1)
        code = fl + entry + 3 * (p1 != p2)
        P1 = p1.tolist()
        if prod.shape[1] > 2:
            for j in np.flatnonzero(prod[:, 2]).tolist():
                code[j] = fl[j] + entry[j] + 6
                P1[j] = itemgetter(*(p for p in prod[j].tolist() if p))
        gates = []
        if blk.gates is not None:
            refs, bounds, io = blk.gates
            refs = refs.tolist()
            bounds = bounds.tolist()
            for s, io_count in enumerate(io.tolist()):
                seg = refs[bounds[s]:bounds[s + 1]]
                if len(seg) < 2:
                    seg += [0, 0]  # the constant 0.0: never above a gate
                gates.append((itemgetter(*seg), io_count))
        pad = [0.0] * n
        comps = self._vals[:, blk.prelude].tolist()
        for comp in comps:
            comp += pad
        self._generated(
            code.tolist(), P1, p2.tolist(), blk.lats.tolist(),
            range(pre, pre + n), gates, comps, self._rings.lists(),
            self._bests, self._reused, self._consts, self._ring_pos,
            self._windows)
        if len(blk.carried):
            carry = itemgetter(*blk.out_refs.tolist())
            vals = self._vals
            for m, comp in enumerate(comps):
                vals[m, blk.carried] = carry(comp)

    def _fold_levels(self, blk: "_SubBlock", lv: "_Levels") -> None:
        """Fold a sub-block one dataflow level at a time: every
        scenario of a level's instructions in a few numpy calls on an
        (instruction x scenario) completion array."""
        cols = self._columns
        width = len(self._scenarios)
        n = len(blk.fl)
        pre = len(blk.prelude)
        inf = np.inf
        # instructions renumbered in level order: level L is the rows
        # [pre + bounds[L-1], pre + bounds[L]) of the completion array
        order = lv.order
        bounds = lv.bounds
        rowmap = np.empty(pre + n, np.int64)
        rowmap[:pre] = np.arange(pre)
        rowmap[pre + order] = np.arange(pre, pre + n)
        # each level's producers as (column, instruction) blocks of one
        # gather, as many columns as its widest instruction has
        prod = blk.prod[order]
        k = prod.shape[1]
        ks = np.maximum.reduceat(
            np.count_nonzero(prod[:, 1:], axis=1) + 1, bounds[:-1])
        sizes = np.diff(bounds)
        block = np.zeros(lv.count + 1, np.int64)
        np.cumsum(ks * sizes, out=block[1:])
        at = np.repeat(np.arange(lv.count), sizes)
        into = np.arange(k) < ks[at][:, None]
        where = (block[at] - bounds[at] + np.arange(n))[:, None] + \
            np.arange(k) * sizes[at][:, None]
        gather = np.empty(int(block[-1]), np.int64)
        gather[where[into]] = rowmap[prod[into]]

        # one buffer: the completion rows, then the window gate rows
        # [the constant 0.0; the carried rings; the best before the
        # sub-block; the running best after each instruction]
        best_row = pre + n + cols.ring_rows + 2
        work = np.empty((best_row + n, width))
        comp = work[:pre + n]
        comp[:pre] = self._vals[:, blk.prelude].T
        lats = np.repeat(blk.lats[order], width).reshape(n, width)
        # every step below runs for every scenario list; a family the
        # list lacks gets neutral operands (+inf candidates, 0.0 gates)
        add = cols.ilr_add.take(blk.fl[order], axis=0)
        reused = np.zeros((n, width), bool)
        best_in = np.array(self._bests)

        # span reuse starts: a row per span, in order of the level they
        # are taken at, and row 0 (+inf) for no span; the spans taken
        # at one level gather their gate producers as (producer, span)
        # blocks, padded with the constant 0.0
        uat = [None] * lv.count
        ustart = np.full((1, width), inf)
        span_row = np.zeros(n, np.int64)
        if cols.tlr and blk.gates is not None:
            refs, rbounds, io = blk.gates
            sorder = np.argsort(lv.span_at, kind="stable")
            nspans = len(sorder)
            counts = np.diff(rbounds)[sorder]
            first = np.searchsorted(lv.span_at[sorder],
                                    np.arange(1, lv.count + 2))
            events = np.flatnonzero(np.diff(first))
            uks = np.maximum.reduceat(np.maximum(counts, 1), first[events])
            usizes = np.diff(first)[events]
            ublock = np.zeros(len(events) + 1, np.int64)
            np.cumsum(uks * usizes, out=ublock[1:])
            ev = np.repeat(np.arange(len(events)), usizes)
            kmax = int(counts.max(initial=0))
            uinto = np.arange(kmax) < counts[:, None]
            uwhere = (ublock[ev] + np.arange(nspans) -
                      first[events][ev])[:, None] + \
                np.arange(kmax) * usizes[ev][:, None]
            ugather = np.zeros(int(ublock[-1]), np.int64)
            ugather[uwhere[uinto]] = rowmap[refs[
                (rbounds[:-1][sorder][:, None] + np.arange(kmax))[uinto]]]
            ulat = np.full((nspans, width), inf)
            ulat[:, cols.tlr_const] = cols.consts[cols.tlr_const]
            if cols.tlr_prop:
                ulat[:, cols.tlr_prop] = \
                    io[sorder][:, None] * cols.consts[cols.tlr_prop]
            ustart = np.full((nspans + 1, width), inf)
            rank = np.empty(nspans, np.int64)
            rank[sorder] = np.arange(1, nspans + 1)
            span_row = np.where(blk.fl, rank[np.cumsum(blk.entry) - 1],
                                0)[order]
            # per level: (first span, spans, gather offset, producers)
            for e, ua, size, ga, gk in zip(
                    events.tolist(), first[events].tolist(), usizes.tolist(),
                    ublock.tolist(), uks.tolist()):
                uat[e] = (ua, size, ga, gk)
        # window gates: a flat index per (instruction, scenario)
        ring_rows = self._rings.array()
        gate0 = pre + n
        work[gate0] = 0.0
        work[gate0 + 1:best_row - 1] = ring_rows
        work[best_row - 1] = best_in
        flat = work.reshape(-1)
        dtype = np.int32 if flat.size < 1 << 31 else np.int64
        rows = np.full((n, 1 + len(lv.gate_rows)), gate0 * width, dtype)
        for g, gate_rows in enumerate(lv.gate_rows, 1):
            rows[:, g] += gate_rows[order] * width
        gidx = rows.take(cols.column_group, axis=1)
        gidx += np.arange(width, dtype=dtype)
        # running bests: when a level reads past the last one, they are
        # extended up to every instruction done by then, seeded by the
        # last (one gather of [seed row, new rows] and a running max)
        extend = [None] * lv.count
        done = at = 0
        seeds = []
        for level, need, front in zip(range(lv.count), lv.needs.tolist(),
                                      lv.fronts.tolist()):
            if need > done:
                extend[level] = (at, at + 1 + front - done,
                                 best_row + done - 1)
                seeds.append(at)
                at += 1 + front - done
                done = front
        if done < n:
            seeds.append(at)
            tail = (at, at + 1 + n - done, best_row + done - 1)
            at += 1 + n - done
        runs = np.empty(at, np.int64)
        fill = np.ones(at, bool)
        fill[seeds] = False
        runs[fill] = rowmap[pre:]
        runs[~fill] = best_row - 1 + np.flatnonzero(~fill) - \
            np.arange(len(seeds))

        take, utake, gtake = comp.take, ustart.take, flat.take
        maximum, minimum, less = np.maximum, np.minimum, np.less
        lvb = bounds.tolist()
        rows_at = (bounds + pre).tolist()
        for lo, hi, clo, chi, pa, k, ext, take_u in zip(
                lvb, lvb[1:], rows_at, rows_at[1:], block.tolist(),
                ks.tolist(), extend, uat):
            if take_u is not None:
                ua, size, ga, gk = take_u
                got = take(ugather[ga:ga + gk * size], axis=0)
                if gk > 1:
                    got = maximum.reduce(got.reshape(gk, size, width), axis=0)
                np.add(got, ulat[ua:ua + size],
                       out=ustart[1 + ua:1 + ua + size])
            if ext is not None:
                a, b, c = ext
                maximum.accumulate(work.take(runs[a:b], axis=0), axis=0,
                                   out=work[c:c + b - a])
            w = hi - lo
            s = take(gather[pa:pa + k * w], axis=0)
            if k > 1:
                g, s = s, s[:w]
                maximum(s, g[w:2 * w], out=s)
                if k > 2:
                    for c in range(2, k):
                        maximum(s, g[c * w:(c + 1) * w], out=s)
            # ILR's candidate s + x is taken before the window gate
            cand = s + add[lo:hi]
            minimum(cand, utake(span_row[lo:hi], axis=0), out=cand)
            maximum(s, gtake(gidx[lo:hi]), out=s)
            s += lats[lo:hi]
            less(cand, s, out=reused[lo:hi])
            minimum(s, cand, out=comp[clo:chi])

        self._bests = np.maximum(best_in, comp[pre:].max(axis=0)).tolist()
        self._reused = (np.array(self._reused) + reused.sum(axis=0)).tolist()
        if len(blk.carried):
            self._vals[:, blk.carried] = comp[rowmap[blk.out_refs]].T
        if not cols.groups:
            return
        if done < n:
            a, b, c = tail
            np.maximum.accumulate(work.take(runs[a:b], axis=0), axis=0,
                                  out=work[c:c + b - a])
        # the last W fetched instructions' bests refill each ring
        pos = self._ring_pos
        for g, ((c0, c1), fetched, base) in enumerate(
                zip(cols.group_cols, lv.fetched, cols.ring_base)):
            w = self._windows[g]
            last = fetched[-w:]
            k = np.arange(len(fetched) - len(last), len(fetched))
            ring_rows[base + (pos[g] + k) % w, c0:c1] = \
                work[best_row + last, c0:c1]
            pos[g] = (pos[g] + len(fetched)) % w

    def _span_stats(self, fl, entry, loc, inst, write, group, last, ref,
                    stride):
        """Accumulate the sub-block's span statistics over the sorted
        events; returns each span's gate producers (sorted, with their
        bounds) and its live-ins + live-outs when a TLR scenario needs
        them."""
        starts = np.flatnonzero(entry)
        nspans = len(starts)
        if not nspans:
            return None
        self.span_covered += int(fl.sum())
        self.span_count += nspans
        sid = np.cumsum(entry) - 1
        in_span = fl[inst].astype(bool)
        span = sid[inst]
        # a live-in is a span read whose last writer precedes the span
        live = in_span & ~write & (last <= starts[span])
        # a (span, location) pair's live-in reads, and its writes, are
        # adjacent in each subsequence: count the first of each
        ins = _run_heads(live, span, group)
        outs = _run_heads(in_span & write, span, group)
        io = self._span_io
        io[0] += len(ins)
        io[1] += int(np.count_nonzero(loc[ins] < MEM_LOC_BASE))
        io[2] += len(outs)
        io[3] += int(np.count_nonzero(loc[outs] < MEM_LOC_BASE))
        if not self._gates:
            return None
        keyed = np.sort(span[ins] * stride + ref[ins])
        counts = np.bincount(span[ins], minlength=nspans)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        total = counts + np.bincount(span[outs], minlength=nspans)
        return keyed % stride, bounds, total


@dataclass(slots=True)
class _SubBlock:
    """The shared precompute of one sub-block, as both folds read it."""

    #: slot of each prelude entry (entry 0 is the constant 0.0)
    prelude: np.ndarray
    #: each instruction's distinct producers, left-aligned, padded with
    #: 0 (the constant 0.0)
    prod: np.ndarray
    fl: np.ndarray
    entry: np.ndarray
    #: (sorted gate producers, per-span bounds, live-ins + live-outs),
    #: or None without spans or TLR scenarios
    gates: tuple | None
    lats: np.ndarray
    #: completion index of each carried location's last writer
    out_refs: np.ndarray
    carried: np.ndarray


class _Columns:
    """What the level fold needs of the scenario list, per column."""

    def __init__(self, scenarios: Sequence[Scenario], consts) -> None:
        inf = np.inf
        self.consts = np.array(consts, float)
        kinds = [s.kind for s in scenarios]
        self.tlr = "tlr" in kinds
        # ILR's reuse candidate s + x[flag]: +inf unless flagged and ILR
        self.ilr_add = np.full((2, len(scenarios)), inf)
        self.ilr_add[1] = np.where([k == "ilr" for k in kinds], self.consts,
                                   inf)
        self.tlr_const = [m for m, s in enumerate(scenarios)
                          if s.kind == "tlr" and s.k is None]
        self.tlr_prop = [m for m, s in enumerate(scenarios)
                         if s.kind == "tlr" and s.k is not None]
        self.groups = _window_groups(scenarios)
        self.group_cols = []
        self.ring_base = []
        rows = 0
        for free, w in self.groups:
            cols = [m for m, s in enumerate(scenarios) if s.window_size == w
                    and _advance_class(s) == free]
            self.group_cols.append((cols[0], cols[-1] + 1))
            self.ring_base.append(rows)
            rows += w
        self.ring_rows = rows
        #: per column, its ring group + 1 (0: infinite window)
        self.column_group = np.zeros(len(scenarios), np.int64)
        for g, (a, b) in enumerate(self.group_cols, 1):
            self.column_group[a:b] = g


class _Rings:
    """The window rings of every windowed scenario: a list per
    scenario for the generated fold, or one array of rows per ring
    group (group g's ring in rows ``base .. base + W`` of its
    scenarios' columns) for the level fold, converted only when the
    fold changes."""

    def __init__(self, cols: _Columns) -> None:
        self._width = len(cols.consts)
        self._where = [(m, base, w) for (_, w), base, (c0, c1) in zip(
            cols.groups, cols.ring_base, cols.group_cols)
            for m in range(c0, c1)]
        self._rows = cols.ring_rows
        self._array = np.zeros((self._rows, self._width))
        self._lists = None

    def lists(self) -> list:
        if self._lists is None:
            rings = [None] * self._width
            for m, base, w in self._where:
                rings[m] = self._array[base:base + w, m].tolist()
            self._lists, self._array = rings, None
        return self._lists

    def array(self) -> np.ndarray:
        if self._array is None:
            rows = np.zeros((self._rows, self._width))
            for m, base, w in self._where:
                rows[base:base + w, m] = self._lists[m]
            self._array, self._lists = rows, None
        return self._array


@dataclass(slots=True)
class _Levels:
    """A sub-block's dataflow levels, as the level fold steps them."""

    count: int
    #: instructions in level order (stable: program order within one)
    order: np.ndarray
    #: level L holds ``order[bounds[L-1]:bounds[L]]``
    bounds: np.ndarray
    #: per span, the level its reuse start is taken at (None without
    #: spans or TLR scenarios)
    span_at: np.ndarray | None
    #: per ring group, each instruction's window-gate row (0: ungated)
    gate_rows: list
    #: per level, how many leading running bests it reads
    needs: np.ndarray
    #: per level, how many leading instructions are done before it
    fronts: np.ndarray
    #: per ring group, the positions of its fetched instructions
    fetched: list


def _levels(blk: _SubBlock, cols: _Columns, ring_pos: list[int]) -> _Levels:
    """Level every instruction of a sub-block: 1 + the highest level
    among its read producers, its span's gate producers (with a TLR
    scenario) and, for each ring group that gates it, every
    instruction up to the fetched one W fetches back (its gate is the
    running best there).  The prelude is level 0."""
    prod, fl = blk.prod, blk.fl
    n = len(fl)
    pre = len(blk.prelude)
    # window gates: the row each instruction reads per ring group (see
    # _fold_levels), and how many leading instructions it waits for
    gq = np.zeros(n, np.int64)
    gate_rows, fetched_all = [], []
    for (free, w), base, pos in zip(cols.groups, cols.ring_base, ring_pos):
        fetched = np.flatnonzero(fl == 0) if free else np.arange(n)
        k = np.arange(len(fetched))
        rows = np.zeros(n, np.int64)
        rows[fetched] = np.where(
            k < w, 1 + base + (pos + k) % w,
            cols.ring_rows + 2 + fetched[np.maximum(k - w, 0)])
        late = fetched[w:]
        gq[late] = np.maximum(gq[late], fetched[:len(late)] + 1)
        gate_rows.append(rows)
        fetched_all.append(fetched)

    # the state code: 1 inside a span, 2 at its entry (with a TLR
    # scenario), plus 4 for producers past the second, read from a side
    # list (instructions of the ISA have at most two)
    spans = cols.tlr and blk.gates is not None
    state = fl + blk.entry if spans else np.zeros(n, np.int64)
    more = []
    if prod.shape[1] > 2:
        extra = prod[:, 2] != 0
        state = state + 4 * extra
        more = prod[extra, 2:].tolist()
    span_refs = []
    if spans:
        refs, bounds, _ = blk.gates
        refs = refs.tolist()
        bounds = bounds.tolist()
        span_refs = [refs[a:b] or [0] for a, b in zip(bounds, bounds[1:])]
    levels = [0] * pre
    get = levels.__getitem__
    append = levels.append
    tops = [0]  # tops[q + 1]: highest level among instructions <= q
    top_append = tops.append
    top = sg = 0
    span_levels = []
    next_refs = iter(span_refs).__next__
    next_more = iter(more).__next__
    for a, b, q, e in zip(
            prod[:, 0].tolist(),
            prod[:, 1].tolist() if prod.shape[1] > 1 else repeat(0),
            gq.tolist(),
            state.tolist()):
        lv = levels[a]
        t = levels[b]
        if t > lv:
            lv = t
        t = tops[q]
        if t > lv:
            lv = t
        if e:
            if e > 1:
                if e > 3:
                    t = max(map(get, next_more()))
                    if t > lv:
                        lv = t
                    e -= 4
                if e == 2:
                    sg = max(map(get, next_refs()))
                    span_levels.append(sg)
            if e and sg > lv:
                lv = sg
        lv += 1
        append(lv)
        if lv > top:
            top = lv
        top_append(top)

    lv = np.fromiter(islice(levels, pre, None), np.int64, n)
    order = np.argsort(lv, kind="stable")
    bounds = np.zeros(top + 1, np.int64)
    np.cumsum(np.bincount(lv, minlength=top + 1)[1:], out=bounds[1:])
    needs = np.maximum.reduceat(gq[order], bounds[:-1])
    fronts = np.searchsorted(np.maximum.accumulate(lv), np.arange(top),
                             side="right")
    span_at = None
    if spans:
        # take each span's reuse start at the fewest levels: sorted by
        # the first level that reads it, a span opens a new take at that
        # level unless its gate producers were done by the open one
        ready = np.array(span_levels, np.int64) + 1
        first = np.where(fl, lv, top + 1)
        need = np.minimum.reduceat(first, np.flatnonzero(blk.entry))
        span_at = np.empty(len(ready), np.int64)
        point = 0
        by_need = np.argsort(need, kind="stable").tolist()
        for s, r, d in zip(by_need, ready[by_need].tolist(),
                           need[by_need].tolist()):
            if r > point:
                point = d
            span_at[s] = point
    return _Levels(top, order, bounds, span_at, gate_rows, needs,
                   fronts, fetched_all)


def _run_heads(mask, span, group):
    """The first of each (location, span) run of the sorted events
    selected by ``mask``."""
    at = np.flatnonzero(mask)
    head = np.ones(len(at), bool)
    head[1:] = (span[at[1:]] != span[at[:-1]]) | \
        (group[at[1:]] != group[at[:-1]])
    return at[head]


# ----------------------------------------------------------------------
# the generated multi-scenario fold
# ----------------------------------------------------------------------

def _window_groups(scenarios: Sequence[Scenario]) -> list[tuple[bool, int]]:
    """The distinct (fetch-free advance, window) ring-index classes."""
    groups: dict[tuple[bool, int], None] = {}
    for s in scenarios:
        if s.window_size:
            groups[_advance_class(s), s.window_size] = None
    return list(groups)


def _advance_class(s: Scenario) -> bool:
    """True when the scenario's ring advances only outside spans."""
    return s.kind == "tlr" and s.fetch_free


def _signature(scenarios: Sequence[Scenario]) -> tuple:
    """What the generated fold's code depends on, per scenario: kind,
    fetch-freedom, proportional latency and ring-index group."""
    groups = _window_groups(scenarios)
    return tuple(
        (s.kind, _advance_class(s), s.k is not None,
         groups.index((_advance_class(s), s.window_size))
         if s.window_size else None)
        for s in scenarios
    )


def _emit_scenario(m: int, spec: tuple, state: int, form: int) -> list[str]:
    """Code folding one instruction into scenario ``m``.

    Mirrors ``DataflowModel.analyze`` under the scenario's reuse plan:
    ``s`` is the producers' max, ``v`` the completion; a windowed
    scenario gates ``s`` by ``r[i]`` and stores its running best there.
    """
    kind, free, _prop, group = spec
    c, r, b, u, x, n = (f"{v}{m}" for v in "crbuxn")
    i = f"i{group}"
    out = [
        [f"s = {c}[p1]"],
        [f"s = {c}[p1]", f"t = {c}[p2]", "if t > s: s = t"],
        [f"s = max(p1({c}))"],
    ][form]
    reuse = state and kind != "base"
    gated = group is not None and not (state and free)
    if not reuse and group is None:
        return out + [f"{c}[j] = s + lat"]
    if reuse and kind == "ilr":
        out.append(f"w = s + {x}")  # reuse starts before the window gate
    if gated:
        out += [f"g = {r}[{i}]", "if g > s: s = g"]
    out.append("v = s + lat")
    if reuse:
        w = "w" if kind == "ilr" else u
        out += [f"if {w} < v:", f"    v = {w}"]
        if not free:
            out.append(f"    {n} += 1")
    out.append(f"{c}[j] = v")
    if group is not None:
        out.append(f"if v > {b}: {b} = v")
        if gated:
            out.append(f"{r}[{i}] = {b}")
    return out


#: Fold branches, most frequent first: (span state, producer form) with
#: state 0 outside spans, 1 inside, 2 at span entry and form 0 for one
#: producer, 1 for two, 2 for a getter; the shared code is state + 3 form.
_BRANCHES = [(1, 1), (1, 0), (0, 1), (0, 0), (2, 1), (2, 0),
             (1, 2), (0, 2), (2, 2)]


@lru_cache(maxsize=64)
def _fold_for(signature: tuple):
    """Compile the fold of one scenario-list signature (cached: a
    process sees a handful of scenario lists).

    The generated function folds one sub-block.  Per instruction it
    branches once on the shared code (see :data:`_BRANCHES`) and then
    runs every scenario's inlined step.  Ring indices of groups that
    advance on every instruction come from a cycling column; those of
    fetch-free TLR groups are counters bumped outside spans.
    """
    tlr = [m for m, spec in enumerate(signature) if spec[0] == "tlr"]
    groups = sorted({(g, free) for _, free, _, g in signature
                     if g is not None})
    lines = [
        "def fold(K, P1, P2, LAT, J, gates, C, R, B, N, X, POS, WIN):",
        "    gnext = iter(gates).__next__",
    ]
    names, columns = "", ""
    for g, free in groups:
        if free:
            lines.append(f"    i{g} = POS[{g}]; w{g} = WIN[{g}]")
        else:
            names += f", i{g}"
            columns += f", islice(cycle(range(WIN[{g}])), POS[{g}], None)"
    for m, (kind, free, _prop, group) in enumerate(signature):
        lines.append(f"    c{m} = C[{m}]; x{m} = X[{m}]")
        if kind == "tlr":
            lines.append(f"    u{m} = 0.0")
        if group is not None:
            lines.append(f"    r{m} = R[{m}]; b{m} = B[{m}]")
        if kind != "base" and not free:
            lines.append(f"    n{m} = N[{m}]")
    lines.append(f"    for k, p1, p2, lat, j{names} in "
                 f"zip(K, P1, P2, LAT, J{columns}):")
    for nth, (state, form) in enumerate(_BRANCHES):
        test = "else:" if nth == len(_BRANCHES) - 1 else \
            f"{'elif' if nth else 'if'} k == {state + 3 * form}:"
        body = []
        if state == 2 and tlr:
            body.append("gate, io = gnext()")
            for m in tlr:
                lat = f"x{m} * io" if signature[m][2] else f"x{m}"
                body.append(f"u{m} = max(gate(c{m})) + {lat}")
        for m, spec in enumerate(signature):
            body += _emit_scenario(m, spec, state, form)
        if state == 0:
            for g, free in groups:
                if free:
                    body += [f"i{g} += 1", f"if i{g} == w{g}: i{g} = 0"]
        lines.append(f"        {test}")
        lines += [f"            {line}" for line in body]
    for g, free in groups:
        lines.append(f"    POS[{g}] = i{g}" if free else
                     f"    POS[{g}] = (POS[{g}] + len(K)) % WIN[{g}]")
    for m, (kind, free, _prop, group) in enumerate(signature):
        if group is None:
            lines.append(f"    b = max(c{m})")
            lines.append(f"    if b > B[{m}]: B[{m}] = b")
        else:
            lines.append(f"    B[{m}] = b{m}")
        if kind != "base" and not free:
            lines.append(f"    N[{m}] = n{m}")
    namespace = {"cycle": cycle, "islice": islice}
    exec(compile("\n".join(lines) + "\n", "<streaming fold>", "exec"),
         namespace)
    return namespace["fold"]
