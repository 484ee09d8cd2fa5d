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
all scenarios, and evaluates every scenario in **one generated fold**
over a completion-time list per scenario — the same float operations
in the same order.

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
encoded by their distinct producers: none as ``(0, 0)``, one as
``(p, p)``, two as ``(p1, p2)``; only the rare >=3 case carries a
getter over a list.

The generated fold.  For each scenario-list signature (kind,
fetch-freedom, latency model and window group per scenario) the engine
emits, compiles and caches one loop that folds every scenario per
instruction, with each scenario's kind inlined (the way the
machine's tier 1, :mod:`repro.vm.fastmachine`, compiles blocks), so
no scenario pays a per-instruction type dispatch or slot branch.

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
        scenarios = list(scenarios)
        self._fold = _fold_for(_signature(scenarios)) if scenarios else None
        # ring-index groups: window and next index of each
        self._windows = [w for _, w in _window_groups(scenarios)]
        self._ring_pos = [0] * len(self._windows)
        # per-scenario fold state: reuse latency (or K), window ring,
        # running best, reuse count, carried completion time per slot
        self._consts = [s.latency if s.k is None else s.k for s in scenarios]
        self._rings = [[0.0] * s.window_size if s.window_size else None
                       for s in scenarios]
        self._bests = [0.0] * len(scenarios)
        self._reused = [0] * len(scenarios)
        self._vals = [np.zeros(1024) for _ in scenarios]
        #: location -> slot (slot 0 is the never-written constant 0.0)
        self._slots: dict[int, int] = {}
        # span gate getters are built only when a TLR scenario reads them
        self._gates = any(s.kind == "tlr" for s in scenarios)
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
        results = []
        for sc, best, reused in zip(scenarios, self._bests, self._reused):
            if sc.kind == "tlr" and sc.fetch_free:
                reused = self.span_covered
            results.append(TimingResult(
                instruction_count=n,
                total_cycles=max(best, 1.0) if n else 0.0,
                window_size=sc.window_size,
                reused_count=reused,
            ))
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
            self._fold_sub_block(cols, pos, cut + 1)
            pos = cut + 1
        return pos

    def _fold_sub_block(self, cols, a: int, b: int) -> None:
        """Precompute the shared columns of instructions ``[a, b)`` and
        fold every scenario over them."""
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

        # producers per instruction: 1 as p1, 2 as (p1, p2), 0 as the
        # constant; the form picks the fold's branch
        start = rb[:-1] - rb[0]
        p1 = np.zeros(n, np.int64)
        some = rcount > 0
        p1[some] = ref_of_read[start[some]]
        p2 = p1.copy()
        two = rcount > 1
        p2[two] = ref_of_read[start[two] + 1]
        fl = allflags[a:b]
        entry = np.diff(fl.astype(np.int8), prepend=0) == 1
        code = fl + entry + 3 * (p1 != p2)
        P1 = p1.tolist()
        for j in np.flatnonzero(rcount > 2).tolist():
            ps = dict.fromkeys(
                ref_of_read[start[j]:start[j] + rcount[j]].tolist())
            if len(ps) > 2:
                code[j] = fl[j] + entry[j] + 6
                P1[j] = itemgetter(*ps)
            elif len(ps) == 2:
                code[j] = fl[j] + entry[j] + 3
                P1[j], p2[j] = ps

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

        fold = self._fold
        if fold is None:
            return
        vals = self._vals
        if len(slots) >= len(vals[0]):
            size = 2 * len(slots) + 1
            for i, v in enumerate(vals):
                vals[i] = np.concatenate((v, np.zeros(size - len(v))))
        prelude = np.concatenate(([0], prelude))
        pad = [0.0] * n
        comps = []
        for v in vals:
            comp = v[prelude].tolist()
            comp += pad
            comps.append(comp)
        fold(code.tolist(), P1, p2.tolist(), (lats[a:b] + 0.0).tolist(),
             range(pre, pre + n), gates, comps, self._rings, self._bests,
             self._reused, self._consts, self._ring_pos, self._windows)
        if len(carried):
            carry = itemgetter(*(last[tails] - 1 + pre).tolist())
            for v, comp in zip(vals, comps):
                v[carried] = carry(comp)

    def _span_stats(self, fl, entry, loc, inst, write, group, last, ref,
                    stride):
        """Accumulate the sub-block's span statistics over the sorted
        events; returns each span's ``(gate getter, live-ins +
        live-outs)`` when a TLR scenario needs them."""
        starts = np.flatnonzero(entry)
        nspans = len(starts)
        if not nspans:
            return []
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
            return []
        keyed = np.sort(span[ins] * stride + ref[ins])
        gate_refs = (keyed % stride).tolist()
        counts = np.bincount(span[ins], minlength=nspans)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        total = counts + np.bincount(span[outs], minlength=nspans)
        gates = []
        for s, io_count in enumerate(total.tolist()):
            seg = gate_refs[bounds[s]:bounds[s + 1]]
            if len(seg) < 2:
                seg += [0, 0]  # the constant 0.0: never above a gate
            gates.append((itemgetter(*seg), io_count))
        return gates


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
