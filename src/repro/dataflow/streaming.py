"""One-pass streaming dataflow analysis over chunked trace streams.

:class:`StreamingDataflowEngine` is the production dataflow engine.
It drains a chunk stream (see :mod:`repro.vm.tracestream`) exactly
once and evaluates every timing scenario *plus* the reusability
summary, the maximal-span statistics and the section-4.5 I/O stats —
everything :func:`repro.exp.runner.run_profile` needs — while holding
O(block) memory instead of the whole trace.

Bit-identity with the per-scenario oracle
-----------------------------------------
:class:`repro.dataflow.model.DataflowModel` scans the stream once per
scenario with a ``ready[loc]`` table and a materialized reuse plan.
The engine instead resolves every read to the index of its last
writer once, shared by all scenarios, and evaluates each scenario as
a fold over a completion-time list — the same float operations in the
same order.  To do that over a stream it cuts the stream into
**blocks** and carries three pieces of state across block
boundaries:

- the completion time of the last writer of each location as of
  block start.  In-block producer references stay list indices; a
  read whose producer lies in an earlier block is encoded as
  ``~slot``, where the engine-wide slot table interns each location
  the first time it crosses a block boundary, and resolved as a flat
  ``vals[slot]`` list index per scenario (a never-written slot holds
  ``0.0``, exactly as a ``ready.get()`` miss contributes nothing in
  the oracle).  The slot indirection makes the cross-block resolution a
  list index instead of a dict probe, and lets the block-end state
  update — shared ``(slot, producer)`` pairs computed once — replace
  the per-scenario dict stores of a naive carry table.
- the window ring (``ring``/``room``/``idx``/``grad``) of each
  windowed scenario, carried verbatim.
- the instruction-level reuse history (``pc -> input signatures``),
  so per-chunk reusability flags equal the whole-trace flags.

Blocks are cut *after the last non-reusable instruction* of each
chunk, so every maximal reusable span — a trace candidate — lies
wholly inside one block.  That is load-bearing twice over: the span's
live-in gate must be evaluated at span entry over the span's *full*
live-in set (which is only known once the span is complete), and the
per-span latency depends on its total I/O counts.  Memory is therefore
O(max(chunk, longest reusable span)); a pathological fully-reusable
stream degrades to one block (the same stream would also defeat the
paper's trace-collection limits).

The window gate is tracked with a ``room`` counter: it only engages
once more than ``window`` fetchable instructions have been seen, which
is when the oracle's ring buffer starts returning graduation times.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.stats import TraceIOStats
from repro.core.traces import _span_from_columnar
from repro.dataflow.model import Scenario, TimingResult
from repro.isa.registers import MEM_LOC_BASE
from repro.vm.trace import ColumnarTrace, extend_columnar, slice_columnar
from repro.vm.tracestream import DEFAULT_CHUNK_SIZE, as_chunk_stream


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


class _ScenarioState:
    """Per-scenario fold state carried across blocks."""

    __slots__ = (
        "scenario", "window", "vals", "ring", "room", "idx", "grad",
        "best", "reused",
    )

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.window = scenario.window_size
        #: completion time per engine slot (grown lazily; slot order is
        #: engine-wide, so every scenario's list lines up)
        self.vals: list[float] = []
        self.ring: list[float] = []
        self.room = self.window or 0
        self.idx = 0
        self.grad = 0.0
        self.best = 0.0
        self.reused = 0


class _Block:
    """Shared (scenario-independent) precompute over one block."""

    __slots__ = (
        "n", "lats", "flags", "prods", "span_ids", "gate_refs",
        "span_io",
    )


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
    its materialized counterpart.
    """

    def __init__(self, traceish, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self._stream = as_chunk_stream(traceish, chunk_size=chunk_size)
        #: location -> slot interning table for cross-block producer
        #: references (shared by every scenario's ``vals`` list)
        self._slots: dict[int, int] = {}
        self.n = 0
        self.reuse: StreamReusability | None = None
        self.span_count = 0
        self.span_covered = 0
        self.avg_span_length = 0.0
        self.io_stats: TraceIOStats | None = None
        # span I/O accumulators (totals; divisions happen at the end,
        # mirroring repro.core.stats.trace_io_stats)
        self._span_in = 0
        self._span_reg_in = 0
        self._span_out = 0
        self._span_reg_out = 0

    # ------------------------------------------------------------------
    def analyze_all(self, scenarios: Sequence[Scenario]) -> list[TimingResult]:
        """Evaluate every scenario in one pass; order matches the input."""
        states = [_ScenarioState(s) for s in scenarios]
        # reset accumulators (the stream is re-iterable, so is this)
        self._slots = {}
        self.n = 0
        self.span_count = 0
        self.span_covered = 0
        self._span_in = self._span_reg_in = 0
        self._span_out = self._span_reg_out = 0

        history: dict[int, set] = {}
        history_get = history.get
        reusable = 0
        signature_count = 0

        buf: ColumnarTrace | None = None
        bflags = bytearray()

        for chunk in self._stream.chunks():
            nc = len(chunk)
            if not nc:
                continue
            # incremental instruction-level reusability: same signature
            # construction as _columnar_reusability, history persistent.
            # Deliberately scalar: Python set membership treats 1 and
            # 1.0 as the same signature, which any bit-level batch
            # encoding of the value columns would split.
            cflags = bytearray(nc)
            pcs = chunk.pcs
            rb, rl, rv = chunk.read_bounds, chunk.read_locs, chunk.read_vals
            a = 0
            for i, pc in enumerate(pcs):
                b = rb[i + 1]
                seen = history_get(pc)
                if seen is None:
                    seen = set()
                    history[pc] = seen
                sig = (tuple(rl[a:b]), tuple(rv[a:b]))
                if sig in seen:
                    cflags[i] = 1
                    reusable += 1
                else:
                    seen.add(sig)
                    signature_count += 1
                a = b
            self.n += nc

            if buf is None:
                cur: ColumnarTrace = chunk
                curflags = cflags
            else:
                extend_columnar(buf, chunk)
                bflags += cflags
                cur = buf
                curflags = bflags
            lz = curflags.rfind(0)
            if lz == -1:
                # wholly reusable so far: the open span may continue
                # into the next chunk — keep buffering
                if cur is chunk:
                    buf = ColumnarTrace()
                    extend_columnar(buf, chunk)
                    bflags = bytearray(cflags)
                continue
            cut = lz + 1
            if cut == len(cur):
                block, fblock = cur, curflags
                buf = None
                bflags = bytearray()
            else:
                block = slice_columnar(cur, 0, cut)
                fblock = curflags[:cut]
                # the remainder's arrays are fresh copies: safe to keep
                # extending in place
                buf = slice_columnar(cur, cut, len(cur))
                bflags = bytearray(curflags[cut:])
            self._process_block(block, fblock, states)

        if buf is not None and len(buf):
            self._process_block(buf, bflags, states)

        self.reuse = StreamReusability(
            reusable_count=reusable,
            total_count=self.n,
            static_count=len(history),
            signature_count=signature_count,
        )
        self._finalize_span_stats()
        n = self.n
        results = []
        for st in states:
            sc = st.scenario
            if sc.kind == "tlr" and sc.fetch_free:
                reused = self.span_covered
            else:
                reused = st.reused
            results.append(TimingResult(
                instruction_count=n,
                total_cycles=max(st.best, 1.0) if n else 0.0,
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
        total_in, total_reg_in = self._span_in, self._span_reg_in
        total_out, total_reg_out = self._span_out, self._span_reg_out
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
    def _process_block(self, block: ColumnarTrace, flags: bytearray,
                       states: list[_ScenarioState]) -> None:
        n = len(block)
        # maximal reusable runs — wholly contained by construction;
        # batch-extracted from the flag bytes (a zero-padded diff turns
        # every 0->1 edge into a start and every 1->0 edge into an end)
        bounded = np.zeros(n + 2, np.int8)
        bounded[1:-1] = np.frombuffer(flags, np.uint8)
        edges = np.diff(bounded)
        runs = list(zip(np.flatnonzero(edges == 1).tolist(),
                        np.flatnonzero(edges == -1).tolist()))

        span_inlocs: list[tuple[int, ...]] = []
        span_io: list[tuple[int, int]] = []
        for a, b in runs:
            span = _span_from_columnar(block, a, b)
            span_inlocs.append(span.input_locations())
            span_io.append((span.input_count, span.output_count))
            self.span_count += 1
            self.span_covered += b - a
            self._span_in += span.input_count
            self._span_out += span.output_count
            for loc, _value in span.live_ins:
                if loc < MEM_LOC_BASE:
                    self._span_reg_in += 1
            for loc, _value in span.live_outs:
                if loc < MEM_LOC_BASE:
                    self._span_reg_out += 1

        # producer references: in-block producers are list indices,
        # earlier-block producers are encoded as ~slot (the engine-wide
        # interning of the location) and resolved as a flat list index
        # per scenario (shaped for the folds: bare ref, pair tuple,
        # None, dedup'd list)
        slots = self._slots
        writer: dict[int, int] = {}
        writer_get = writer.get
        prods: list = []
        prods_append = prods.append
        rb, rl = block.read_bounds, block.read_locs
        wb, wl = block.write_bounds, block.write_locs
        span_ids = [-1] * n
        gate_refs: list[tuple[int, ...]] = []
        next_sid = 0
        next_start = runs[0][0] if runs else -1
        a = rb[0]
        wa = wb[0]
        for j in range(n):
            if j == next_start:
                a2, b2 = runs[next_sid]
                span_ids[a2:b2] = [next_sid] * (b2 - a2)
                gp: list[int] = []
                for loc in span_inlocs[next_sid]:
                    p = writer_get(loc)
                    if p is None:
                        p = ~slots.setdefault(loc, len(slots))
                    if p not in gp:
                        gp.append(p)
                gate_refs.append(tuple(gp))
                next_sid += 1
                next_start = runs[next_sid][0] if next_sid < len(runs) else -1
            b = rb[j + 1]
            if b - a == 1:
                loc1 = rl[a]
                p = writer_get(loc1)
                if p is None:
                    p = ~slots.setdefault(loc1, len(slots))
                prods_append(p)
            elif b - a == 2:
                loc1 = rl[a]
                loc2 = rl[a + 1]
                p1 = writer_get(loc1)
                if p1 is None:
                    p1 = ~slots.setdefault(loc1, len(slots))
                p2 = writer_get(loc2)
                if p2 is None:
                    p2 = ~slots.setdefault(loc2, len(slots))
                if p1 == p2:
                    prods_append(p1)
                else:
                    prods_append((p1, p2))
            elif a == b:
                prods_append(None)
            else:
                ps: list[int] = []
                for idx in range(a, b):
                    loc = rl[idx]
                    p = writer_get(loc)
                    if p is None:
                        p = ~slots.setdefault(loc, len(slots))
                    if p not in ps:
                        ps.append(p)
                if len(ps) == 1:
                    prods_append(ps[0])
                elif len(ps) == 2:
                    prods_append((ps[0], ps[1]))
                else:
                    prods_append(ps)
            a = b
            wb1 = wb[j + 1]
            while wa < wb1:
                writer[wl[wa]] = j
                wa += 1

        pre = _Block()
        pre.n = n
        pre.lats = block.lats
        pre.flags = flags
        pre.prods = prods
        pre.span_ids = span_ids
        pre.gate_refs = gate_refs
        pre.span_io = span_io

        # block-end state update, computed once and shared by every
        # scenario: intern each written location and pair its slot with
        # the in-block index of its last writer
        slot_updates = [
            (slots.setdefault(loc, len(slots)), jj)
            for loc, jj in writer.items()
        ]
        nslots = len(slots)

        for st in states:
            vals = st.vals
            if len(vals) < nslots:
                # new slots start at 0.0 — the never-written default
                vals.extend([0.0] * (nslots - len(vals)))
            kind = st.scenario.kind
            if kind == "base":
                comp = self._fold_base(st, pre)
            elif kind == "ilr":
                comp = self._fold_ilr(st, pre)
            else:
                comp = self._fold_tlr(st, pre)
            for slot, jj in slot_updates:
                vals[slot] = comp[jj]

    # ------------------------------------------------------------------
    # scenario folds — each mirrors DataflowModel.analyze under the
    # matching reuse plan branch for branch; ``s`` resolution
    # additionally routes negative refs through the slot-indexed
    # ``vals`` list
    # ------------------------------------------------------------------
    def _fold_base(self, st: _ScenarioState, pre: _Block) -> list[float]:
        comp: list[float] = []
        append = comp.append
        vals = st.vals
        window = st.window
        best = st.best
        if not window:
            for p, lat in zip(pre.prods, pre.lats):
                if type(p) is int:
                    s = comp[p] if p >= 0 else vals[~p]
                elif type(p) is tuple:
                    q = p[0]
                    s = comp[q] if q >= 0 else vals[~q]
                    q = p[1]
                    t = comp[q] if q >= 0 else vals[~q]
                    if t > s:
                        s = t
                elif p is None:
                    s = 0.0
                else:
                    s = 0.0
                    for q in p:
                        t = comp[q] if q >= 0 else vals[~q]
                        if t > s:
                            s = t
                c = s + lat
                if c > best:
                    best = c
                append(c)
        else:
            ring = st.ring
            rappend = ring.append
            grad = st.grad
            room = st.room
            idx = st.idx
            for p, lat in zip(pre.prods, pre.lats):
                if type(p) is int:
                    s = comp[p] if p >= 0 else vals[~p]
                elif type(p) is tuple:
                    q = p[0]
                    s = comp[q] if q >= 0 else vals[~q]
                    q = p[1]
                    t = comp[q] if q >= 0 else vals[~q]
                    if t > s:
                        s = t
                elif p is None:
                    s = 0.0
                else:
                    s = 0.0
                    for q in p:
                        t = comp[q] if q >= 0 else vals[~q]
                        if t > s:
                            s = t
                if room:
                    c = s + lat
                    if c > grad:
                        grad = c
                    rappend(grad)
                    room -= 1
                else:
                    gate = ring[idx]
                    if gate > s:
                        s = gate
                    c = s + lat
                    if c > grad:
                        grad = c
                    ring[idx] = grad
                    idx += 1
                    if idx == window:
                        idx = 0
                if c > best:
                    best = c
                append(c)
            st.grad = grad
            st.room = room
            st.idx = idx
        st.best = best
        return comp

    def _fold_ilr(self, st: _ScenarioState, pre: _Block) -> list[float]:
        comp: list[float] = []
        append = comp.append
        vals = st.vals
        window = st.window
        latency = st.scenario.latency
        best = st.best
        reused = st.reused
        if not window:
            for p, lat, flag in zip(pre.prods, pre.lats, pre.flags):
                if type(p) is int:
                    s = comp[p] if p >= 0 else vals[~p]
                elif type(p) is tuple:
                    q = p[0]
                    s = comp[q] if q >= 0 else vals[~q]
                    q = p[1]
                    t = comp[q] if q >= 0 else vals[~q]
                    if t > s:
                        s = t
                elif p is None:
                    s = 0.0
                else:
                    s = 0.0
                    for q in p:
                        t = comp[q] if q >= 0 else vals[~q]
                        if t > s:
                            s = t
                c = s + lat
                if flag:
                    rc = s + latency
                    if rc < c:
                        c = rc
                        reused += 1
                if c > best:
                    best = c
                append(c)
        else:
            ring = st.ring
            rappend = ring.append
            grad = st.grad
            room = st.room
            idx = st.idx
            for p, lat, flag in zip(pre.prods, pre.lats, pre.flags):
                if type(p) is int:
                    s = comp[p] if p >= 0 else vals[~p]
                elif type(p) is tuple:
                    q = p[0]
                    s = comp[q] if q >= 0 else vals[~q]
                    q = p[1]
                    t = comp[q] if q >= 0 else vals[~q]
                    if t > s:
                        s = t
                elif p is None:
                    s = 0.0
                else:
                    s = 0.0
                    for q in p:
                        t = comp[q] if q >= 0 else vals[~q]
                        if t > s:
                            s = t
                if room:
                    c = s + lat
                    if flag:
                        rc = s + latency
                        if rc < c:
                            c = rc
                            reused += 1
                    if c > grad:
                        grad = c
                    rappend(grad)
                    room -= 1
                else:
                    # the reuse start is taken *before* the window gate
                    if flag:
                        rc = s + latency
                        gate = ring[idx]
                        if gate > s:
                            s = gate
                        c = s + lat
                        if rc < c:
                            c = rc
                            reused += 1
                    else:
                        gate = ring[idx]
                        if gate > s:
                            s = gate
                        c = s + lat
                    if c > grad:
                        grad = c
                    ring[idx] = grad
                    idx += 1
                    if idx == window:
                        idx = 0
                if c > best:
                    best = c
                append(c)
            st.grad = grad
            st.room = room
            st.idx = idx
        st.best = best
        st.reused = reused
        return comp

    def _fold_tlr(self, st: _ScenarioState, pre: _Block) -> list[float]:
        scenario = st.scenario
        if scenario.k is not None:
            k = scenario.k
            span_lats = [k * (i + o) for i, o in pre.span_io]
        else:
            span_lats = [scenario.latency] * len(pre.span_io)
        comp: list[float] = []
        append = comp.append
        vals = st.vals
        window = st.window
        fetch_free = scenario.fetch_free
        gate_refs = pre.gate_refs
        span_ids = pre.span_ids
        best = st.best
        reused = st.reused
        cur_sid = -1
        cur_reused = 0.0
        if not window:
            for p, lat, sid in zip(pre.prods, pre.lats, span_ids):
                if type(p) is int:
                    s = comp[p] if p >= 0 else vals[~p]
                elif type(p) is tuple:
                    q = p[0]
                    s = comp[q] if q >= 0 else vals[~q]
                    q = p[1]
                    t = comp[q] if q >= 0 else vals[~q]
                    if t > s:
                        s = t
                elif p is None:
                    s = 0.0
                else:
                    s = 0.0
                    for q in p:
                        t = comp[q] if q >= 0 else vals[~q]
                        if t > s:
                            s = t
                c = s + lat
                if sid >= 0:
                    if sid != cur_sid:
                        g = 0.0
                        for q in gate_refs[sid]:
                            t = comp[q] if q >= 0 else vals[~q]
                            if t > g:
                                g = t
                        cur_sid = sid
                        cur_reused = g + span_lats[sid]
                    if cur_reused < c:
                        c = cur_reused
                        if not fetch_free:
                            reused += 1
                if c > best:
                    best = c
                append(c)
        else:
            ring = st.ring
            rappend = ring.append
            grad = st.grad
            room = st.room
            idx = st.idx
            for p, lat, sid in zip(pre.prods, pre.lats, span_ids):
                if type(p) is int:
                    s = comp[p] if p >= 0 else vals[~p]
                elif type(p) is tuple:
                    q = p[0]
                    s = comp[q] if q >= 0 else vals[~q]
                    q = p[1]
                    t = comp[q] if q >= 0 else vals[~q]
                    if t > s:
                        s = t
                elif p is None:
                    s = 0.0
                else:
                    s = 0.0
                    for q in p:
                        t = comp[q] if q >= 0 else vals[~q]
                        if t > s:
                            s = t
                if sid >= 0:
                    if sid != cur_sid:
                        g = 0.0
                        for q in gate_refs[sid]:
                            t = comp[q] if q >= 0 else vals[~q]
                            if t > g:
                                g = t
                        cur_sid = sid
                        cur_reused = g + span_lats[sid]
                    if fetch_free:
                        # no window gate, no ring slot
                        c = s + lat
                        if cur_reused < c:
                            c = cur_reused
                        if c > grad:
                            grad = c
                    elif room:
                        c = s + lat
                        if cur_reused < c:
                            c = cur_reused
                            reused += 1
                        if c > grad:
                            grad = c
                        rappend(grad)
                        room -= 1
                    else:
                        gate = ring[idx]
                        if gate > s:
                            s = gate
                        c = s + lat
                        if cur_reused < c:
                            c = cur_reused
                            reused += 1
                        if c > grad:
                            grad = c
                        ring[idx] = grad
                        idx += 1
                        if idx == window:
                            idx = 0
                else:
                    if room:
                        c = s + lat
                        if c > grad:
                            grad = c
                        rappend(grad)
                        room -= 1
                    else:
                        gate = ring[idx]
                        if gate > s:
                            s = gate
                        c = s + lat
                        if c > grad:
                            grad = c
                        ring[idx] = grad
                        idx += 1
                        if idx == window:
                            idx = 0
                if c > best:
                    best = c
                append(c)
            st.grad = grad
            st.room = room
            st.idx = idx
        st.best = best
        st.reused = reused
        return comp
