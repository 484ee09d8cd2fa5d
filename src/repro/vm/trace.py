"""Dynamic instruction records — the unit every analysis consumes.

A :class:`DynInst` is the Python equivalent of one ATOM trace record:
it captures which storage locations an executed instruction read and
wrote **and the values involved**, which is exactly the information
the paper's reuse analyses need.  Locations use the flat integer
encoding from :mod:`repro.isa.registers` so registers and memory flow
through the same dependence tables.

Two trace containers exist:

- :class:`Trace` — the original row layout, a list of
  :class:`DynInst` records;
- :class:`ColumnarTrace` — a struct-of-arrays layout built on the
  stdlib :mod:`array` module (pc / op / latency / next-pc columns plus
  flattened read/write location and value columns with per-instruction
  offsets).  :meth:`repro.vm.machine.Machine.run` emits this form
  natively; it is cheaper to hold, serialise and cache than forty
  thousand ``DynInst`` objects, and the streaming dataflow engine and the
  reusability/liveness analyses consume its columns directly.

``ColumnarTrace`` is duck-compatible with ``Trace`` (``len``,
iteration, indexing, ``instructions``, metadata attributes), so every
consumer of the row layout keeps working; row records are materialised
lazily and cached on first access.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.isa.opcodes import Opcode, OpClass, op_class


class DynInst:
    """One executed instruction.

    Attributes
    ----------
    pc:
        Instruction index of this dynamic instance.
    op:
        The executed opcode.
    reads:
        Tuple of ``(location, value)`` pairs, in read order.  Includes
        source registers and, for loads, the memory word read.
    writes:
        Tuple of ``(location, value)`` pairs, in write order.
    latency:
        Result latency in cycles (Alpha-21164 model).
    next_pc:
        PC of the dynamically following instruction (branch outcome
        included), which the RTM stores as the resume point of a trace.
    """

    __slots__ = ("pc", "op", "reads", "writes", "latency", "next_pc")

    def __init__(
        self,
        pc: int,
        op: Opcode,
        reads: tuple[tuple[int, int | float], ...],
        writes: tuple[tuple[int, int | float], ...],
        latency: int,
        next_pc: int,
    ) -> None:
        self.pc = pc
        self.op = op
        self.reads = reads
        self.writes = writes
        self.latency = latency
        self.next_pc = next_pc

    @property
    def op_class(self) -> OpClass:
        """Functional class of the executed opcode."""
        return op_class(self.op)

    def __repr__(self) -> str:
        return (
            f"DynInst(pc={self.pc}, op={self.op.name}, reads={self.reads!r}, "
            f"writes={self.writes!r}, lat={self.latency}, next={self.next_pc})"
        )


@dataclass(slots=True)
class Trace:
    """A captured dynamic instruction stream plus execution metadata."""

    instructions: list[DynInst] = field(default_factory=list)
    program_name: str = "<anonymous>"
    halted: bool = False
    #: True when the run stopped because it hit the instruction budget.
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    @property
    def dynamic_count(self) -> int:
        """Number of dynamic instructions captured."""
        return len(self.instructions)

    def static_pcs(self) -> set[int]:
        """The set of distinct static PCs that executed."""
        return {d.pc for d in self.instructions}

    def opcode_histogram(self) -> dict[Opcode, int]:
        """Dynamic opcode mix (useful for workload characterisation)."""
        hist: dict[Opcode, int] = {}
        for d in self.instructions:
            hist[d.op] = hist.get(d.op, 0) + 1
        return hist

    def class_histogram(self) -> dict[OpClass, int]:
        """Dynamic operation-class mix."""
        hist: dict[OpClass, int] = {}
        for d in self.instructions:
            cls = d.op_class
            hist[cls] = hist.get(cls, 0) + 1
        return hist


#: Opcode lookup by integer value (cheaper than the EnumMeta call).
_OPCODE_BY_VALUE: dict[int, Opcode] = {int(op): op for op in Opcode}


class ColumnarTrace:
    """A captured dynamic stream in struct-of-arrays layout.

    Columns
    -------
    ``pcs`` / ``ops`` / ``lats`` / ``next_pcs``
        One fixed-width entry per dynamic instruction.
    ``read_locs`` / ``read_vals`` (and the ``write_*`` twins)
        The flattened per-instruction read/write pairs; instruction
        ``i`` owns the half-open slice ``read_bounds[i] :
        read_bounds[i+1]``.  Locations live in ``array('q')``; values
        stay in a plain list because a value may be a 64-bit int or an
        IEEE double and must round-trip exactly.
    """

    __slots__ = (
        "program_name", "halted", "truncated",
        "pcs", "ops", "lats", "next_pcs",
        "read_bounds", "read_locs", "read_vals",
        "write_bounds", "write_locs", "write_vals",
        "_rows",
    )

    def __init__(
        self,
        program_name: str = "<anonymous>",
        halted: bool = False,
        truncated: bool = False,
    ) -> None:
        self.program_name = program_name
        self.halted = halted
        self.truncated = truncated
        self.pcs = array("i")
        self.ops = array("h")
        self.lats = array("h")
        self.next_pcs = array("i")
        self.read_bounds = array("I", (0,))
        self.read_locs = array("q")
        self.read_vals: list = []
        self.write_bounds = array("I", (0,))
        self.write_locs = array("q")
        self.write_vals: list = []
        self._rows: list[DynInst] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(
        self,
        pc: int,
        op: int,
        reads: Sequence[tuple[int, int | float]],
        writes: Sequence[tuple[int, int | float]],
        latency: int,
        next_pc: int,
    ) -> None:
        """Append one dynamic instruction from (location, value) pairs."""
        self.pcs.append(pc)
        self.ops.append(op)
        self.lats.append(latency)
        self.next_pcs.append(next_pc)
        rloc, rval = self.read_locs, self.read_vals
        for loc, val in reads:
            rloc.append(loc)
            rval.append(val)
        self.read_bounds.append(len(rloc))
        wloc, wval = self.write_locs, self.write_vals
        for loc, val in writes:
            wloc.append(loc)
            wval.append(val)
        self.write_bounds.append(len(wloc))
        self._rows = None

    @classmethod
    def from_trace(cls, trace: "Trace | Sequence[DynInst]") -> "ColumnarTrace":
        """Convert a row-layout trace (or any ``DynInst`` sequence)."""
        if isinstance(trace, ColumnarTrace):
            return trace
        insts = trace.instructions if isinstance(trace, Trace) else list(trace)
        ct = cls(
            program_name=getattr(trace, "program_name", "<anonymous>"),
            halted=getattr(trace, "halted", False),
            truncated=getattr(trace, "truncated", False),
        )
        for d in insts:
            ct.append(d.pc, int(d.op), d.reads, d.writes, d.latency, d.next_pc)
        return ct

    # ------------------------------------------------------------------
    # columnar access
    # ------------------------------------------------------------------
    def reads_of(self, i: int) -> tuple[tuple[int, int | float], ...]:
        """Read pairs of instruction ``i`` (same shape as DynInst.reads)."""
        a, b = self.read_bounds[i], self.read_bounds[i + 1]
        return tuple(zip(self.read_locs[a:b], self.read_vals[a:b]))

    def writes_of(self, i: int) -> tuple[tuple[int, int | float], ...]:
        """Write pairs of instruction ``i``."""
        a, b = self.write_bounds[i], self.write_bounds[i + 1]
        return tuple(zip(self.write_locs[a:b], self.write_vals[a:b]))

    def inst(self, i: int) -> DynInst:
        """Materialise instruction ``i`` as a row record."""
        return DynInst(
            pc=self.pcs[i],
            op=_OPCODE_BY_VALUE[self.ops[i]],
            reads=self.reads_of(i),
            writes=self.writes_of(i),
            latency=self.lats[i],
            next_pc=self.next_pcs[i],
        )

    # ------------------------------------------------------------------
    # Trace-compatible API
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> list[DynInst]:
        """Row records, materialised lazily and cached."""
        rows = self._rows
        if rows is None:
            rows = [self.inst(i) for i in range(len(self.pcs))]
            self._rows = rows
        return rows

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self.instructions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.instructions[index]
        return self._rows[index] if self._rows is not None else self.inst(index)

    @property
    def dynamic_count(self) -> int:
        """Number of dynamic instructions captured."""
        return len(self.pcs)

    def static_pcs(self) -> set[int]:
        """The set of distinct static PCs that executed."""
        return set(self.pcs)

    def opcode_histogram(self) -> dict[Opcode, int]:
        """Dynamic opcode mix (no row materialisation needed)."""
        hist: dict[int, int] = {}
        for op in self.ops:
            hist[op] = hist.get(op, 0) + 1
        return {_OPCODE_BY_VALUE[op]: n for op, n in hist.items()}

    def class_histogram(self) -> dict[OpClass, int]:
        """Dynamic operation-class mix."""
        hist: dict[OpClass, int] = {}
        for op, n in self.opcode_histogram().items():
            cls = op_class(op)
            hist[cls] = hist.get(cls, 0) + n
        return hist

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace({self.program_name!r}, n={len(self.pcs)}, "
            f"halted={self.halted}, truncated={self.truncated})"
        )

    # Serialised state (copies, and the retired-format size reference
    # in scripts/bench_engine.py) is the arrays alone, without the
    # materialised rows.
    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__
                if slot != "_rows"}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._rows = None


def _values_identical(xs: list, ys: list) -> bool:
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if type(x) is not type(y):
            return False
        # NaN != NaN, but bitwise-equal traces may legitimately hold it
        if x != y and not (x != x and y != y):
            return False
    return True


def trace_identical(a: ColumnarTrace, b: ColumnarTrace) -> bool:
    """True when two columnar traces are bit-identical.

    Stricter than element ``==``: values must match in *type* as well
    (``1`` and ``1.0`` are different trace contents), which is the
    contract the tiered machine's differential tests enforce against
    the one-at-a-time interpreter oracle.
    """
    return (
        len(a) == len(b)
        and a.halted == b.halted
        and a.truncated == b.truncated
        and a.program_name == b.program_name
        and a.pcs == b.pcs
        and a.ops == b.ops
        and a.lats == b.lats
        and a.next_pcs == b.next_pcs
        and a.read_bounds == b.read_bounds
        and a.write_bounds == b.write_bounds
        and a.read_locs == b.read_locs
        and a.write_locs == b.write_locs
        and _values_identical(a.read_vals, b.read_vals)
        and _values_identical(a.write_vals, b.write_vals)
    )


AnyTrace = Trace | ColumnarTrace


def stream_of(trace: "AnyTrace | Sequence[DynInst]") -> Sequence[DynInst]:
    """The ``DynInst`` sequence behind any trace-like argument.

    Accepts either trace layout or a plain sequence of records; the
    uniform entry point analyses use instead of per-call-site
    ``isinstance`` ladders.
    """
    if isinstance(trace, (Trace, ColumnarTrace)):
        return trace.instructions
    return trace


def as_columnar(trace) -> ColumnarTrace:
    """The columnar view of any trace-like argument (converting if needed).

    Accepts either trace layout, a plain ``DynInst`` sequence, or a
    *chunk stream* (any object with a ``chunks()`` method yielding
    columnar segments, e.g. :class:`repro.vm.tracestream.TraceStream`
    or :class:`repro.vm.tracev3.TraceReader`) — the materializing
    adapter the streaming pipeline keeps for whole-trace consumers.
    """
    if isinstance(trace, ColumnarTrace):
        return trace
    if isinstance(trace, Trace):
        return ColumnarTrace.from_trace(trace)
    if hasattr(trace, "chunks"):
        out = ColumnarTrace()
        for segment in trace.chunks():
            extend_columnar(out, segment)
        # metadata is read *after* draining: execution-backed streams
        # only know halted/truncated once the run finishes
        out.program_name = getattr(trace, "program_name", "<anonymous>")
        out.halted = getattr(trace, "halted", False)
        out.truncated = getattr(trace, "truncated", False)
        return out
    return ColumnarTrace.from_trace(trace)


def extend_columnar(dst: ColumnarTrace, src: ColumnarTrace) -> None:
    """Append every instruction of ``src`` onto ``dst`` (column-wise).

    The concatenation primitive behind the streaming adapters: bounds
    are rebased so ``dst`` stays a self-consistent columnar trace.
    """
    dst.pcs.extend(src.pcs)
    dst.ops.extend(src.ops)
    dst.lats.extend(src.lats)
    dst.next_pcs.extend(src.next_pcs)
    rb, wb = src.read_bounds, src.write_bounds
    dst.read_bounds += _rebased(rb, 1, len(rb), dst.read_bounds[-1])
    dst.read_locs.extend(src.read_locs)
    dst.read_vals.extend(src.read_vals)
    dst.write_bounds += _rebased(wb, 1, len(wb), dst.write_bounds[-1])
    dst.write_locs.extend(src.write_locs)
    dst.write_vals.extend(src.write_vals)
    dst._rows = None


def _rebased(bounds: array, start: int, stop: int, delta: int) -> array:
    """``array("I", (b + delta for b in bounds[start:stop]))``, computed
    in numpy; like that expression, raises :class:`OverflowError` when a
    rebased bound does not fit the column's 32 bits."""
    out = np.asarray(bounds)[start:stop].astype(np.int64) + delta
    if len(out) and (out.min() < 0 or out.max() > 0xFFFFFFFF):
        raise OverflowError("rebased bound does not fit array('I')")
    return array("I", out.astype(np.uintc).tobytes())


def slice_columnar(ct: ColumnarTrace, start: int, stop: int) -> ColumnarTrace:
    """Instructions ``[start, stop)`` as a new columnar segment.

    Bounds are rebased to the slice; the segment carries
    ``halted=False, truncated=True`` (it is a piece of a stream, not a
    complete run).
    """
    n = len(ct.pcs)
    start = max(0, min(start, n))
    stop = max(start, min(stop, n))
    out = ColumnarTrace(program_name=ct.program_name, halted=False,
                        truncated=True)
    out.pcs = ct.pcs[start:stop]
    out.ops = ct.ops[start:stop]
    out.lats = ct.lats[start:stop]
    out.next_pcs = ct.next_pcs[start:stop]
    ra, rb = ct.read_bounds[start], ct.read_bounds[stop]
    out.read_bounds = _rebased(ct.read_bounds, start, stop + 1, -ra)
    out.read_locs = ct.read_locs[ra:rb]
    out.read_vals = ct.read_vals[ra:rb]
    wa, wb = ct.write_bounds[start], ct.write_bounds[stop]
    out.write_bounds = _rebased(ct.write_bounds, start, stop + 1, -wa)
    out.write_locs = ct.write_locs[wa:wb]
    out.write_vals = ct.write_vals[wa:wb]
    return out
