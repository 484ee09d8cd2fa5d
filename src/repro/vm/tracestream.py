"""Chunked trace streams — the interface every analysis consumes.

The streaming pipeline decouples *where a trace lives* (a live
machine, a v3 file, a materialized ``ColumnarTrace``) from *how it is
consumed*.  A **trace stream** is any object with:

- ``chunks()`` — a method returning a fresh iterator of
  :class:`~repro.vm.trace.ColumnarTrace` segments, in stream order,
  jointly covering the whole trace.  Streams are *re-iterable*:
  calling ``chunks()`` again replays the trace from the start
  (re-reading the file, or re-executing the program).
- ``program_name`` / ``halted`` / ``truncated`` — stream metadata.
  For execution-backed streams the flags are only meaningful after a
  full ``chunks()`` drain.
- ``count`` — total instructions, or ``None`` when unknown upfront
  (execution-backed streams learn it as they run).

Consumers hold O(chunk) memory: one segment at a time, never the
whole trace.  ``as_columnar(stream)`` is the one materializing adapter
for whole-trace consumers (``as_columnar(FileTraceStream(path))`` reads
a whole v3 file), and :func:`write_stream` is the one v3 file writer.

Four concrete streams cover the pipeline:

``ColumnarChunkStream``
    re-slices a materialized trace (the compatibility path — lets
    every streaming consumer also accept plain traces).
``FileTraceStream``
    wraps a v3 file via :class:`repro.vm.tracev3.TraceReader`;
    chunks are decoded on demand with O(chunk) memory.
``ExecutionChunkStream``
    wraps a machine *factory*; each ``chunks()`` call builds a fresh
    machine and yields segments as it executes (the no-cache path for
    traces too large to hold).
``TeeChunkStream``
    wraps a source stream so that its first complete drain also writes
    every segment to a v3 writer and publishes the file (the trace
    cache's only write path: :func:`repro.vm.tracecache.
    tee_cached_trace_stream`); later drains replay the published file.
"""

from __future__ import annotations

import pathlib
from collections.abc import Callable, Iterator

from repro.vm.trace import (
    AnyTrace,
    ColumnarTrace,
    DynInst,
    Trace,
    as_columnar,
    slice_columnar,
)

#: Default instructions per chunk when re-slicing or executing.
DEFAULT_CHUNK_SIZE = 65536

def run_chunks(machine, max_instructions: int | None = None, *,
               chunk_size: int = DEFAULT_CHUNK_SIZE,
               ) -> Iterator[ColumnarTrace]:
    """Execute a machine incrementally, yielding one columnar segment
    per ``chunk_size`` instructions.

    Works with any machine whose ``run(max_instructions)`` treats the
    budget as *absolute* against ``instruction_count`` (``Machine``
    does — repeated calls with growing budgets resume execution
    exactly).  Concatenating the yielded segments is bit-identical to a
    single ``run`` call with the same budget, and ``Machine`` binds its
    tiers once and compiles the same blocks whatever the chunk size,
    which the differential tests assert.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    done = machine.instruction_count
    while not machine.halted and (max_instructions is None
                                  or done < max_instructions):
        target = done + chunk_size
        if max_instructions is not None:
            target = min(max_instructions, target)
        segment = machine.run(target)
        done = machine.instruction_count
        if not len(segment):
            break
        yield segment


class ColumnarChunkStream:
    """A materialized trace presented as a chunk stream."""

    def __init__(self, trace: AnyTrace, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._trace = as_columnar(trace)
        self.chunk_size = chunk_size
        self.program_name = self._trace.program_name
        self.halted = self._trace.halted
        self.truncated = self._trace.truncated
        self.count: int | None = len(self._trace)

    def chunks(self) -> Iterator[ColumnarTrace]:
        ct = self._trace
        n = len(ct)
        cs = self.chunk_size
        if n <= cs:
            # whole trace in one chunk: avoid a full-copy slice
            if n:
                yield ct
            return
        for start in range(0, n, cs):
            yield slice_columnar(ct, start, min(start + cs, n))


class FileTraceStream:
    """A v3 trace file presented as a chunk stream (O(chunk) memory)."""

    def __init__(self, path: str | pathlib.Path) -> None:
        from repro.vm.tracev3 import TraceReader

        self._reader = TraceReader(path)
        self.path = pathlib.Path(path)
        self.program_name = self._reader.program_name
        self.halted = self._reader.halted
        self.truncated = self._reader.truncated
        self.count: int | None = self._reader.count
        self.chunk_size = self._reader.chunk_size

    @property
    def reader(self):
        """The underlying :class:`~repro.vm.tracev3.TraceReader`."""
        return self._reader

    def chunks(self) -> Iterator[ColumnarTrace]:
        return self._reader.chunks()

    def close(self) -> None:
        self._reader.close()

    def __enter__(self) -> "FileTraceStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ExecutionChunkStream:
    """A chunk stream that *executes* a program on demand.

    ``machine_factory`` must build a fresh machine per call; every
    ``chunks()`` iteration re-runs the (deterministic) program, so the
    stream is re-iterable without ever holding the whole trace.
    Metadata (``halted`` / ``truncated`` / ``count``) reflects the
    most recent complete drain.
    """

    def __init__(self, machine_factory: Callable[[], object], *,
                 program_name: str = "<anonymous>",
                 max_instructions: int | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self._factory = machine_factory
        self.program_name = program_name
        self.max_instructions = max_instructions
        self.chunk_size = chunk_size
        self.halted = False
        self.truncated = False
        self.count: int | None = None

    def chunks(self) -> Iterator[ColumnarTrace]:
        machine = self._factory()
        total = 0
        for segment in run_chunks(machine, self.max_instructions,
                                  chunk_size=self.chunk_size):
            total += len(segment)
            yield segment
        self.halted = machine.halted
        self.truncated = not machine.halted
        self.count = total


class TeeChunkStream:
    """A chunk stream whose first drain is *tee'd* into a trace writer.

    Wraps a source stream (typically an :class:`ExecutionChunkStream`)
    so that the first ``chunks()`` drain yields every segment to the
    consumer *and* feeds the same segment to a
    :class:`~repro.vm.tracev3.TraceWriter` as it streams past — the
    direct execute→analyze path: one execution produces both the
    analysis input and the persisted trace, with no
    serialize-then-reread round trip.

    The writer lifecycle is delegated to three callbacks so the cache
    layer owns its own locking/atomic-publish rules:

    - ``open_writer()`` → ``(writer, token)`` — create the writer
      (e.g. on a pid-tagged temp path); may return ``None`` to
      disable teeing for this drain.
    - ``commit(writer, token, source)`` — called after a complete
      drain; closes the writer, publishes the file, and may return a
      replacement stream (e.g. a ``FileTraceStream`` over the
      published entry) that serves every later ``chunks()`` call.
    - ``abort(writer, token)`` — called when the drain dies or the
      consumer abandons the iterator; must discard the partial file.

    An incomplete drain publishes nothing; the next ``chunks()`` call
    simply re-runs the source.  Segments are handed to the writer
    *by reference* — the no-copy invariant means neither the consumer
    nor the source may mutate a yielded segment.
    """

    def __init__(self, source, *, open_writer, commit, abort) -> None:
        self._source = source
        self._open_writer = open_writer
        self._commit = commit
        self._abort = abort
        self._replay = None
        self.program_name = source.program_name
        self.halted = source.halted
        self.truncated = source.truncated
        self.count: int | None = source.count

    @property
    def persisted(self) -> bool:
        """True once a complete drain has published the trace."""
        return self._replay is not None

    def chunks(self) -> Iterator[ColumnarTrace]:
        if self._replay is not None:
            yield from self._replay.chunks()
            return
        opened = self._open_writer()
        if opened is None:
            yield from self._source.chunks()
            self._sync_meta(self._source)
            return
        writer, token = opened
        done = False
        try:
            for segment in self._source.chunks():
                writer.write_segment(segment)
                yield segment
            done = True
        finally:
            if not done:
                self._abort(writer, token)
        self._sync_meta(self._source)
        self._replay = self._commit(writer, token, self._source)

    def _sync_meta(self, stream) -> None:
        self.program_name = stream.program_name
        self.halted = stream.halted
        self.truncated = stream.truncated
        self.count = stream.count


def is_chunk_stream(obj) -> bool:
    """True when ``obj`` follows the chunk-stream protocol."""
    return callable(getattr(obj, "chunks", None))


def as_chunk_stream(traceish, *, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Coerce any trace-like argument into a chunk stream.

    Streams pass through untouched; materialized traces (either
    layout) and plain ``DynInst`` sequences are wrapped in a
    :class:`ColumnarChunkStream`.  This is the entry point every
    stream-consuming analysis uses, so they all keep accepting plain
    traces unchanged.
    """
    if is_chunk_stream(traceish):
        return traceish
    return ColumnarChunkStream(traceish, chunk_size=chunk_size)


def iter_insts(traceish) -> Iterator[DynInst]:
    """Iterate ``DynInst`` records over any trace-like argument.

    Row materialization happens one chunk at a time for streams; for
    plain traces it is a direct iteration.  The uniform lazy entry
    point for row-oriented consumers (RTM, predictors, span scans).
    """
    if isinstance(traceish, (Trace, ColumnarTrace)):
        yield from traceish.instructions
        return
    if is_chunk_stream(traceish):
        for segment in traceish.chunks():
            yield from segment.instructions
        return
    yield from traceish


def stream_length(traceish) -> int | None:
    """The instruction count of a trace-like argument, if cheaply known."""
    if isinstance(traceish, (Trace, ColumnarTrace)):
        return len(traceish)
    if is_chunk_stream(traceish):
        return getattr(traceish, "count", None)
    try:
        return len(traceish)
    except TypeError:
        return None


def write_stream(stream, path: str | pathlib.Path, *,
                 chunk_size: int | None = None,
                 compresslevel: int | None = None,
                 threads: int | None = None) -> int:
    """Drain a chunk stream into a v3 file; returns instructions written.

    The writer re-chunks to its own ``chunk_size``, so the output
    layout is independent of the source segmentation.
    """
    from repro.vm.tracev3 import (
        DEFAULT_CHUNK_SIZE as V3_CHUNK,
        DEFAULT_COMPRESSLEVEL,
        TraceWriter,
    )

    stream = as_chunk_stream(stream)
    writer = TraceWriter(
        path,
        program_name=getattr(stream, "program_name", "<anonymous>"),
        chunk_size=chunk_size if chunk_size is not None else V3_CHUNK,
        compresslevel=(compresslevel if compresslevel is not None
                       else DEFAULT_COMPRESSLEVEL),
        threads=threads,
    )
    try:
        for segment in stream.chunks():
            writer.write_segment(segment)
    except BaseException:
        writer.abort()
        raise
    writer.program_name = getattr(stream, "program_name", writer.program_name)
    writer.close(
        halted=getattr(stream, "halted", False),
        truncated=getattr(stream, "truncated", False),
    )
    return writer.count
