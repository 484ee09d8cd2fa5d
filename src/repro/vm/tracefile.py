"""Trace serialization: ATOM-style trace files for the Python era.

Dynamic traces are expensive to regenerate for big budgets, and
shipping them between machines (or caching them between experiment
runs) wants a stable on-disk format.  Two formats coexist:

- **v1** (default): line-oriented JSON — line 1 is a header object
  (format tag, program name, flags, count) followed by one compact
  JSON array per dynamic instruction,
  ``[pc, opcode, [loc, value, ...], [loc, value, ...], latency,
  next_pc]`` with the read/write pair lists flattened.  Portable and
  diffable.
- **v3**: the chunked streaming format of :mod:`repro.vm.tracev3` —
  delta/bitmap/typed-column encoded, per-chunk zlib frames, footer
  index.  Much smaller on disk, written incrementally during
  execution, and readable chunk-at-a-time with O(chunk) memory; the
  persistent trace cache (:mod:`repro.vm.tracecache`) stores v3.

``load_trace`` sniffs the format from the leading bytes, so callers
never need to know which one a file uses.  The retired v2 format (a
serialized :class:`~repro.vm.trace.ColumnarTrace` object) is
recognised by its magic and refused with a :class:`TraceFileError`;
its payload is never deserialized.  ``.gz`` paths are transparently
gzip-compressed for v1; v3 compresses its own chunks, so it rejects
``.gz`` paths rather than double-compressing into an unseekable
wrapper.  Round-tripping preserves every field bit-for-bit (ints stay
ints, floats stay floats), which the property tests assert.
"""

from __future__ import annotations

import gzip
import json
import pathlib
from collections.abc import Iterable

from repro.isa.opcodes import Opcode
from repro.obs import get_logger
from repro.vm.errors import TraceFileError
from repro.vm.trace import AnyTrace, DynInst, Trace, as_columnar
from repro.vm.tracestream import FileTraceStream, write_stream
from repro.vm.tracev3 import MAGIC_V3

FORMAT_TAG = "repro-trace-v1"

#: Leading bytes of a retired v2 (serialized columnar) trace file.
MAGIC_V2 = b"repro-trace-v2\x00"

_log = get_logger("tracefile")


def _open(path: pathlib.Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _open_binary(path: pathlib.Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


def _flatten(pairs: Iterable[tuple[int, int | float]]) -> list:
    out: list = []
    for loc, value in pairs:
        out.append(loc)
        out.append(value)
    return out


def _unflatten(flat: list) -> tuple[tuple[int, int | float], ...]:
    if len(flat) % 2:
        raise TraceFileError("odd-length location/value list")
    return tuple((flat[i], flat[i + 1]) for i in range(0, len(flat), 2))


def save_trace(trace: AnyTrace, path: str | pathlib.Path, *,
               format: str = "v1") -> None:
    """Write a trace; a ``.gz`` suffix enables compression (v1).

    ``format="v3"`` selects the chunked streaming layout (smallest,
    seekable; used by the trace cache); the default ``"v1"`` stays the
    portable JSON-lines format.
    """
    path = pathlib.Path(path)
    if format == "v3":
        if path.suffix == ".gz":
            raise TraceFileError(
                "v3 traces are already compressed per chunk; "
                "drop the .gz suffix"
            )
        write_stream(trace, path)
        return
    if format != "v1":
        raise TraceFileError(f"unknown trace file format {format!r}; use v1 or v3")
    header = {
        "format": FORMAT_TAG,
        "program": trace.program_name,
        "halted": trace.halted,
        "truncated": trace.truncated,
        "count": len(trace),
    }
    with _open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for inst in trace:
            record = [
                inst.pc,
                int(inst.op),
                _flatten(inst.reads),
                _flatten(inst.writes),
                inst.latency,
                inst.next_pc,
            ]
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_trace(path: str | pathlib.Path) -> AnyTrace:
    """Read a trace written by :func:`save_trace` (either format).

    The format is sniffed from the file's leading bytes: v3 files come
    back as a :class:`~repro.vm.trace.ColumnarTrace`, v1 files as the
    row-layout :class:`Trace`, and retired v2 files raise
    :class:`TraceFileError`.
    """
    path = pathlib.Path(path)
    with _open_binary(path, "rb") as bfh:
        try:
            prefix = bfh.read(len(MAGIC_V2))
        except OSError as exc:
            raise TraceFileError(f"{path}: unreadable: {exc}") from exc
        if prefix == MAGIC_V3:
            if path.suffix == ".gz":
                raise TraceFileError(
                    f"{path}: gzip-wrapped v3 traces are not seekable; "
                    "store v3 files uncompressed"
                )
            with FileTraceStream(path) as stream:
                trace = as_columnar(stream)
            if len(trace) != stream.count:
                raise TraceFileError(
                    f"{path}: chunk contents disagree with footer count")
            return trace
        if prefix == MAGIC_V2:
            _log.warning("legacy v2 trace file %s refused", path)
            raise TraceFileError(f"{path}: legacy v2 trace, regenerate it")
    with _open(path, "r") as fh:
        try:
            header_line = fh.readline()
        except (UnicodeDecodeError, OSError) as exc:
            # binary garbage (e.g. a bit-flipped v2/v3 magic) is not a
            # JSON-lines trace; surface the typed error
            raise TraceFileError(f"{path}: not a trace file: {exc}") from exc
        if not header_line:
            raise TraceFileError(f"{path}: empty trace file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TraceFileError(f"{path}: bad header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
            raise TraceFileError(f"{path}: not a {FORMAT_TAG} file")
        instructions = []
        records = enumerate(fh, start=2)
        while True:
            try:
                lineno, line = next(records)
            except StopIteration:
                break
            except (UnicodeDecodeError, OSError) as exc:
                raise TraceFileError(
                    f"{path}: undecodable record data: {exc}") from exc
            if not line.strip():
                continue
            try:
                pc, op, reads, writes, latency, next_pc = json.loads(line)
            except (json.JSONDecodeError, ValueError) as exc:
                raise TraceFileError(f"{path}:{lineno}: bad record: {exc}") from exc
            instructions.append(
                DynInst(
                    pc=pc,
                    op=Opcode(op),
                    reads=_unflatten(reads),
                    writes=_unflatten(writes),
                    latency=latency,
                    next_pc=next_pc,
                )
            )
    if header.get("count") is not None and header["count"] != len(instructions):
        raise TraceFileError(
            f"{path}: header declares {header['count']} records, "
            f"found {len(instructions)}"
        )
    return Trace(
        instructions=instructions,
        program_name=header.get("program", "<unknown>"),
        halted=bool(header.get("halted", False)),
        truncated=bool(header.get("truncated", False)),
    )


def trace_file_info(path: str | pathlib.Path, *, columns: bool = False,
                    per_chunk: bool = False) -> dict:
    """Structural stats of any trace file (``repro trace info``).

    v3 files report chunk/encoding stats from the footer alone —
    ``columns``/``per_chunk`` additionally decode the file for
    per-column and per-chunk size/time breakdowns; v1 files are
    loaded to count instructions (a materialized format, so reading
    one costs what using it costs).
    """
    path = pathlib.Path(path)
    file_bytes = path.stat().st_size
    with _open_binary(path, "rb") as bfh:
        try:
            prefix = bfh.read(len(MAGIC_V2))
        except OSError as exc:
            raise TraceFileError(f"{path}: unreadable: {exc}") from exc
    if prefix == MAGIC_V3:
        from repro.vm.tracev3 import trace_v3_info

        return trace_v3_info(path, columns=columns, per_chunk=per_chunk)
    trace = load_trace(path)
    count = len(trace)
    return {
        "format": "v1",
        "path": str(path),
        "program": trace.program_name,
        "halted": trace.halted,
        "truncated": trace.truncated,
        "instructions": count,
        "chunk_count": None,
        "chunk_size": None,
        "file_bytes": file_bytes,
        "encoded_bytes": None,
        "compressed_bytes": None,
        "compression_ratio": None,
        "bytes_per_instruction": file_bytes / count if count else 0.0,
    }
