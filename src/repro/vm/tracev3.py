"""Tracefile v3: chunked, compactly encoded, streamable trace files.

The v1 format in :mod:`repro.vm.tracefile` serializes a whole
materialized trace, which caps the analyzable budget at process RAM.
v3 is a *chunked* binary format built for streaming:

- the dynamic stream is split into fixed-size instruction-count
  chunks (``chunk_size`` instructions each, last chunk short);
- each chunk is encoded column-wise — delta-encoded PCs, a
  branch-direction bitmap (a set bit means the instruction fell
  through to ``pc + 1``) with explicit target offsets only for the
  rest, per-column minimal-width zigzag integers, and typed value
  columns that keep 64-bit ints and IEEE doubles bit-exact;
- every encoded chunk is independently zlib-compressed and framed
  (magic, raw length, compressed length), so a reader holds O(chunk)
  memory;
- a footer carries a CRC32-checked JSON index of chunk offsets plus
  stream metadata (program name, halted/truncated flags, instruction
  count) and the file ends with a fixed tail pointing at the footer,
  giving O(1) seek to any chunk.  A file missing its tail or footer — e.g. a
  crashed writer — is *detected* as truncated and raises
  :class:`TraceFileError` instead of yielding garbage.

``TraceWriter`` accepts instructions incrementally (rows or columnar
segments) while a machine executes, flushing a frame every
``chunk_size`` instructions; ``TraceReader`` seeks the footer and
yields :class:`~repro.vm.trace.ColumnarTrace` chunks one at a time.
Round-tripping preserves every field bit-for-bit (ints stay ints,
floats keep their exact bits, NaN payloads included), which the
property tests assert at chunk sizes 1, 7 and 4096.

File layout::

    MAGIC_V3
    repeat:  b"TRCC"  u32 raw_len  u32 comp_len  <zlib payload>
    footer:  b"TRCF"  u32 meta_len  u32 crc32(meta)  <meta JSON>
    tail:    u64 footer_offset  TAIL_MAGIC

Integer columns are encoded as ``varint count`` + ``u8 mode`` +
payload, where mode 1/2/4/8 selects the minimal little-endian byte
width holding the column's zigzag values (numpy-vectorized both
ways), and mode 0xFF falls back to per-element zigzag varints for
integers outside the 64-bit range.  Value columns add a float bitmap
so each slot round-trips with its exact Python type.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import struct
import sys
import zlib
from array import array
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from itertools import compress
from typing import NamedTuple

import numpy as np

from repro.vm.errors import TraceFileError
from repro.vm.trace import ColumnarTrace

#: Leading bytes of a v3 (chunked streaming) trace file.
MAGIC_V3 = b"repro-trace-v3\x00"
#: Frame magic preceding every compressed chunk.
CHUNK_MAGIC = b"TRCC"
#: Frame magic preceding the footer index.
FOOTER_MAGIC = b"TRCF"
#: Fixed-size file tail: u64 footer offset + this marker.
TAIL_MAGIC = b"repro-trace-v3:end"
_TAIL_LEN = 8 + len(TAIL_MAGIC)

#: Default instructions per chunk.  64Ki keeps chunk working sets in
#: the few-MB range while amortizing the per-frame codec/deflate cost.
DEFAULT_CHUNK_SIZE = 65536

#: Default zlib level for chunk frames.  Trace chunks are so
#: repetitive that level 3 already compresses them ~11x; level 6 buys
#: ~30% more size for ~2.5x the deflate time, which matters once the
#: codec is the cold-path bottleneck.
DEFAULT_COMPRESSLEVEL = 3

_LE = sys.byteorder == "little"

# Column encoding modes: 1/2/4/8 = fixed little-endian byte width of
# the zigzag values; _MODE_VARINT = per-element zigzag varints (ints
# beyond 64 bits).  Value sections have one mode, _VMODE_COLUMNS (a
# float/int bitmap, then the float and int columns); any other mode
# byte is corrupt.
_MODE_VARINT = 0xFF
_VMODE_COLUMNS = 0

#: Pool size for the pipelined codec (writer compression / reader
#: prefetch).  ``0`` runs everything inline on the caller's thread.
CODEC_THREADS_ENV = "REPRO_CODEC_THREADS"


def codec_threads() -> int:
    """Resolve the codec thread-pool size.

    ``REPRO_CODEC_THREADS`` wins when set (0 disables the pool);
    otherwise single-CPU hosts stay serial — zlib releases the GIL,
    but a pool buys nothing without a second core — and multi-core
    hosts get a small pool that overlaps compression with execution.
    """
    raw = os.environ.get(CODEC_THREADS_ENV)
    if raw is not None:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-linux
        cpus = os.cpu_count() or 1
    return 0 if cpus <= 1 else min(4, cpus - 1)


# ----------------------------------------------------------------------
# primitive codecs
# ----------------------------------------------------------------------

def _w_varint(out: bytearray, v: int) -> None:
    """Append an unsigned LEB128 varint (arbitrary precision)."""
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _r_varint(buf, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    n = len(buf)
    while True:
        if pos >= n:
            raise TraceFileError("truncated varint")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def _zigzag(v: int) -> int:
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def _enc_int_column(out: bytearray, vals) -> None:
    """Encode a column of Python/numpy integers (count, mode, payload)."""
    k = len(vals)
    _w_varint(out, k)
    if not k:
        return
    if isinstance(vals, np.ndarray):
        a = vals if vals.dtype == np.int64 else vals.astype(np.int64)
    else:
        try:
            a = np.asarray(vals, dtype=np.int64)
        except (OverflowError, ValueError, TypeError):
            a = None
    if a is None:
        out.append(_MODE_VARINT)
        for v in vals:
            _w_varint(out, _zigzag(v))
        return
    # zigzag in two's complement: (v << 1) ^ (v >> 63), viewed unsigned
    z = ((a << np.int64(1)) ^ (a >> np.int64(63))).view(np.uint64)
    top = int(z.max())
    if top < 1 << 8:
        width = 1
    elif top < 1 << 16:
        width = 2
    elif top < 1 << 32:
        width = 4
    else:
        width = 8
    out.append(width)
    out += z.astype(f"<u{width}", copy=False).tobytes()


def _dec_int_column(buf, pos: int) -> tuple[np.ndarray | list, int]:
    """Decode a column; returns int64 ndarray (or a list when the
    varint fallback carried out-of-range ints)."""
    k, pos = _r_varint(buf, pos)
    if not k:
        return np.empty(0, np.int64), pos
    if pos >= len(buf):
        raise TraceFileError("truncated column header")
    mode = buf[pos]
    pos += 1
    if mode == _MODE_VARINT:
        vals = []
        for _ in range(k):
            z, pos = _r_varint(buf, pos)
            vals.append(_unzigzag(z))
        return vals, pos
    if mode not in (1, 2, 4, 8):
        raise TraceFileError(f"bad column mode {mode:#x}")
    end = pos + k * mode
    if end > len(buf):
        raise TraceFileError("truncated column payload")
    z = np.frombuffer(buf, dtype=f"<u{mode}", count=k, offset=pos)
    z = z.astype(np.uint64)
    pos = end
    v = (z >> np.uint64(1)).astype(np.int64) ^ -(z & np.uint64(1)).astype(np.int64)
    return v, pos


def _col_i64(col) -> np.ndarray:
    """Normalize a decoded column to an int64 ndarray."""
    return col if isinstance(col, np.ndarray) else np.asarray(col, np.int64)


# Maps the *exact* type of a well-behaved value slot to its bitmap
# bit.  Anything else (bool, numpy scalars, ...) raises KeyError, which
# the encoder turns into TraceFileError — the whole classification
# runs at C speed via bytes(map(...)).
_VTYPE_BIT = {float: 1, int: 0}
_VTYPE_INVERT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def float_mask(vals: list) -> bytes | None:
    """Per-slot float/int mask of a value column, or ``None`` when the
    column holds exotic element types (bool, numpy scalars, ...).

    Byte ``1`` marks a ``float`` slot, ``0`` an ``int`` slot.  Runs
    entirely in C, so the chunk encoder classifies millions of slots
    per second without a Python-level loop.
    """
    try:
        return bytes(map(_VTYPE_BIT.__getitem__, map(type, vals)))
    except KeyError:
        return None


def _enc_values(out: bytearray, vals: list) -> None:
    """Encode a value column with exact Python types (int | float).

    Any other element type (bool, numpy scalars, ...) raises
    :class:`TraceFileError`: the VM never emits one, and coercing it
    would break the exact round-trip.
    """
    k = len(vals)
    _w_varint(out, k)
    if not k:
        return
    tmap = float_mask(vals)
    if tmap is None:
        bad = next(v for v in vals if type(v) not in _VTYPE_BIT)
        raise TraceFileError(
            f"value of type {type(bad).__name__} is not int or float")
    out.append(_VMODE_COLUMNS)
    fmask = np.frombuffer(tmap, np.uint8)
    out += np.packbits(fmask, bitorder="little").tobytes()
    nf = tmap.count(1)
    if nf:
        floats = (np.asarray(vals, np.float64) if nf == k
                  else np.fromiter(compress(vals, tmap), np.float64, count=nf))
        out += floats.astype("<f8", copy=False).tobytes()
    if nf == k:
        ints: list | np.ndarray = []
    elif nf == 0:
        ints = vals
    else:
        sel = compress(vals, tmap.translate(_VTYPE_INVERT))
        try:
            ints = np.fromiter(sel, np.int64, count=k - nf)
        except OverflowError:
            # beyond-64-bit ints: rebuild the selection as a list so
            # _enc_int_column takes its varint fallback
            ints = list(compress(vals, tmap.translate(_VTYPE_INVERT)))
    _enc_int_column(out, ints)


def _dec_values(buf, pos: int) -> tuple[list, int]:
    k, pos = _r_varint(buf, pos)
    if not k:
        return [], pos
    if pos >= len(buf):
        raise TraceFileError("truncated value section")
    vmode = buf[pos]
    pos += 1
    if vmode != _VMODE_COLUMNS:
        raise TraceFileError(f"bad value mode {vmode:#x}")
    nb = (k + 7) // 8
    if pos + nb > len(buf):
        raise TraceFileError("truncated value bitmap")
    fmask = np.unpackbits(
        np.frombuffer(buf, np.uint8, count=nb, offset=pos),
        count=k, bitorder="little",
    )
    pos += nb
    nf = int(fmask.sum())
    if pos + 8 * nf > len(buf):
        raise TraceFileError("truncated float payload")
    floats = np.frombuffer(buf, "<f8", count=nf, offset=pos).tolist()
    pos += 8 * nf
    ints_col, pos = _dec_int_column(buf, pos)
    ints = ints_col.tolist() if isinstance(ints_col, np.ndarray) else ints_col
    if len(ints) != k - nf:
        raise TraceFileError("value column count mismatch")
    if nf == 0:
        return ints, pos
    if nf == k:
        return floats, pos
    # mixed column: scatter through an object ndarray (the per-element
    # Python loop this replaces was the tomcatv decode anomaly).  The
    # object-dtype intermediates keep the exact Python objects, so the
    # int/float types round-trip bit-for-bit.
    out = np.empty(k, object)
    fb = fmask.view(bool)
    out[fb] = np.asarray(floats, object)
    out[~fb] = np.asarray(ints, object)
    return out.tolist(), pos


def _deltas(a: np.ndarray) -> np.ndarray:
    """First element absolute, the rest consecutive differences."""
    if not len(a):
        return a
    d = np.empty(len(a), np.int64)
    d[0] = a[0]
    np.subtract(a[1:], a[:-1], out=d[1:])
    return d


def _np_to_array(typecode: str, a: np.ndarray, dtype: str) -> array:
    """An stdlib array built from a numpy column (zero-copy-ish on LE)."""
    out = array(typecode)
    if _LE:
        out.frombytes(a.astype(dtype, copy=False).tobytes())
    else:  # pragma: no cover - big-endian hosts
        out.extend(a.tolist())
    return out


# ----------------------------------------------------------------------
# chunk codec
# ----------------------------------------------------------------------

def encode_chunk(ct: ColumnarTrace) -> bytes:
    """Encode one columnar segment to the (uncompressed) v3 chunk payload."""
    out = bytearray()
    n = len(ct.pcs)
    _w_varint(out, n)
    if not n:
        return bytes(out)
    pcs = np.asarray(ct.pcs, np.int64)
    nxt = np.asarray(ct.next_pcs, np.int64)
    _enc_int_column(out, _deltas(pcs))
    fallthrough = pcs + 1
    seq = nxt == fallthrough
    out += np.packbits(seq, bitorder="little").tobytes()
    _enc_int_column(out, (nxt - fallthrough)[~seq])
    _enc_int_column(out, np.asarray(ct.ops, np.int64))
    _enc_int_column(out, np.asarray(ct.lats, np.int64))
    rbounds = np.asarray(ct.read_bounds, np.int64)
    wbounds = np.asarray(ct.write_bounds, np.int64)
    if len(rbounds) != n + 1 or len(wbounds) != n + 1:
        raise TraceFileError("inconsistent bounds columns")
    _enc_int_column(out, np.diff(rbounds))
    _enc_int_column(out, np.diff(wbounds))
    _enc_int_column(out, _deltas(np.asarray(ct.read_locs, np.int64)))
    _enc_int_column(out, _deltas(np.asarray(ct.write_locs, np.int64)))
    _enc_values(out, ct.read_vals)
    _enc_values(out, ct.write_vals)
    return bytes(out)


def decode_chunk(buf: bytes, *, program_name: str = "<anonymous>") -> ColumnarTrace:
    """Decode one chunk payload back to a columnar segment.

    Segments carry ``halted=False, truncated=True`` — they are pieces
    of a stream; file-level flags live in the reader's footer metadata.
    """
    ct = ColumnarTrace(program_name=program_name, halted=False, truncated=True)
    try:
        pos = 0
        n, pos = _r_varint(buf, pos)
        if not n:
            if pos != len(buf):
                raise TraceFileError("trailing bytes after empty chunk")
            return ct
        d, pos = _dec_int_column(buf, pos)
        pcs = np.cumsum(_col_i64(d))
        if len(pcs) != n:
            raise TraceFileError("pc column count mismatch")
        nb = (n + 7) // 8
        if pos + nb > len(buf):
            raise TraceFileError("truncated branch bitmap")
        seq = np.unpackbits(
            np.frombuffer(buf, np.uint8, count=nb, offset=pos),
            count=n, bitorder="little",
        ).astype(bool)
        pos += nb
        offs, pos = _dec_int_column(buf, pos)
        offs = _col_i64(offs)
        taken = ~seq
        if len(offs) != int(taken.sum()):
            raise TraceFileError("branch offset count mismatch")
        nxt = pcs + 1
        nxt[taken] += offs
        ops, pos = _dec_int_column(buf, pos)
        lats, pos = _dec_int_column(buf, pos)
        rcounts, pos = _dec_int_column(buf, pos)
        wcounts, pos = _dec_int_column(buf, pos)
        rlocs_d, pos = _dec_int_column(buf, pos)
        wlocs_d, pos = _dec_int_column(buf, pos)
        read_vals, pos = _dec_values(buf, pos)
        write_vals, pos = _dec_values(buf, pos)
        if pos != len(buf):
            raise TraceFileError("trailing bytes after chunk payload")
        ops, lats = _col_i64(ops), _col_i64(lats)
        rcounts, wcounts = _col_i64(rcounts), _col_i64(wcounts)
        if not (len(ops) == len(lats) == len(rcounts) == len(wcounts) == n):
            raise TraceFileError("fixed column count mismatch")
        rbounds = np.empty(n + 1, np.int64)
        rbounds[0] = 0
        np.cumsum(rcounts, out=rbounds[1:])
        wbounds = np.empty(n + 1, np.int64)
        wbounds[0] = 0
        np.cumsum(wcounts, out=wbounds[1:])
        rlocs = np.cumsum(_col_i64(rlocs_d))
        wlocs = np.cumsum(_col_i64(wlocs_d))
        if len(rlocs) != int(rbounds[-1]) or len(read_vals) != len(rlocs):
            raise TraceFileError("read column count mismatch")
        if len(wlocs) != int(wbounds[-1]) or len(write_vals) != len(wlocs):
            raise TraceFileError("write column count mismatch")
        ct.pcs = _np_to_array("i", pcs, "<i4")
        ct.ops = _np_to_array("h", ops, "<i2")
        ct.lats = _np_to_array("h", lats, "<i2")
        ct.next_pcs = _np_to_array("i", nxt, "<i4")
        ct.read_bounds = _np_to_array("I", rbounds, "<u4")
        ct.write_bounds = _np_to_array("I", wbounds, "<u4")
        ct.read_locs = _np_to_array("q", rlocs, "<i8")
        ct.write_locs = _np_to_array("q", wlocs, "<i8")
        ct.read_vals = read_vals
        ct.write_vals = write_vals
        return ct
    except TraceFileError:
        raise
    except (ValueError, IndexError, OverflowError, struct.error,
            EOFError, KeyError) as exc:
        raise TraceFileError(f"corrupt chunk payload: {exc}") from exc


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------

class TraceWriter:
    """Incremental writer for v3 trace files.

    Instructions arrive via :meth:`append` (row form) or
    :meth:`write_segment` (a columnar segment, e.g. one
    ``Machine.run`` chunk); one compressed frame is flushed per
    ``chunk_size`` instructions, so writer memory stays O(chunk)
    regardless of trace length.  A segment that arrives exactly
    chunk-aligned is emitted as-is, with no buffering copy — callers
    must not mutate a segment after handing it over.

    With ``threads > 0`` sealed chunks are encoded + deflated on a
    bounded :class:`~concurrent.futures.ThreadPoolExecutor` (zlib and
    the numpy codec release the GIL) while the caller keeps
    executing; completed frames are serialized to the file *in
    submission order* on the caller's thread, so the output is
    byte-identical to a serial writer at every pool size.  At most
    ``threads + 2`` chunks are in flight — the writer blocks on the
    oldest frame beyond that, keeping memory O(threads · chunk).

    Call :meth:`close` (or use the writer as a context manager) to
    emit the footer index; crashes before that leave a tail-less
    file the reader rejects as truncated.
    """

    def __init__(
        self,
        path_or_file,
        *,
        program_name: str = "<anonymous>",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        compresslevel: int = DEFAULT_COMPRESSLEVEL,
        threads: int | None = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns_fh = False
        else:
            self._fh = open(pathlib.Path(path_or_file), "wb")
            self._owns_fh = True
        self.program_name = program_name
        self.halted = False
        self.truncated = False
        self.chunk_size = chunk_size
        self._compresslevel = compresslevel
        self.threads = codec_threads() if threads is None else max(0, threads)
        self._pool = (
            ThreadPoolExecutor(
                self.threads, thread_name_prefix="repro-codec-w")
            if self.threads else None
        )
        self._inflight: deque = deque()  # (future, instruction count)
        self._pending = ColumnarTrace(program_name=program_name)
        self._index: list[list[int]] = []
        self._count = 0
        self._offset = len(MAGIC_V3)
        self._closed = False
        self._fh.write(MAGIC_V3)

    @property
    def count(self) -> int:
        """Instructions accepted so far (flushed + pending)."""
        return (self._count + sum(c for _, c in self._inflight)
                + len(self._pending))

    def append(self, pc, op, reads, writes, latency, next_pc) -> None:
        """Append one dynamic instruction."""
        self._pending.append(pc, op, reads, writes, latency, next_pc)
        if len(self._pending) >= self.chunk_size:
            self._flush_full()

    def write_segment(self, segment: ColumnarTrace) -> None:
        """Append a columnar segment (any length; rechunked internally).

        The segment is treated as frozen from here on: chunk-aligned
        input is emitted without copying (possibly from a pool
        thread), so mutating it afterwards corrupts the file.
        """
        from repro.vm.trace import extend_columnar, slice_columnar

        cs = self.chunk_size
        if not len(self._pending):
            # fast path: nothing buffered, slice frames straight off
            # the incoming segment (zero copies when already aligned)
            n = len(segment)
            start = 0
            while n - start >= cs:
                if start == 0 and n == cs:
                    self._emit(segment)
                else:
                    self._emit(slice_columnar(segment, start, start + cs))
                start += cs
            if start < n:
                extend_columnar(
                    self._pending,
                    segment if start == 0 else slice_columnar(segment, start, n),
                )
            return
        extend_columnar(self._pending, segment)
        if len(self._pending) >= cs:
            self._flush_full()

    def _flush_full(self) -> None:
        from repro.vm.trace import slice_columnar

        cs = self.chunk_size
        pending = self._pending
        while len(pending) >= cs:
            self._emit(slice_columnar(pending, 0, cs))
            pending = slice_columnar(pending, cs, len(pending))
        self._pending = pending

    def _emit(self, segment: ColumnarTrace) -> None:
        if self._pool is None:
            raw = encode_chunk(segment)
            self._write_frame(len(segment), len(raw),
                              zlib.compress(raw, self._compresslevel))
            return
        self._inflight.append(
            (self._pool.submit(self._encode_job, segment), len(segment)))
        self._reap(max_inflight=self.threads + 2)

    def _encode_job(self, segment: ColumnarTrace) -> tuple[int, bytes]:
        raw = encode_chunk(segment)
        return len(raw), zlib.compress(raw, self._compresslevel)

    def _reap(self, *, max_inflight: int = 0) -> None:
        """Write completed frames in submission order; block only while
        more than ``max_inflight`` encode jobs are outstanding."""
        inflight = self._inflight
        while inflight:
            fut, count = inflight[0]
            if len(inflight) <= max_inflight and not fut.done():
                return
            inflight.popleft()
            raw_len, comp = fut.result()
            self._write_frame(count, raw_len, comp)

    def _write_frame(self, count: int, raw_len: int, comp: bytes) -> None:
        self._fh.write(CHUNK_MAGIC)
        self._fh.write(struct.pack("<II", raw_len, len(comp)))
        self._fh.write(comp)
        self._index.append([self._offset, count, raw_len, len(comp)])
        self._offset += len(CHUNK_MAGIC) + 8 + len(comp)
        self._count += count

    def close(self, *, halted: bool | None = None,
              truncated: bool | None = None) -> None:
        """Flush remaining instructions and write the footer + tail."""
        if self._closed:
            return
        if halted is not None:
            self.halted = halted
        if truncated is not None:
            self.truncated = truncated
        if len(self._pending):
            self._emit(self._pending)
            self._pending = ColumnarTrace(program_name=self.program_name)
        self._reap()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        meta = {
            "program": self.program_name,
            "halted": bool(self.halted),
            "truncated": bool(self.truncated),
            "count": self._count,
            "chunk_size": self.chunk_size,
            "chunks": self._index,
        }
        payload = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        footer_offset = self._offset
        self._fh.write(FOOTER_MAGIC)
        self._fh.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
        self._fh.write(payload)
        self._fh.write(struct.pack("<Q", footer_offset))
        self._fh.write(TAIL_MAGIC)
        self._fh.flush()
        self._closed = True
        if self._owns_fh:
            self._fh.close()

    def abort(self) -> None:
        """Close the underlying file without writing a footer."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._inflight.clear()
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------

class ChunkInfo(NamedTuple):
    """Footer-index entry for one chunk."""

    offset: int
    count: int
    raw_bytes: int
    comp_bytes: int


class TraceReader:
    """Random-access / streaming reader for v3 trace files.

    Construction reads only the footer (O(1) seek from the tail);
    :meth:`chunk` decodes one chunk by index, :meth:`chunks` iterates
    them in order with O(chunk) live memory.  Any structural damage —
    missing tail, bad frame magic, short frames, undecodable payloads
    — raises :class:`TraceFileError`.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self._path = pathlib.Path(path)
        self._fh: io.BufferedReader | None = open(self._path, "rb")
        try:
            self._load_footer()
        except BaseException:
            self.close()
            raise

    def _err(self, msg: str) -> TraceFileError:
        return TraceFileError(f"{self._path}: {msg}")

    def _load_footer(self) -> None:
        fh = self._fh
        assert fh is not None
        head = fh.read(len(MAGIC_V3))
        if head != MAGIC_V3:
            raise self._err("not a v3 trace file")
        fh.seek(0, io.SEEK_END)
        size = fh.tell()
        if size < len(MAGIC_V3) + _TAIL_LEN:
            raise self._err("truncated v3 trace (no footer tail)")
        fh.seek(size - _TAIL_LEN)
        tail = fh.read(_TAIL_LEN)
        if len(tail) != _TAIL_LEN or tail[8:] != TAIL_MAGIC:
            raise self._err("truncated v3 trace (missing footer tail; "
                            "writer did not finish)")
        (footer_offset,) = struct.unpack("<Q", tail[:8])
        if not len(MAGIC_V3) <= footer_offset <= size - _TAIL_LEN - 12:
            raise self._err("corrupt v3 trace (footer offset out of range)")
        fh.seek(footer_offset)
        hdr = fh.read(12)
        if len(hdr) != 12 or hdr[:4] != FOOTER_MAGIC:
            raise self._err("corrupt v3 trace (bad footer magic)")
        meta_len, crc = struct.unpack("<II", hdr[4:])
        if footer_offset + 12 + meta_len > size - _TAIL_LEN:
            raise self._err("corrupt v3 trace (footer overruns tail)")
        payload = fh.read(meta_len)
        if len(payload) != meta_len:
            raise self._err("corrupt v3 trace (short footer)")
        # the chunk frames are checked by zlib's own checksum; the
        # footer's fields would otherwise pass damaged but well-formed
        if zlib.crc32(payload) != crc:
            raise self._err("corrupt v3 footer (checksum mismatch)")
        try:
            meta = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self._err(f"corrupt v3 footer: {exc}") from exc
        try:
            self.program_name = str(meta["program"])
            self.halted = bool(meta["halted"])
            self.truncated = bool(meta["truncated"])
            self.count = int(meta["count"])
            self.chunk_size = int(meta["chunk_size"])
            index = [ChunkInfo(*map(int, entry)) for entry in meta["chunks"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise self._err(f"corrupt v3 footer fields: {exc}") from exc
        if sum(e.count for e in index) != self.count:
            raise self._err("corrupt v3 footer (chunk counts disagree "
                            "with instruction count)")
        for entry in index:
            if not len(MAGIC_V3) <= entry.offset <= footer_offset:
                raise self._err("corrupt v3 footer (chunk offset out of range)")
        self.index: tuple[ChunkInfo, ...] = tuple(index)

    # -- metadata ------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        return len(self.index)

    @property
    def raw_bytes(self) -> int:
        """Total encoded-but-uncompressed payload bytes."""
        return sum(e.raw_bytes for e in self.index)

    @property
    def comp_bytes(self) -> int:
        """Total compressed payload bytes (excluding framing)."""
        return sum(e.comp_bytes for e in self.index)

    def __len__(self) -> int:
        return self.count

    # -- chunk access --------------------------------------------------
    def _read_frame(self, i: int) -> bytes:
        """Read (and validate) chunk ``i``'s compressed frame payload."""
        fh = self._fh
        if fh is None:
            raise ValueError("reader is closed")
        entry = self.index[i]
        fh.seek(entry.offset)
        hdr = fh.read(len(CHUNK_MAGIC) + 8)
        if len(hdr) != len(CHUNK_MAGIC) + 8 or hdr[:4] != CHUNK_MAGIC:
            raise self._err(f"corrupt chunk {i} (bad frame magic)")
        raw_len, comp_len = struct.unpack("<II", hdr[4:])
        if raw_len != entry.raw_bytes or comp_len != entry.comp_bytes:
            raise self._err(f"corrupt chunk {i} (frame/index length mismatch)")
        comp = fh.read(comp_len)
        if len(comp) != comp_len:
            raise self._err(f"corrupt chunk {i} (short frame)")
        return comp

    def _decode_frame(self, i: int, comp: bytes) -> ColumnarTrace:
        """Inflate + decode one frame payload (thread-safe: touches no
        reader state besides immutable footer fields)."""
        entry = self.index[i]
        try:
            raw = zlib.decompress(comp)
        except zlib.error as exc:
            raise self._err(f"corrupt chunk {i}: {exc}") from exc
        if len(raw) != entry.raw_bytes:
            raise self._err(f"corrupt chunk {i} (decompressed length mismatch)")
        try:
            ct = decode_chunk(raw, program_name=self.program_name)
        except TraceFileError as exc:
            raise self._err(f"corrupt chunk {i}: {exc}") from exc
        if len(ct) != entry.count:
            raise self._err(f"corrupt chunk {i} (instruction count mismatch)")
        return ct

    def chunk(self, i: int) -> ColumnarTrace:
        """Decode chunk ``i`` (O(1) seek via the footer index)."""
        return self._decode_frame(i, self._read_frame(i))

    def chunks(self, *, prefetch: int | None = None) -> Iterator[ColumnarTrace]:
        """Yield chunks in stream order.

        With ``prefetch=K > 0`` (default: :func:`codec_threads`) the
        next K frames are read ahead and inflated + decoded on a
        thread pool while the consumer works on the current chunk.
        Frame reads stay on the consumer's thread (one seek cursor);
        only the CPU-bound inflate/decode is offloaded.  At most
        ``K + 2`` decoded chunks are ever live — K in flight, the one
        being yielded, and the consumer's previous one — so memory
        stays O(K · chunk) regardless of file size.
        """
        k = codec_threads() if prefetch is None else max(0, prefetch)
        n = len(self.index)
        if not k or n <= 1:
            for i in range(n):
                yield self.chunk(i)
            return
        pool = ThreadPoolExecutor(
            min(k, 8), thread_name_prefix="repro-codec-r")
        try:
            pending: deque = deque()
            for i in range(n):
                while len(pending) < k and (j := i + len(pending)) < n:
                    pending.append(
                        pool.submit(self._decode_frame, j, self._read_frame(j)))
                yield pending.popleft().result()
        finally:
            for fut in pending:
                fut.cancel()
            pool.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# introspection
# ----------------------------------------------------------------------

#: Chunk payload sections, in on-disk order.
SECTION_NAMES = (
    "pcs", "branch_bitmap", "branch_offsets", "ops", "lats",
    "read_counts", "write_counts", "read_locs", "write_locs",
    "read_vals", "write_vals",
)

_INT_MODE_NAMES = {1: "u8", 2: "u16", 4: "u32", 8: "u64",
                   _MODE_VARINT: "varint"}


def _peek_int_mode(buf, pos: int) -> str:
    k, p = _r_varint(buf, pos)
    if not k:
        return "empty"
    return _INT_MODE_NAMES.get(buf[p], f"{buf[p]:#x}") if p < len(buf) else "?"


def _peek_value_mode(buf, pos: int) -> str:
    k, p = _r_varint(buf, pos)
    if not k:
        return "empty"
    if p >= len(buf):
        return "?"
    nb = (k + 7) // 8
    return f"bitmap+f8+{_peek_int_mode(buf, p + 1 + nb)}"


def _scan_sections(buf: bytes) -> list[dict]:
    """Decode one chunk payload section-by-section, timing each decode
    and recording its encoded size and codec mode.  The section walk
    mirrors :func:`decode_chunk` exactly, so sizes sum to the payload."""
    import time

    out: list[dict] = []

    def record(name, mode, start_pos, fn):
        t0 = time.perf_counter()
        pos = fn(start_pos)
        out.append({
            "column": name,
            "mode": mode,
            "encoded_bytes": pos - start_pos,
            "decode_seconds": time.perf_counter() - t0,
        })
        return pos

    pos = 0
    n, pos = _r_varint(buf, pos)
    header = pos
    if n:
        pos = record("pcs", _peek_int_mode(buf, pos), pos,
                     lambda p: _dec_int_column(buf, p)[1])
        nb = (n + 7) // 8
        pos = record("branch_bitmap", "bitmap", pos, lambda p: p + nb)
        for name in ("branch_offsets", "ops", "lats", "read_counts",
                     "write_counts", "read_locs", "write_locs"):
            pos = record(name, _peek_int_mode(buf, pos), pos,
                         lambda p: _dec_int_column(buf, p)[1])
        for name in ("read_vals", "write_vals"):
            pos = record(name, _peek_value_mode(buf, pos), pos,
                         lambda p: _dec_values(buf, p)[1])
    if pos != len(buf):
        raise TraceFileError("trailing bytes after chunk payload")
    out.insert(0, {"column": "header", "mode": "varint",
                   "encoded_bytes": header, "decode_seconds": 0.0})
    return out


def trace_v3_info(path: str | pathlib.Path, *, columns: bool = False,
                  per_chunk: bool = False) -> dict:
    """Structural stats of a v3 file (for ``repro trace info``).

    ``columns=True`` decodes every chunk section-by-section and
    aggregates per-column encoded size, decode time and codec mode;
    ``per_chunk=True`` adds one entry per chunk (sizes, ratio,
    inflate+decode wall time).  Both default off — the base call
    reads only the footer.
    """
    import time

    path = pathlib.Path(path)
    with TraceReader(path) as reader:
        raw = reader.raw_bytes
        comp = reader.comp_bytes
        info = {
            "format": "v3",
            "path": str(path),
            "program": reader.program_name,
            "halted": reader.halted,
            "truncated": reader.truncated,
            "instructions": reader.count,
            "chunk_count": reader.chunk_count,
            "chunk_size": reader.chunk_size,
            "file_bytes": path.stat().st_size,
            "encoded_bytes": raw,
            "compressed_bytes": comp,
            "compression_ratio": (raw / comp) if comp else 0.0,
            "bytes_per_instruction": (
                path.stat().st_size / reader.count if reader.count else 0.0
            ),
        }
        if not (columns or per_chunk):
            return info
        col_stats: dict[str, dict] = {}
        chunk_stats: list[dict] = []
        for i, entry in enumerate(reader.index):
            frame = reader._read_frame(i)
            t0 = time.perf_counter()
            payload = zlib.decompress(frame)
            if len(payload) != entry.raw_bytes:
                raise TraceFileError(
                    f"{path}: corrupt chunk {i} (decompressed length mismatch)")
            sections = _scan_sections(payload)
            elapsed = time.perf_counter() - t0
            for sec in sections:
                agg = col_stats.setdefault(sec["column"], {
                    "encoded_bytes": 0, "decode_seconds": 0.0, "modes": {},
                })
                agg["encoded_bytes"] += sec["encoded_bytes"]
                agg["decode_seconds"] += sec["decode_seconds"]
                agg["modes"][sec["mode"]] = agg["modes"].get(sec["mode"], 0) + 1
            if per_chunk:
                chunk_stats.append({
                    "chunk": i,
                    "instructions": entry.count,
                    "encoded_bytes": entry.raw_bytes,
                    "compressed_bytes": entry.comp_bytes,
                    "compression_ratio": (
                        entry.raw_bytes / entry.comp_bytes
                        if entry.comp_bytes else 0.0),
                    "decode_seconds": elapsed,
                })
        if columns:
            info["columns"] = col_stats
        if per_chunk:
            info["chunks"] = chunk_stats
        return info
