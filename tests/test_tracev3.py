"""Tracefile v3: round-trip fidelity, chunk boundaries, corruption.

The v3 contract is threefold: (1) any trace written through
``TraceWriter`` decodes back bit-identically, at every chunk size;
(2) reading is O(chunk) — the reader never materializes more than ~2
chunks; (3) damage of any kind surfaces as the typed
``TraceFileError``, never a codec internal, and the trace cache
treats a damaged entry as a miss it atomically rewrites.
"""

import gc
import json
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.workloads  # registers the kernels
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_profile
from repro.lang import compile_source
from repro.vm import tracecache
from repro.vm.machine import Machine
from repro.vm.trace import (
    ColumnarTrace,
    as_columnar,
    slice_columnar,
    trace_identical,
)
from repro.vm.tracefile import (
    TraceFileError,
    load_trace,
    save_trace,
    trace_file_info,
)
from repro.vm.tracestream import FileTraceStream, write_stream
from repro.vm.tracev3 import TAIL_MAGIC, TraceReader, TraceWriter
from repro.workloads.base import (
    all_workloads,
    build_program,
    get_workload,
    run_workload,
)
from test_fastmachine import rl_programs
from test_profile_entries import _mutate

KERNELS = [w.name for w in all_workloads()]

#: The boundary-stress chunk sizes from the issue: degenerate (1),
#: coprime-to-everything (7), and a power of two (4096).
CHUNK_SIZES = (1, 7, 4096)


def roundtrip(trace, tmp_path, chunk_size):
    path = tmp_path / f"c{chunk_size}.trace"
    write_stream(trace, path, chunk_size=chunk_size)
    loaded = load_trace(path)
    assert trace_identical(trace, loaded)
    assert loaded.program_name == trace.program_name
    assert loaded.halted == trace.halted
    assert loaded.truncated == trace.truncated
    return path


class TestRoundTrip:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_kernel_roundtrip(self, tmp_path, chunk_size):
        trace = run_workload("compress", max_instructions=3_000)
        roundtrip(trace, tmp_path, chunk_size)

    def test_empty_trace(self, tmp_path):
        machine = Machine(compile_source(
            "func main() {\nreturn 0\n}\n"))
        trace = machine.run(max_instructions=0)
        assert len(trace) == 0
        roundtrip(trace, tmp_path, 64)

    def test_chunk_boundaries_partition_exactly(self, tmp_path):
        trace = run_workload("li", max_instructions=1_000)
        for chunk_size in (1, 7, 256, 4096):
            path = tmp_path / "t.trace"
            write_stream(trace, path, chunk_size=chunk_size)
            with TraceReader(path) as reader:
                sizes = [len(chunk) for chunk in reader.chunks()]
                assert sum(sizes) == len(trace) == reader.count
                # every chunk is full except possibly the last
                assert all(s == chunk_size for s in sizes[:-1])
                assert 0 < sizes[-1] <= chunk_size

    def test_v2_v3_differential_all_kernels(self, tmp_path):
        """The v3 encoding of every kernel decodes to the executed
        trace (v2, its former reference, is retired)."""
        for name in KERNELS:
            trace = run_workload(name, max_instructions=1_500)
            v3 = tmp_path / f"{name}.v3.trace"
            save_trace(trace, v3, format="v3")
            from_v3 = load_trace(v3)
            assert trace_identical(trace, from_v3), name


class TestRunWorkload:
    """``run_workload`` drains ``stream_workload``: cold (executed
    through the tee), warm (decoded from the entry) and with the cache
    off, every kernel's trace equals one ``Machine.run``."""

    @pytest.mark.parametrize("name", KERNELS)
    def test_cold_warm_and_off_match_one_run(self, name, tmp_path,
                                             monkeypatch):
        from repro import obs

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        expected = Machine(build_program(name)).run(3_000)
        runs = {}
        for run in ("cold", "warm", "off"):
            if run == "off":
                monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
            with obs.scope() as registry:
                got = run_workload(name, max_instructions=3_000)
                runs[run] = _trace_counters(
                    registry.snapshot()["counters"])
            assert trace_identical(got, expected), (name, run)
        assert runs == {
            "cold": {"trace_cache.miss": 1, "trace_cache.store": 1},
            "warm": {"trace_cache.hit": 1},
            "off": {},
        }


class TestGeneratedPrograms:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            # the same file path is reused deliberately: write_stream
            # truncates on open, so examples never see stale bytes
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(source=rl_programs(), chunk_size=st.sampled_from(CHUNK_SIZES))
    def test_roundtrip_generated(self, tmp_path, source, chunk_size):
        from repro.vm.errors import VMError
        from repro.vm.trace import extend_columnar

        program = compile_source(source)
        try:
            trace = Machine(program).run(max_instructions=5_000)
        except VMError:
            return  # faulting programs (e.g. div by zero) have no trace
        path = tmp_path / "gen.trace"
        write_stream(trace, path, chunk_size=chunk_size)
        loaded = load_trace(path)
        assert trace_identical(trace, loaded)
        # chunked reads concatenate to the same stream
        with TraceReader(path) as reader:
            rebuilt = ColumnarTrace(program_name=reader.program_name)
            for chunk in reader.chunks():
                extend_columnar(rebuilt, chunk)
            rebuilt.halted = reader.halted
            rebuilt.truncated = reader.truncated
        assert trace_identical(trace, rebuilt)


class TestCorruption:
    @pytest.fixture
    def valid_file(self, tmp_path):
        trace = run_workload("compress", max_instructions=2_000)
        path = tmp_path / "ok.trace"
        write_stream(trace, path, chunk_size=256)
        return path

    def test_truncation_everywhere_raises_typed(self, valid_file):
        """Cutting the file at any structural point is a TraceFileError.

        A crashed writer, a partial copy, or a torn download must
        never surface zlib/struct internals.
        """
        data = valid_file.read_bytes()
        # prefix lengths spanning magic, chunk frames, footer and tail
        cuts = {0, 4, len(data) // 3, len(data) // 2,
                len(data) - 30, len(data) - 8, len(data) - 1}
        for cut in sorted(cuts):
            valid_file.write_bytes(data[:cut])
            with pytest.raises(TraceFileError):
                load_trace(valid_file)

    def test_corrupt_chunk_payload_raises_typed(self, valid_file):
        data = bytearray(valid_file.read_bytes())
        mid = len(data) // 2  # inside some compressed frame
        data[mid] ^= 0xFF
        valid_file.write_bytes(bytes(data))
        with pytest.raises(TraceFileError):
            load_trace(valid_file)

    def test_bad_magic_raises_typed(self, valid_file):
        data = bytearray(valid_file.read_bytes())
        data[0] ^= 0xFF
        valid_file.write_bytes(bytes(data))
        with pytest.raises(TraceFileError):
            load_trace(valid_file)

    @pytest.mark.parametrize("edit", ["count", "count-and-chunk"])
    def test_footer_count_disagreeing_with_chunks_raises_typed(
            self, valid_file, edit):
        """A footer whose instruction count disagrees with its chunks,
        alone or with the last chunk's index count bumped to match,
        never loads (the footer checksum is recomputed, so the damage
        is well-formed)."""
        def bump(meta):
            meta["count"] += 1
            if edit == "count-and-chunk":
                meta["chunks"][-1][1] += 1

        valid_file.write_bytes(_with_footer(valid_file.read_bytes(), bump))
        with pytest.raises(TraceFileError):
            load_trace(valid_file)

    def test_streaming_reader_rejects_truncation(self, valid_file):
        data = valid_file.read_bytes()
        valid_file.write_bytes(data[:len(data) - 9])
        with pytest.raises(TraceFileError):
            FileTraceStream(valid_file)

    def test_corrupt_cache_entry_is_miss_and_rewritten(self):
        """A damaged cache entry yields the correct trace again and the
        entry is atomically rewritten valid."""
        from repro.vm import tracecache
        from repro.workloads.base import get_workload

        name, budget = "li", 1_200
        fresh = run_workload(name, max_instructions=budget, use_cache=True)
        source = get_workload(name).source(1)
        path = tracecache.trace_path(name, 1, budget, source)
        assert path.is_file()
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])  # torn write
        again = run_workload(name, max_instructions=budget, use_cache=True)
        assert trace_identical(fresh, again)
        # the rewrite healed the entry: a plain load works again
        assert trace_identical(load_trace(path), fresh)

    def test_corrupt_cache_entry_is_stream_miss(self):
        from repro.vm import tracecache
        from repro.workloads.base import get_workload, stream_workload

        name, budget = "perl", 1_000
        fresh = run_workload(name, max_instructions=budget, use_cache=True)
        source = get_workload(name).source(1)
        path = tracecache.trace_path(name, 1, budget, source)
        path.write_bytes(path.read_bytes()[:40])
        stream = stream_workload(name, max_instructions=budget,
                                 use_cache=True)
        rebuilt = as_columnar(stream)
        assert trace_identical(fresh, rebuilt)


def _write_value_mode_1(monkeypatch, trace, path):
    """Write ``trace`` as v3 with every value section's mode byte set
    to 1 (the retired pickle mode): well-framed, undecodable chunks."""
    from repro.vm import tracev3

    real = tracev3._enc_values

    def enc_mode_1(out, vals):
        start = len(out)
        real(out, vals)
        if vals:
            count = bytearray()
            tracev3._w_varint(count, len(vals))
            out[start + len(count)] = 1

    monkeypatch.setattr(tracev3, "_enc_values", enc_mode_1)
    write_stream(trace, path, chunk_size=256)
    monkeypatch.setattr(tracev3, "_enc_values", real)


#: Trace-cache counters of one lookup that heals an entry whose footer
#: opens but whose chunks do not decode.
HEALED_LOOKUP = {"trace_cache.hit": 1, "trace_cache.corrupt": 1,
                 "trace_cache.miss": 1, "trace_cache.store": 1}


def _trace_counters(counters: dict) -> dict:
    return {key: value for key, value in counters.items()
            if key.startswith("trace_cache.")}


class TestValueModes:
    """Value sections have exactly one encoding; anything else is
    corrupt, and non-int/float values are refused at write time."""

    def test_value_mode_1_is_corrupt(self, tmp_path, monkeypatch):
        trace = run_workload("compress", max_instructions=600)
        path = tmp_path / "mode1.trace"
        _write_value_mode_1(monkeypatch, trace, path)
        with pytest.raises(TraceFileError, match="bad value mode"):
            load_trace(path)
        with pytest.raises(TraceFileError, match="bad value mode"):
            for _ in FileTraceStream(path).chunks():
                pass

    def test_value_mode_1_cache_entry_is_miss(self, monkeypatch):
        """The streaming loader opens from the footer alone, so for a
        bare stream the damage surfaces as a typed error on the first
        drain; ``run_workload`` heals it: one lookup counts the
        open-time hit, the corrupt entry, one miss and the tee's store,
        and the entry is rewritten valid."""
        from repro import obs
        from repro.workloads.base import stream_workload

        name, budget = "li", 800
        fresh = run_workload(name, max_instructions=budget, use_cache=True)
        source = get_workload(name).source(1)
        path = tracecache.trace_path(name, 1, budget, source)
        _write_value_mode_1(monkeypatch, fresh, path)

        stream = stream_workload(name, max_instructions=budget,
                                 use_cache=True)
        with pytest.raises(TraceFileError, match="bad value mode"):
            as_columnar(stream)
        with obs.scope() as registry:
            again = run_workload(name, max_instructions=budget,
                                 use_cache=True)
            counters = registry.snapshot()["counters"]
        assert _trace_counters(counters) == HEALED_LOOKUP
        assert trace_identical(fresh, again)
        assert trace_identical(load_trace(path), fresh)

    def test_run_profile_heals_undecodable_entry(self, monkeypatch):
        """A profile run over such an entry discards it, recomputes
        through the tee and rewrites it valid — same numbers as the
        oracle."""
        import dataclasses

        from repro import obs
        from repro.exp.config import ExperimentConfig
        from repro.exp.runner import run_profile, run_profile_reference
        from repro.vm import tracecache
        from repro.workloads.base import get_workload

        name, budget = "go", 900
        config = ExperimentConfig(max_instructions=budget,
                                  reuse_latencies=(1,),
                                  proportional_ks=(1.0,))
        fresh = run_workload(name, max_instructions=budget, use_cache=True)
        source = get_workload(name).source(1)
        path = tracecache.trace_path(name, 1, budget, source)
        _write_value_mode_1(monkeypatch, fresh, path)
        with obs.scope() as registry:
            got = run_profile(name, config)
            counters = registry.snapshot()["counters"]
        assert _trace_counters(counters) == HEALED_LOOKUP
        expected = run_profile_reference(
            name, dataclasses.replace(config, use_cache=False))
        assert got == expected
        assert trace_identical(load_trace(path), fresh)

    @pytest.mark.parametrize("threads", [0, 2])
    def test_writer_refuses_non_numeric_values(self, tmp_path, threads):
        segment = ColumnarTrace()
        for i in range(4):
            segment.append(i, 0, [(1, True)], [(2, 3)], 1, i + 1)
        writer = TraceWriter(tmp_path / "bool.trace", threads=threads,
                             chunk_size=4)
        try:
            with pytest.raises(TraceFileError, match="bool"):
                writer.write_segment(segment)
                writer.close()
        finally:
            writer.abort()


class TestBoundedMemory:
    def test_reader_holds_at_most_two_chunks(self, tmp_path):
        """Drain a many-chunk file counting live decoded chunks: at any
        point at most ~2 may be alive (the one just yielded plus the
        one being decoded).  ``ColumnarTrace`` is a slots class without
        ``__weakref__``, so liveness is counted via the gc instead."""
        trace = run_workload("compress", max_instructions=4_000)
        path = tmp_path / "many.trace"
        write_stream(trace, path, chunk_size=100)  # 40 chunks
        del trace
        gc.collect()
        baseline = sum(1 for o in gc.get_objects()
                       if isinstance(o, ColumnarTrace))
        seen = 0
        max_live = 0
        with TraceReader(path) as reader:
            for chunk in reader.chunks():
                seen += 1
                del chunk
                gc.collect()
                live = sum(1 for o in gc.get_objects()
                           if isinstance(o, ColumnarTrace)) - baseline
                max_live = max(max_live, live)
        assert seen == 40
        assert max_live <= 2, f"{max_live} chunks live at once"

    def test_writer_pending_stays_bounded(self, tmp_path):
        """Segments that straddle frames stay O(chunk) pending and
        write the bytes of one batch write."""
        trace = run_workload("li", max_instructions=2_000)
        path = tmp_path / "w.trace"
        with TraceWriter(path, program_name=trace.program_name,
                         chunk_size=128) as writer:
            for start in range(0, len(trace), 50):
                writer.write_segment(
                    slice_columnar(trace, start, start + 50))
                assert len(writer._pending) < 128
            writer.close(halted=trace.halted, truncated=trace.truncated)
        batch = tmp_path / "batch.trace"
        write_stream(trace, batch, chunk_size=128)
        assert path.read_bytes() == batch.read_bytes()


class TestInfo:
    def test_v3_info_fields(self, tmp_path):
        trace = run_workload("compress", max_instructions=2_000)
        path = tmp_path / "t.trace"
        write_stream(trace, path, chunk_size=512)
        info = trace_file_info(path)
        assert info["format"] == "v3"
        assert info["instructions"] == 2_000
        assert info["chunk_count"] == 4
        assert info["chunk_size"] == 512
        assert info["compression_ratio"] > 1.0
        assert info["file_bytes"] == path.stat().st_size
        assert info["program"] == trace.program_name

    def test_v2_info_is_legacy_error(self, tmp_path):
        from repro.vm.tracefile import MAGIC_V2

        path = tmp_path / "t2.trace"
        path.write_bytes(MAGIC_V2 + b"\x80\x05payload")
        with pytest.raises(TraceFileError, match="legacy v2 trace"):
            trace_file_info(path)

    def test_write_stream_rechunks(self, tmp_path):
        trace = run_workload("li", max_instructions=700)
        src = tmp_path / "src.trace"
        write_stream(trace, src, chunk_size=64)
        dst = tmp_path / "dst.trace"
        n = write_stream(FileTraceStream(src), dst, chunk_size=100)
        assert n == 700
        info = trace_file_info(dst)
        assert info["chunk_size"] == 100
        assert info["chunk_count"] == 7
        assert trace_identical(load_trace(src), load_trace(dst))


class TestThreadedCodec:
    """The codec thread pool reorders *work*, never *bytes*: frames are
    serialized in submission order, and zlib is deterministic, so any
    pool size produces the identical file."""

    @pytest.fixture(scope="class")
    def trace(self):
        return run_workload("compress", max_instructions=2_000)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("threads", (1, 2, 8))
    def test_threaded_writer_byte_identical(self, tmp_path, trace,
                                            threads, chunk_size):
        serial = tmp_path / "serial.trace"
        pooled = tmp_path / "pooled.trace"
        write_stream(trace, serial, chunk_size=chunk_size, threads=0)
        write_stream(trace, pooled, chunk_size=chunk_size, threads=threads)
        assert serial.read_bytes() == pooled.read_bytes()

    def test_abort_with_pool_leaves_no_footer(self, tmp_path, trace):
        path = tmp_path / "aborted.trace"
        writer = TraceWriter(path, chunk_size=64, threads=2)
        writer.write_segment(as_columnar(trace))
        writer.abort()
        with pytest.raises(TraceFileError):
            load_trace(path)

    def test_env_knob_resolves_pool_size(self, monkeypatch):
        from repro.vm.tracev3 import codec_threads

        monkeypatch.setenv("REPRO_CODEC_THREADS", "3")
        assert codec_threads() == 3
        monkeypatch.setenv("REPRO_CODEC_THREADS", "0")
        assert codec_threads() == 0


class TestInlineReader:
    """The reader decodes each chunk on the caller's thread when it is
    asked for, whatever ``REPRO_CODEC_THREADS`` says (it sizes only the
    writer's pool)."""

    @pytest.mark.parametrize("codec_threads", (1, 3))
    def test_holds_at_most_two_chunks_on_the_callers_thread(
            self, tmp_path, monkeypatch, codec_threads):
        """At most 2 decoded chunks live (the one yielded and the
        consumer's previous one), gc-counted as in
        ``TestBoundedMemory``, and no thread is started, whatever the
        codec thread count."""
        import threading

        monkeypatch.setenv("REPRO_CODEC_THREADS", str(codec_threads))
        trace = run_workload("compress", max_instructions=4_000)
        path = tmp_path / "many.trace"
        write_stream(trace, path, chunk_size=100, threads=0)  # 40 chunks
        del trace
        gc.collect()
        baseline = sum(1 for o in gc.get_objects()
                       if isinstance(o, ColumnarTrace))
        threads = threading.active_count()
        seen = 0
        max_live = 0
        with TraceReader(path) as reader:
            for chunk in reader.chunks():
                seen += 1
                assert threading.active_count() == threads
                gc.collect()
                live = sum(1 for o in gc.get_objects()
                           if isinstance(o, ColumnarTrace)) - baseline
                max_live = max(max_live, live)
        assert seen == 40
        assert max_live <= 2, f"{max_live} chunks live at once"

    def test_chunks_match_random_access(self, tmp_path):
        trace = run_workload("li", max_instructions=1_500)
        path = tmp_path / "t.trace"
        write_stream(trace, path, chunk_size=128)
        with TraceReader(path) as reader:
            chunks = list(reader.chunks())
            assert len(chunks) == reader.chunk_count == 12
            for i, chunk in enumerate(chunks):
                assert trace_identical(chunk, reader.chunk(i))

    def test_one_chunk_size_from_execution_to_frame(self):
        from repro.vm import tracestream, tracev3

        assert tracestream.DEFAULT_CHUNK_SIZE is tracev3.DEFAULT_CHUNK_SIZE

    def test_64k_frames_still_load(self, tmp_path):
        """Frames carry their own counts: a file written with the
        earlier 65536-instruction frames reads back at today's size."""
        trace = run_workload("compress", max_instructions=70_000)
        path = tmp_path / "wide.trace"
        write_stream(trace, path, chunk_size=65536)
        with TraceReader(path) as reader:
            assert reader.chunk_size == 65536
            assert [e.count for e in reader.index] == [65536, 70_000 - 65536]
        assert trace_identical(load_trace(path), trace)


class TestInfoColumns:
    def test_column_sections_sum_to_payload(self, tmp_path):
        from repro.vm.tracev3 import SECTION_NAMES

        trace = run_workload("compress", max_instructions=2_000)
        path = tmp_path / "t.trace"
        write_stream(trace, path, chunk_size=512)
        info = trace_file_info(path, columns=True, per_chunk=True)
        cols = info["columns"]
        assert set(cols) == set(SECTION_NAMES) | {"header"}
        total = sum(c["encoded_bytes"] for c in cols.values())
        assert total == info["encoded_bytes"]
        chunks = info["chunks"]
        assert len(chunks) == info["chunk_count"]
        assert sum(c["encoded_bytes"] for c in chunks) == info["encoded_bytes"]
        assert sum(c["compressed_bytes"] for c in chunks) == info["compressed_bytes"]
        assert sum(c["instructions"] for c in chunks) == 2_000
        # the dominant columns carry a real codec mode tag
        assert any("bitmap+f8" in m for m in cols["read_vals"]["modes"])


# ----------------------------------------------------------------------
# byte-mutation fuzzer
# ----------------------------------------------------------------------

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

#: The fuzzed kernel and budget: small enough for a run per example,
#: long enough for several 128-instruction chunks.
FUZZ_NAME, FUZZ_BUDGET = "li", 700
FUZZ_CONFIG = ExperimentConfig(max_instructions=FUZZ_BUDGET,
                               workloads=(FUZZ_NAME,),
                               reuse_latencies=(1,), proportional_ks=(1.0,))


def _read_everything(path):
    """Every piece of metadata and every chunk a reader yields."""
    with TraceReader(path) as reader:
        meta = (reader.program_name, reader.halted, reader.truncated,
                reader.count, reader.chunk_size, reader.index)
        return meta, list(reader.chunks())


def _footer_at(raw: bytes) -> int:
    """The footer offset a v3 file's tail points at."""
    return int.from_bytes(raw[-len(TAIL_MAGIC) - 8:-len(TAIL_MAGIC)],
                          "little")


def _with_footer(raw: bytes, edit) -> bytes:
    """A v3 file's bytes with ``edit(meta)`` applied to its footer
    fields, the footer checksum recomputed and the tail kept."""
    at = _footer_at(raw)
    (meta_len,) = struct.unpack("<I", raw[at + 4:at + 8])
    meta = json.loads(raw[at + 12:at + 12 + meta_len])
    edit(meta)
    payload = json.dumps(meta, separators=(",", ":")).encode()
    header = raw[at:at + 4] + struct.pack("<II", len(payload),
                                          zlib.crc32(payload))
    return raw[:at] + header + payload + raw[-len(TAIL_MAGIC) - 8:]


def _mutate_v3(data, raw: bytes) -> bytes:
    """:func:`_mutate` within the whole file, the footer and tail, or
    the footer's first 96 bytes (its header and scalar fields): uniform
    positions would rarely hit those few bytes."""
    footer_at = _footer_at(raw)
    start, stop = data.draw(st.sampled_from([
        (0, len(raw)), (footer_at, len(raw)),
        (footer_at, footer_at + 96)]))
    return raw[:start] + _mutate(data, raw[start:stop]) + raw[stop:]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """A many-chunk v3 file: (path, its bytes, metadata, chunks)."""
    path = tmp_path_factory.mktemp("v3fuzz") / "t.trace"
    write_stream(run_workload(FUZZ_NAME, max_instructions=FUZZ_BUDGET), path,
             chunk_size=128)
    meta, chunks = _read_everything(path)
    return path, path.read_bytes(), meta, chunks


@pytest.fixture(scope="module")
def fuzz_entry(tmp_path_factory):
    """A cache holding the fuzzed kernel's trace and no profile:
    (entry path, its bytes, the oracle profile)."""
    import os

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("v3cache"))
    try:
        profile = run_profile(FUZZ_NAME, FUZZ_CONFIG)
        tracecache.profile_path(FUZZ_NAME, FUZZ_CONFIG.cache_key()).unlink()
        path = tracecache.trace_path(FUZZ_NAME, 1, FUZZ_BUDGET,
                                     get_workload(FUZZ_NAME).source(1))
        yield path, path.read_bytes(), profile
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old


class TestMutationFuzz:
    """A damaged v3 file gives a typed ``TraceFileError`` or exactly
    the original chunks and metadata, never a different answer; a
    damaged cache entry is a miss that the next drain heals."""

    @FUZZ
    @given(data=st.data())
    def test_mutated_file_is_typed_error_or_exact(self, fuzz_file, data):
        path, raw, meta, chunks = fuzz_file
        path.write_bytes(_mutate_v3(data, raw))
        try:
            got_meta, got_chunks = _read_everything(path)
        except TraceFileError:
            return
        finally:
            path.write_bytes(raw)
        assert got_meta == meta
        assert len(got_chunks) == len(chunks)
        assert all(trace_identical(a, b)
                   for a, b in zip(got_chunks, chunks))

    def test_every_footer_bit_flip_is_typed(self, fuzz_file):
        """Each field of the footer, flipped bit by bit: well-formed
        damage (a program name, a chunk size) must not read back."""
        path, raw, _, _ = fuzz_file
        try:
            for at in range(_footer_at(raw), len(raw)):
                for bit in range(8):
                    flipped = bytearray(raw)
                    flipped[at] ^= 1 << bit
                    path.write_bytes(flipped)
                    with pytest.raises(TraceFileError):
                        _read_everything(path)
        finally:
            path.write_bytes(raw)

    @FUZZ
    @given(data=st.data())
    def test_mutated_cache_entry_heals(self, fuzz_entry, data):
        path, raw, profile = fuzz_entry
        mutated = _mutate_v3(data, raw)
        path.write_bytes(mutated)
        try:
            assert run_profile(FUZZ_NAME, FUZZ_CONFIG) == profile
            # rewritten, unless the damage left the chunks readable
            assert path.read_bytes() in (raw, mutated)
        finally:
            tracecache.profile_path(FUZZ_NAME, FUZZ_CONFIG.cache_key()
                                    ).unlink(missing_ok=True)
            path.write_bytes(raw)
