"""Trace serialization: round-trips and error handling."""

import json

import pytest

from repro.vm.tracefile import TraceFileError, load_trace, save_trace
from repro.workloads.base import run_workload

from conftest import run_asm


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        _, trace = run_asm("li r1, 5\nmuli r2, r1, 3\nhalt")
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        assert loaded.halted == trace.halted
        assert loaded.truncated == trace.truncated
        assert [repr(d) for d in loaded] == [repr(d) for d in trace]

    def test_gzip_round_trip(self, tmp_path):
        _, trace = run_asm("li r1, 5\nhalt")
        path = tmp_path / "t.jsonl.gz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert [repr(d) for d in loaded] == [repr(d) for d in trace]

    def test_float_values_preserved(self, tmp_path):
        _, trace = run_asm("fli f1, 0.1\nfadd f2, f1, f1\nhalt")
        path = tmp_path / "fp.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        value = loaded[1].writes[0][1]
        assert isinstance(value, float)
        assert value == trace[1].writes[0][1]

    def test_int_values_stay_ints(self, tmp_path):
        _, trace = run_asm("li r1, 7\nhalt")
        path = tmp_path / "int.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert isinstance(loaded[0].writes[0][1], int)

    def test_program_name_preserved(self, tmp_path):
        trace = run_workload("li", max_instructions=200)
        path = tmp_path / "li.jsonl"
        save_trace(trace, path)
        assert load_trace(path).program_name == "li"

    def test_empty_trace(self, tmp_path):
        from repro.vm.trace import Trace

        path = tmp_path / "empty.jsonl"
        save_trace(Trace(), path)
        assert len(load_trace(path)) == 0

    def test_analyses_agree_on_loaded_trace(self, tmp_path):
        from repro.baselines.ilr import instruction_reusability

        trace = run_workload("compress", max_instructions=2_000)
        path = tmp_path / "c.jsonl.gz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert (
            instruction_reusability(loaded).percent_reusable
            == instruction_reusability(trace).percent_reusable
        )


def _legacy_v2_file(path, payload=b"\x80\x05payload"):
    """A file in the retired v2 layout: its magic, then a payload."""
    from repro.vm.tracefile import MAGIC_V2

    if path.suffix == ".gz":
        import gzip

        with gzip.open(path, "wb") as fh:
            fh.write(MAGIC_V2 + payload)
    else:
        path.write_bytes(MAGIC_V2 + payload)
    return path


class TestColumnarV2:
    """v2 (a serialized ``ColumnarTrace``) is retired: writing one is
    refused, and reading one raises a typed error without ever
    deserializing its payload."""

    def test_v2_round_trip(self, tmp_path):
        _, trace = run_asm("li r1, 5\nmuli r2, r1, 3\nfli f1, 0.5\nhalt")
        with pytest.raises(TraceFileError, match="unknown trace file format"):
            save_trace(trace, tmp_path / "t.trace", format="v2")
        with pytest.raises(TraceFileError, match="legacy v2 trace"):
            load_trace(_legacy_v2_file(tmp_path / "old.trace"))

    def test_v2_gzip_round_trip(self, tmp_path):
        with pytest.raises(TraceFileError, match="legacy v2 trace"):
            load_trace(_legacy_v2_file(tmp_path / "t.trace.gz"))

    def test_cross_format_same_stream(self, tmp_path):
        """v1 and v3 files of the same trace decode to the same stream."""
        trace = run_workload("li", max_instructions=400, use_cache=False)
        v1, v3 = tmp_path / "t.jsonl", tmp_path / "t.trace"
        save_trace(trace, v1, format="v1")
        save_trace(trace, v3, format="v3")
        a, b = load_trace(v1), load_trace(v3)
        assert [repr(d) for d in a] == [repr(d) for d in b]
        assert a.program_name == b.program_name == "li"

    def test_unknown_format_rejected(self, tmp_path):
        _, trace = run_asm("halt")
        with pytest.raises(TraceFileError, match="unknown trace file format"):
            save_trace(trace, tmp_path / "t.bin", format="v9")

    def test_bad_v2_payload(self, tmp_path):
        path = _legacy_v2_file(tmp_path / "bad.trace", b"\x00not a trace")
        with pytest.raises(TraceFileError, match="legacy v2 trace"):
            load_trace(path)

    def test_v2_payload_wrong_type(self, tmp_path, monkeypatch):
        """The payload is refused by its magic alone: nothing is
        deserialized, whatever it holds."""
        import pickle

        def refuse(*_args, **_kwargs):
            raise AssertionError("a v2 payload was deserialized")

        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        path = _legacy_v2_file(tmp_path / "wrong.trace", b"\x80\x05]q\x00.")
        with pytest.raises(TraceFileError, match="legacy v2 trace"):
            load_trace(path)

    def test_truncated_v2_payload(self, tmp_path):
        path = _legacy_v2_file(tmp_path / "t.trace", b"")
        with pytest.raises(TraceFileError, match="legacy v2 trace"):
            load_trace(path)

    def test_bad_v2_payload_logs_warning(self, tmp_path, caplog):
        import logging

        path = _legacy_v2_file(tmp_path / "bad.trace")
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            with pytest.raises(TraceFileError):
                load_trace(path)
        assert any("legacy v2 trace file" in r.message
                   for r in caplog.records)

    def test_unexpected_error_propagates(self, tmp_path, monkeypatch):
        """Only malformed records become TraceFileError; interpreter-
        level errors must not be swallowed as if the file were
        corrupt."""
        import repro.vm.tracefile as tracefile

        _, trace = run_asm("li r1, 5\nhalt")
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        real_loads = json.loads

        def explode(line):
            if line.startswith("["):
                raise MemoryError("interpreter out of memory")
            return real_loads(line)

        monkeypatch.setattr(tracefile.json, "loads", explode)
        with pytest.raises(MemoryError):
            load_trace(path)


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(TraceFileError, match="empty"):
            load_trace(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceFileError, match="bad header"):
            load_trace(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(json.dumps({"format": "other"}) + "\n")
        with pytest.raises(TraceFileError, match="not a repro-trace"):
            load_trace(path)

    def test_bad_record(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps({"format": "repro-trace-v1", "count": 1}) + "\n[1, 2]\n"
        )
        with pytest.raises(TraceFileError, match="bad record"):
            load_trace(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"format": "repro-trace-v1", "count": 5}) + "\n")
        with pytest.raises(TraceFileError, match="declares 5"):
            load_trace(path)

    def test_odd_pair_list(self, tmp_path):
        path = tmp_path / "o.jsonl"
        header = json.dumps({"format": "repro-trace-v1", "count": 1})
        record = json.dumps([0, 1, [1], [], 1, 1])
        path.write_text(header + "\n" + record + "\n")
        with pytest.raises(TraceFileError, match="odd-length"):
            load_trace(path)
