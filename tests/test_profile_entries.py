"""Profile cache entries: the checksummed JSON format, the profile
document's exact round-trip, the byte-splicing ``/profile`` hit path,
and a byte-mutation fuzzer over stored profile and Figure 9 entries."""

from __future__ import annotations

import asyncio
import json
import os
import zlib
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.stats import TraceIOStats
from repro.exp import runner
from repro.exp.config import ExperimentConfig
from repro.exp.figures import fig9_rows
from repro.exp.runner import (
    BenchmarkProfile,
    profile_from_json,
    profile_to_json,
    run_profile,
)
from repro.exp.service import server as server_mod
from repro.exp.service.server import ServiceFrontend, start_server
from repro.vm import tracecache
from repro.workloads.base import FP_SUITE, INT_SUITE

TINY = ExperimentConfig(max_instructions=600, workloads=("li",),
                        max_workers=1)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    target = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    return target


def _serve(target: str, frontend: ServiceFrontend) -> tuple[int, bytes]:
    """One request against ``frontend`` on an ephemeral port."""

    async def main():
        server, _frontend, port = await start_server(
            port=0, frontend=frontend)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
        finally:
            server.close()
            await server.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        return int(head.split()[1]), body

    return asyncio.run(main())


class TestEntryFormat:
    def test_header_then_compact_json(self):
        doc = {"a": 1, "b": [0.1, None]}
        entry = tracecache.encode_profile_entry(doc)
        header, _, payload = entry.partition(b"\n")
        assert payload == b'{"a":1,"b":[0.1,null]}'
        assert header == b"repro-profile 1 %d %08x" % (
            len(payload), zlib.crc32(payload))
        assert tracecache.decode_profile_entry(entry) == payload

    @pytest.mark.parametrize("damage", [
        lambda e: e.replace(b"repro-profile", b"repro-profilf", 1),
        lambda e: e.replace(b"repro-profile 1 ", b"repro-profile 2 ", 1),
        lambda e: e[:-1],
        lambda e: e + b" ",
        lambda e: e[:-2] + b"2}",
        lambda e: e.replace(b"\n", b" ", 1),
        lambda e: b"",
    ], ids=["magic", "schema", "truncated", "appended", "payload-byte",
            "no-newline", "empty"])
    def test_damage_is_a_typed_error(self, damage):
        entry = tracecache.encode_profile_entry({"x": 1})
        with pytest.raises(tracecache.ProfileEntryError):
            tracecache.decode_profile_entry(damage(entry))

    def test_checksummed_non_json_payload_is_a_miss(self, cache_dir):
        key = (("max_instructions", 1),)
        path = tracecache.profile_path("li", key)
        path.parent.mkdir(parents=True)
        payload = b"{not json"
        path.write_bytes(b"repro-profile 1 %d %08x\n" % (
            len(payload), zlib.crc32(payload)) + payload)
        with obs.scope() as registry:
            assert tracecache.load_cached_profile("li", key) is None
        assert registry.counters["profile_cache.corrupt"] == 1


class TestProfileDocument:
    def test_round_trip_restores_key_and_value_types(self):
        profile = run_profile("li", TINY)
        doc = profile_to_json(profile)
        assert list(doc) == [f.name for f in fields(BenchmarkProfile)]
        assert set(doc["ilr_speedup_inf"]) == {"1", "2", "3", "4"}
        back = profile_from_json(json.loads(json.dumps(doc)))
        assert back == profile
        assert all(type(k) is int for k in back.tlr_speedup_win)
        assert all(type(k) is float for k in back.tlr_speedup_win_prop)
        assert isinstance(back.io_stats, TraceIOStats)

    def test_missing_io_stats_round_trips(self):
        profile = BenchmarkProfile("x", "INT", 1, 0.5, 1.0, 1, 1.0, 1.0,
                                   tlr_speedup_win_prop={0.25: 1.5})
        assert profile_from_json(profile_to_json(profile)) == profile

    def test_every_kernel_reloads_bit_identical(self, cache_dir):
        config = ExperimentConfig(max_instructions=1_200)
        for name in FP_SUITE + INT_SUITE:
            computed = run_profile(name, config)
            with obs.scope() as registry:
                reloaded = run_profile(name, config)
            assert registry.counters.get("profile_cache.hit") == 1, name
            assert reloaded == computed, name
            for table in ("ilr_speedup_inf", "ilr_speedup_win",
                          "tlr_speedup_inf", "tlr_speedup_win"):
                assert ([type(k) for k in getattr(reloaded, table)]
                        == [int] * len(config.reuse_latencies)), name
            assert list(reloaded.tlr_speedup_win_prop) == list(
                config.proportional_ks), name
            assert type(reloaded.io_stats) is TraceIOStats, name


class TestServeHit:
    def test_hit_body_is_the_in_process_document(self, cache_dir):
        profile = run_profile("li", TINY)
        status, body = _serve("/profile?workload=li", ServiceFrontend(TINY))
        assert status == 200
        answer = json.loads(body)
        assert answer["source"] == "cache" and answer["workload"] == "li"
        assert answer["profile"] == profile_to_json(profile)
        assert profile_from_json(answer["profile"]) == profile

    def test_hit_path_decodes_and_encodes_nothing(self, cache_dir,
                                                  monkeypatch):
        run_profile("li", TINY)
        frontend = ServiceFrontend(TINY)
        # the first request builds the workload's answer head
        status, first = frontend.dispatch("/profile", {"workload": "li"})
        assert status == 200

        def refuse(*args, **kwargs):
            raise AssertionError("the hit path decoded or encoded JSON")

        for owner in (json, server_mod.json):
            monkeypatch.setattr(owner, "dumps", refuse)
            monkeypatch.setattr(owner, "loads", refuse)
        for owner in (runner, server_mod):
            monkeypatch.setattr(owner, "profile_to_json", refuse)
            monkeypatch.setattr(owner, "profile_from_json", refuse)
        status, body = frontend.dispatch("/profile", {"workload": "li"})
        assert status == 200 and body == first
        stored = tracecache.load_cached_profile_json("li", TINY.cache_key())
        assert body == (b'{"source": "cache", "workload": "li", "profile": '
                        + stored + b"}\n")

    def test_bytes_pass_through_the_connection(self, cache_dir,
                                               monkeypatch):
        run_profile("li", TINY)

        def refuse(*args, **kwargs):
            raise AssertionError("the hit path encoded JSON")

        frontend = ServiceFrontend(TINY)
        _, answer = frontend.dispatch("/profile", {"workload": "li"})
        monkeypatch.setattr(server_mod.json, "dumps", refuse)
        assert _serve("/profile?workload=li", frontend) == (200, answer)


class TestStaticAnswer:
    def test_memoised_bytes_keep_the_indented_encoding(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        frontend = ServiceFrontend(ExperimentConfig(max_instructions=4_000))
        status, answer = frontend.dispatch(
            "/profile", {"workload": "li", "mode": "static"})
        assert status == 200 and isinstance(answer, bytes)
        assert answer == json.dumps(json.loads(answer),
                                    indent=2).encode() + b"\n"


# ----------------------------------------------------------------------
# byte-mutation fuzzer
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def warm_entry(tmp_path_factory):
    """A cache holding li's TINY profile: (entry path, its bytes, the
    stored document, the profile, the original ``/profile`` answer)."""
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("fuzz"))
    try:
        profile = run_profile("li", TINY)
        path = tracecache.profile_path("li", TINY.cache_key())
        doc = tracecache.load_cached_profile("li", TINY.cache_key())
        status, answer = ServiceFrontend(TINY).dispatch(
            "/profile", {"workload": "li"})
        assert status == 200
        yield path, path.read_bytes(), doc, profile, answer
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(scope="module")
def warm_fig9_entry(tmp_path_factory):
    """A cache holding li's TINY Figure 9 rows: (entry path, its bytes,
    the rows, the original ``/figure?name=figure9`` answer)."""
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("fuzz9"))
    try:
        rows = fig9_rows("li", TINY)
        path = tracecache.profile_path("li", TINY.cache_key(), "fig9")
        status, answer = ServiceFrontend(TINY).dispatch(
            "/figure", {"name": "figure9"})
        assert status == 200
        yield path, path.read_bytes(), rows, answer
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old


def _mutate(data, raw: bytes) -> bytes:
    """One random flip, insertion, deletion or truncation of ``raw``."""
    kind = data.draw(st.sampled_from(["flip", "insert", "delete",
                                      "truncate"]))
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    at = data.draw(st.integers(0, len(raw) - 1))
    if kind == "flip":
        bit = data.draw(st.integers(1, 255))
        return raw[:at] + bytes([raw[at] ^ bit]) + raw[at + 1:]
    if kind == "insert":
        return raw[:at] + data.draw(st.binary(min_size=1, max_size=8)) \
            + raw[at:]
    return raw[:at] + raw[at + data.draw(st.integers(1, 8)):]


FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


class TestEntryFuzz:
    @FUZZ
    @given(data=st.data())
    def test_mutated_entry_is_exact_or_a_miss_and_heals(self, warm_entry,
                                                        data):
        path, raw, doc, profile, answer = warm_entry
        path.write_bytes(_mutate(data, raw))
        try:
            with obs.scope() as registry:
                got = tracecache.load_cached_profile("li", TINY.cache_key())
            assert got is None or got == doc
            if got is None:
                assert registry.counters["profile_cache.corrupt"] == 1
            status, body = ServiceFrontend(TINY).dispatch(
                "/profile", {"workload": "li"})
            assert (status, body) == (200, answer) or status == 202
            # the next run recomputes and rewrites the entry
            assert run_profile("li", TINY) == profile
            assert path.read_bytes() == raw
        finally:
            path.write_bytes(raw)

    @FUZZ
    @given(data=st.data())
    def test_mutated_fig9_entry_is_exact_or_a_miss_and_heals(
            self, warm_fig9_entry, data):
        path, raw, rows, answer = warm_fig9_entry
        path.write_bytes(_mutate(data, raw))
        try:
            key = TINY.cache_key()
            with obs.scope() as registry:
                got = tracecache.load_cached_profile("li", key, "fig9")
            assert got is None or got == rows
            if got is None:
                assert registry.counters["fig9_cache.corrupt"] == 1
            status, body = ServiceFrontend(TINY).dispatch(
                "/figure", {"name": "figure9"})
            assert (status, body) == (200, answer) or status == 202
            # the next run recomputes and rewrites the entry
            assert fig9_rows("li", TINY) == rows
            assert path.read_bytes() == raw
        finally:
            path.write_bytes(raw)
