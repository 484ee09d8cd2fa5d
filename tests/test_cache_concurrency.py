"""Cross-process safety of the shared cache (``.repro-cache/``).

These tests spawn real OS processes (``sys.executable -c``) against
one cache directory, exercising the races the service architecture
depends on surviving:

* two concurrent writers of different keys (every entry must land
  and load as stored),
* ≥4 processes hammering the *same* keys (no corrupt entries, no
  lost profiles, bytes identical to a sequential run),
* crash-orphan temp files reaped when the cache is next opened,
* a writer killed before any step of the trace tee's commit or abort.

Children inherit ``REPRO_CACHE_DIR`` (set per test) and
``PYTHONPATH`` from the test environment.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro.workloads  # registers the kernels
from repro.vm import tracecache, tracestream
from repro.vm.machine import Machine
from repro.vm.trace import as_columnar, trace_identical
from repro.vm.tracefile import load_trace
from repro.vm.tracev3 import TraceWriter
from repro.workloads.base import (
    build_program,
    get_workload,
    run_workload,
    stream_workload,
)
from test_service import _Crash, dead_pid  # noqa: F401 (a fixture)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh shared cache directory exported to child processes."""
    target = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    return target


def _spawn(script: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", script],
        env=os.environ.copy(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _wait_all(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()


def _key(budget: int) -> tuple:
    """A well-formed config key (profile_path wants (name, value) pairs)."""
    return (("max_instructions", budget), ("window_size", 32))


# Each child stores a disjoint range of keys, concurrently with its
# siblings.  Every entry must survive and load as the document stored
# (a shared index rewritten last-writer-wins once dropped records here).
_WRITER = """
from repro.vm import tracecache

start = {start}
count = {count}
for i in range(start, start + count):
    key = (("max_instructions", i), ("window_size", 32))
    tracecache.store_cached_profile("w%d" % i, key, {{"i": i}})
"""


class TestIndexRace:
    def test_two_concurrent_writers_both_land(self, cache_dir):
        """Regression: concurrent stores must not drop entries."""
        per_child = 20
        procs = [
            _spawn(_WRITER.format(start=0, count=per_child)),
            _spawn(_WRITER.format(start=per_child, count=per_child)),
        ]
        _wait_all(procs)
        assert tracecache.cache_info()["profiles"] == 2 * per_child
        # both writers' entries exist on disk and load as stored
        for i in range(2 * per_child):
            assert tracecache.load_cached_profile(f"w{i}", _key(i)) == {"i": i}


# Every child stores *every* key, many times over — maximal same-key
# contention through the entry lock + atomic replace path.
_HAMMER = """
from repro.vm import tracecache

KEYS = {keys}
for _round in range({rounds}):
    for name, budget in KEYS:
        key = (("max_instructions", budget), ("window_size", 32))
        payload = {{"name": name, "budget": budget,
                   "series": list(range(64))}}
        tracecache.store_cached_profile(name, key, payload)
        got = tracecache.load_cached_profile(name, key)
        assert got == payload, got
"""


class TestSameKeyStress:
    def test_four_processes_hammer_same_keys(self, cache_dir, tmp_path):
        keys = [(f"k{i}", 1000 + i) for i in range(5)]
        script = _HAMMER.format(keys=keys, rounds=6)
        _wait_all([_spawn(script) for _ in range(4)])

        # no lost profiles: every key loads and matches its payload
        for name, budget in keys:
            expected = {"name": name, "budget": budget,
                        "series": list(range(64))}
            assert tracecache.load_cached_profile(name, _key(budget)) == expected

        # no duplicate or stray entries either
        assert tracecache.cache_info()["profiles"] == len(keys)

        # no torn writes left behind: every entry file's bytes are
        # bit-identical to a sequential store of the same payload
        seq_dir = tmp_path / "seq-cache"
        os.environ["REPRO_CACHE_DIR"] = str(seq_dir)
        try:
            for name, budget in keys:
                payload = {"name": name, "budget": budget,
                           "series": list(range(64))}
                tracecache.store_cached_profile(name, _key(budget), payload)
                ref = tracecache.profile_path(name, _key(budget)).read_bytes()
                os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
                got = tracecache.profile_path(name, _key(budget)).read_bytes()
                os.environ["REPRO_CACHE_DIR"] = str(seq_dir)
                assert got == ref
        finally:
            os.environ["REPRO_CACHE_DIR"] = str(cache_dir)

        # no temp-file litter anywhere in the hammered cache
        litter = [p for p in cache_dir.rglob("*.tmp")]
        assert litter == []


class TestOrphanReaping:
    def test_dead_writer_tmp_reaped_on_open(self, cache_dir):
        """A writer killed between mkstemp and os.replace is cleaned up."""
        profiles = cache_dir / "profiles"
        profiles.mkdir(parents=True)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        orphan = profiles / f"li-n100-abc.pkl.pid{child.pid}.xyz.tmp"
        orphan.write_bytes(pickle.dumps({"partial": True})[:10])
        # force a fresh "open" of this root in-process
        tracecache._reaped_roots.discard(str(cache_dir))
        assert tracecache.reap_orphans() >= 1
        assert not orphan.exists()

    def test_open_store_reaps_once_per_root(self, cache_dir):
        profiles = cache_dir / "profiles"
        profiles.mkdir(parents=True)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        orphan = profiles / f"x.pkl.pid{child.pid}.a.tmp"
        orphan.write_bytes(b"junk")
        tracecache._reaped_roots.discard(str(cache_dir))
        # any cache operation opens the store and triggers the reap
        assert tracecache.load_cached_profile("li", _key(1)) is None
        assert not orphan.exists()
        # a second orphan appearing later is NOT reaped until a new
        # process (or root) opens the store — reaping is once per root
        orphan2 = profiles / f"y.pkl.pid{child.pid}.b.tmp"
        orphan2.write_bytes(b"junk")
        tracecache.load_cached_profile("li", _key(1))
        assert orphan2.exists()

    def test_live_writer_tmp_survives(self, cache_dir):
        from repro.util import fslock

        profiles = cache_dir / "profiles"
        profiles.mkdir(parents=True)
        mine = fslock.make_tmp(profiles, "li-n100-abc.pkl")
        tracecache._reaped_roots.discard(str(cache_dir))
        assert tracecache.reap_orphans() == 0
        assert mine.exists()


KILL_NAME, KILL_BUDGET = "li", 2_000

#: The tee's commit steps, then its abort steps, in the order they run:
#: step -> (owner, attribute) that the step calls.
TEE_STEPS = {
    "footer": (TraceWriter, "close"),
    "lock": (tracecache, "_entry_lock"),
    "replace": (os, "replace"),
    "reopen": (tracestream, "FileTraceStream"),
    "abort-writer": (TraceWriter, "abort"),
    "abort-unlink": (pathlib.Path, "unlink"),
}


class TestTeeKillPoints:
    """A process killed before any step of the trace tee's commit
    (footer write, entry lock, ``os.replace``, reopen) or of its abort
    (writer abort, temp unlink) leaves either no entry or a whole one
    equal to a fresh run; the next ``run_workload`` heals the entry,
    and the dead writer's pid-tagged temp is reaped."""

    @pytest.mark.parametrize("threads", [0, 2])
    @pytest.mark.parametrize("step", list(TEE_STEPS))
    def test_crash_before_step(self, cache_dir, dead_pid, monkeypatch,
                               threads, step):
        monkeypatch.setenv("REPRO_CODEC_THREADS", str(threads))
        fresh = Machine(build_program(KILL_NAME)).run(KILL_BUDGET)
        source = get_workload(KILL_NAME).source(1)
        stream = stream_workload(KILL_NAME, max_instructions=KILL_BUDGET)

        def crash(*args, **kwargs):
            raise _Crash(f"killed before {step}")

        with monkeypatch.context() as patch:
            patch.setattr(*TEE_STEPS[step], crash)
            with pytest.raises(_Crash):
                if step.startswith("abort"):
                    chunks = stream.chunks()
                    next(chunks)
                    chunks.close()  # the consumer abandons the drain
                else:
                    as_columnar(stream)

        # only a crash after the rename leaves an entry, and it is whole
        path = tracecache.trace_path(KILL_NAME, 1, KILL_BUDGET, source)
        assert path.exists() == (step == "reopen")
        entry = tracecache.load_cached_trace_stream(
            KILL_NAME, 1, KILL_BUDGET, source)
        assert (entry is not None) == (step == "reopen")
        if entry is not None:
            assert trace_identical(as_columnar(entry), fresh)
            entry.close()
        traces = cache_dir / "traces"
        temps = sorted(traces.glob("*.tmp"))
        assert len(temps) == (step != "reopen")

        # the writer's process is dead by the time the next one opens
        # the cache: retag its temp with a dead pid and reopen
        for tmp in temps:
            tmp.rename(tmp.with_name(tmp.name.replace(
                f".pid{os.getpid()}.", f".pid{dead_pid}.")))
        tracecache._reaped_roots.discard(str(cache_dir))
        healed = run_workload(KILL_NAME, max_instructions=KILL_BUDGET)
        assert trace_identical(healed, fresh)
        assert list(traces.glob("*.tmp")) == []
        assert trace_identical(load_trace(path), fresh)
