"""Persistent on-disk cache for traces, profiles and Figure 9 rows.

Every pytest session and every figure regeneration used to re-execute
all 14 VM kernels from scratch, although the kernels are deterministic:
the trace is a pure function of the assembly source, the VM semantics
and the instruction budget.  This module memoises that function on
disk, plus one level up — the fully analysed profile, as the JSON
document :func:`repro.exp.runner.profile_to_json` builds — so a warm
run of ``collect_profiles`` skips both VM execution *and* the dataflow
analysis.  A kernel's Figure 9 rows (its finite-RTM grid) are a
second kind of entry in the same format.

Layout (under :func:`cache_dir`, default ``.repro-cache/``)::

    .repro-cache/
        traces/<workload>-s<scale>-n<budget>-<key>.trace   (tracefile v3)
        profiles/<workload>-n<budget>-<key>.json           (profile entry)
        fig9/<workload>-n<budget>-<key>.json               (fig9 entry)

A trace entry is read only by :func:`load_cached_trace_stream` and
written only by the tee's commit (:func:`tee_cached_trace_stream`);
:func:`repro.workloads.base.stream_workload` is the one caller of
both, and ``run_workload`` drains its stream.  An entry whose chunks
turn out not to decode is dropped by :func:`drain_healing`, and the
retry's tee rewrites it.

A profile entry is one header line, ``repro-profile <schema> <payload
bytes> <crc32 hex>``, followed by the payload: the profile document as
compact JSON.  This layer stores and returns documents and knows
nothing of the profile type; every entry function takes the entry
``kind`` (:data:`ENTRY_KINDS`), ``"profile"`` by default.  An entry
whose magic, schema, length or checksum does not match is a miss
(counted as ``<kind>_cache.corrupt``) and the recompute's store
rewrites it; a load never returns a document
other than the one stored.  :func:`load_cached_profile_json` returns
the checked payload bytes, which ``repro serve`` sends as they are.

Keys are sha256 digests over everything the cached value depends on:
the workload's *generated assembly source* (which folds in the
workload name, scale and generator code) plus the source text of the
modules that define the semantics — the ISA and VM for traces, and
additionally the analysis stack for profiles or the finite-RTM
simulator for Figure 9 rows.  Any edit to those modules changes the
digest and silently invalidates old entries; stale files are only
reclaimed by ``repro cache clear``.

Knobs
-----

``REPRO_CACHE_DIR``
    Overrides the cache directory (default: ``.repro-cache`` under the
    current working directory).
``REPRO_TRACE_CACHE=0``
    Kill switch: disables both lookups and stores.

Concurrency
-----------

The cache is a *shared artifact store*: N sweep workers (and the
``repro serve`` front end) read and write one ``.repro-cache/`` at
once, across processes.  The discipline, in lock order:

1. Entry writes are atomic (pid-tagged temp file + ``os.replace``) so
   readers only ever observe a complete old or complete new entry;
   unreadable or corrupt entries are treated as misses and atomically
   rewritten by the recompute.
2. Read-modify-write paths take a per-entry advisory ``flock`` (a
   zero-byte sibling under ``locks/``), so two writers of the same key
   serialize instead of double-writing; writers of different keys
   never contend.
3. There is no index: the entry name carries the workload and budget,
   and the header carries the size, so ``cache_info`` counts entries
   with the directory scan it runs anyway.
4. A writer killed between ``mkstemp`` and ``os.replace`` leaves an
   orphan temp file; opening the cache reaps temp files whose creator
   pid is dead (immediately) or unknown and old (after an hour) —
   see :func:`repro.util.fslock.reap_stale_tmps`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tokenize
import zlib
from functools import lru_cache
from typing import Any

from repro.obs import get_logger, incr
from repro.util import fslock
from repro.vm.errors import TraceFileError

_log = get_logger("tracecache")

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: First header field of a profile entry, and the entry schema version
#: (bump it when the header or the document layout changes).
PROFILE_MAGIC = b"repro-profile"
PROFILE_SCHEMA = 1

#: Modules whose source defines what a trace *is*: editing any of them
#: invalidates every cached trace.
TRACE_MODULES = (
    "repro.isa.instruction",
    "repro.isa.opcodes",
    "repro.isa.registers",
    "repro.isa.table",
    "repro.vm.program",
    "repro.vm.assembler",
    "repro.vm.machine",
    "repro.vm.fastmachine",
    "repro.vm.trace",
    "repro.vm.tracev3",
)

#: Modules that additionally define what a profile is (the analysis
#: stack on top of the trace).
ANALYSIS_MODULES = TRACE_MODULES + (
    "repro.baselines.ilr",
    "repro.core.traces",
    "repro.core.stats",
    "repro.core.reuse_tlr",
    "repro.dataflow.model",
    "repro.dataflow.streaming",
    "repro.exp.runner",
)

#: Modules that define a kernel's Figure 9 rows (the finite-RTM
#: simulator on top of the trace, and the shard body that runs it).
FIG9_MODULES = TRACE_MODULES + (
    "repro.baselines.ilr",
    "repro.core.traces",
    "repro.core.rtm.collector",
    "repro.core.rtm.entry",
    "repro.core.rtm.invalidating",
    "repro.core.rtm.memory",
    "repro.core.rtm.simulator",
    "repro.vm.tracestream",
    "repro.exp.figures",
)

#: Entry kinds: kind -> (cache subdirectory, modules whose source is
#: part of the entry key).
ENTRY_KINDS = {
    "profile": ("profiles", ANALYSIS_MODULES),
    "fig9": ("fig9", FIG9_MODULES),
}


def cache_enabled() -> bool:
    """False when the ``REPRO_TRACE_CACHE=0`` kill switch is set."""
    return os.environ.get("REPRO_TRACE_CACHE", "1") != "0"


def cache_dir() -> pathlib.Path:
    """The cache root (``REPRO_CACHE_DIR`` or ``.repro-cache``)."""
    return pathlib.Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


#: The ``repro`` package directory, which the digest reads sources from.
_PACKAGE_DIR = pathlib.Path(__file__).parent.parent


@lru_cache(maxsize=None)
def _modules_digest(module_names: tuple[str, ...]) -> str:
    """sha256 over the concatenated source text of the named modules.

    Acts as the code fingerprint in cache keys: any semantic change to
    the VM or the analysis stack shows up in the source and therefore
    in the digest.  Each source is read from its file, as
    ``inspect.getsource`` reads it, without importing the module: a
    process that only reads profile entries never loads the engine.
    """
    h = hashlib.sha256()
    for name in module_names:
        path = _PACKAGE_DIR.joinpath(*name.split(".")[1:]).with_suffix(".py")
        with tokenize.open(path) as fh:
            text = fh.read()
        h.update(name.encode())
        h.update((text if text.endswith("\n") else text + "\n").encode())
    return h.hexdigest()


def _entry_key(digest: str, *parts: Any) -> str:
    h = hashlib.sha256(digest.encode())
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:20]


def _budget_tag(max_instructions: int | None) -> str:
    return "all" if max_instructions is None else str(max_instructions)


def _atomic_write(path: pathlib.Path, write_fn) -> None:
    """Write via ``write_fn(tmp_path)`` then atomically rename.

    The temp file is pid-tagged (see :func:`repro.util.fslock.
    make_tmp`) so a writer killed between the two steps leaves an
    orphan that :func:`reap_orphans` can attribute to a dead process.
    """
    tmp = fslock.make_tmp(path.parent, path.name)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def entry_lock_path(path: pathlib.Path) -> pathlib.Path:
    """The advisory lock file guarding one cache entry's writes."""
    return cache_dir() / "locks" / f"{path.name}.lock"


def _entry_lock(path: pathlib.Path):
    """Per-entry exclusive lock context (cheap: keyed by file name)."""
    return fslock.file_lock(entry_lock_path(path))


#: Cache roots already reaped by this process (reap once per root).
_reaped_roots: set[str] = set()


def reap_orphans(*, max_age: float = fslock.DEFAULT_TMP_MAX_AGE) -> int:
    """Reap orphaned ``*.tmp`` files across every cache layer.

    A worker killed between ``mkstemp`` and ``os.replace`` would
    otherwise leak its temp file forever.  Temp files whose embedded
    creator pid is dead go immediately; untagged ones only after
    ``max_age`` seconds.  Returns the number of files removed.
    """
    root = cache_dir()
    removed = 0
    for sub in ("traces", *(d for d, _ in ENTRY_KINDS.values())):
        removed += fslock.reap_stale_tmps(root / sub, max_age=max_age)
    if removed:
        incr("cache.orphans_reaped", removed)
    return removed


def _open_store() -> None:
    """Once per process and cache root: crash-orphan cleanup."""
    root = str(cache_dir())
    if root in _reaped_roots:
        return
    _reaped_roots.add(root)
    reap_orphans()


# ----------------------------------------------------------------------
# trace layer
# ----------------------------------------------------------------------

def trace_path(
    name: str,
    scale: int,
    max_instructions: int | None,
    source_text: str,
) -> pathlib.Path:
    """Cache file path for one (workload, scale, budget) trace.

    ``source_text`` is the workload's generated assembly (passed in by
    the caller so this module needs no workload-registry import).
    """
    key = _entry_key(
        _modules_digest(TRACE_MODULES), name, scale, max_instructions,
        source_text,
    )
    fname = (f"{name}-s{scale}-n{_budget_tag(max_instructions)}"
             f"-{key}.trace")
    return cache_dir() / "traces" / fname


def load_cached_trace_stream(
    name: str,
    scale: int,
    max_instructions: int | None,
    source_text: str,
):
    """The cached trace as a chunk stream, or None on a miss.

    Entries come back as a :class:`~repro.vm.tracestream.
    FileTraceStream` — chunks decode on demand with O(chunk) memory,
    the "zero-copy" cache-hit path.  A corrupt or non-v3 entry is a
    miss, after which the caller re-executes and the store path
    atomically rewrites the entry.
    """
    if not cache_enabled():
        return None
    _open_store()
    path = trace_path(name, scale, max_instructions, source_text)
    if not path.is_file():
        incr("trace_cache.miss")
        return None
    from repro.vm.tracestream import FileTraceStream

    try:
        stream = FileTraceStream(path)
    except (TraceFileError, OSError) as exc:
        _log.warning("corrupt trace cache entry %s (%s); treating as a miss",
                     path, exc)
        incr("trace_cache.corrupt")
        incr("trace_cache.miss")
        return None
    incr("trace_cache.hit")
    return stream


def discard_corrupt_trace(path: pathlib.Path, exc: Exception) -> None:
    """Drop a v3 cache entry that opened (its footer checks out) but
    whose chunks do not decode, counting it as corrupt.  The lookup
    that follows counts the miss, and its tee rewrites the entry."""
    _log.warning("corrupt trace cache entry %s (%s); treating as a miss",
                 path, exc)
    incr("trace_cache.corrupt")
    with _entry_lock(path):
        path.unlink(missing_ok=True)


def drain_healing(open_stream, drain):
    """``drain(open_stream())``, healing a damaged cache entry.

    A cache hit streams a v3 entry whose footer checked out when it
    opened; if one of its chunks then fails to decode, the entry is
    discarded and ``drain`` runs again over a fresh ``open_stream()``,
    which misses and executes through the tee, rewriting the entry.
    """
    stream = open_stream()
    try:
        return drain(stream)
    except TraceFileError as exc:
        from repro.vm.tracestream import FileTraceStream

        if not isinstance(stream, FileTraceStream):
            raise
        stream.close()
        discard_corrupt_trace(stream.path, exc)
        return drain(open_stream())


def tee_cached_trace_stream(
    name: str,
    scale: int,
    max_instructions: int | None,
    source_text: str,
    stream,
):
    """Wrap an execution stream so its first drain *also* persists the
    trace into the cache — the direct execute→analyze cold path, and
    the only way a trace entry is written.

    The consumer analyzes segments as the machine produces them while
    a :class:`~repro.vm.tracev3.TraceWriter` (threaded when
    ``REPRO_CODEC_THREADS`` allows) writes the same segments to a
    pid-tagged temp file.  A complete drain commits: it writes the
    footer, takes the per-entry lock, publishes the temp with an atomic
    ``os.replace`` and reopens the entry, which later drains replay.
    An abandoned or failed drain aborts: it closes the writer and
    removes the temp, publishing nothing.  A process killed before any
    of those steps leaves no entry or a whole one, plus at most an
    orphan temp that the next process to open the cache reaps (the
    kill-point tests in ``test_cache_concurrency.py`` check each step).
    Racing writers of the same key are safe: contents are identical by
    construction, and a live writer's pid-tagged temp is never reaped.

    With the cache disabled the stream is returned unchanged.
    """
    if not cache_enabled():
        return stream
    _open_store()
    from repro.vm.tracestream import TeeChunkStream
    from repro.vm.tracev3 import TraceWriter

    path = trace_path(name, scale, max_instructions, source_text)

    def open_writer():
        try:
            tmp = fslock.make_tmp(path.parent, path.name)
            return TraceWriter(tmp, program_name=stream.program_name), tmp
        except OSError as exc:
            _log.warning("trace cache tee disabled (%s); analyzing "
                         "without persisting", exc)
            return None

    def commit(writer, tmp, source):
        try:
            writer.close(halted=source.halted, truncated=source.truncated)
            with _entry_lock(path):
                os.replace(tmp, path)
        except (OSError, TraceFileError) as exc:
            _log.warning("trace cache tee publish failed for %s (%s)",
                         path, exc)
            writer.abort()
            tmp.unlink(missing_ok=True)
            return None
        incr("trace_cache.store")
        from repro.vm.tracestream import FileTraceStream

        try:
            return FileTraceStream(path)
        except (TraceFileError, OSError):  # entry raced away / damaged
            return None

    def abort(writer, tmp):
        writer.abort()
        tmp.unlink(missing_ok=True)

    return TeeChunkStream(stream, open_writer=open_writer, commit=commit,
                          abort=abort)


# ----------------------------------------------------------------------
# profile layer
# ----------------------------------------------------------------------

def profile_path(name: str, config_key: tuple,
                 kind: str = "profile") -> pathlib.Path:
    """Cache file path for one analysed benchmark profile (or, with
    ``kind="fig9"``, one kernel's Figure 9 rows).

    ``config_key`` is :meth:`ExperimentConfig.cache_key`'s tuple of
    ``(field_name, value)`` pairs covering every analysis-relevant
    config field — the full config minus execution knobs like worker
    counts, so two runs that differ in any semantic setting (budget,
    window, latency sweeps, ...) can never alias to one entry.
    """
    return _profile_path(cache_dir(), name, config_key, kind)


@lru_cache(maxsize=4096)
def _profile_path(root: pathlib.Path, name: str, config_key: tuple,
                  kind: str) -> pathlib.Path:
    """:func:`profile_path`, memoised: ``repro serve`` asks for the same
    few paths on every request."""
    sub, modules = ENTRY_KINDS[kind]
    key = _entry_key(_modules_digest(modules), name, config_key)
    budget = dict(config_key).get("max_instructions")
    fname = f"{name}-n{_budget_tag(budget)}-{key}.json"
    return root / sub / fname


class ProfileEntryError(ValueError):
    """A profile entry whose header or payload does not check out."""


def encode_profile_entry(document: Any) -> bytes:
    """One profile entry: the header line, then ``document`` as JSON.

    The header is ``<magic> <schema> <payload bytes> <crc32 hex>``;
    the payload is ASCII JSON (``repr`` floats round-trip exactly).
    """
    payload = json.dumps(document, separators=(",", ":")).encode("ascii")
    header = b"%s %d %d %08x\n" % (
        PROFILE_MAGIC, PROFILE_SCHEMA, len(payload), zlib.crc32(payload))
    return header + payload


def decode_profile_entry(data: bytes) -> bytes:
    """The checked payload of one entry; :class:`ProfileEntryError`
    when the magic, schema, length or checksum does not match."""
    header, sep, payload = data.partition(b"\n")
    fields = header.split(b" ")
    if not sep or len(fields) != 4 or fields[0] != PROFILE_MAGIC:
        raise ProfileEntryError("bad header")
    if fields[1] != b"%d" % PROFILE_SCHEMA:
        raise ProfileEntryError(f"schema {fields[1]!r}, expected "
                                f"{PROFILE_SCHEMA}")
    if fields[2] != b"%d" % len(payload):
        raise ProfileEntryError(f"length {fields[2]!r}, payload has "
                                f"{len(payload)} bytes")
    if fields[3] != b"%08x" % zlib.crc32(payload):
        raise ProfileEntryError("checksum mismatch")
    return payload


def _profile_miss(path: pathlib.Path, exc: Exception, kind: str) -> None:
    _log.warning("corrupt %s cache entry %s (%s); treating as a "
                 "miss", kind, path, exc)
    incr(f"{kind}_cache.corrupt")
    incr(f"{kind}_cache.miss")


def load_cached_profile_json(name: str, config_key: tuple,
                             kind: str = "profile") -> bytes | None:
    """The cached entry's JSON payload bytes, checked against the
    entry header, or None on a miss (a damaged entry is a miss)."""
    if not cache_enabled():
        return None
    _open_store()
    path = profile_path(name, config_key, kind)
    try:
        with open(path, "rb") as fh:
            payload = decode_profile_entry(fh.read())
    except FileNotFoundError:
        incr(f"{kind}_cache.miss")
        return None
    except (OSError, ProfileEntryError) as exc:
        _profile_miss(path, exc, kind)
        return None
    incr(f"{kind}_cache.hit")
    return payload


def load_cached_profile(name: str, config_key: tuple,
                        kind: str = "profile") -> Any | None:
    """The cached document (as stored), or None on a miss."""
    payload = load_cached_profile_json(name, config_key, kind)
    if payload is None:
        return None
    try:
        return json.loads(payload)
    except ValueError as exc:  # a checksummed payload that is not JSON
        _profile_miss(profile_path(name, config_key, kind), exc, kind)
        return None


def store_cached_profile(name: str, config_key: tuple, document: Any,
                         kind: str = "profile") -> None:
    """Persist a JSON-safe document (no-op when the cache is disabled).

    The entry is written atomically under its per-entry lock, so two
    same-key writers serialize.
    """
    if not cache_enabled():
        return
    _open_store()
    path = profile_path(name, config_key, kind)
    entry = encode_profile_entry(document)
    with _entry_lock(path):
        _atomic_write(path, lambda tmp: tmp.write_bytes(entry))
    incr(f"{kind}_cache.store")


# ----------------------------------------------------------------------
# maintenance
# ----------------------------------------------------------------------

def _trace_entry_info(path: pathlib.Path) -> dict[str, Any]:
    """Per-entry stats for one cached trace file.

    v3 entries report instruction counts and compression stats read
    from the footer alone (no chunk decoding).  Anything else — a
    damaged entry, a retired v2 file — reports ``format="corrupt"``
    rather than raising: info is a diagnostic command and must work on
    a damaged cache.
    """
    entry: dict[str, Any] = {
        "file": path.name,
        "bytes": path.stat().st_size,
        "format": "corrupt",
        "instructions": None,
        "compression_ratio": None,
    }
    from repro.vm.tracev3 import trace_v3_info

    try:
        info = trace_v3_info(path)
    except (TraceFileError, OSError):
        return entry
    entry["format"] = "v3"
    entry["instructions"] = info["instructions"]
    entry["compression_ratio"] = info["compression_ratio"]
    return entry


def cache_info(*, per_entry: bool = False) -> dict[str, Any]:
    """Entry counts and byte totals per layer, for ``repro cache info``.

    With ``per_entry=True``, adds a ``trace_entries`` list describing
    every cached trace: format version (v3, or corrupt for anything
    the cache cannot read), on-disk size, and —
    for v3 — instruction count and compression ratio.
    """
    _open_store()
    root = cache_dir()
    info: dict[str, Any] = {
        "dir": str(root),
        "enabled": cache_enabled(),
        "traces": 0,
        "trace_bytes": 0,
        "profiles": 0,
        "profile_bytes": 0,
        "fig9": 0,
        "fig9_bytes": 0,
        "runs": 0,
        "run_bytes": 0,
    }
    for sub, count_key, bytes_key in (
        ("traces", "traces", "trace_bytes"),
        ("profiles", "profiles", "profile_bytes"),
        ("fig9", "fig9", "fig9_bytes"),
        ("runs", "runs", "run_bytes"),
    ):
        directory = root / sub
        if not directory.is_dir():
            continue
        for entry in directory.iterdir():
            if entry.is_file() and not entry.name.endswith(".tmp"):
                info[count_key] += 1
                info[bytes_key] += entry.stat().st_size
    if per_entry:
        trace_dir = root / "traces"
        entries = []
        if trace_dir.is_dir():
            for entry in sorted(trace_dir.iterdir()):
                if entry.is_file() and not entry.name.endswith(".tmp"):
                    entries.append(_trace_entry_info(entry))
        info["trace_entries"] = entries
    return info


def clear_cache() -> int:
    """Delete every cached trace, profile and Figure 9 entry; returns
    the removal count.

    Run manifests under ``runs/`` are deliberately kept: they are the
    observability record of *past* runs, not derived data, and wiping
    the cache is exactly when you want to be able to read them.
    """
    root = cache_dir()
    removed = 0
    for sub in ("traces", *(d for d, _ in ENTRY_KINDS.values())):
        directory = root / sub
        if not directory.is_dir():
            continue
        for entry in directory.iterdir():
            if entry.is_file():
                entry.unlink()
                removed += 1
        try:
            directory.rmdir()
        except OSError:
            pass
    # lock files are bookkeeping, not entries: wipe them without
    # adding to the removal count
    locks = root / "locks"
    if locks.is_dir():
        for entry in locks.iterdir():
            if entry.is_file():
                entry.unlink(missing_ok=True)
        try:
            locks.rmdir()
        except OSError:
            pass
    return removed
