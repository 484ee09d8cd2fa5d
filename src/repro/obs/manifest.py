"""JSONL run manifests: one append-only file per experiment run.

A *run* is one ``collect_profiles`` invocation (a figure sweep, a
benchmark session, a CI smoke run).  Its manifest is a JSON-lines file
under ``<cache_dir>/runs/`` where every line is one event::

    {"event": "run_start",  "t": ..., "run_id": ..., "schema": 1,
     "workloads": [...], "config": {...}}
    {"event": "profile_start", "t": ..., "name": ..., "attempt": 1}
    {"event": "profile_done",  "t": ..., "name": ..., "attempt": 1,
     "seconds": ..., "source": "computed"|"cache",
     "telemetry": {"counters": {...}, "timers": {...}}}
    {"event": "profile_error", "t": ..., "name": ..., "attempt": 1,
     "kind": "RuntimeError", "message": ..., "will_retry": bool}
    {"event": "retry",         "t": ..., "name": ..., "attempt": 2,
     "backoff": 0.05}
    {"event": "worker_crash",  "t": ..., "in_flight": [...]}
    {"event": "fallback_sequential", "t": ..., "remaining": [...]}
    {"event": "run_end",       "t": ..., "ok": [...], "failed": [...],
     "resumed": [...], "seconds": ...}

Every event is appended as one ``write(2)`` on an ``O_APPEND`` file
descriptor.  POSIX makes such appends atomic with respect to each
other, so *concurrent writers* (the sweep service's worker shards all
feeding one coordinator manifest, or many workers writing their own
files in one directory) can never interleave partial lines — the
failure mode of buffered ``open(..., "a")`` appends, where one logical
line could reach the kernel as several writes with another process's
bytes spliced between them.  A *killed* writer still leaves at most
one truncated final line; :func:`read_manifest` tolerates (and counts)
such torn lines so ``repro obs show`` can both render the readable
prefix and report what was lost.  Each line is sealed with its CRC32
(:mod:`repro.util.records`), so a line damaged into other well-formed
JSON counts as torn too.

A service sweep produces a *family* of manifests sharing one run id:
the coordinator's ``run-<id>.jsonl`` plus one ``run-<id>-w<worker>``
file per worker shard.  :func:`find_run_paths` resolves a run id to
the whole family and :func:`merge_events` folds them into a single
time-ordered event list, so ``repro obs show`` presents one run view
regardless of how many processes wrote it.  The ``repro obs`` CLI
renders these files; :func:`summarize` is the shared reduction it
uses.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import time
from typing import Any

from repro.obs import telemetry
from repro.util.records import seal, unseal

#: Manifest schema version, bumped on incompatible event changes.
SCHEMA_VERSION = 1

#: Worker-shard manifest suffix: ``run-<id>-w<worker>.jsonl``.
_WORKER_SUFFIX = re.compile(r"-w[A-Za-z0-9_]+$")

#: Per-process sequence number so two runs in one second stay distinct.
_SEQ = 0


def runs_dir() -> pathlib.Path:
    """``<cache_dir>/runs`` (honours ``REPRO_CACHE_DIR``)."""
    from repro.vm import tracecache

    return tracecache.cache_dir() / "runs"


def _new_run_id() -> str:
    global _SEQ
    _SEQ += 1
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-p{os.getpid()}-{_SEQ}"


class RunManifest:
    """Append-only JSONL event writer for one run.

    The file is opened and closed per event: with a handful of kernels
    per run the overhead is irrelevant and every event is on disk the
    moment it happened — which is the whole point when a worker is
    about to take the process down.

    ``worker`` names a worker shard of a multi-process run: the
    manifest lands next to the coordinator's as
    ``run-<run_id>-w<worker>.jsonl`` (same run id inside), every event
    is tagged with the worker, and ``repro obs show <run_id>`` merges
    the whole family into one run view.
    """

    def __init__(self, run_id: str | None = None,
                 directory: pathlib.Path | None = None,
                 worker: str | None = None):
        self.run_id = run_id or _new_run_id()
        self.worker = worker
        directory = directory if directory is not None else runs_dir()
        tag = "" if worker is None else f"-w{re.sub(r'[^A-Za-z0-9_]', '_', worker)}"
        self.path = directory / f"run-{self.run_id}{tag}.jsonl"

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event line (creating the runs directory lazily).

        The line reaches the file as a single ``write(2)`` on an
        ``O_APPEND`` descriptor, so appends from concurrent processes
        serialize whole-line instead of interleaving fragments.
        """
        record = {"event": event, "t": time.time(), **fields}
        if self.worker is not None:
            record.setdefault("worker", self.worker)
        line = (seal(json.dumps(record, separators=(",", ":")))
                + "\n").encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        telemetry.incr("manifest.events")

    def start(self, workloads: tuple[str, ...], config: dict[str, Any]) -> None:
        self.emit(
            "run_start",
            run_id=self.run_id,
            schema=SCHEMA_VERSION,
            workloads=list(workloads),
            config=config,
        )

    def end(self, ok: list[str], failed: list[str], resumed: list[str],
            seconds: float) -> None:
        self.emit(
            "run_end", ok=ok, failed=failed, resumed=resumed,
            seconds=seconds,
        )


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------

def read_manifest(
    path: str | pathlib.Path,
) -> tuple[list[dict[str, Any]], int]:
    """Parse a manifest; returns ``(events, torn_line_count)``.

    A run killed mid-write leaves at most a truncated final line;
    treating bad lines as absent keeps every completed event readable,
    and the count lets ``repro obs show`` report the damage instead of
    hiding it.  A bad line is one whose seal does not match.  In a
    manifest with no sealed line at all, written before lines were
    sealed, a line with no tab is read as it stands; in a sealed one it
    is damage (an inserted newline can cut ``{}`` off a sealed line).
    """
    events: list[dict[str, Any]] = []
    torn = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = [line for line in map(str.strip, fh) if line]
    texts = [unseal(line) for line in lines]
    unsealed_file = all(text is None for text in texts)
    for line, text in zip(lines, texts):
        if text is None and unsealed_file and "\t" not in line:
            text = line  # written before lines were sealed
        try:
            record = json.loads(text) if text is not None else None
        except json.JSONDecodeError:
            record = None
        if isinstance(record, dict):
            events.append(record)
        else:
            telemetry.incr("manifest.bad_lines")
            torn += 1
    return events, torn


def read_events(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Parse a manifest, skipping unparseable (e.g. truncated) lines."""
    return read_manifest(path)[0]


def merge_events(
    paths: list[pathlib.Path] | tuple[pathlib.Path, ...],
) -> tuple[list[dict[str, Any]], int]:
    """Fold a manifest family into one time-ordered event list.

    Returns ``(events, torn_line_count)`` summed across the family.
    Events are ordered by their ``t`` stamp (stable across files), so
    a coordinator's ``run_start`` precedes the workers' shard events
    it caused.
    """
    merged: list[dict[str, Any]] = []
    torn = 0
    for path in paths:
        events, bad = read_manifest(path)
        merged.extend(events)
        torn += bad
    merged.sort(key=lambda record: record.get("t") or 0.0)
    return merged, torn


def list_runs(directory: pathlib.Path | None = None) -> list[pathlib.Path]:
    """Manifest paths, oldest first (by modification time)."""
    directory = directory if directory is not None else runs_dir()
    if not directory.is_dir():
        return []
    paths = [
        p for p in directory.iterdir()
        if p.is_file() and p.name.startswith("run-") and p.suffix == ".jsonl"
    ]
    return sorted(paths, key=lambda p: (p.stat().st_mtime, p.name))


def group_key(path: pathlib.Path) -> str:
    """The run id shared by a manifest family (worker tag stripped)."""
    return _WORKER_SUFFIX.sub("", path.stem.removeprefix("run-"))


def list_run_groups(
    directory: pathlib.Path | None = None,
) -> list[tuple[str, list[pathlib.Path]]]:
    """Manifest families grouped by run id, oldest group first.

    Each entry is ``(run_id, [paths])`` with the coordinator manifest
    (no worker tag) first when present, then worker manifests in name
    order.
    """
    groups: dict[str, list[pathlib.Path]] = {}
    order: list[str] = []
    for path in list_runs(directory):
        key = group_key(path)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(path)
    for paths in groups.values():
        paths.sort(key=lambda p: (_WORKER_SUFFIX.search(p.stem) is not None,
                                  p.name))
    return [(key, groups[key]) for key in order]


def find_run(run_id: str, directory: pathlib.Path | None = None) -> pathlib.Path:
    """Resolve ``latest`` or a (possibly abbreviated) run id to a path."""
    runs = list_runs(directory)
    if not runs:
        raise FileNotFoundError("no run manifests recorded yet")
    if run_id == "latest":
        return runs[-1]
    matches = [p for p in runs if run_id in p.name]
    if not matches:
        raise FileNotFoundError(f"no run manifest matching {run_id!r}")
    return matches[-1]


def find_run_paths(
    run_id: str, directory: pathlib.Path | None = None
) -> list[pathlib.Path]:
    """Resolve a run id to its whole manifest family (see module doc).

    ``latest`` resolves to the group of the most recently written
    manifest; otherwise any group whose id contains ``run_id``
    matches, newest such group winning.
    """
    groups = list_run_groups(directory)
    if not groups:
        raise FileNotFoundError("no run manifests recorded yet")
    if run_id == "latest":
        newest = find_run("latest", directory)
        key = group_key(newest)
        return dict(groups)[key]
    matches = [(key, paths) for key, paths in groups if run_id in key]
    if not matches:
        # fall back to matching the full file name (worker tags etc.)
        matches = [
            (key, paths) for key, paths in groups
            if any(run_id in p.name for p in paths)
        ]
    if not matches:
        raise FileNotFoundError(f"no run manifest matching {run_id!r}")
    return matches[-1][1]


def summarize(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Reduce a run's events to the shape ``repro obs show`` renders.

    Returns::

        {"run_id": ..., "workloads": [...], "seconds": ...,
         "kernels": {name: {"status": "ok"|"failed"|"missing",
                            "source": ..., "seconds": ..., "attempts": n,
                            "errors": [...]}},
         "counters": {...}, "timers": {...},
         "worker_crashes": n, "resumed": [...], "complete": bool,
         "workers": [...], "steals": n}

    Accepts merged multi-manifest event lists (a service sweep's
    coordinator + worker shards): the first ``run_start`` wins,
    ``workers`` collects the worker tags seen, and ``steals`` counts
    shards reclaimed from crashed workers.
    """
    kernels: dict[str, dict[str, Any]] = {}
    totals = telemetry.Telemetry()
    workers: set[str] = set()
    summary: dict[str, Any] = {
        "run_id": None,
        "workloads": [],
        "seconds": None,
        "kernels": kernels,
        "worker_crashes": 0,
        "resumed": [],
        "complete": False,
        "steals": 0,
    }

    def kernel(name: str) -> dict[str, Any]:
        return kernels.setdefault(
            name,
            {"status": "missing", "source": None, "seconds": None,
             "attempts": 0, "errors": []},
        )

    for record in events:
        event = record.get("event")
        if "worker" in record:
            workers.add(str(record["worker"]))
        if event == "run_start":
            if summary["run_id"] is None:
                summary["run_id"] = record.get("run_id")
                summary["workloads"] = list(record.get("workloads", []))
            for name in record.get("workloads", []):
                kernel(name)
        elif event == "shard_steal":
            summary["steals"] += 1
        elif event == "profile_start":
            entry = kernel(record["name"])
            entry["attempts"] = max(entry["attempts"],
                                    int(record.get("attempt", 1)))
        elif event == "profile_done":
            entry = kernel(record["name"])
            entry["status"] = "ok"
            entry["source"] = record.get("source", "computed")
            entry["seconds"] = record.get("seconds")
            entry["attempts"] = max(entry["attempts"],
                                    int(record.get("attempt", 1)))
            totals.merge(record.get("telemetry", {}))
        elif event == "profile_error":
            entry = kernel(record["name"])
            if entry["status"] != "ok":
                entry["status"] = "failed"
            entry["attempts"] = max(entry["attempts"],
                                    int(record.get("attempt", 1)))
            entry["errors"].append(
                f"{record.get('kind', 'Error')}: {record.get('message', '')}"
            )
        elif event == "worker_crash":
            summary["worker_crashes"] += 1
        elif event == "run_end":
            summary["seconds"] = record.get("seconds")
            summary["resumed"] = list(record.get("resumed", []))
            summary["complete"] = True

    snap = totals.snapshot()
    summary["counters"] = snap["counters"]
    summary["timers"] = snap["timers"]
    summary["workers"] = sorted(workers)
    return summary
