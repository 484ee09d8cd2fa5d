"""Shared pieces of the repository benchmark.

Everything here is program-agnostic plumbing: locating the program's
sources in the checkout, the host-speed probe, a span recorder with
self-time accounting, the percentile helper, the golden-profile
comparison and the proxy stream that puts a span around every chunk a
trace producer yields.
The workload logic lives in ``batch.py`` and ``serve.py``.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import time
from contextlib import contextmanager

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: The program is driven with exactly these environment knobs; every
#: other ``REPRO_*`` variable is dropped so an inherited setting cannot
#: change what is measured.  ``REPRO_CACHE_DIR`` is set per run.
PROGRAM_ENV = {"REPRO_BACKEND": "fast", "REPRO_STREAMING": "1"}


class ProgramMissing(RuntimeError):
    """The checkout holds no program sources to benchmark."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and pin the env.

    Raises :class:`ProgramMissing` when ``src/repro`` is absent, so a
    directory holding only the benchmark fails instead of measuring an
    unrelated installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(PROGRAM_ENV)


def subprocess_env(cache_dir: str | os.PathLike) -> dict[str, str]:
    """A full environment for a program subprocess over ``cache_dir``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PROGRAM_ENV, REPRO_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


#: Wall-clock cap on one set-up subprocess.
FILL_TIMEOUT_S = 170


def run_fill(cache_dir: pathlib.Path, fields: dict) -> float:
    """Run ``fill.py`` in a fresh interpreter; returns its wall seconds.

    The time covers interpreter start, program import and the cache
    fill ``fields`` asks for.  Raises ``RuntimeError`` when it fails.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "fill.py"), str(cache_dir),
         json.dumps(fields)],
        env=subprocess_env(cache_dir), cwd=ROOT, capture_output=True,
        text=True, timeout=FILL_TIMEOUT_S,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up fill failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return seconds


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

#: Median seconds of :func:`calibration_seconds` on the reference host
#: (2 vCPUs, otherwise idle).
REFERENCE_CALIBRATION_S = 0.0175


def calibration_seconds() -> float:
    """Wall seconds of a fixed pure-Python loop: dict probes, list
    appends, tuple building and float compares, the operations the
    program's interpreter-bound layers spend their time on."""
    start = time.perf_counter()
    table: dict[int, list] = {}
    out = []
    acc = 0.0
    for i in range(120_000):
        key = i & 1023
        entry = table.get(key)
        if entry is None:
            table[key] = entry = [i]
        acc = acc + entry[0] if acc < 1e9 else 0.0
        out.append((key, acc))
    return time.perf_counter() - start


def host_slowdown() -> float:
    """How many times slower the host runs now than the reference host:
    the median of three :func:`calibration_seconds` samples over the
    reference time.

    Shared hosts change speed by tens of percent within seconds as
    other tenants come and go.  Each timed piece of work is divided by
    the mean slowdown probed just before and just after it, so runs
    taken in a slow spell and a quiet one agree; the raw times stay in
    each run's details.
    """
    return median(calibration_seconds() for _ in range(3)) \
        / REFERENCE_CALIBRATION_S


def repeated_setup(setup, *, repeats: int,
                   seconds: float) -> tuple[list[float], list[float]]:
    """Call ``setup(i)`` at least ``repeats`` times, and again while the
    calls so far took less than ``seconds`` in all.

    Returns the wall seconds of each call and the host slowdown probed
    around it.
    """
    raw: list[float] = []
    slowdowns: list[float] = []
    before = host_slowdown()
    while len(raw) < repeats or sum(raw) < seconds:
        start = time.perf_counter()
        setup(len(raw))
        raw.append(time.perf_counter() - start)
        after = host_slowdown()
        slowdowns.append((before + after) / 2)
        before = after
    return raw, slowdowns


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


#: Tail percentiles considered, highest first.
TAIL_LEVELS = (99.9, 99.0, 90.0, 75.0, 50.0)


def tail(values, min_beyond: int = 10) -> dict:
    """The highest percentile in :data:`TAIL_LEVELS` that has at least
    ``min_beyond`` samples beyond it, with the sample counts.

    Returns ``{"level": q, "value": v, "samples": n, "beyond": k}``; the
    level is ``None`` when even the median lacks ``min_beyond`` samples
    above it.
    """
    n = len(values)
    for q in TAIL_LEVELS:
        beyond = n - math.ceil(n * q / 100.0)
        if beyond >= min_beyond:
            return {"level": q, "value": percentile(values, q),
                    "samples": n, "beyond": beyond}
    return {"level": None, "value": max(values) if values else None,
            "samples": n, "beyond": 0}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class Spans:
    """In-memory span recorder with per-name total and self time.

    A span's self time is its duration minus the time its child spans
    cover.  Spans are written out only when the caller asks for
    :meth:`summary`, never while the measured code runs.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float, str | None]] = []
        self._stack: list[list] = []  # [name, start, child_seconds]
        self._self: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            self.records.append((name, frame[1], end, parent))
            self._self[name] = self._self.get(name, 0.0) + duration - frame[2]

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.records
                   if n == name)

    def self_time(self, name: str) -> float:
        return self._self.get(name, 0.0)

    def count(self, name: str) -> int:
        return sum(1 for n, *_ in self.records if n == name)

    def top_level_total(self) -> float:
        return sum(end - start for _, start, end, parent in self.records
                   if parent is None)

    def summary(self) -> dict[str, dict]:
        names = dict.fromkeys(n for n, *_ in self.records)
        return {n: {"calls": self.count(n), "total_s": self.total(n),
                    "self_s": self.self_time(n)} for n in names}


class SpanStream:
    """A chunk stream that records a span around every producer step.

    Delegates every attribute to the wrapped stream, so consumers see
    the same metadata (``count``, ``halted``, ...), and yields the very
    chunk objects the wrapped stream produces.
    """

    def __init__(self, stream, spans: Spans, name: str = "producer") -> None:
        self._stream = stream
        self._spans = spans
        self._name = name

    def __getattr__(self, attr):
        return getattr(self._stream, attr)

    def chunks(self):
        it = iter(self._stream.chunks())
        while True:
            with self._spans.span(self._name):
                try:
                    chunk = next(it)
                except StopIteration:
                    return
            yield chunk


# ----------------------------------------------------------------------
# golden profiles
# ----------------------------------------------------------------------

def load_golden(path: pathlib.Path = GOLDEN_PATH) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def golden_mismatches(golden: dict, key: str, profiles: dict) -> list[str]:
    """Kernels whose canonical profile differs from ``golden[key]``.

    ``profiles`` maps kernel name to canonical profile data.  A kernel
    missing from the golden record counts as a mismatch.
    """
    expected = golden.get(key, {})
    return [name for name, data in profiles.items()
            if expected.get(name) != data]


def record_golden(key: str, profiles: dict,
                  path: pathlib.Path = GOLDEN_PATH) -> None:
    """Merge ``profiles`` into the golden record under ``key``."""
    golden = load_golden(path)
    golden.setdefault(key, {}).update(profiles)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
