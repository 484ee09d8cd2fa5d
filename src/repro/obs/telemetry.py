"""Process-local telemetry: named counters and stage timers.

Every experiment stage worth watching — VM execution, reusability
analysis, engine passes, cache probes — reports into the *current*
:class:`Telemetry` registry.  The registry is deliberately tiny: a
counter is one dict slot, a timer is a ``perf_counter`` pair, and a
snapshot is a plain JSON-able dict, so instrumentation can stay on in
production runs (the overhead is nanoseconds against milliseconds of
real work).

Registries nest.  ``scope()`` pushes a fresh registry so one task's
numbers can be captured in isolation (the experiment runner wraps each
kernel attempt in a scope and records the snapshot in that attempt's
run-manifest event); on exit the scoped totals are merged into the
enclosing registry, so whole-session totals still accumulate.

A multi-process sweep runs its kernels in ``repro worker`` processes
drained from the shard queue.  Each is its own interpreter with its
own registry, which is exactly the isolation we want: a worker writes
its kernels' snapshots to its own manifest file of the run
(``run-<id>-w<worker>.jsonl``), and ``repro obs show`` merges the
coordinator's manifest with its workers' into one run view.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator


class Telemetry:
    """A registry of named counters and cumulative stage timers."""

    __slots__ = ("counters", "timers")

    def __init__(self) -> None:
        #: name -> integer count
        self.counters: dict[str, int] = {}
        #: name -> [total_seconds, calls]
        self.timers: dict[str, list[float]] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold ``seconds`` into the named cumulative timer."""
        entry = self.timers.get(name)
        if entry is None:
            self.timers[name] = [seconds, calls]
        else:
            entry[0] += seconds
            entry[1] += calls

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the named timer."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able copy: ``{"counters": {...}, "timers": {...}}``.

        Timer entries become ``{"seconds": total, "calls": n}``.
        """
        return {
            "counters": dict(self.counters),
            "timers": {
                name: {"seconds": entry[0], "calls": int(entry[1])}
                for name, entry in self.timers.items()
            },
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (possibly from another process) in."""
        for name, count in snapshot.get("counters", {}).items():
            self.incr(name, count)
        for name, entry in snapshot.get("timers", {}).items():
            self.add_time(name, entry["seconds"], entry.get("calls", 1))

    def reset(self) -> None:
        """Drop every counter and timer."""
        self.counters.clear()
        self.timers.clear()


#: Registry stack; the module-level root collects whole-process totals.
_STACK: list[Telemetry] = [Telemetry()]


def current() -> Telemetry:
    """The innermost active registry."""
    return _STACK[-1]


@contextmanager
def scope() -> Iterator[Telemetry]:
    """Push a fresh registry for one task; merge it outward on exit.

    The yielded registry's :meth:`~Telemetry.snapshot` taken inside the
    block contains only the block's own activity.
    """
    registry = Telemetry()
    _STACK.append(registry)
    try:
        yield registry
    finally:
        _STACK.pop()
        _STACK[-1].merge(registry.snapshot())


def incr(name: str, amount: int = 1) -> None:
    """Increment a counter on the current registry."""
    current().incr(name, amount)


def time_stage(name: str):
    """Context manager timing a block on the current registry."""
    return current().time(name)
