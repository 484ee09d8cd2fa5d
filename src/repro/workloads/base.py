"""Workload registry and execution helpers."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.vm import tracecache

if TYPE_CHECKING:  # the VM is imported where a kernel is built or run
    from repro.vm.program import Program
    from repro.vm.trace import ColumnarTrace

#: Suite order follows the paper's figures (FP first, then INT).
FP_SUITE = ["applu", "apsi", "fpppp", "hydro2d", "su2cor", "tomcatv", "turb3d"]
INT_SUITE = ["compress", "gcc", "go", "ijpeg", "li", "perl", "vortex"]


@dataclass(frozen=True, slots=True)
class Workload:
    """A registered benchmark kernel.

    ``builder`` returns assembly source text; ``scale`` grows data
    sizes and iteration counts roughly linearly.
    """

    name: str
    suite: str
    description: str
    builder: Callable[[int], str] = field(compare=False)

    def source(self, scale: int = 1) -> str:
        """Assembly source at the given scale."""
        if scale < 1:
            raise ValueError("scale must be >= 1")
        return self.builder(scale)

    def program(self, scale: int = 1) -> Program:
        """Assemble the kernel."""
        from repro.vm.assembler import assemble

        return assemble(self.source(scale), name=self.name)


_REGISTRY: dict[str, Workload] = {}


def register(name: str, suite: str, description: str):
    """Decorator: register a kernel builder under ``name``."""
    if suite not in ("INT", "FP"):
        raise ValueError(f"unknown suite {suite!r}")

    def wrap(builder: Callable[[int], str]) -> Callable[[int], str]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate workload {name!r}")
        _REGISTRY[name] = Workload(
            name=name, suite=suite, description=description, builder=builder
        )
        return builder

    return wrap


def get_workload(name: str) -> Workload:
    """Look up a registered kernel by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def all_workloads() -> list[Workload]:
    """All kernels in the paper's reporting order (FP suite, INT suite)."""
    ordered = FP_SUITE + INT_SUITE
    return [_REGISTRY[name] for name in ordered if name in _REGISTRY]


def build_program(name: str, scale: int = 1) -> Program:
    """Assemble a kernel by name."""
    return get_workload(name).program(scale)


def run_workload(
    name: str,
    *,
    scale: int = 1,
    max_instructions: int | None = 60_000,
    use_cache: bool = True,
) -> ColumnarTrace:
    """Assemble and execute a kernel, capturing its dynamic trace.

    Kernels contain outer repetition loops sized well beyond any
    realistic budget, so the run is normally truncated at
    ``max_instructions`` — the analogue of the paper's fixed 50M
    instruction window per program.

    The trace is :func:`stream_workload`'s stream with the same
    arguments, drained whole: a cache hit decodes the v3 entry, a miss
    executes through the tee that writes the entry, and an entry whose
    chunks do not decode is discarded and rewritten by a second drain
    (:func:`repro.vm.tracecache.drain_healing`).  The chunks
    concatenate to exactly one ``Machine.run`` at the same budget.
    Pass ``use_cache=False`` — or set ``REPRO_TRACE_CACHE=0`` — to
    force re-execution.
    """
    from repro.vm.trace import as_columnar

    return tracecache.drain_healing(
        lambda: stream_workload(name, scale=scale,
                                max_instructions=max_instructions,
                                use_cache=use_cache),
        as_columnar,
    )


def stream_workload(
    name: str,
    *,
    scale: int = 1,
    max_instructions: int | None = 60_000,
    use_cache: bool = True,
    chunk_size: int | None = None,
):
    """A kernel's dynamic trace as a **chunk stream** — the trace is
    never held whole in memory.  Every trace-cache read and write goes
    through here.

    Cache hits stream straight out of the v3 entry
    (:class:`~repro.vm.tracestream.FileTraceStream`, O(chunk) decode).
    Misses with the cache enabled take the **direct execute→analyze
    path**: a :class:`~repro.vm.tracestream.TeeChunkStream` feeds
    segments straight from the machine to the consumer while a
    background writer persists the same segments into the cache entry
    — one execution, no serialize-then-reread round trip.  With the
    cache off, an :class:`~repro.vm.tracestream.ExecutionChunkStream`
    re-executes the (deterministic) kernel on every drain.
    """
    from repro.vm.assembler import assemble
    from repro.vm.machine import Machine
    from repro.vm.tracestream import DEFAULT_CHUNK_SIZE, ExecutionChunkStream

    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    workload = get_workload(name)
    source = workload.source(scale)
    if use_cache:
        cached = tracecache.load_cached_trace_stream(
            name, scale, max_instructions, source
        )
        if cached is not None:
            return cached

    def factory():
        return Machine(assemble(source, name=name))

    exec_stream = ExecutionChunkStream(
        factory,
        program_name=name,
        max_instructions=max_instructions,
        chunk_size=chunk_size,
    )
    if use_cache:
        return tracecache.tee_cached_trace_stream(
            name, scale, max_instructions, source, exec_stream
        )
    return exec_stream
