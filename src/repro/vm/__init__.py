"""Execution substrate: assembler, program container and interpreter.

This package replaces the paper's Alpha-21164 + ATOM toolchain: the
``Machine`` executes assembled programs and emits one
:class:`~repro.vm.trace.DynInst` record per dynamic instruction,
carrying exactly the information ATOM instrumentation provided the
authors (PC, opcode, read locations+values, written locations+values,
latency, next PC).
"""

from repro.util.lazy import lazy_exports

# Imported on first use: ``repro.vm.tracecache`` loads without the VM.
__getattr__, __all__ = lazy_exports(__name__, {
    "repro.vm.assembler": "AssemblyError assemble",
    "repro.vm.errors": "VMError",
    "repro.vm.machine": "DEFAULT_STACK_TOP Machine",
    "repro.vm.program": "DATA_BASE Program",
    "repro.vm.trace": "DynInst Trace",
})
