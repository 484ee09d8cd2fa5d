"""Execution substrate: assembler, program container and interpreter.

This package replaces the paper's Alpha-21164 + ATOM toolchain: the
``Machine`` interpreter executes assembled programs and emits one
:class:`~repro.vm.trace.DynInst` record per dynamic instruction,
carrying exactly the information ATOM instrumentation provided the
authors (PC, opcode, read locations+values, written locations+values,
latency, next PC).
"""

from repro.vm.assembler import AssemblyError, assemble
from repro.vm.backends import create_machine
from repro.vm.errors import VMError
from repro.vm.fastmachine import FastMachine
from repro.vm.machine import DEFAULT_STACK_TOP, Machine
from repro.vm.program import DATA_BASE, Program
from repro.vm.trace import DynInst, Trace

__all__ = [
    "assemble",
    "AssemblyError",
    "Machine",
    "FastMachine",
    "create_machine",
    "Program",
    "Trace",
    "DynInst",
    "VMError",
    "DATA_BASE",
    "DEFAULT_STACK_TOP",
]
