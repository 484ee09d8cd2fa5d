"""Which machine executes a kernel: chosen from the instruction budget.

Two machines execute assembled programs, with one contract between
them: **bit-identical traces**.  For any program, budget and machine
state, both produce exactly the same
:class:`~repro.vm.trace.ColumnarTrace`, final architectural state and
faults, so the choice changes wall-clock time only.

:class:`~repro.vm.machine.Machine` runs one closure call per dynamic
instruction and starts at full speed.
:class:`~repro.vm.fastmachine.FastMachine` compiles hot superblocks
into straight-line functions; each compile costs a few milliseconds,
which a short run never earns back, and it is about 5x faster at the
paper's 50M-instruction budget.  The crossover budget is measured by
``scripts/bench_engine.py`` (``machine_run.sweep``), whose gate checks
that :func:`create_machine` picks the faster class wherever the two
differ by more than 1.25x.
"""

from __future__ import annotations

from repro.vm.fastmachine import FastMachine
from repro.vm.machine import Machine
from repro.vm.program import Program

#: Budgets up to this many instructions run on :class:`Machine`;
#: larger or unbounded ones on :class:`FastMachine`.
MACHINE_MAX_BUDGET = 200_000


def create_machine(program: Program,
                   max_instructions: int | None = None) -> Machine:
    """The faster machine over ``program`` for a run of
    ``max_instructions`` (``None``: run to HALT)."""
    if max_instructions is not None and max_instructions <= MACHINE_MAX_BUDGET:
        return Machine(program)
    return FastMachine(program)
