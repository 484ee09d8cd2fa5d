"""``create_machine``: an alias kept for the repository benchmark.

There is one machine, :class:`~repro.vm.machine.Machine`, whose
:meth:`~repro.vm.machine.Machine.run` tiers itself: cold code runs as
per-instruction closures and a hot block compiles once the work it
has done pays for the compile.  No budget picks anything, so the
alias ignores ``max_instructions``.  The package itself constructs
``Machine`` directly; ``bench/`` builds machines through this name.
"""

from __future__ import annotations

from repro.vm.machine import Machine
from repro.vm.program import Program


def create_machine(program: Program,
                   max_instructions: int | None = None) -> Machine:
    """``Machine(program)``, for any ``max_instructions``."""
    return Machine(program)
