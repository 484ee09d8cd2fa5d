"""repro — a reproduction of "Trace-Level Reuse" (González, Tubella &
Molina, ICPP 1999).

The package provides, bottom-up:

- :mod:`repro.isa` / :mod:`repro.vm` — a RISC-like ISA, assembler and
  tracing interpreter (the Alpha + ATOM stand-in);
- :mod:`repro.workloads` — 14 kernels mirroring the SPEC95 subset;
- :mod:`repro.dataflow` — the Austin-Sohi completion-time limit model;
- :mod:`repro.baselines` — instruction-level reuse and basic-block
  reuse baselines;
- :mod:`repro.core` — trace-level reuse: the trace model, reuse-aware
  timing, and the finite Reuse Trace Memory engine;
- :mod:`repro.exp` — drivers that regenerate every figure of the
  paper's evaluation.

Quickstart::

    from repro import assemble, Machine, instruction_reusability

    program = assemble(SOURCE)
    trace = Machine(program).run(max_instructions=10_000)
    print(instruction_reusability(trace).percent_reusable)
"""

from repro.util.lazy import lazy_exports

# Every public name is imported on first use (see repro.util.lazy):
# ``import repro`` loads neither numpy nor the VM.
__getattr__, __all__ = lazy_exports(__name__, {
    "repro.baselines.ilr":
        "InstructionReuseBuffer ilr_reuse_plan instruction_reusability",
    "repro.baselines.prediction": "LastValuePredictor StridePredictor "
        "value_predictability value_prediction_plan",
    "repro.core.reuse_tlr":
        "ConstantReuseLatency ProportionalReuseLatency tlr_reuse_plan",
    "repro.core.rtm": "FiniteReuseSimulator FixedLengthHeuristic "
        "ILRHeuristic InvalidatingRTM ReuseTraceMemory RTM_PRESETS RTMConfig",
    "repro.core.traces": "TraceLimits maximal_reusable_spans",
    "repro.dataflow.model": "DataflowModel ReusePoint TimingResult",
    "repro.exp.config": "ExperimentConfig",
    "repro.exp.runner": "collect_profiles run_profile",
    "repro.isa.disasm": "disassemble",
    "repro.pipeline": "PipelineConfig PipelineModel PipelineResult",
    "repro.vm.assembler": "AssemblyError assemble",
    "repro.vm.machine": "Machine",
    "repro.vm.program": "Program",
    "repro.vm.trace": "DynInst Trace",
    "repro.vm.tracefile": "load_trace save_trace",
})

__version__ = "1.0.0"
__all__ = ["__version__", *__all__]
