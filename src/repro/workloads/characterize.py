"""Workload characterisation: the numbers a suite release reports.

For each kernel: dynamic operation mix, branch behaviour, basic-block
geometry and memory footprint.  These are the statistics used to
argue that a synthetic kernel stands in for its SPEC95 counterpart —
and they feed the suite table in the documentation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from repro.exp.figures import FigureResult
from repro.isa.opcodes import OpClass
from repro.isa.registers import loc_is_mem
from repro.vm.trace import AnyTrace, DynInst, stream_of


@dataclass(frozen=True, slots=True)
class WorkloadCharacter:
    """Summary statistics of one dynamic instruction stream."""

    dynamic_count: int
    static_count: int
    #: fraction of dynamic instructions per coarse class
    int_alu_frac: float
    mul_div_frac: float
    load_frac: float
    store_frac: float
    branch_frac: float
    fp_frac: float
    #: fraction of executed conditional branches that were taken
    branch_taken_rate: float
    #: average dynamic basic-block length (instructions per control
    #: transfer)
    avg_basic_block: float
    #: distinct memory words touched
    memory_footprint: int
    #: share of dynamic instructions contributed by the 10 hottest PCs
    top10_pc_share: float


def characterize(trace: AnyTrace | Sequence[DynInst]) -> WorkloadCharacter:
    """Compute :class:`WorkloadCharacter` for a stream."""
    instructions = stream_of(trace)
    n = len(instructions)
    if n == 0:
        return WorkloadCharacter(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0)

    class_counts: Counter = Counter()
    pc_counts: Counter = Counter()
    touched: set[int] = set()
    branches = 0
    taken = 0
    transfers = 0
    for inst in instructions:
        cls = inst.op_class
        class_counts[cls] += 1
        pc_counts[inst.pc] += 1
        for loc, _ in inst.reads:
            if loc_is_mem(loc):
                touched.add(loc)
        for loc, _ in inst.writes:
            if loc_is_mem(loc):
                touched.add(loc)
        if cls is OpClass.BRANCH:
            branches += 1
            if inst.next_pc != inst.pc + 1:
                taken += 1
        if inst.next_pc != inst.pc + 1:
            transfers += 1

    def frac(*classes: OpClass) -> float:
        return sum(class_counts.get(c, 0) for c in classes) / n

    top10 = sum(count for _pc, count in pc_counts.most_common(10))
    return WorkloadCharacter(
        dynamic_count=n,
        static_count=len(pc_counts),
        int_alu_frac=frac(OpClass.INT_ALU),
        mul_div_frac=frac(OpClass.INT_MUL, OpClass.INT_DIV),
        load_frac=frac(OpClass.LOAD),
        store_frac=frac(OpClass.STORE),
        branch_frac=frac(OpClass.BRANCH),
        fp_frac=frac(
            OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV,
            OpClass.FP_SQRT, OpClass.FP_CVT,
        ),
        branch_taken_rate=taken / branches if branches else 0.0,
        avg_basic_block=n / transfers if transfers else float(n),
        memory_footprint=len(touched),
        top10_pc_share=top10 / n,
    )


def suite_characterization(
    workloads: Sequence[str], *, max_instructions: int = 10_000,
    use_cache: bool = True,
) -> FigureResult:
    """Characterisation table over a set of kernels."""
    from repro.workloads.base import get_workload, run_workload

    result = FigureResult(
        figure_id="suite_character",
        title="Workload suite characterisation",
        headers=[
            "program", "suite", "static", "alu%", "ld%", "st%", "br%",
            "fp%", "taken%", "bb_len", "mem_words",
        ],
    )
    for name in workloads:
        trace = run_workload(name, max_instructions=max_instructions,
                             use_cache=use_cache)
        ch = characterize(trace)
        result.rows.append(
            [
                name,
                get_workload(name).suite,
                ch.static_count,
                100 * ch.int_alu_frac,
                100 * ch.load_frac,
                100 * ch.store_frac,
                100 * ch.branch_frac,
                100 * ch.fp_frac,
                100 * ch.branch_taken_rate,
                ch.avg_basic_block,
                ch.memory_footprint,
            ]
        )
    return result
