"""CFG recovery, loop nests, trip counts, frequencies, cardinality."""

from __future__ import annotations

import itertools
import math

import pytest

import repro.workloads  # registers the kernels
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import MEM_LOC_BASE
from repro.lang.compiler import compile_source
from repro.static.cfg import (
    DEFAULT_TRIP_COUNT,
    build_cfg,
    class_census,
    data_regions,
    estimate_frequencies,
    function_entry,
    loop_value_cardinality,
    reg_reads,
    reg_writes,
)
from repro.vm.assembler import assemble
from repro.vm.machine import Machine
from repro.vm.program import Program
from repro.workloads.base import all_workloads, build_program
from repro.workloads.generators import rl_loop_nest

COUNTED_LOOP = """
.text
main:
    li   t0, 0
    li   t1, 10
loop:
    addi t0, t0, 1
    blt  t0, t1, loop
    halt
"""


class TestBuildCfg:
    def test_blocks_partition_instructions(self):
        cfg = build_cfg(assemble(COUNTED_LOOP))
        pcs = sorted(pc for b in cfg.blocks for pc in b.pcs())
        assert pcs == list(range(len(cfg.program.instructions)))

    def test_counted_loop_detected(self):
        cfg = build_cfg(assemble(COUNTED_LOOP))
        assert len(cfg.loops) == 1
        assert cfg.loops[0].depth == 1

    def test_rl_nest_depths(self):
        program = compile_source(rl_loop_nest(depth=3, trips=5))
        cfg = build_cfg(program)
        assert sorted(loop.depth for loop in cfg.loops) == [1, 2, 3]

    def test_loops_enclosing_is_outer_to_inner(self):
        program = compile_source(rl_loop_nest(depth=2, trips=5))
        cfg = build_cfg(program)
        inner = max(range(len(cfg.loops)), key=lambda i: cfg.loops[i].depth)
        enclosing = cfg.loops_enclosing(cfg.loops[inner].header)
        depths = [cfg.loops[i].depth for i in enclosing]
        assert depths == sorted(depths)
        assert inner in enclosing


class TestTripCounts:
    def test_register_counter_loop_exact(self):
        cfg = build_cfg(assemble(COUNTED_LOOP))
        loop = cfg.loops[0]
        assert loop.exact
        assert loop.trip_count == 10.0

    def test_rl_while_slot_idiom_recognised(self):
        # the RL compiler keeps counters in stack slots; the
        # LW/SLT/BEQ + LW/ADD/SW idiom must still yield exact trips
        program = compile_source(rl_loop_nest(depth=1, trips=12))
        cfg = build_cfg(program)
        loop = next(l for l in cfg.loops if l.depth == 1)
        assert loop.exact
        assert loop.trip_count == 12.0

    def test_rl_trip_counts_distinguish_families(self):
        trips = {}
        for n in (4, 32):
            cfg = build_cfg(compile_source(rl_loop_nest(depth=1, trips=n)))
            trips[n] = cfg.loops[0].trip_count
        assert trips[4] == 4.0
        assert trips[32] == 32.0

    def test_unbounded_loop_defaults(self):
        cfg = build_cfg(assemble("""
        .text
        main:
            li  t0, 0
        spin:
            add t0, t0, t1
            j   spin
        """))
        assert cfg.loops[0].trip_count == float(DEFAULT_TRIP_COUNT)
        assert not cfg.loops[0].exact


class TestFrequencies:
    def test_budget_caps_total(self):
        program = compile_source(rl_loop_nest(depth=3, trips=12))
        cfg = build_cfg(program)
        freqs = estimate_frequencies(cfg, budget=8_000)
        total = sum(
            freqs[b.index] * len(b)
            for b in cfg.blocks if b.index in cfg.reachable
        )
        assert total <= 8_000 * 1.01

    def test_nesting_multiplies(self):
        program = compile_source(rl_loop_nest(depth=2, trips=12))
        cfg = build_cfg(program)
        freqs = estimate_frequencies(cfg)
        inner = max(range(len(cfg.loops)), key=lambda i: cfg.loops[i].depth)
        outer = min(range(len(cfg.loops)), key=lambda i: cfg.loops[i].depth)
        inner_f = freqs[cfg.loops[inner].header]
        outer_f = freqs[cfg.loops[outer].header]
        assert inner_f > outer_f > 0


class TestCensus:
    def test_depth_keys_and_positive_counts(self):
        program = compile_source(rl_loop_nest(depth=2, trips=8))
        cfg = build_cfg(program)
        census = class_census(cfg, estimate_frequencies(cfg))
        assert 0 in census or 1 in census
        for classes in census.values():
            for count in classes.values():
                assert count >= 0.0


class TestCardinality:
    def test_data_region_distinct_values(self):
        program = assemble("""
        .data
        tab: .word 1 2 1 2 1 2
        .text
        main:
            halt
        """)
        regions = data_regions(program)
        assert any(card == 2.0 for _, _, card in regions)

    def test_uniform_region_is_unbounded(self):
        program = assemble("""
        .data
        buf: .space 16
        .text
        main:
            halt
        """)
        regions = data_regions(program)
        # runtime-written space: value repetition unknowable
        assert all(math.isinf(card) for _, _, card in regions)

    def test_periodic_read_bounds_register(self):
        src = rl_loop_nest(depth=1, trips=12, value_period=2)
        program = compile_source(src)
        cfg = build_cfg(program)
        cards = loop_value_cardinality(cfg, 0)
        assert any(math.isfinite(c) for c in cards.values())


class TestRegisterHelpers:
    def test_reads_writes_filter_r0(self):
        program = assemble("add r0, r1, r2")
        inst = program.instructions[0]
        assert tuple(reg_writes(inst)) == ()
        assert set(reg_reads(inst)) == {1, 2}

    def test_function_entry_attribution(self):
        program = assemble("""
        .text
        main:
            jal  helper
            halt
        helper:
            addi t0, t0, 1
            jr   ra
        """)
        cfg = build_cfg(program)
        helper_block = cfg.block_of[2]
        assert function_entry(cfg, helper_block) == helper_block
        assert function_entry(cfg, 0) == 0


@pytest.fixture(scope="module")
def trace_disagreements():
    """Every retired instruction of the 14 kernels (5000 each) whose
    register reads or writes in the trace, r0 and memory left out,
    differ from ``reg_reads`` / ``reg_writes``: ``(kind, kernel, pc,
    op, static, dynamic)``."""
    out = []
    for w in all_workloads():
        program = build_program(w.name, scale=1)
        trace = Machine(program).run(5000)
        for i, pc in enumerate(trace.pcs):
            inst = program.instructions[pc]
            for kind, pairs, static in (
                    ("reads", trace.reads_of(i), reg_reads(inst)),
                    ("writes", trace.writes_of(i), reg_writes(inst))):
                dynamic = tuple(loc for loc, _ in pairs
                                if 0 < loc < MEM_LOC_BASE)
                if dynamic != tuple(static):
                    out.append((kind, w.name, pc, inst.op, static, dynamic))
    return out


class TestAgreesWithTrace:
    """The static operand helpers against the VM's own records."""

    def test_reads_agree(self, trace_disagreements):
        assert [d for d in trace_disagreements if d[0] == "reads"] == []

    def test_writes_agree_except_flw(self, trace_disagreements):
        assert [d for d in trace_disagreements
                if d[0] == "writes" and d[3] is not Opcode.FLW] == []

    @pytest.mark.xfail(strict=True, reason=(
        "cfg._FP_DEST omits FLW, so reg_writes reports flw fN as a write "
        "to integer register rN and flw f0 as no write; fixing it moves "
        "the static estimator out of its calibrated bands"))
    def test_flw_writes_agree(self, trace_disagreements):
        assert [d for d in trace_disagreements if d[0] == "writes"] == []


def _step_disagreements(op: Opcode) -> list:
    """Run ``op`` once through ``Machine.step`` (the hand-written
    interpreter, which does not read the ISA table) with each of rd,
    rs1 and rs2 either register 0 or a non-zero register, and return
    ``(kind, rd, rs1, rs2, static, dynamic)`` wherever the register
    locations it records, r0 and memory left out, differ from
    ``reg_reads`` / ``reg_writes``.  Every int register holds 1 and
    every fp register 1.0, so addresses, divisors and jump targets
    stay valid; ``div``/``rem`` by r0 fault and are left out."""
    out = []
    for rd, rs1, rs2 in itertools.product((0, 3), (0, 1), (0, 2)):
        if op in (Opcode.DIV, Opcode.REM) and rs2 == 0:
            continue
        inst = Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=1, line=1)
        machine = Machine(Program(
            instructions=[inst, Instruction(Opcode.HALT, line=2)]))
        machine.regs[1:] = [1] * (len(machine.regs) - 1)
        machine.fregs[:] = [1.0] * len(machine.fregs)
        record = machine.step()
        for kind, pairs, static in (("reads", record.reads, reg_reads(inst)),
                                    ("writes", record.writes,
                                     reg_writes(inst))):
            dynamic = tuple(loc for loc, _ in pairs if 0 < loc < MEM_LOC_BASE)
            if dynamic != tuple(static):
                out.append((kind, rd, rs1, rs2, static, dynamic))
    return out


@pytest.mark.parametrize("op", [
    pytest.param(op, marks=pytest.mark.xfail(strict=True, reason=(
        "reg_writes reads flw's destination as an integer register "
        "(ROADMAP item 10)"))) if op is Opcode.FLW else op
    for op in Opcode
], ids=lambda op: op.name.lower())
def test_operands_agree_with_step(op):
    assert _step_disagreements(op) == []
