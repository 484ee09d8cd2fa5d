"""Instruction-level reuse: reusability analysis and the finite buffer."""

import pytest

from repro.baselines.ilr import (
    InstructionReuseBuffer,
    ilr_reuse_plan,
    instruction_reusability,
)
from repro.isa.opcodes import Opcode
from repro.vm.trace import DynInst, Trace
from repro.vm.tracestream import as_chunk_stream
from repro.workloads.base import all_workloads, run_workload

from conftest import run_asm


def make_inst(pc, reads, writes=(), op=Opcode.ADD):
    return DynInst(pc, op, tuple(reads), tuple(writes), 1, pc + 1)


class TestReusability:
    def test_first_occurrence_not_reusable(self):
        result = instruction_reusability([make_inst(0, [(1, 5)])])
        assert result.flags == [False]
        assert result.reusable_count == 0

    def test_repeat_same_inputs_reusable(self):
        stream = [make_inst(0, [(1, 5)]), make_inst(0, [(1, 5)])]
        result = instruction_reusability(stream)
        assert result.flags == [False, True]
        assert result.percent_reusable == pytest.approx(50.0)

    def test_different_inputs_not_reusable(self):
        stream = [make_inst(0, [(1, 5)]), make_inst(0, [(1, 6)])]
        assert instruction_reusability(stream).flags == [False, True][:1] + [False]

    def test_history_accumulates_all_instances(self):
        # paper: ALL previous input tuples are kept, not just the last
        stream = [
            make_inst(0, [(1, 5)]),
            make_inst(0, [(1, 6)]),
            make_inst(0, [(1, 5)]),  # matches the first instance
        ]
        assert instruction_reusability(stream).flags == [False, False, True]

    def test_per_static_instruction_history(self):
        # same inputs at a different PC are a different static instruction
        stream = [make_inst(0, [(1, 5)]), make_inst(1, [(1, 5)])]
        assert instruction_reusability(stream).flags == [False, False]

    def test_memory_value_in_signature(self):
        # a load whose memory word changed is not reusable even if the
        # address matches
        load1 = make_inst(0, [(2, 100), (1000, 7)], [(1, 7)], op=Opcode.LW)
        load2 = make_inst(0, [(2, 100), (1000, 8)], [(1, 8)], op=Opcode.LW)
        assert instruction_reusability([load1, load2]).flags == [False, False]

    def test_address_in_signature(self):
        # same value loaded from a different address: not reusable
        load1 = make_inst(0, [(2, 100), (1100, 7)], [(1, 7)], op=Opcode.LW)
        load2 = make_inst(0, [(2, 200), (1200, 7)], [(1, 7)], op=Opcode.LW)
        assert instruction_reusability([load1, load2]).flags == [False, False]

    def test_counts(self):
        stream = [make_inst(0, [(1, 5)]) for _ in range(5)]
        result = instruction_reusability(stream)
        assert result.reusable_count == 4
        assert result.total_count == 5
        assert result.static_count == 1
        assert result.signature_count == 1

    def test_empty_stream(self):
        result = instruction_reusability([])
        assert result.percent_reusable == 0.0

    def test_second_pass_of_static_loop_fully_reusable(self, repetitive_trace):
        result = instruction_reusability(repetitive_trace)
        # the repeated passes make the bulk of the stream reusable
        assert result.percent_reusable > 70.0

    def test_accepts_trace_object(self, tiny_loop_trace):
        result = instruction_reusability(tiny_loop_trace)
        assert result.total_count == len(tiny_loop_trace)

    @pytest.mark.parametrize("name", [w.name for w in all_workloads()])
    def test_columnar_paths_match_row_oracle(self, name):
        # the row loop over inst.reads is the oracle of both columnar
        # paths: a whole columnar trace, and a chunk stream of it
        trace = run_workload(name, max_instructions=3_000)
        oracle = instruction_reusability(list(trace.instructions))
        assert instruction_reusability(trace) == oracle
        assert instruction_reusability(
            as_chunk_stream(trace, chunk_size=257)) == oracle


class TestReusePlan:
    def test_plan_alignment_checked(self):
        with pytest.raises(ValueError):
            ilr_reuse_plan([make_inst(0, [(1, 5)])], [True, False], 1.0)

    def test_plan_marks_reusable_only(self):
        stream = [make_inst(0, [(1, 5)]), make_inst(0, [(1, 5)])]
        flags = instruction_reusability(stream).flags
        plan = ilr_reuse_plan(stream, flags, 1.0)
        assert plan[0] is None
        assert plan[1] is not None
        assert plan[1].inputs == (1,)
        assert plan[1].latency == 1.0
        assert not plan[1].fetch_free

    def test_plan_latency_forwarded(self):
        stream = [make_inst(0, [(1, 5)]), make_inst(0, [(1, 5)])]
        plan = ilr_reuse_plan(stream, [False, True], 3.0)
        assert plan[1].latency == 3.0


class TestInstructionReuseBuffer:
    def test_miss_then_hit(self):
        buf = InstructionReuseBuffer(total_entries=16, associativity=4)
        inst = make_inst(0, [(1, 5)])
        assert buf.access(inst) is False
        assert buf.access(inst) is True
        assert buf.hits == 1 and buf.misses == 1

    def test_probe_does_not_insert(self):
        buf = InstructionReuseBuffer(total_entries=16, associativity=4)
        inst = make_inst(0, [(1, 5)])
        assert buf.probe(inst) is False
        assert buf.probe(inst) is False

    def test_capacity_evicts_lru(self):
        buf = InstructionReuseBuffer(total_entries=2, associativity=2)
        # three distinct signatures mapping to the same (single) set
        a = make_inst(0, [(1, 1)])
        b = make_inst(0, [(1, 2)])
        c = make_inst(0, [(1, 3)])
        buf.access(a)
        buf.access(b)
        buf.access(c)  # evicts a
        assert buf.access(a) is False  # a was evicted
        assert buf.occupancy == 2

    def test_hit_refreshes_lru(self):
        buf = InstructionReuseBuffer(total_entries=2, associativity=2)
        a = make_inst(0, [(1, 1)])
        b = make_inst(0, [(1, 2)])
        c = make_inst(0, [(1, 3)])
        buf.access(a)
        buf.access(b)
        buf.access(a)  # refresh a; b becomes LRU
        buf.access(c)  # evicts b
        assert buf.access(a) is True

    def test_set_indexing_by_pc(self):
        buf = InstructionReuseBuffer(total_entries=8, associativity=2)
        # PCs 0 and 4 map to different sets (4 sets)
        buf.access(make_inst(0, [(1, 1)]))
        buf.access(make_inst(1, [(1, 1)]))
        assert buf.occupancy == 2

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            InstructionReuseBuffer(total_entries=0, associativity=1)
        with pytest.raises(ValueError):
            InstructionReuseBuffer(total_entries=10, associativity=3)

    def test_hit_rate(self):
        buf = InstructionReuseBuffer(total_entries=4, associativity=4)
        assert buf.hit_rate() == 0.0
        inst = make_inst(0, [(1, 5)])
        buf.access(inst)
        buf.access(inst)
        assert buf.hit_rate() == pytest.approx(0.5)

    def test_finite_buffer_upper_bounded_by_infinite(self, repetitive_trace):
        infinite = instruction_reusability(repetitive_trace)
        buf = InstructionReuseBuffer(total_entries=64, associativity=4)
        hits = sum(1 for d in repetitive_trace if buf.access(d))
        assert hits <= infinite.reusable_count
