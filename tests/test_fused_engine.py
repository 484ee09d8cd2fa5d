"""Differential tests: the streaming engine against the per-scenario model.

The :class:`StreamingDataflowEngine` re-implements every reuse-plan
family twice over a shared, sub-block-wise dependence precompute: a
generated per-instruction fold and a level fold that steps every
scenario of a dataflow level at once.  The per-scenario
:class:`DataflowModel` (plus the plan builders in ``baselines.ilr``
and ``core.reuse_tlr``) is the independent oracle; the engine must
match it bit-for-bit, not just within a tolerance, with either fold
forced for every sub-block, at every chunk size and sub-block cap.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ilr
from repro.baselines.ilr import ilr_reuse_plan, instruction_reusability
from repro.core.reuse_tlr import (
    ConstantReuseLatency,
    ProportionalReuseLatency,
    tlr_reuse_plan,
)
from repro.core.stats import trace_io_stats
from repro.core.traces import average_span_length, maximal_reusable_spans
from repro.dataflow import streaming
from repro.dataflow.model import DataflowModel, Scenario
from repro.dataflow.streaming import (
    StreamingDataflowEngine,
    StreamReusability,
)
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_profile, run_profile_reference
from repro.isa.opcodes import Opcode
from repro.vm.trace import ColumnarTrace, DynInst
from repro.vm.tracestream import as_chunk_stream
from repro.workloads.base import run_workload

from test_model_properties import dyn_streams

#: Sub-block caps exercised by the properties: every instruction its
#: own sub-block (spans force longer ones), an odd small cap, default.
CAPS = [1, 7, streaming.SUB_BLOCK_CAP]

#: Signature slice sizes: every instruction its own slice, an odd
#: small size that splits read-count groups across slices, default.
SLICES = [1, 7, ilr.SIGNATURE_SLICE]

#: Locations of the shaped streams: registers, low memory words, and
#: words far enough up that the engine must compact location ids
#: before it packs (location, position) sort keys.
LOCATIONS = [0, 1, 2, 40, 64, 65, 1 << 40, 1 << 61]


def reference_result(stream, scenario, flags, spans):
    """Evaluate one scenario through the original per-scenario path."""
    model = DataflowModel(scenario.window_size)
    if scenario.kind == "base":
        return model.analyze(stream)
    if scenario.kind == "ilr":
        plan = ilr_reuse_plan(stream, flags, scenario.latency)
        return model.analyze(stream, plan)
    if scenario.k is not None:
        latency_model = ProportionalReuseLatency(scenario.k)
    else:
        latency_model = ConstantReuseLatency(scenario.latency)
    plan = tlr_reuse_plan(
        stream, spans, latency_model, fetch_free=scenario.fetch_free
    )
    return model.analyze(stream, plan)


@st.composite
def scenarios(draw):
    """Random scenarios spanning every reuse family and window regime."""
    kind = draw(st.sampled_from(["base", "ilr", "tlr"]))
    window = draw(st.none() | st.integers(min_value=1, max_value=12))
    latency = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    k = None
    fetch_free = True
    if kind == "tlr":
        fetch_free = draw(st.booleans())
        if draw(st.booleans()):
            k = draw(st.sampled_from([1 / 8, 1 / 2, 1.0]))
    return Scenario(
        kind, window_size=window, latency=latency, k=k, fetch_free=fetch_free
    )


@st.composite
def scenario_lists(draw):
    """Scenario lists with a repeated entry and windows that collide,
    so scenarios share ring-index groups and the fold's signature."""
    scens = draw(st.lists(scenarios(), min_size=1, max_size=6))
    return scens + [draw(st.sampled_from(scens))]


@st.composite
def shaped_streams(draw):
    """Streams with 0-4 reads (duplicates allowed) and 0-2 writes per
    instruction over registers and memory words, values a function of
    the inputs so signatures repeat and spans form."""
    n = draw(st.integers(min_value=1, max_value=60))
    locs = draw(st.lists(st.sampled_from(LOCATIONS), min_size=2,
                         max_size=5, unique=True))
    values = dict.fromkeys(locs, 0)
    stream = []
    for _ in range(n):
        pc = draw(st.integers(0, 5))
        srcs = draw(st.lists(st.sampled_from(locs), max_size=4))
        dsts = draw(st.lists(st.sampled_from(locs), max_size=2))
        reads = tuple((loc, values[loc]) for loc in srcs)
        result = (sum(v for _, v in reads) + pc) % 3
        writes = tuple((loc, result) for loc in dsts)
        values.update(writes)
        stream.append(DynInst(
            pc=pc, op=Opcode.ADD, reads=reads, writes=writes,
            latency=draw(st.sampled_from([1, 2, 5])), next_pc=pc + 1))
    return stream


#: Look-alike values: each group holds values that compare equal
#: across types (``1 == 1.0``, ``0 == -0.0``) or differ only past a
#: float's precision (either side of 2**53) or an int64's range (near
#: +-2**63), so a signature that canonicalises, rounds or wraps its
#: values merges signatures the row oracle keeps apart, or vice versa.
VALUE_GROUPS = [
    [0, 0.0, -0.0],
    [1, 1.0, -1, -1.0],
    [2**53 - 1, 2**53, 2**53 + 1, float(2**53)],
    [2**63 - 1, 2**63, float(2**63)],
    [-2**63, -2**63 - 1, float(-2**63)],
]


@st.composite
def valued_streams(draw):
    """Streams whose signatures hinge on value equality: 0-4 reads per
    instruction (locations may repeat) of look-alike values."""
    n = draw(st.integers(min_value=1, max_value=60))
    locs = draw(st.lists(st.sampled_from(LOCATIONS), min_size=1,
                         max_size=3, unique=True))
    vals = [v for group in draw(st.lists(st.sampled_from(VALUE_GROUPS),
                                         min_size=1, max_size=2))
            for v in group]
    stream = []
    for _ in range(n):
        pc = draw(st.integers(0, 3))
        count = draw(st.integers(0, 4))
        reads = tuple((draw(st.sampled_from(locs)),
                       draw(st.sampled_from(vals))) for _ in range(count))
        dsts = draw(st.lists(st.sampled_from(locs), max_size=2))
        stream.append(DynInst(
            pc=pc, op=Opcode.ADD, reads=reads,
            writes=tuple((loc, draw(st.sampled_from(vals))) for loc in dsts),
            latency=draw(st.sampled_from([1, 3])), next_pc=pc + 1))
    return stream


def assert_matches_reference(stream, scens, chunk_size):
    # the row loop over inst.reads is the oracle of the columnar paths
    reuse = instruction_reusability(stream)
    flags = reuse.flags
    columnar = as_chunk_stream(ColumnarTrace.from_trace(stream),
                               chunk_size=chunk_size)
    assert instruction_reusability(columnar) == reuse
    spans = maximal_reusable_spans(stream, flags)
    engine = StreamingDataflowEngine(stream, chunk_size=chunk_size)
    results = engine.analyze_all(scens)
    assert engine.reuse == StreamReusability(
        reuse.reusable_count, reuse.total_count, reuse.static_count,
        reuse.signature_count)
    assert len(results) == len(scens)
    for scenario, got in zip(scens, results):
        ref = reference_result(stream, scenario, flags, spans)
        assert got.instruction_count == ref.instruction_count
        assert got.total_cycles == ref.total_cycles  # exact, not approx
        assert got.reused_count == ref.reused_count
        assert got.window_size == ref.window_size
    return engine


def assert_fold_matches_reference(fold, stream, scens, chunk_size, cap,
                                  slice_size):
    with mock.patch.object(streaming, "_FORCE_FOLD", fold), \
            mock.patch.object(streaming, "SUB_BLOCK_CAP", cap), \
            mock.patch.object(ilr, "SIGNATURE_SLICE", slice_size):
        assert_matches_reference(stream, scens, chunk_size)


PROPERTY = given(
    dyn_streams() | shaped_streams() | valued_streams(),
    scenario_lists(),
    st.sampled_from([1, 7, 4096]),
    st.sampled_from(CAPS),
    st.sampled_from(SLICES),
)


@PROPERTY
@settings(max_examples=300, deadline=None)
def test_fused_engine_matches_per_scenario_model(stream, scens, chunk_size,
                                                 cap, slice_size):
    assert_fold_matches_reference("generated", stream, scens, chunk_size,
                                  cap, slice_size)


@PROPERTY
@settings(max_examples=300, deadline=None)
def test_level_fold_matches_per_scenario_model(stream, scens, chunk_size,
                                               cap, slice_size):
    assert_fold_matches_reference("level", stream, scens, chunk_size, cap,
                                  slice_size)


@given(dyn_streams())
@settings(max_examples=100, deadline=None)
def test_analyze_all_matches_individual_calls(stream):
    engine = StreamingDataflowEngine(stream, chunk_size=7)
    scens = [
        Scenario("base", window_size=None),
        Scenario("base", window_size=8),
        Scenario("ilr", window_size=8, latency=2.0),
        Scenario("tlr", window_size=None, latency=1.0),
        Scenario("tlr", window_size=8, k=1 / 4),
    ]
    batch = engine.analyze_all(scens)
    for scenario, result in zip(scens, batch):
        (single,) = engine.analyze_all([scenario])
        assert result.total_cycles == single.total_cycles
        assert result.reused_count == single.reused_count


#: Every scenario family and window regime, with a duplicate.
EDGE_SCENARIOS = [
    Scenario("base", window_size=None),
    Scenario("base", window_size=2),
    Scenario("ilr", window_size=None, latency=0.5),
    Scenario("ilr", window_size=2, latency=1.0),
    Scenario("tlr", window_size=None, latency=1.0),
    Scenario("tlr", window_size=2, latency=0.5),
    Scenario("tlr", window_size=2, k=0.25),
    Scenario("tlr", window_size=3, latency=1.0, fetch_free=False),
    Scenario("tlr", window_size=None, k=0.5, fetch_free=False),
    Scenario("ilr", window_size=2, latency=1.0),
]


def inst(pc, reads=(), writes=(), latency=1):
    return DynInst(pc=pc, op=Opcode.ADD, reads=tuple(reads),
                   writes=tuple(writes), latency=latency, next_pc=pc + 1)


def loop_stream(body, trips):
    """``trips`` identical iterations of ``body`` (a list of
    instruction factories taking the trip number): iterations after
    the first repeat their signatures, so they form spans."""
    return [make(t) for t in range(trips) for make in body]


class TestFoldEdges:
    """Deterministic corners of the generated fold and its precompute,
    each exact against the per-scenario reference.
    :class:`TestLevelFoldEdges` runs every case through the level
    fold."""

    FOLD = "generated"

    @pytest.fixture(autouse=True)
    def _force_fold(self):
        with mock.patch.object(streaming, "_FORCE_FOLD", self.FOLD):
            yield

    @pytest.mark.parametrize("cap", CAPS)
    def test_three_producers_and_no_reads(self, cap):
        body = [
            lambda t: inst(0, writes=[(1, 7)], latency=2),
            lambda t: inst(1, writes=[(2, 3)]),
            lambda t: inst(2, writes=[(64, 5)], latency=4),
            # >=3 distinct producers, one location read twice
            lambda t: inst(3, reads=[(1, 7), (2, 3), (64, 5), (1, 7)],
                           writes=[(3, 1)], latency=2),
            # no reads at all, and a write-only memory word
            lambda t: inst(4, writes=[(65, 0)], latency=3),
            lambda t: inst(5, reads=[(3, 1), (65, 0), (2, 3)],
                           writes=[(3, 1), (1, 7)]),
        ]
        stream = [inst(9, reads=[(30, t)], writes=[(30, t + 1)])
                  for t in range(3)] + loop_stream(body, 5)
        with mock.patch.object(streaming, "SUB_BLOCK_CAP", cap):
            for chunk_size in (1, 4, 4096):
                assert_matches_reference(stream, EDGE_SCENARIOS, chunk_size)

    @pytest.mark.parametrize("slice_size", [1, 7])
    @pytest.mark.parametrize("chunk_size", [1, 7, 4096])
    def test_signature_length_is_the_instructions_own(self, chunk_size,
                                                       slice_size):
        # pc 0 reads once next to a 2-read instruction, then again in a
        # chunk (and slice) with none: a key padded to the widest
        # instruction around it would miss the repeat
        first = [inst(0, reads=[(1, 5)], writes=[(3, 1)]),
                 inst(1, reads=[(1, 5), (2, 6)], writes=[(4, 2)])]
        filler = [inst(2 + k, writes=[(2, 6)]) for k in range(5)]
        again = [inst(0, reads=[(1, 5)], writes=[(3, 1)])] + [
            inst(9, reads=[(4, 2)], writes=[(5, k)]) for k in range(6)]
        stream = first + filler + again
        assert instruction_reusability(stream).flags[len(first + filler)]
        with mock.patch.object(ilr, "SIGNATURE_SLICE", slice_size):
            assert_matches_reference(stream, EDGE_SCENARIOS, chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 3, 4096])
    def test_span_longer_than_the_cap(self, chunk_size):
        # an induction variable makes one non-reusable instruction per
        # trip; the rest of the first trips' work is a 12-long span
        body = [lambda t: inst(0, reads=[(5, t)], writes=[(5, t + 1)])]
        body += [
            (lambda k: lambda t: inst(1 + k, reads=[(6, k), (7, 2)],
                                      writes=[(6, k + 1)], latency=1 + k % 3))(k)
            for k in range(12)
        ]
        stream = loop_stream(body, 4)
        spans = maximal_reusable_spans(
            stream, instruction_reusability(stream).flags)
        assert max(s.length for s in spans) > 4
        with mock.patch.object(streaming, "SUB_BLOCK_CAP", 4):
            assert_matches_reference(stream, EDGE_SCENARIOS, chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 5, 4096])
    def test_wholly_reusable_stream(self, chunk_size):
        # after one warm-up trip every instruction repeats a signature:
        # no cut point ever comes, so the whole rest is buffered and
        # folded as one sub-block at the end
        body = [lambda t: inst(0, reads=[(1, 0)], writes=[(2, 1)]),
                lambda t: inst(1, reads=[(2, 1), (64, 4)], writes=[(64, 4)],
                               latency=3)]
        stream = loop_stream(body, 30)
        flags = instruction_reusability(stream).flags
        assert all(flags[2:])
        with mock.patch.object(streaming, "SUB_BLOCK_CAP", 7):
            engine = assert_matches_reference(stream, EDGE_SCENARIOS,
                                              chunk_size)
        assert engine.span_count == 1
        assert engine.span_covered == len(stream) - 2

    @given(dyn_streams() | shaped_streams(), st.sampled_from([1, 7, 4096]))
    @settings(max_examples=100, deadline=None)
    def test_no_scenarios_still_summarises(self, stream, chunk_size):
        engine = StreamingDataflowEngine(stream, chunk_size=chunk_size)
        assert engine.analyze_all([]) == []
        reuse = instruction_reusability(stream)
        spans = maximal_reusable_spans(stream, reuse.flags)
        assert engine.n == len(stream)
        assert engine.reuse.reusable_count == sum(reuse.flags)
        assert engine.reuse.percent_reusable == reuse.percent_reusable
        assert engine.span_count == len(spans)
        assert engine.span_covered == sum(s.length for s in spans)
        assert engine.avg_span_length == average_span_length(spans)
        assert engine.io_stats == trace_io_stats(spans)

    @pytest.mark.parametrize("cap", [1, 7])
    def test_window_longer_than_the_sub_block(self, cap):
        # 12- and 20-entry rings outlive every sub-block: the level fold
        # reads its first W gates from the carried ring and refills it
        body = [lambda t: inst(0, reads=[(5, t)], writes=[(5, t + 1)]),
                lambda t: inst(1, reads=[(6, 0)], writes=[(7, 1)], latency=3),
                lambda t: inst(2, reads=[(7, 1), (5, t + 1)],
                               writes=[(64, t)], latency=2)]
        stream = loop_stream(body, 20)
        scens = [Scenario("base", window_size=12),
                 Scenario("ilr", window_size=20, latency=0.5),
                 Scenario("tlr", window_size=12, latency=1.0),
                 Scenario("tlr", window_size=20, k=1 / 3,
                          fetch_free=False)]
        with mock.patch.object(streaming, "SUB_BLOCK_CAP", cap):
            for chunk_size in (1, 5, 4096):
                assert_matches_reference(stream, scens, chunk_size)

    @pytest.mark.parametrize("cap", [1, 7])
    def test_span_gates_from_the_prelude(self, cap):
        # each trip writes 1 and 2 outside any span (a fresh induction
        # value, cut after), then repeats a span that reads them: with
        # a small cap its gate producers are carried-in prelude entries
        body = [lambda t: inst(0, reads=[(9, t)], writes=[(9, t + 1)],
                               latency=4),
                lambda t: inst(1, writes=[(1, 3)], latency=5),
                lambda t: inst(2, writes=[(2, 4)], latency=2),
                lambda t: inst(3, reads=[(9, t + 1)], writes=[(8, t)]),
                lambda t: inst(4, reads=[(1, 3), (2, 4)], writes=[(3, 7)],
                               latency=3),
                lambda t: inst(5, reads=[(3, 7), (64, 0)], writes=[(65, 7)])]
        stream = loop_stream(body, 6)
        with mock.patch.object(streaming, "SUB_BLOCK_CAP", cap):
            for chunk_size in (1, 4, 4096):
                assert_matches_reference(stream, EDGE_SCENARIOS, chunk_size)

    def test_non_dyadic_k(self):
        # 0.1 and 1/3 round in binary: K * io must be the oracle's own
        # float product, not a rescaled one
        stream = loop_stream([
            lambda t: inst(0, reads=[(1, 0)], writes=[(2, 1)], latency=2),
            lambda t: inst(1, reads=[(2, 1), (3, 5), (64, 1)],
                           writes=[(4, 2), (65, 3)]),
        ], 12)
        scens = [Scenario("tlr", window_size=None, k=0.1),
                 Scenario("tlr", window_size=3, k=1 / 3),
                 Scenario("tlr", window_size=None, k=0.1, fetch_free=False),
                 Scenario("tlr", window_size=5, k=1 / 3, fetch_free=False)]
        for cap in CAPS:
            with mock.patch.object(streaming, "SUB_BLOCK_CAP", cap):
                assert_matches_reference(stream, scens, 7)

    def test_same_signature_reuses_the_generated_fold(self):
        stream = loop_stream([lambda t: inst(0, reads=[(1, 0)],
                                             writes=[(2, 1)])], 4)
        first = [Scenario("ilr", window_size=4, latency=1.0),
                 Scenario("tlr", window_size=None, k=0.5)]
        # same kinds, windows and latency models: same code
        second = [Scenario("ilr", window_size=9, latency=3.0),
                  Scenario("tlr", window_size=None, k=0.125)]
        engine = StreamingDataflowEngine(stream)
        engine.analyze_all(first)
        misses = streaming._fold_for.cache_info().misses
        engine.analyze_all(second)
        StreamingDataflowEngine(stream).analyze_all(first)
        assert streaming._fold_for.cache_info().misses == misses
        assert streaming._fold_for(streaming._signature(first)) is \
            streaming._fold_for(streaming._signature(second))


class TestLevelFoldEdges(TestFoldEdges):
    """The same corners through the level fold."""

    FOLD = "level"
    # no fold runs without scenarios, and only the generated one compiles
    test_no_scenarios_still_summarises = None
    test_same_signature_reuses_the_generated_fold = None


class TestOnRealWorkloads:
    """The full profile pipeline, streaming vs. reference, on real kernels."""

    def test_profiles_bit_identical(self):
        config = ExperimentConfig(max_instructions=3_000, use_cache=False)
        for name in ("compress", "tomcatv"):
            got = run_profile(name, config)
            reference = run_profile_reference(name, config)
            assert got == reference

    def test_engine_accepts_columnar_trace(self):
        trace = run_workload("li", max_instructions=2_000, use_cache=False)
        engine = StreamingDataflowEngine(trace)
        (got,) = engine.analyze_all([Scenario("base", window_size=64)])
        ref = DataflowModel(64).analyze(trace)
        assert got.total_cycles == ref.total_cycles


class TestScenarioValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            Scenario("frobnicate")

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window_size"):
            Scenario("base", window_size=0)

    def test_k_requires_tlr(self):
        with pytest.raises(ValueError, match="proportional"):
            Scenario("ilr", k=0.5)

    def test_negative_latency(self):
        with pytest.raises(ValueError, match="non-negative"):
            Scenario("ilr", latency=-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            Scenario("tlr", k=-0.5)
