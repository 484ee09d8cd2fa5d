"""Differential tests: the streaming engine against the per-scenario model.

The :class:`StreamingDataflowEngine` re-implements every reuse-plan
family as a fold over one shared, block-wise dependence precompute.
The per-scenario :class:`DataflowModel` (plus the plan builders in
``baselines.ilr`` and ``core.reuse_tlr``) is the independent oracle;
the engine must match it bit-for-bit, not just within a tolerance, at
every chunk size.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ilr import ilr_reuse_plan, instruction_reusability
from repro.core.reuse_tlr import (
    ConstantReuseLatency,
    ProportionalReuseLatency,
    tlr_reuse_plan,
)
from repro.core.traces import maximal_reusable_spans
from repro.dataflow.model import DataflowModel, Scenario
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_profile, run_profile_reference
from repro.workloads.base import run_workload

from test_model_properties import dyn_streams


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


@given(
    dyn_streams(),
    st.lists(scenarios(), min_size=1, max_size=6),
    st.sampled_from([1, 7, 4096]),
)
@settings(max_examples=200, deadline=None)
def test_fused_engine_matches_per_scenario_model(stream, scens, chunk_size):
    flags = instruction_reusability(stream).flags
    spans = maximal_reusable_spans(stream, flags)
    engine = StreamingDataflowEngine(stream, chunk_size=chunk_size)
    for scenario, got in zip(scens, engine.analyze_all(scens)):
        ref = reference_result(stream, scenario, flags, spans)
        assert got.instruction_count == ref.instruction_count
        assert got.total_cycles == ref.total_cycles  # exact, not approx
        assert got.reused_count == ref.reused_count
        assert got.window_size == ref.window_size


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
        import pytest

        with pytest.raises(ValueError, match="unknown scenario kind"):
            Scenario("frobnicate")

    def test_bad_window(self):
        import pytest

        with pytest.raises(ValueError, match="window_size"):
            Scenario("base", window_size=0)

    def test_k_requires_tlr(self):
        import pytest

        with pytest.raises(ValueError, match="proportional"):
            Scenario("ilr", k=0.5)
