"""The simulation-free reuse estimator: shape, invariants, no-VM law."""

from __future__ import annotations

import math

import pytest

from repro.exp.config import ExperimentConfig
from repro.static.estimator import (
    DEFAULT_PARAMS,
    ModelParams,
    _memory_ii,
    estimate_profile,
    estimate_profiles,
    estimate_source,
    estimate_workload,
)
from repro.workloads.base import FP_SUITE, INT_SUITE
from repro.workloads.generators import rl_loop_nest

ALL_KERNELS = tuple(FP_SUITE + INT_SUITE)

CONFIG = ExperimentConfig(max_instructions=8_000)


@pytest.fixture
def no_vm(monkeypatch):
    """Any VM execution during estimation is a test failure."""
    import repro.vm.machine as machine

    def boom(self, *args, **kwargs):
        raise AssertionError("static estimation must never execute")

    monkeypatch.setattr(machine.Machine, "run", boom)


def assert_profile_sane(profile, config=CONFIG):
    assert profile.dynamic_count > 0
    assert 0.0 <= profile.percent_reusable <= 100.0
    assert profile.trace_count >= 0
    assert profile.avg_trace_size >= 0.0
    assert math.isfinite(profile.base_ipc_inf)
    assert math.isfinite(profile.base_ipc_win)
    assert 0.0 < profile.base_ipc_win <= profile.base_ipc_inf + 1e-9
    assert set(profile.ilr_speedup_inf) == set(config.reuse_latencies)
    assert set(profile.tlr_speedup_inf) == set(config.reuse_latencies)
    assert set(profile.tlr_speedup_win_prop) == set(config.proportional_ks)
    for mapping in (profile.ilr_speedup_inf, profile.ilr_speedup_win,
                    profile.tlr_speedup_inf, profile.tlr_speedup_win,
                    profile.tlr_speedup_win_prop):
        for value in mapping.values():
            assert math.isfinite(value)
            assert value >= 1.0


class TestZeroExecution:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_every_kernel_estimates_without_vm(self, name, no_vm):
        profile = estimate_profile(name, CONFIG)
        assert profile.name == name
        assert_profile_sane(profile)

    def test_profile_run_shape(self, no_vm):
        run = estimate_profiles(CONFIG)
        assert sorted(p.name for p in run) == sorted(ALL_KERNELS)

    def test_rl_source_estimates_without_vm(self, no_vm):
        estimate = estimate_source(
            rl_loop_nest(depth=2, trips=8), CONFIG, name="nest"
        )
        assert_profile_sane(estimate.profile)
        assert estimate.loop_table  # evidence travels with the profile


class TestTier0Dispatch:
    def test_run_profile_dispatches_to_estimator(self, no_vm):
        from repro.exp.runner import run_profile

        config = ExperimentConfig(max_instructions=8_000, tier0_static=True)
        via_runner = run_profile("li", config)
        direct = estimate_profile("li", config)
        assert via_runner == direct

    def test_tier0_static_is_semantic(self):
        static = ExperimentConfig(tier0_static=True)
        dynamic = ExperimentConfig(tier0_static=False)
        assert static.cache_key() != dynamic.cache_key()


class TestDeterminism:
    def test_same_input_same_profile(self):
        assert estimate_profile("gcc", CONFIG) == estimate_profile(
            "gcc", CONFIG
        )

    def test_budget_changes_profile(self):
        small = estimate_profile("li", ExperimentConfig(max_instructions=2_000))
        large = estimate_profile("li", ExperimentConfig(max_instructions=8_000))
        assert small.dynamic_count < large.dynamic_count


class TestModelStructure:
    def test_params_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_PARAMS.call_ilp = 1.0  # type: ignore[misc]

    def test_custom_params_flow_through(self):
        tight = ModelParams(ipc_cap=1.0)
        est = estimate_workload("compress", CONFIG, params=tight)
        assert est.profile.base_ipc_inf <= 1.0 + 1e-9

    def test_memory_recurrence_detected_in_rl_loops(self):
        # RL counters live in stack slots -> every loop is
        # memory-carried; hand assembly keeps them in registers
        from repro.lang.compiler import compile_source
        from repro.static.cfg import build_cfg
        from repro.vm.assembler import assemble

        rl_cfg = build_cfg(compile_source(rl_loop_nest(depth=1, trips=8)))
        assert _memory_ii(rl_cfg, rl_cfg.loops[0]) > 0.0

        asm_cfg = build_cfg(assemble("""
        .text
        main:
            li   t0, 0
            li   t1, 10
        loop:
            addi t0, t0, 1
            blt  t0, t1, loop
            halt
        """))
        assert _memory_ii(asm_cfg, asm_cfg.loops[0]) == 0.0

    def test_assumptions_are_strings(self):
        est = estimate_workload("li", CONFIG)
        assert all(isinstance(a, str) for a in est.assumptions)
