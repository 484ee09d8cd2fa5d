"""The persistent trace/profile cache: round-trips, keys, knobs."""

from __future__ import annotations

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import profile_to_json, run_profile
from repro.vm import tracecache
from repro.workloads.base import run_workload


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh, empty cache directory for one test."""
    target = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    return target


def traces_equal(a, b) -> bool:
    return (
        len(a) == len(b)
        and a.program_name == b.program_name
        and a.halted == b.halted
        and a.truncated == b.truncated
        and [repr(d) for d in a] == [repr(d) for d in b]
    )


class TestTraceLayer:
    def test_hit_equals_recompute(self, cache_dir):
        cold = run_workload("li", max_instructions=500)
        assert tracecache.cache_info()["traces"] == 1
        warm = run_workload("li", max_instructions=500)
        assert traces_equal(cold, warm)
        # still one entry: the warm run must not have re-stored
        assert tracecache.cache_info()["traces"] == 1

    def test_budget_is_part_of_the_key(self, cache_dir):
        run_workload("li", max_instructions=300)
        run_workload("li", max_instructions=400)
        assert tracecache.cache_info()["traces"] == 2

    def test_use_cache_false_bypasses(self, cache_dir):
        run_workload("li", max_instructions=300, use_cache=False)
        assert not cache_dir.exists()

    def test_kill_switch(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        run_workload("li", max_instructions=300)
        assert not cache_dir.exists()

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        cold = run_workload("li", max_instructions=300)
        (entry,) = (cache_dir / "traces").iterdir()
        entry.write_bytes(b"garbage")
        recomputed = run_workload("li", max_instructions=300)
        assert traces_equal(cold, recomputed)

    def test_legacy_v2_entry_is_a_corrupt_miss_and_rewritten(self, cache_dir):
        from repro.vm.tracefile import MAGIC_V2
        from repro.vm.tracestream import FileTraceStream, as_columnar
        from repro.workloads.base import stream_workload

        cold = run_workload("li", max_instructions=300)
        (entry,) = (cache_dir / "traces").iterdir()
        entry.write_bytes(MAGIC_V2 + b"\x80\x05payload")
        info = tracecache.cache_info(per_entry=True)
        assert [e["format"] for e in info["trace_entries"]] == ["corrupt"]
        stream = stream_workload("li", max_instructions=300)
        assert not isinstance(stream, FileTraceStream)
        assert traces_equal(cold, as_columnar(stream))
        # the drain rewrote the entry as v3
        info = tracecache.cache_info(per_entry=True)
        assert [e["format"] for e in info["trace_entries"]] == ["v3"]

    def test_no_tmp_files_left_behind(self, cache_dir):
        run_workload("li", max_instructions=300)
        leftovers = [
            p for p in (cache_dir / "traces").iterdir()
            if p.name.endswith(".tmp")
        ]
        assert not leftovers


class TestProfileLayer:
    def test_hit_equals_recompute(self, cache_dir):
        config = ExperimentConfig(max_instructions=1_500)
        cold = run_profile("compress", config)
        assert tracecache.cache_info()["profiles"] == 1
        warm = run_profile("compress", config)
        assert warm == cold  # dataclass equality over every field

    def test_warm_profile_equals_uncached_run(self, cache_dir):
        cached = ExperimentConfig(max_instructions=1_500)
        run_profile("compress", cached)  # populate
        warm = run_profile("compress", cached)
        fresh = run_profile(
            "compress", ExperimentConfig(max_instructions=1_500, use_cache=False)
        )
        assert warm == fresh

    def test_config_key_sensitivity(self, cache_dir):
        run_profile("li", ExperimentConfig(max_instructions=1_000))
        run_profile(
            "li", ExperimentConfig(max_instructions=1_000, window_size=128)
        )
        assert tracecache.cache_info()["profiles"] == 2

    @pytest.mark.parametrize(
        "mutation",
        [
            {"window_size": 128},
            {"scale": 2},
            {"reuse_latencies": (1, 2)},
            {"proportional_ks": (0.5,)},
        ],
    )
    def test_any_semantic_field_changes_the_key(self, cache_dir, mutation):
        """Mutating any analysis-relevant config field must be a miss."""
        base = ExperimentConfig(max_instructions=1_000)
        mutated = ExperimentConfig(max_instructions=1_000, **mutation)
        assert tracecache.profile_path(
            "li", base.cache_key()
        ) != tracecache.profile_path("li", mutated.cache_key())

    def test_execution_knobs_do_not_change_the_key(self, cache_dir):
        """Worker counts / retry policy must share one cache entry."""
        base = ExperimentConfig(max_instructions=1_000)
        tuned = ExperimentConfig(
            max_instructions=1_000, max_workers=7, task_timeout=9.0,
            task_retries=5, retry_backoff=1.0, workloads=("li",),
        )
        assert tracecache.profile_path(
            "li", base.cache_key()
        ) == tracecache.profile_path("li", tuned.cache_key())

    def test_future_semantic_fields_enter_the_key(self):
        """cache_key is derived from the dataclass fields, so every
        field not explicitly excluded participates."""
        from repro.exp.config import _NON_SEMANTIC_FIELDS
        import dataclasses

        config = ExperimentConfig()
        named = {name for name, _ in config.cache_key()}
        all_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert named == all_fields - _NON_SEMANTIC_FIELDS

    def test_corrupt_profile_entry_recovers(self, cache_dir):
        """Garbled entry => miss, recompute, atomic rewrite."""
        config = ExperimentConfig(max_instructions=1_000)
        cold = run_profile("li", config)
        path = tracecache.profile_path("li", config.cache_key())
        path.write_bytes(b"\x80\x04garbage")
        recovered = run_profile("li", config)
        assert recovered == cold
        # the recompute rewrote the entry: it loads cleanly again
        assert tracecache.load_cached_profile(
            "li", config.cache_key()
        ) == profile_to_json(cold)
        leftovers = [p for p in path.parent.iterdir()
                     if p.name.endswith(".tmp")]
        assert not leftovers

    def test_truncated_profile_entry_recovers(self, cache_dir):
        config = ExperimentConfig(max_instructions=1_000)
        cold = run_profile("li", config)
        path = tracecache.profile_path("li", config.cache_key())
        path.write_bytes(path.read_bytes()[:10])
        assert run_profile("li", config) == cold


class TestMaintenance:
    def test_info_and_clear(self, cache_dir):
        run_workload("li", max_instructions=300)
        run_profile("li", ExperimentConfig(max_instructions=300))
        info = tracecache.cache_info()
        assert info["traces"] == 1 and info["profiles"] == 1
        assert info["trace_bytes"] > 0 and info["profile_bytes"] > 0
        assert tracecache.clear_cache() == 2
        info = tracecache.cache_info()
        assert info["traces"] == 0 and info["profiles"] == 0

    def test_clear_empty_cache(self, cache_dir):
        assert tracecache.clear_cache() == 0

    def test_cache_dir_env_override(self, cache_dir):
        assert tracecache.cache_dir() == cache_dir

    def test_clear_keeps_run_manifests(self, cache_dir):
        from repro.obs.manifest import RunManifest

        run_workload("li", max_instructions=300)
        manifest = RunManifest()
        manifest.emit("run_start")
        assert tracecache.clear_cache() == 1
        assert manifest.path.is_file()
        info = tracecache.cache_info()
        assert info["runs"] == 1 and info["run_bytes"] > 0
