"""Fault tolerance of the ``collect_profiles`` sweep.

Faults are injected with ``REPRO_FAULT_INJECT`` (see
:mod:`repro.exp.runner`): ``raise`` makes a kernel raise, ``crash``
kills the worker process mid-task, ``sleep<secs>`` stalls it past the
per-task timeout.  The sweep must degrade — record the failure, keep
the other kernels, write a complete manifest — and a re-invocation
must resume from the cache bit-identically to an uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.exp.config import ExperimentConfig
from repro.exp.runner import (
    FAULT_ENV,
    collect_profiles,
    default_worker_count,
    run_profile,
)

WORKLOADS = ("li", "compress", "tomcatv")
BUDGET = 800


def tiny_config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        max_instructions=BUDGET,
        workloads=WORKLOADS,
        max_workers=1,
        task_retries=1,
        retry_backoff=0.0,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    target = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    return target


class TestHappyPath:
    def test_profiles_in_config_order(self, cache_dir):
        run = collect_profiles(tiny_config())
        assert [p.name for p in run] == list(WORKLOADS)
        assert run.ok and not run.failures and not run.resumed

    def test_manifest_written_and_complete(self, cache_dir):
        run = collect_profiles(tiny_config())
        assert run.manifest_path is not None
        summary = obs.summarize(obs.read_events(run.manifest_path))
        assert summary["complete"]
        assert set(summary["workloads"]) == set(WORKLOADS)
        assert all(k["status"] == "ok" for k in summary["kernels"].values())

    def test_no_manifest_without_cache(self, cache_dir):
        run = collect_profiles(tiny_config(use_cache=False))
        assert run.manifest_path is None
        assert not cache_dir.exists()

    def test_manifest_forced(self, cache_dir):
        run = collect_profiles(tiny_config(use_cache=False), manifest=True)
        assert run.manifest_path is not None
        assert obs.summarize(obs.read_events(run.manifest_path))["complete"]

    def test_manifest_disabled_explicitly(self, cache_dir):
        run = collect_profiles(tiny_config(), manifest=False)
        assert run.manifest_path is None
        assert not (cache_dir / "runs").exists()


class TestInjectedRaise:
    def test_failure_recorded_not_fatal(self, cache_dir, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "compress=raise")
        run = collect_profiles(tiny_config())
        assert not run.ok
        assert [p.name for p in run] == ["li", "tomcatv"]
        (failure,) = run.failures
        assert failure.name == "compress"
        assert failure.kind == "RuntimeError"
        assert failure.attempts == 2  # first try + one retry

    def test_manifest_marks_failure(self, cache_dir, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "compress=raise")
        run = collect_profiles(tiny_config())
        summary = obs.summarize(obs.read_events(run.manifest_path))
        assert summary["complete"]
        assert summary["kernels"]["compress"]["status"] == "failed"
        assert summary["kernels"]["compress"]["attempts"] == 2
        assert summary["kernels"]["li"]["status"] == "ok"

    def test_zero_retries(self, cache_dir, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "compress=raise")
        run = collect_profiles(tiny_config(task_retries=0))
        (failure,) = run.failures
        assert failure.attempts == 1


class TestResume:
    def test_resume_recomputes_only_missing(self, cache_dir, monkeypatch):
        config = tiny_config()
        monkeypatch.setenv(FAULT_ENV, "compress=raise")
        interrupted = collect_profiles(config)
        assert [f.name for f in interrupted.failures] == ["compress"]

        monkeypatch.delenv(FAULT_ENV)
        resumed = collect_profiles(config)
        assert resumed.ok
        assert sorted(resumed.resumed) == ["li", "tomcatv"]
        assert [p.name for p in resumed] == list(WORKLOADS)

    def test_resume_bit_identical_to_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        config = tiny_config()

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "faulted"))
        monkeypatch.setenv(FAULT_ENV, "compress=raise")
        collect_profiles(config)
        monkeypatch.delenv(FAULT_ENV)
        resumed = collect_profiles(config)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        clean = collect_profiles(config)

        assert resumed.ok and clean.ok
        assert list(resumed) == list(clean)  # dataclass equality, all fields

    def test_resumed_runs_recorded_in_manifest(self, cache_dir):
        config = tiny_config()
        collect_profiles(config)
        warm = collect_profiles(config)
        summary = obs.summarize(obs.read_events(warm.manifest_path))
        assert sorted(summary["resumed"]) == sorted(WORKLOADS)
        assert all(k["source"] == "cache"
                   for k in summary["kernels"].values())


class TestWorkerCrash:
    def test_pool_crash_degrades_to_sequential(self, cache_dir, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "compress=crash")
        config = tiny_config(max_workers=2, task_retries=0)
        run = collect_profiles(config)
        # the crashing kernel re-raises (deterministically) in the
        # sequential fallback and is recorded as failed; the healthy
        # kernels all complete
        assert [p.name for p in run] == ["li", "tomcatv"]
        (failure,) = run.failures
        assert failure.name == "compress"

        events = obs.read_events(run.manifest_path)
        kinds = [e["event"] for e in events]
        assert "worker_crash" in kinds
        assert "fallback_sequential" in kinds
        assert kinds[-1] == "run_end"
        summary = obs.summarize(events)
        assert summary["complete"]
        assert summary["worker_crashes"] == 1
        assert summary["kernels"]["compress"]["status"] == "failed"

    def test_crash_then_resume(self, cache_dir, monkeypatch):
        config = tiny_config(max_workers=2, task_retries=0)
        monkeypatch.setenv(FAULT_ENV, "compress=crash")
        collect_profiles(config)
        monkeypatch.delenv(FAULT_ENV)
        resumed = collect_profiles(config)
        assert resumed.ok
        assert [p.name for p in resumed] == list(WORKLOADS)
        assert "compress" not in resumed.resumed


class TestTimeout:
    def test_hung_kernel_times_out(self, cache_dir, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "compress=sleep60")
        config = tiny_config(
            max_workers=2, task_timeout=1.0, task_retries=0
        )
        run = collect_profiles(config)
        (failure,) = run.failures
        assert failure.name == "compress"
        assert failure.kind == "TimeoutError"
        assert [p.name for p in run] == ["li", "tomcatv"]
        summary = obs.summarize(obs.read_events(run.manifest_path))
        assert summary["complete"]
        assert summary["kernels"]["compress"]["status"] == "failed"


class TestFaultInjectionParsing:
    def test_no_fault_for_other_kernels(self, cache_dir, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "gcc=raise")
        profile = run_profile("li", tiny_config())
        assert profile.name == "li"

    def test_multiple_clauses(self, cache_dir, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "li=raise,compress=raise")
        run = collect_profiles(tiny_config(task_retries=0))
        assert sorted(f.name for f in run.failures) == ["compress", "li"]
        assert [p.name for p in run] == ["tomcatv"]


class TestDefaultWorkerCount:
    def test_at_least_one(self):
        assert default_worker_count(0) == 1

    def test_capped_by_tasks(self):
        assert default_worker_count(1) == 1
