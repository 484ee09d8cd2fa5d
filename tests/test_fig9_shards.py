"""Figure 9 as cached per-kernel ``fig9`` shards on the one fan-out."""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.core.rtm.memory import RTM_PRESETS
from repro.core.rtm.simulator import FiniteReuseSimulator
from repro.exp import figures
from repro.exp.config import ExperimentConfig
from repro.exp.figures import (
    FIG9_HEURISTICS,
    FIG9_RTMS,
    fig9_rows,
    figure9,
    figure9_from_rows,
)
from repro.exp.report import render
from repro.exp.runner import FAULT_ENV, collect_profiles, run_profile
from repro.exp.service import ShardQueue, run_worker
from repro.exp.service.queue import shard_job_id
from repro.exp.service.server import ServiceFrontend
from repro.vm import tracecache
from repro.workloads.base import run_workload
from test_service import _serve_rounds

#: Three kernels through the shard queue with two worker processes.
QUEUED = ExperimentConfig(max_instructions=2000,
                          workloads=("compress", "li", "tomcatv"),
                          max_workers=2)
TINY = ExperimentConfig(max_instructions=600, workloads=("li",),
                        max_workers=1)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    target = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    return target


def _serial_rows(config):
    """The reference: one plain simulator run per cell over each
    kernel's trace, with no cache, no queue and no shard body."""
    per_kernel = []
    for name in config.workloads:
        trace = run_workload(name, max_instructions=config.max_instructions,
                             use_cache=False)
        rows = []
        for heuristic in FIG9_HEURISTICS:
            for rtm_name in FIG9_RTMS:
                result = FiniteReuseSimulator(
                    RTM_PRESETS[rtm_name], heuristic).run(trace)
                rows.append([heuristic.name, rtm_name,
                             result.percent_reused,
                             result.avg_reused_trace_size])
        per_kernel.append(rows)
    return per_kernel


@pytest.fixture(scope="module")
def reference():
    return _serial_rows(QUEUED)


class TestFig9Shards:
    def test_queued_in_process_and_serial_rows_agree(self, cache_dir,
                                                     reference):
        queued = collect_profiles(QUEUED, manifest=False, kind="fig9")
        assert queued.ok and list(queued) == reference
        done = ShardQueue().jobs("done")
        assert sorted(j.workload for j in done) == list(QUEUED.workloads)
        assert {j.kind for j in done} == {"fig9"}
        assert all(j.pid != os.getpid() for j in done)
        # in-process, without the cache
        alone = dataclasses.replace(QUEUED, use_cache=False)
        assert list(collect_profiles(alone, kind="fig9")) == reference
        assert render(figure9(alone)) == render(figure9_from_rows(reference))

    def test_warm_figure9_runs_no_simulation(self, cache_dir, monkeypatch):
        config = dataclasses.replace(QUEUED, max_workers=1,
                                     max_instructions=800)
        cold = figure9(config)

        def refuse(*args, **kwargs):
            raise AssertionError("a warm figure 9 ran the RTM simulator")

        monkeypatch.setattr(FiniteReuseSimulator, "run", refuse)
        with obs.scope() as registry:
            warm = figure9(config)
        assert warm == cold
        assert registry.counters["fig9_cache.hit"] == 3
        assert "fig9.simulations" not in registry.counters

    def test_killed_worker_still_yields_the_full_figure(
        self, cache_dir, monkeypatch,
    ):
        config = dataclasses.replace(QUEUED, max_instructions=800)
        # li's shard stalls before computing, long enough to kill it
        monkeypatch.setenv(FAULT_ENV, "li=sleep1.5")
        killed = []

        def kill_li_holder(stop):
            queue = ShardQueue()
            while not stop.is_set():
                for job in queue.jobs("leased"):
                    if job.workload == "li" and job.pid not in (
                            None, os.getpid()):
                        os.kill(job.pid, signal.SIGKILL)
                        killed.append(job.pid)
                        return
                time.sleep(0.02)

        stop = threading.Event()
        killer = threading.Thread(target=kill_li_holder, args=(stop,))
        killer.start()
        try:
            fig = figure9(config)
        finally:
            stop.set()
            killer.join()
        assert len(killed) == 1
        assert fig == figure9_from_rows(_serial_rows(config))

    def test_failed_kernel_fails_the_figure(self, cache_dir, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "li=raise")
        config = dataclasses.replace(TINY, workloads=("compress", "li"),
                                     task_retries=0)
        with pytest.raises(RuntimeError, match="li failed"):
            figure9(config)

    def test_done_shard_without_its_entry_is_enqueued_again(self, cache_dir):
        queue = ShardQueue()
        job_id, _ = queue.enqueue("li", TINY, "fig9")
        assert job_id == shard_job_id("li", TINY, "fig9")
        assert job_id != shard_job_id("li", TINY)
        fig9_rows("li", TINY)
        queue.complete(queue.claim("w1"))
        assert queue.enqueue("li", TINY, "fig9") == (job_id, "done")
        # li's profile is no stand-in for its Figure 9 rows
        run_profile("li", TINY)
        tracecache.profile_path("li", TINY.cache_key(), "fig9").unlink()
        assert queue.enqueue("li", TINY, "fig9") == (job_id, "pending")
        assert queue.counts() == {"pending": 1, "leased": 0, "done": 0,
                                  "failed": 0}

    def test_cache_info_and_clear_cover_the_fig9_entries(self, cache_dir):
        fig9_rows("li", TINY)
        info = tracecache.cache_info()
        assert info["fig9"] == 1 and info["fig9_bytes"] > 0
        assert info["profiles"] == 0
        assert tracecache.clear_cache() == 2  # the trace and the rows
        assert tracecache.cache_info()["fig9"] == 0

    def test_fig9_entry_key_is_not_the_profile_key(self, cache_dir):
        key = TINY.cache_key()
        fig9 = tracecache.profile_path("li", key, "fig9")
        assert fig9.parent.name == "fig9"
        assert fig9.name != tracecache.profile_path("li", key).name


class TestServeFigure9:
    def test_miss_then_hit_then_memo(self, cache_dir):
        config = dataclasses.replace(TINY, workloads=("compress", "li"))
        frontend = ServiceFrontend(config)

        def drain(round_index):
            if round_index == 1:
                run_worker("wtest", queue=frontend.queue, manifest=None)

        with obs.scope() as registry:
            rounds = _serve_rounds(frontend,
                                   [["/figure?name=figure9"]] * 3, drain)
        (miss, _), (hit, body), (again, memo) = [r[0] for r in rounds]
        assert (miss, hit, again) == (202, 200, 200)
        assert json.loads(rounds[0][0][1])["jobs"] == {
            name: shard_job_id(name, config, "fig9")
            for name in config.workloads}
        assert memo == body
        assert registry.counters["serve.memo.fill"] == 1
        assert registry.counters["serve.memo.hit"] == 1
        answer = json.loads(body)
        assert answer["figure"] == "figure9"
        assert answer["text"] == render(figure9(config))

    def test_figure9_miss_enqueues_fig9_shards_only(self, cache_dir):
        status, body = ServiceFrontend(TINY).dispatch(
            "/figure", {"name": "figure9"})
        assert status == 202 and body["missing"] == ["li"]
        [job] = ShardQueue().jobs("pending")
        assert job.kind == "fig9" and job.workload == "li"


def test_shard_body_is_figures_fig9_rows():
    from repro.exp.runner import shard_kind

    assert shard_kind("fig9")[0] is figures.fig9_rows
    assert shard_kind("profile")[0] is run_profile
    with pytest.raises(ValueError):
        shard_kind("sweep")
