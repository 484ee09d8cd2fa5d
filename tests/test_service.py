"""Shard queue, worker shards, sweep coordinator and the serve front end."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.exp.config import ExperimentConfig
from repro.exp.runner import (
    FAULT_ENV,
    BenchmarkProfile,
    collect_profiles,
    profile_from_json,
    run_profile,
)
from repro.exp.service import ShardQueue, enqueue_sweep, run_worker
from repro.exp.service import sweep as sweep_mod
from repro.exp.service.queue import shard_job_id
from repro.exp.service.server import (
    ServiceFrontend,
    config_from_query,
    start_server,
)
from repro.vm import tracecache

TINY = ExperimentConfig(max_instructions=600, workloads=("li",),
                        max_workers=1)
SMALL = ExperimentConfig(max_instructions=1200, workloads=("compress", "li"),
                         max_workers=1)
#: SMALL through the shard queue: two kernels, two worker processes
QUEUED = dataclasses.replace(SMALL, max_workers=2)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh shared cache directory (exported to child processes)."""
    target = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    return target


class TestShardJobId:
    def test_content_addressed(self):
        assert shard_job_id("li", TINY) == shard_job_id("li", TINY)
        assert shard_job_id("li", TINY) != shard_job_id("gcc", TINY)
        other = dataclasses.replace(TINY, max_instructions=601)
        assert shard_job_id("li", TINY) != shard_job_id("li", other)

    def test_execution_knobs_do_not_change_id(self):
        # same semantic work => same shard, whatever runs it
        other = dataclasses.replace(TINY, max_workers=8, task_retries=5)
        assert shard_job_id("li", TINY) == shard_job_id("li", other)

    def test_readable_prefix(self):
        assert shard_job_id("li", TINY).startswith("li-")


class TestShardQueue:
    def test_enqueue_then_idempotent(self, cache_dir):
        queue = ShardQueue()
        job_id, state = queue.enqueue("li", TINY)
        assert state == "pending"
        assert queue.enqueue("li", TINY) == (job_id, "pending")
        assert queue.counts()["pending"] == 1

    def test_claim_records_lease(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        assert job is not None
        assert job.state == "leased"
        assert job.worker == "w1"
        assert job.pid == os.getpid()
        assert job.attempts == 1
        assert queue.counts() == {"pending": 0, "leased": 1,
                                  "done": 0, "failed": 0}
        # the lease survives a round trip through the queue record
        found = queue.find(job.job_id)
        assert found.worker == "w1" and found.state == "leased"

    def test_claim_empty_returns_none(self, cache_dir):
        assert ShardQueue().claim("w1") is None

    def test_claimed_config_round_trips(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        config = job.experiment_config()
        assert config.cache_key() == TINY.cache_key()
        assert config.workloads == TINY.workloads

    def test_done_shard_without_profile_is_requeued(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        queue.complete(queue.claim("w1"))  # done, but nothing cached
        job_id, state = queue.enqueue("li", TINY)
        assert state == "pending"
        assert queue.counts() == {"pending": 1, "leased": 0,
                                  "done": 0, "failed": 0}
        assert queue.find(job_id).state == "pending"

    def test_steal_unreaped_zombie_lease(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        try:
            # exited, but not reaped: a zombie still answers signal 0
            os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
            job.pid = child.pid
            queue._write("leased", job)
            assert queue.steal_stale("w2") == 1
        finally:
            child.wait()

    def test_complete_settles_shard(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        run_profile("li", TINY)  # a worker caches the profile first
        queue.complete(job)
        assert queue.counts()["done"] == 1
        assert queue.outstanding() == 0
        assert queue.find(job.job_id).state == "done"
        # enqueueing a done shard whose profile is cached is a no-op
        assert queue.enqueue("li", TINY) == (job.job_id, "done")

    def test_fail_records_error_and_requeues_on_demand(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        queue.fail(job, "RuntimeError: boom")
        found = queue.find(job.job_id)
        assert found.state == "failed" and found.error == "RuntimeError: boom"
        # retry_failed=False leaves the tombstone alone
        assert queue.enqueue("li", TINY, retry_failed=False) == (
            job.job_id, "failed"
        )
        # the default re-queues an explicit retry request
        assert queue.enqueue("li", TINY) == (job.job_id, "pending")
        assert queue.counts()["failed"] == 0

    def test_steal_dead_pid_lease(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        job.pid = child.pid  # the holder "crashed"
        queue._write("leased", job)
        assert queue.steal_stale("w2") == 1
        stolen = queue.claim("w2")
        assert stolen is not None
        assert stolen.worker == "w2"
        assert stolen.attempts == 2

    def test_live_fresh_lease_not_stolen(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        queue.claim("w1")
        assert queue.steal_stale("w2") == 0
        assert queue.claim("w2") is None

    def test_live_expired_lease_stolen_after_ttl(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        job.claimed_t = time.time() - 10_000
        queue._write("leased", job)
        assert queue.steal_stale("w2", lease_ttl=600) == 1

    def test_unreadable_lease_judged_by_file_age(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        path = queue._path("leased", job.job_id)
        path.write_text("{not json")
        # a freshly-mangled (= freshly-claimed, rewrite pending) lease
        # must NOT be stolen...
        assert queue.steal_stale("w2", lease_ttl=1.0) == 0
        # ...but an old one is fair game
        os.utime(path, (time.time() - 3600, time.time() - 3600))
        assert queue.steal_stale("w2", lease_ttl=1.0) == 1


class TestWorker:
    def test_worker_drains_queue_into_cache(self, cache_dir):
        queue = ShardQueue()
        plan = enqueue_sweep(TINY, queue=queue)
        assert plan.enqueued == ["li"]
        report = run_worker("wtest", queue=queue, manifest=None)
        assert report.completed == ["li"] and not report.failed
        assert queue.counts()["done"] == 1
        cached = tracecache.load_cached_profile("li", TINY.cache_key())
        assert isinstance(profile_from_json(cached), BenchmarkProfile)

    def test_failed_shard_keeps_runner_error_shape(self, cache_dir,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "li=raise")
        config = dataclasses.replace(TINY, task_retries=0)
        queue = ShardQueue()
        enqueue_sweep(config, queue=queue)
        report = run_worker("wtest", queue=queue, manifest=None)
        assert report.failed == ["li"]
        job = queue.find(shard_job_id("li", config))
        assert job.state == "failed"
        assert job.error.startswith("RuntimeError: ")

    def test_max_shards_bounds_serve_mode_loop(self, cache_dir):
        queue = ShardQueue()
        enqueue_sweep(TINY, queue=queue)
        report = run_worker("wtest", queue=queue, manifest=None,
                            exit_when_empty=False, max_shards=1)
        assert report.completed == ["li"]


class TestServiceSweep:
    def test_requires_the_shared_cache(self, cache_dir):
        with pytest.raises(ValueError):
            enqueue_sweep(dataclasses.replace(TINY, use_cache=False))

    def test_inline_sweep_bit_identical_to_collect_profiles(
        self, cache_dir, tmp_path, monkeypatch,
    ):
        run = collect_profiles(QUEUED, manifest=False)
        assert run.ok
        assert [p.name for p in run] == list(SMALL.workloads)
        assert ShardQueue().counts()["done"] == 2  # it went through the queue

        # reference: the in-process path, separate cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref-cache"))
        reference = collect_profiles(SMALL, manifest=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert list(run) == list(reference)

    def test_sweep_without_manifest_writes_no_run_file(self, cache_dir):
        # the workers of a run that records no manifest record none
        run = collect_profiles(QUEUED, manifest=False)
        assert run.ok and run.manifest_path is None
        runs = tracecache.cache_dir() / "runs"
        assert not runs.exists() or not list(runs.iterdir())

    def test_second_sweep_resumes_everything(self, cache_dir):
        collect_profiles(TINY, manifest=False)
        plan = enqueue_sweep(TINY)
        assert plan.resumed == ["li"] and not plan.enqueued

    def test_spawned_worker_process_completes_sweep(self, cache_dir):
        run = collect_profiles(QUEUED, manifest=False)
        assert run.ok and [p.name for p in run] == ["compress", "li"]
        done = ShardQueue().jobs("done")
        assert sorted(j.workload for j in done) == ["compress", "li"]
        # the shards really ran in the children, not the coordinator
        assert all(j.pid != os.getpid() for j in done)

    def test_failures_surface_in_profile_run(self, cache_dir, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "li=raise")
        config = dataclasses.replace(QUEUED, task_retries=0)
        run = collect_profiles(config, manifest=False)
        assert not run.ok
        assert [p.name for p in run] == ["compress"]
        assert [f.name for f in run.failures] == ["li"]
        assert run.failures[0].kind == "RuntimeError"

    def test_failure_matches_in_process_failure(self, tmp_path,
                                                monkeypatch):
        # the queue's attempt count is the worker's profile attempts,
        # not the shard's claim count
        monkeypatch.setenv(FAULT_ENV, "li=raise")
        failures = {}
        for workers in (1, 2):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / str(workers)))
            config = dataclasses.replace(QUEUED, max_workers=workers,
                                         task_retries=1, retry_backoff=0.0)
            [failure] = collect_profiles(config, manifest=False).failures
            failures[workers] = (failure.name, failure.kind,
                                 failure.message, failure.attempts)
        assert failures[2] == failures[1]
        assert failures[1][3] == 2

    def test_no_cache_multi_worker_run_writes_nothing(self, cache_dir):
        # the queue needs the cache, so this runs in-process
        config = dataclasses.replace(QUEUED, use_cache=False)
        run = collect_profiles(config)
        assert run.ok and run.manifest_path is None
        assert not cache_dir.exists()

    def test_sweep_after_cache_clear_gets_every_profile(self, cache_dir):
        first = collect_profiles(QUEUED, manifest=False)
        tracecache.clear_cache()
        # the queue still holds both shards as done
        assert ShardQueue().counts()["done"] == 2
        again = collect_profiles(QUEUED, manifest=False)
        assert again.ok and not again.resumed
        assert list(again) == list(first)

    def test_timed_out_shard_retries_in_a_new_worker(self, cache_dir,
                                                     monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "compress=sleep60")
        config = dataclasses.replace(QUEUED, task_timeout=1.0,
                                     task_retries=1, retry_backoff=0.0)
        run = collect_profiles(config)
        assert [p.name for p in run] == ["li"]
        (failure,) = run.failures
        assert failure.kind == "TimeoutError" and failure.attempts == 2
        kinds = [e["event"] for e in obs.read_events(run.manifest_path)]
        assert kinds.count("profile_error") == 2
        assert "retry" in kinds and "worker_crash" not in kinds
        assert ShardQueue().find(shard_job_id("compress", config)).state \
            == "failed"


class TestCrashedWorkerSweep:
    """A crashed worker's lease is stolen at once, not after its TTL."""

    @pytest.mark.parametrize("kernel", ["compress", "li", "tomcatv"])
    def test_crash_sweep_finishes_well_inside_the_lease_ttl(
        self, cache_dir, monkeypatch, kernel,
    ):
        spawn = sweep_mod.spawn_worker_process
        monkeypatch.setattr(
            sweep_mod, "spawn_worker_process",
            lambda worker, run_id: spawn(worker, run_id, lease_ttl=60.0),
        )
        monkeypatch.setenv(FAULT_ENV, f"{kernel}=crash")
        config = ExperimentConfig(
            max_instructions=800, workloads=("compress", "li", "tomcatv"),
            max_workers=2, task_retries=0, retry_backoff=0.0,
        )
        start = time.monotonic()
        run = collect_profiles(config)
        assert time.monotonic() - start < 20.0
        assert [f.name for f in run.failures] == [kernel]
        assert [p.name for p in run] == [
            n for n in config.workloads if n != kernel
        ]
        summary = obs.summarize(obs.read_events(run.manifest_path))
        assert summary["complete"] and summary["worker_crashes"] == 1


def _serve(targets, defaults=None, setup=None):
    """Run the front end on an ephemeral port; fetch each target."""

    async def fetch(port, target):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(body)

    async def main():
        server, frontend, port = await start_server(
            port=0, frontend=ServiceFrontend(defaults)
        )
        if setup is not None:
            setup(frontend)
        try:
            return [await fetch(port, t) for t in targets]
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


class TestConfigFromQuery:
    def test_no_overrides_is_identity(self):
        assert config_from_query({}, TINY) is TINY

    def test_overrides_apply(self):
        config = config_from_query({"budget": "900", "window": "64"}, TINY)
        assert config.max_instructions == 900
        assert config.window_size == 64
        assert config.workloads == TINY.workloads

    def test_bad_value_raises(self):
        with pytest.raises(ValueError):
            config_from_query({"budget": "lots"}, TINY)


class TestServeFrontend:
    def test_health(self, cache_dir):
        [(status, body)] = _serve(["/health"])
        assert status == 200 and body["ok"] is True

    def test_unknown_route_and_bad_params(self, cache_dir):
        results = _serve(["/nope", "/profile", "/profile?workload=li&budget=x",
                          "/job"], defaults=TINY)
        assert [status for status, _ in results] == [404, 400, 400, 400]

    def test_profile_miss_enqueues(self, cache_dir):
        [(status, body)] = _serve(["/profile?workload=li"], defaults=TINY)
        assert status == 202
        assert body["source"] == "enqueued"
        assert ShardQueue().counts()["pending"] == 1
        # the job endpoint can see what was enqueued
        results = _serve([f"/job?id={body['job']}", "/job?id=missing"],
                         defaults=TINY)
        assert results[0][0] == 200
        assert results[0][1]["job"]["state"] == "pending"
        assert results[1][0] == 404

    def test_profile_miss_after_cache_clear_requeues(self, cache_dir):
        queue = ShardQueue()
        enqueue_sweep(TINY, queue=queue)
        run_worker("wtest", queue=queue, manifest=None)
        tracecache.clear_cache()
        [(status, body)] = _serve(["/profile?workload=li"], defaults=TINY)
        assert status == 202
        assert body["state"] == "pending"
        assert queue.counts()["pending"] == 1

    def test_unknown_workload_404(self, cache_dir):
        [(status, body)] = _serve(["/profile?workload=doom"], defaults=TINY)
        assert status == 404

    def test_warm_profile_hit_never_touches_the_vm(self, cache_dir,
                                                   monkeypatch):
        expected = run_profile("li", TINY)  # warm the cache

        def explode(*args, **kwargs):
            raise AssertionError("the VM ran on a warm cache hit")

        from repro.vm import machine as machine_mod

        monkeypatch.setattr(machine_mod.Machine, "run", explode)
        monkeypatch.setattr("repro.exp.runner.run_profile", explode)
        [(status, body)] = _serve(["/profile?workload=li"], defaults=TINY)
        assert status == 200
        assert body["source"] == "cache"
        assert body["profile"]["name"] == "li"
        assert body["profile"]["dynamic_count"] == expected.dynamic_count

    def test_profile_query_overrides_select_other_entry(self, cache_dir):
        run_profile("li", TINY)
        [(status, body)] = _serve(["/profile?workload=li&budget=601"],
                                  defaults=TINY)
        assert status == 202  # different budget, different cache entry

    def test_figure_miss_then_hit(self, cache_dir):
        config = dataclasses.replace(SMALL, workloads=("applu", "li"))
        [(status, body)] = _serve(["/figure?name=figure3"], defaults=config)
        assert status == 202
        assert set(body["missing"]) == {"applu", "li"}
        for name in config.workloads:
            run_profile(name, config)
        results = _serve(["/figure?name=figure3", "/figure?name=figure99"],
                         defaults=config)
        assert results[0][0] == 200
        assert results[0][1]["source"] == "cache"
        assert results[0][1]["text"].strip()
        assert results[1][0] == 404

    def test_status_reports_queue_and_cache(self, cache_dir):
        run_profile("li", TINY)
        [(status, body)] = _serve(["/status"], defaults=TINY)
        assert status == 200
        assert body["queue"] == {"pending": 0, "leased": 0,
                                 "done": 0, "failed": 0}
        assert body["cache"]["profiles"] == 1
        assert "profile_index" not in body["cache"]
