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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.exp.service import server as server_mod
from repro.exp.service.queue import STATES, ShardJob, shard_job_id
from repro.exp.service.server import (
    ServiceFrontend,
    config_from_query,
    start_server,
)
from repro.vm import tracecache
from test_profile_entries import _mutate

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


class TestQueueRecordFuzz:
    """A damaged job or lease record reads as absent, never as another
    job: ``/job`` answers it ``404`` (never ``500``), the queue never
    raises over it, and the next enqueue of its shard heals it."""

    @pytest.fixture
    def records(self, cache_dir):
        """The pending and the leased record of one shard, as bytes."""
        queue = ShardQueue()
        job_id, _ = queue.enqueue("li", TINY)
        pending = queue._path("pending", job_id).read_bytes()
        queue.claim("w1")
        leased = queue._path("leased", job_id).read_bytes()
        return queue, job_id, {"pending": pending, "leased": leased}

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_record_is_absent_and_heals(self, records, data):
        queue, job_id, raw = records
        state = data.draw(st.sampled_from(sorted(raw)))
        original = ShardJob.from_record(
            json.loads(raw[state].decode().rpartition("\t")[0]))
        for other in STATES:
            queue._path(other, job_id).unlink(missing_ok=True)
        path = queue._path(state, job_id)
        path.write_bytes(_mutate(data, raw[state]))
        found = queue.find(job_id)
        assert found is None or found == original
        status, body = ServiceFrontend(TINY, queue=queue).dispatch(
            "/job", {"id": job_id})
        assert (status, found) in ((404, None), (200, original))
        if state == "leased":
            queue.steal_stale("w2")
        assert queue.enqueue("li", TINY)[0] == job_id
        healed = queue.find(job_id)
        assert healed.experiment_config().cache_key() == TINY.cache_key()
        assert healed.state == (state if found is not None else "pending")


class _Crash(BaseException):
    """The process dying at a kill point (no ``except`` clause of the
    queue's catches it, as none would run after a kill)."""


def _kill_at(monkeypatch, root, at):
    """Count the record renames, replaces and unlinks the queue makes
    under ``root`` and raise :class:`_Crash` instead of making the one
    at index ``at``; returns the list of steps made."""
    steps = []

    def wrap(name, real):
        def step(*args, **kwargs):
            target = str(args[-1] if name != "unlink" else args[0])
            if target.startswith(str(root)) and target.endswith(".json"):
                if len(steps) == at:
                    raise _Crash(f"killed before {name} {target}")
                steps.append(name)
            return real(*args, **kwargs)
        return step

    for name in ("rename", "replace", "unlink"):
        monkeypatch.setattr(os, name, wrap(name, getattr(os, name)))
    return steps


@pytest.fixture(scope="module")
def dead_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestQueueKillPoints:
    """A process killed at any rename, replace or unlink of ``enqueue``,
    ``claim``, ``complete``, ``fail`` or ``steal_stale`` leaves its
    shard in exactly one state: the one before the step or the one the
    operation moves it to, never lost and never doubled."""

    @staticmethod
    def _setup(queue, kind, start, dead_pid):
        """Bring li's shard of ``kind`` to ``start`` (None: no record)."""
        if start is None:
            return None
        queue.enqueue("li", TINY, kind)
        if start == "pending":
            return None
        job = queue.claim("w1")
        if start == "done":
            queue.complete(job)  # no result cached: enqueue requeues it
        elif start == "failed":
            queue.fail(job, "RuntimeError: boom")
        elif start == "stale":
            job.pid = dead_pid
            queue._write("leased", job)
        return job

    OPERATIONS = {
        # name: (state before, state after, operation)
        "enqueue-new": (None, "pending",
                        lambda q, job, kind: q.enqueue("li", TINY, kind)),
        "enqueue-failed": ("failed", "pending",
                           lambda q, job, kind: q.enqueue("li", TINY, kind)),
        "enqueue-done-result-gone": (
            "done", "pending",
            lambda q, job, kind: q.enqueue("li", TINY, kind)),
        "claim": ("pending", "leased", lambda q, job, kind: q.claim("w2")),
        "complete": ("leased", "done", lambda q, job, kind: q.complete(job)),
        "fail": ("leased", "failed",
                 lambda q, job, kind: q.fail(job, "RuntimeError: boom")),
        "steal_stale": ("stale", "pending",
                        lambda q, job, kind: q.steal_stale("w2")),
    }

    @pytest.mark.parametrize("kind", ["profile", "fig9"])
    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_crash_at_every_step_leaves_one_state(
        self, cache_dir, dead_pid, monkeypatch, kind, operation,
    ):
        before, after, run = self.OPERATIONS[operation]
        job_id = shard_job_id("li", TINY, kind)
        if before is not None:
            before = "leased" if before == "stale" else before
        at = 0
        while True:
            root = cache_dir / f"queue-{at}"
            queue = ShardQueue(root)
            job = self._setup(queue, kind, self.OPERATIONS[operation][0],
                              dead_pid)
            with monkeypatch.context() as patch:
                steps = _kill_at(patch, root, at)
                try:
                    run(queue, job, kind)
                    crashed = False
                except _Crash:
                    crashed = True
            states = [state for state in STATES
                      if queue._read(queue._path(state, job_id))]
            if before is None and crashed:
                assert states in ([], [after]), (at, steps, states)
            else:
                assert len(states) == 1, (at, steps, states)
                assert states[0] in (before, after), (at, steps, states)
            if not crashed:
                assert states == [after]
                assert queue.find(job_id).kind == kind
                break
            at += 1
        # every operation is at most three steps
        assert 1 <= at <= 3


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


def _children(pid: int) -> list[int]:
    """The pids whose parent is ``pid`` (read from ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            if int(stat.rpartition(")")[2].split()[1]) == pid:
                found.append(int(entry))
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
class TestServeShutdown:
    def test_sigterm_stops_the_workers(self, cache_dir):
        """``repro serve --workers 1`` stopped by SIGTERM terminates its
        ``repro worker --forever`` child before it exits."""
        import select
        import signal

        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--budget", "1000", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=os.environ.copy())
        workers: list[int] = []
        try:
            # the worker is spawned before the server listens
            ready, _, _ = select.select([server.stdout], [], [], 60)
            assert ready and b"listening" in server.stdout.readline()
            workers = _children(server.pid)
            assert len(workers) == 1
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10) == 0
            deadline = time.monotonic() + 10
            while _running(workers[0]) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(workers[0])
        finally:
            for pid in [server.pid, *workers]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            server.wait()
            server.stdout.close()


def _serve_rounds(frontend, rounds, between=None):
    """Fetch each round of targets from one server over ``frontend``;
    ``between(round_index)`` runs on the event loop before every round
    after the first.  Returns one ``[(status, raw body)]`` per round."""

    async def fetch(port, target):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        return int(head.split()[1]), body

    async def main():
        server, _, port = await start_server(port=0, frontend=frontend)
        try:
            answers = []
            for index, targets in enumerate(rounds):
                if index and between is not None:
                    between(index)
                answers.append([await fetch(port, t) for t in targets])
            return answers
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def _serve(targets, defaults=None):
    """Run a fresh front end on an ephemeral port; fetch each target
    and decode its answer."""
    [answers] = _serve_rounds(ServiceFrontend(defaults), [targets])
    return [(status, json.loads(body)) for status, body in answers]


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


#: One URL of each memoised kind, over TINY (li only).
MEMOISED = ["/profile?workload=li", "/profile?workload=li&mode=static",
            "/figure?name=figure3"]


class TestAnswerMemo:
    def test_memoised_answers_skip_the_executor_and_the_disk(
        self, cache_dir, monkeypatch,
    ):
        run_profile("li", TINY)
        hops = []

        def refuse(*args, **kwargs):
            hops.append(args)
            raise AssertionError("a memoised answer left the event loop")

        def patch(_round):
            loop = asyncio.get_running_loop()
            monkeypatch.setattr(loop, "run_in_executor", refuse)
            monkeypatch.setattr("builtins.open", refuse)
            monkeypatch.setattr(os, "open", refuse)

        with obs.scope() as registry:
            first, second = _serve_rounds(ServiceFrontend(TINY),
                                          [MEMOISED, MEMOISED], patch)
        assert [status for status, _ in first] == [200, 200, 200]
        assert second == first and not hops
        assert registry.counters["serve.memo.fill"] == 3
        assert registry.counters["serve.memo.hit"] == 3

    def test_equivalent_queries_share_one_answer(self, cache_dir):
        run_profile("li", TINY)
        frontend = ServiceFrontend(TINY)
        [answers] = _serve_rounds(frontend, [[
            "/profile?workload=li",
            f"/profile?workload=li&budget={TINY.max_instructions}",
            "/profile?workload=li&unknown=1",
        ]])
        assert answers[0][0] == 200 and answers[1:] == answers[:1] * 2
        assert len(frontend._memo) == 1

    def test_damaged_entry_keeps_its_memoised_answer(self, cache_dir):
        run_profile("li", TINY)
        path = tracecache.profile_path("li", TINY.cache_key())
        raw = path.read_bytes()

        def damage(round_index):
            if round_index == 1:
                path.write_bytes(raw[:len(raw) // 2])
            else:
                tracecache.clear_cache()

        frontend = ServiceFrontend(TINY)
        rounds = _serve_rounds(frontend, [["/profile?workload=li"]] * 3,
                               damage)
        assert rounds[0][0][0] == 200
        assert rounds[1] == rounds[0] and rounds[2] == rounds[0]
        # a fresh front end has not memoised it: a miss, then healed
        [[(status, _)]] = _serve_rounds(ServiceFrontend(TINY),
                                        [["/profile?workload=li"]])
        assert status == 202
        run_profile("li", TINY)
        assert path.read_bytes() == raw
        assert _serve_rounds(ServiceFrontend(TINY),
                             [["/profile?workload=li"]]) == [rounds[0]]

    def test_only_200_profile_and_figure_answers_are_memoised(
        self, cache_dir,
    ):
        frontend = ServiceFrontend(TINY)
        [[(_, miss)]] = _serve_rounds(frontend, [["/profile?workload=li"]])
        job = json.loads(miss)["job"]
        targets = ["/health", "/status", f"/job?id={job}", "/job?id=nope",
                   "/profile", "/profile?workload=doom",
                   "/profile?workload=doom&mode=static",
                   "/profile?workload=li&budget=x", "/profile?workload=li",
                   "/figure?name=figure99", "/figure?name=figure3",
                   "/nope"]
        [answers] = _serve_rounds(frontend, [targets])
        assert [status for status, _ in answers] == [
            200, 200, 200, 404, 400, 404, 404, 400, 202, 404, 202, 404]
        assert frontend._memo == {}
        assert json.loads(answers[1][1])["memo"]["answers"] == 0
        run_profile("li", TINY)
        [answers] = _serve_rounds(frontend, [["/profile?workload=li",
                                              "/status"]])
        assert answers[0][0] == 200
        assert json.loads(answers[1][1])["memo"] == {
            "answers": 1, "bound": server_mod.MEMO_ENTRIES}

    def test_memo_stays_at_its_bound(self, cache_dir, monkeypatch):
        monkeypatch.setattr(server_mod, "MEMO_ENTRIES", 2)
        config = dataclasses.replace(TINY, workloads=("li", "compress"))
        for name in config.workloads:
            run_profile(name, config)
        frontend = ServiceFrontend(config)
        first = [frontend.dispatch(path, params) for path, params in (
            ("/profile", {"workload": "li"}),
            ("/profile", {"workload": "compress"}),
            ("/figure", {"name": "figure3"}),
            ("/profile", {"workload": "li", "mode": "static"}),
        )]
        assert [status for status, _ in first] == [200] * 4
        assert len(frontend._memo) == 2
        # the evicted answers refill from their entries, unchanged
        again = frontend.dispatch("/profile", {"workload": "li"})
        assert again == first[0] and len(frontend._memo) == 2

    def test_concurrent_fills_keep_the_bound(self, monkeypatch):
        """Executor threads fill while the loop reads: every answer read
        is the one filled under its key, and the bound holds."""
        import threading

        monkeypatch.setattr(server_mod, "MEMO_ENTRIES", 16)
        frontend = ServiceFrontend(TINY)
        wrong = []

        def worker(index):
            for n in range(300):
                key = ("profile", f"k{index}-{n % 40}")
                frontend._remember(key, repr(key).encode())
                other = ("profile", f"k{(index + 1) % 8}-{n % 40}")
                body = frontend._recall(other)
                if body is not None and body != repr(other).encode():
                    wrong.append((other, body))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong and len(frontend._memo) == 16

    def test_figure_key_covers_its_workload_list(self, cache_dir):
        run_profile("li", TINY)
        frontend = ServiceFrontend(TINY)
        assert frontend.dispatch("/figure", {"name": "figure3"})[0] == 200
        # compress is not cached: a figure over both kernels misses
        frontend.defaults = dataclasses.replace(
            TINY, workloads=("li", "compress"))
        assert frontend.dispatch("/figure", {"name": "figure3"})[0] == 202

    def test_cache_roots_never_share_an_answer(self, cache_dir, tmp_path,
                                               monkeypatch):
        run_profile("li", TINY)
        frontend = ServiceFrontend(TINY)
        assert frontend.dispatch("/profile", {"workload": "li"})[0] == 200
        assert frontend.dispatch("/figure", {"name": "figure3"})[0] == 200
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        assert frontend.dispatch("/profile", {"workload": "li"})[0] == 202
        assert frontend.dispatch("/figure", {"name": "figure3"})[0] == 202
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert frontend.dispatch("/profile", {"workload": "li"})[0] == 200


def _on_server(frontend, client):
    """``await client(port)`` against a server over ``frontend``; also
    returns every error the event loop's exception handler saw."""

    async def main():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        server, _, port = await start_server(port=0, frontend=frontend)
        try:
            return await client(port), errors
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


async def _exchange(port, *sends):
    """Send each piece of a request on its own (yielding to the loop
    between them), then read the answer: ``(status, body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for piece in sends:
        writer.write(piece)
        await writer.drain()
        await asyncio.sleep(0.01)
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


GET_LI = b"GET /profile?workload=li HTTP/1.1\r\nHost: t\r\n\r\n"


class TestProtocol:
    """The per-connection protocol: one header in, one answer out."""

    @pytest.mark.parametrize("size", [7, 1])  # 1: the end splits too
    def test_header_split_across_sends(self, cache_dir, size):
        run_profile("li", TINY)

        async def client(port):
            whole = await _exchange(port, GET_LI)
            split = await _exchange(port, *(GET_LI[i:i + size] for i
                                             in range(0, len(GET_LI), size)))
            return whole, split

        (whole, split), errors = _on_server(ServiceFrontend(TINY), client)
        assert whole[0] == 200 and split == whole and not errors

    def test_header_over_the_limit_is_400(self, cache_dir):
        limit = server_mod.HEADER_LIMIT
        padded = b"GET /health HTTP/1.1\r\nX: "

        async def client(port):
            # the longest header that fits, then one byte too many
            fits = padded + b"a" * (limit - len(padded)) + b"\r\n\r\n"
            return (await _exchange(port, fits),
                    await _exchange(port, padded + b"a" * (limit + 1
                                                           - len(padded))))

        (fits, over), errors = _on_server(ServiceFrontend(TINY), client)
        assert fits[0] == 200 and over[0] == 400 and not errors

    def test_client_gone_before_the_header_ends(self, cache_dir):
        async def client(port):
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /hea")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            return await _exchange(port, b"GET /health HTTP/1.1\r\n\r\n")

        with obs.scope() as registry:
            health, errors = _on_server(ServiceFrontend(TINY), client)
        assert health[0] == 200 and not errors
        # the torn request was answered 400 into the closed socket
        assert registry.counters["serve.requests"] == 2

    def test_eof_mid_header_after_half_close_is_400(self, cache_dir):
        async def client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /hea")
            writer.write_eof()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split()[1])

        status, errors = _on_server(ServiceFrontend(TINY), client)
        assert status == 400 and not errors

    def test_non_get_is_405(self, cache_dir):
        async def client(port):
            return await _exchange(port, b"POST /health HTTP/1.1\r\n\r\n")

        (status, body), _ = _on_server(ServiceFrontend(TINY), client)
        assert status == 405 and json.loads(body)["error"]

    def test_header_timeout_is_400(self, cache_dir, monkeypatch):
        monkeypatch.setattr(server_mod, "HEADER_TIMEOUT_S", 0.2)

        async def client(port):
            return await _exchange(port, b"GET /health HTTP/1.1\r\n")

        start = time.monotonic()
        (status, _), errors = _on_server(ServiceFrontend(TINY), client)
        assert status == 400 and not errors
        assert time.monotonic() - start < 5

    def test_handler_error_is_500(self, cache_dir, monkeypatch):
        def explode(self, params):
            raise RuntimeError("boom")

        monkeypatch.setitem(ServiceFrontend.ROUTES, "/health", explode)

        async def client(port):
            return await _exchange(port, b"GET /health HTTP/1.1\r\n\r\n")

        (status, body), _ = _on_server(ServiceFrontend(TINY), client)
        assert status == 500 and "boom" in json.loads(body)["error"]

    def test_concurrent_clients_get_identical_answers(self, cache_dir):
        run_profile("li", TINY)

        async def client(port):
            return await asyncio.gather(*(_exchange(port, GET_LI)
                                          for _ in range(20)))

        with obs.scope() as registry:
            answers, errors = _on_server(ServiceFrontend(TINY), client)
        assert answers[0][0] == 200 and answers == answers[:1] * 20
        assert registry.counters["serve.requests"] == 20 and not errors
