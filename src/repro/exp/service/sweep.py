"""Sweep coordinator: enqueue shards, spawn workers, collect results.

:func:`run_queued` is :func:`~repro.exp.runner.collect_profiles`'s
fan-out: the pending kernels go onto the persistent queue as shards
and N independent ``repro worker`` *processes* drain it through one
shared ``.repro-cache/``.  The profiles are bit-identical to an
in-process sweep, because every shard runs
:func:`~repro.exp.runner.run_profile` under the same content-addressed
cache key and the cache carries the results back.

Crash behaviour is belt and braces: a worker that dies mid-shard
leaves a lease that surviving workers steal as soon as the
coordinator has reaped it; if *every* worker dies, the coordinator
drains what is left inline.  :func:`enqueue_sweep` loads the queue
for workers started separately (``repro sweep --enqueue-only``).
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro import obs
from repro.exp.config import ExperimentConfig
from repro.exp.runner import ProfileFailure, _Collector, profile_from_json
from repro.exp.service.queue import DEFAULT_LEASE_TTL, ShardQueue
from repro.exp.service.worker import run_worker
from repro.vm import tracecache

_log = obs.get_logger("service.sweep")

#: Seconds between the coordinator's checks on its workers.
POLL_INTERVAL = 0.05


@dataclass(slots=True)
class SweepPlan:
    """What ``enqueue_sweep`` did: shards queued vs. already satisfied."""

    enqueued: list[str] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)
    #: job id per enqueued workload
    jobs: dict[str, str] = field(default_factory=dict)


def enqueue_sweep(
    config: ExperimentConfig,
    *,
    queue: ShardQueue | None = None,
    retry_failed: bool = True,
) -> SweepPlan:
    """Enqueue one shard per configured kernel that the cache misses.

    Kernels whose profile is already cached are *resumed* (checkpoint
    semantics identical to ``collect_profiles``), everything else
    becomes a pending shard.  The service requires the shared cache —
    it is the result channel — so a cache-disabled config is an error.
    """
    if not config.use_cache or not tracecache.cache_enabled():
        raise ValueError(
            "the sweep service requires the shared profile cache "
            "(use_cache=True and REPRO_TRACE_CACHE unset)"
        )
    queue = queue if queue is not None else ShardQueue()
    plan = SweepPlan()
    for name in config.workloads:
        if tracecache.load_cached_profile_json(
                name, config.cache_key()) is not None:
            plan.resumed.append(name)
            continue
        job_id, _state = queue.enqueue(name, config,
                                       retry_failed=retry_failed)
        plan.enqueued.append(name)
        plan.jobs[name] = job_id
    return plan


def spawn_worker_process(
    worker: str,
    run_id: str | None,
    *,
    exit_when_empty: bool = True,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> subprocess.Popen:
    """Start one ``repro worker`` shard as a child process.

    The child inherits the environment (``REPRO_CACHE_DIR`` above all,
    which is the whole coordination substrate) and marks itself with
    ``REPRO_SERVICE_WORKER=1`` so fault injection treats it as a
    killable worker, not a parent.  Its stdout summary line is
    dropped, so it never mixes into the parent's output (its manifest
    records the same); its stderr log stays attached.  With ``run_id``
    None it records no manifest.
    """
    cmd = [
        sys.executable, "-m", "repro", "worker",
        "--worker-id", worker, "--run-id", run_id or "",
        "--lease-ttl", str(lease_ttl),
    ]
    if not exit_when_empty:
        cmd.append("--forever")
    return subprocess.Popen(cmd, env=os.environ.copy(),
                            stdout=subprocess.DEVNULL)


def run_queued(collector: _Collector, names: list[str], workers: int) -> None:
    """Profile ``names`` as queue shards drained by ``workers`` processes.

    ``collect_profiles``'s fan-out: enqueue one shard per kernel, spawn
    the ``repro worker`` processes under the run's id, and poll until
    they have all exited.  Each poll reaps the workers that exited, so
    a crashed worker's lease is stolen at once (an unreaped one would
    look alive), and kills any of them whose lease is older than
    ``task_timeout``: the shard then fails with ``TimeoutError`` or,
    while ``task_retries`` allows, goes back to the queue for a
    replacement worker.  Shards still open once every worker has
    exited are drained inline here, after a ``worker_crash`` +
    ``fallback_sequential`` event pair.  Outcomes land in
    ``collector``: profiles read back from the cache, failures from
    the queue's records, whose ``profile_attempts`` is the attempt
    count the in-process path reports.
    """
    config = collector.config
    queue = ShardQueue()
    jobs = {queue.enqueue(name, config)[0]: name for name in names}
    collector.emit("sweep_enqueued", enqueued=list(names))
    # workers of a run that records no manifest record none either
    run_id = collector.manifest.run_id if collector.manifest else None
    ids = itertools.count()

    def spawn() -> subprocess.Popen:
        return spawn_worker_process(f"w{next(ids)}", run_id)

    procs = [spawn() for _ in range(workers)]
    try:
        while procs:
            time.sleep(POLL_INTERVAL)
            procs = [proc for proc in procs if proc.poll() is None]
            if config.task_timeout is None:
                continue
            now = time.time()
            by_pid = {proc.pid: proc for proc in procs}
            for job in queue.jobs("leased"):
                proc = by_pid.get(job.pid)
                if (proc is None or job.job_id not in jobs
                        or now - job.claimed_t <= config.task_timeout):
                    continue
                name = jobs[job.job_id]
                message = f"kernel exceeded task_timeout={config.task_timeout}s"
                collector.attempts[name] = job.attempts
                retry = collector.errored(name, "TimeoutError", message)
                if retry:
                    collector.backoff(name)
                else:
                    # settle before the kill, so nobody steals it back
                    queue.fail(job, f"TimeoutError: {message}")
                proc.kill()
                proc.wait()
                procs.remove(proc)
                if retry:
                    procs.append(spawn())
    finally:
        for proc in procs:  # only reached by an exception
            proc.kill()
            proc.wait()

    remaining = [
        name for job_id, name in jobs.items()
        if (job := queue.find(job_id)) is not None
        and job.state in ("pending", "leased")
    ]
    if remaining:
        collector.emit("worker_crash", in_flight=remaining)
        _log.warning(
            "every worker exited with kernels still queued: %s — "
            "draining them in this process", ", ".join(remaining),
        )
        obs.incr("runner.worker_crash")
        collector.emit("fallback_sequential", remaining=remaining)
        run_worker("coordinator", queue=queue, manifest=collector.manifest)

    key = config.cache_key()
    for job_id, name in jobs.items():
        if name in collector.failures:
            continue
        cached = tracecache.load_cached_profile(name, key)
        if cached is not None:
            collector.done[name] = profile_from_json(cached)
            continue
        job = queue.find(job_id)
        if job is not None and job.state == "failed" and job.error:
            kind, _, message = job.error.partition(": ")
            attempts = job.profile_attempts or job.attempts
        else:
            kind = "ShardLost"
            message = (f"shard {job_id} is "
                       f"{job.state if job else 'gone'} but its profile "
                       f"is not in the cache")
            attempts = job.attempts if job is not None else 0
        collector.failures[name] = ProfileFailure(
            name=name, kind=kind, message=message, attempts=attempts,
        )
