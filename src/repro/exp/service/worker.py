"""Worker shard: drain the queue through the runner's machinery.

A worker is an ordinary OS process (``repro worker`` or an inline
call to :func:`run_worker`) that loops: claim a shard, run its kind's
compute function on its kernel (a profile, or Figure 9 rows), publish
the result.  The computation itself goes through the
exact retry/backoff/manifest path of a single-process sweep —
:class:`~repro.exp.runner._Collector` plus
:func:`~repro.exp.runner._run_sequential` — so a shard enjoys the same
``task_retries`` policy and emits the same ``profile_start`` /
``profile_done`` / ``profile_error`` manifest events, tagged with the
worker id and merged into one run view by ``repro obs show``.

The result channel is the shared cache, not the queue: a
completed shard's ``done`` record carries no payload, and the
coordinator (or the serve front end) reads results back from the
cache by content key.  That is what makes stolen or duplicated shards
harmless — recomputing a shard that someone already finished is a
cache hit.

A worker cannot preempt its own shard, so it does not enforce
``task_timeout``: the sweep coordinator
(:func:`~repro.exp.service.sweep.run_queued`) kills a worker whose
lease outlives it.  For workers nobody supervises, the queue's lease
TTL is the backstop for a wedged shard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.exp.runner import _Collector, _run_sequential
from repro.exp.service.queue import DEFAULT_LEASE_TTL, ShardJob, ShardQueue
from repro.obs import get_logger, incr
from repro.obs.manifest import RunManifest

_log = get_logger("service.worker")


@dataclass(slots=True)
class WorkerReport:
    """What one worker loop did before exiting."""

    worker: str
    completed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    seconds: float = 0.0


def process_shard(
    job: ShardJob,
    queue: ShardQueue,
    manifest: RunManifest | None,
    worker: str,
) -> bool:
    """Run one claimed shard and settle its queue record.

    Returns True when the shard completed (result now in the cache).
    """
    config = job.experiment_config()
    collector = _Collector(config, manifest, job.kind)
    if manifest is not None:
        manifest.emit("shard_claim", name=job.workload, job=job.job_id,
                      shard_attempt=job.attempts)
    _run_sequential(collector, [job.workload])
    if job.workload in collector.done:
        queue.complete(job)
        if manifest is not None:
            manifest.emit("shard_done", name=job.workload, job=job.job_id)
        return True
    failure = collector.failures[job.workload]
    error = f"{failure.kind}: {failure.message}"
    queue.fail(job, error, failure.attempts)
    if manifest is not None:
        manifest.emit("shard_failed", name=job.workload, job=job.job_id,
                      error=error)
    return False


def run_worker(
    worker: str,
    *,
    queue: ShardQueue | None = None,
    manifest: RunManifest | None = None,
    exit_when_empty: bool = True,
    poll_interval: float = 0.2,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_shards: int | None = None,
) -> WorkerReport:
    """Drain the shard queue; returns a :class:`WorkerReport`.

    With ``exit_when_empty`` (the sweep mode) the loop ends once no
    shard is pending *or* leased — as long as any lease is live the
    worker keeps polling, ready to steal it should its owner die.
    With ``exit_when_empty=False`` (the serve mode) the loop polls
    forever for shards the front end enqueues; ``max_shards`` bounds
    the loop for tests.
    """
    queue = queue if queue is not None else ShardQueue()
    t0 = time.monotonic()
    report = WorkerReport(worker=worker)
    if manifest is not None:
        manifest.emit("worker_start", name=worker)
    while max_shards is None or len(report.completed) + len(report.failed) < max_shards:
        job = queue.claim(worker, lease_ttl=lease_ttl)
        if job is None:
            if exit_when_empty and queue.outstanding() == 0:
                break
            time.sleep(poll_interval)
            continue
        incr("service.worker.shards")
        if job.attempts > 1 and manifest is not None:
            # a fresh claim starts at attempts == 1; anything higher
            # means this lease was stolen back from a dead/stuck worker
            manifest.emit("shard_steal", name=job.workload, job=job.job_id,
                          attempt=job.attempts)
        if process_shard(job, queue, manifest, worker):
            report.completed.append(job.workload)
        else:
            report.failed.append(job.workload)
    report.seconds = time.monotonic() - t0
    if manifest is not None:
        manifest.emit(
            "worker_end", name=worker, completed=report.completed,
            failed=report.failed, seconds=round(report.seconds, 6),
        )
    return report
