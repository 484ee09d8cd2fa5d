"""Persistent shard queue: claim/lease/complete over atomic renames.

One *shard* is one kernel × config computation of one ``kind`` — a
``profile`` (figures 3-8) or the kernel's ``fig9`` rows (Figure 9's
finite-RTM grid) — the unit the service distributes.  The queue is a
directory state machine under ``<cache_dir>/service/queue/``::

    pending/<job_id>.json     enqueued, unowned
    leased/<job_id>.json      claimed by a worker (record holds the
                              lease: pid, worker id, claim time)
    done/<job_id>.json        completed; the result lives in the cache
    failed/<job_id>.json      exhausted its attempts; error recorded

State transitions are single ``os.rename`` calls, which POSIX makes
atomic *and* exclusive: when two workers grab the same pending shard,
exactly one rename succeeds and the loser moves on.  No locks are
needed on the claim path, so claim throughput scales with workers.
A record's content is rewritten (``os.replace``) only where no other
transition can move it meanwhile: after the rename into ``leased``,
``done`` or ``failed``, and before a settled shard's rename back to
``pending``.  A process killed at any step therefore leaves the shard
in exactly one state, never none and never two.

Job ids are content-addressed (workload + the config's semantic cache
key, + the kind for ``fig9`` shards), which makes ``enqueue``
idempotent: the front end can enqueue the same miss from many
requests and the queue holds one shard.

Work stealing / crash recovery: a lease carries its owner's pid and
claim time.  :meth:`ShardQueue.steal_stale` returns shards whose
owner is dead (pid probe) or whose lease outlived ``lease_ttl`` back
to ``pending``, where any idle worker picks them up.  A worker killed
mid-shard therefore delays its shard, never loses it — and because
results are stored under content-addressed keys, a shard that was
*almost* finished re-runs into a cache hit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any

from repro.exp.config import ExperimentConfig
from repro.obs import get_logger, incr
from repro.util import fslock
from repro.util.records import seal, unseal
from repro.vm import tracecache

_log = get_logger("service.queue")

#: Shard states, in directory form.
STATES = ("pending", "leased", "done", "failed")

#: Default seconds after which a live-pid lease is considered stuck.
DEFAULT_LEASE_TTL = 600.0


def service_dir() -> pathlib.Path:
    """``<cache_dir>/service`` (honours ``REPRO_CACHE_DIR``)."""
    return tracecache.cache_dir() / "service"


@dataclass(slots=True)
class ShardJob:
    """One kernel × config shard and its queue record."""

    job_id: str
    workload: str
    config: dict[str, Any]
    #: what the shard computes: ``profile`` or ``fig9`` (a record
    #: written before kinds existed reads as ``profile``)
    kind: str = "profile"
    state: str = "pending"
    enqueued_t: float = 0.0
    attempts: int = 0
    #: lease fields (meaningful while ``state == "leased"``)
    worker: str | None = None
    pid: int | None = None
    claimed_t: float | None = None
    #: outcome fields
    completed_t: float | None = None
    error: str | None = None
    #: profile attempts the failing worker made (``attempts`` counts
    #: claims, and one claim retries up to ``task_retries`` times)
    profile_attempts: int | None = None

    def to_record(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ShardJob":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in known})

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig.from_dict(self.config)


def shard_job_id(workload: str, config: ExperimentConfig,
                 kind: str = "profile") -> str:
    """Content-addressed job id for one kernel × config shard of
    ``kind``; a ``profile`` shard's id is the one it had before kinds."""
    salt = () if kind == "profile" else (kind,)
    digest = hashlib.sha256(
        repr((workload, config.cache_key()) + salt).encode()
    ).hexdigest()[:12]
    return "-".join((workload,) + salt + (digest,))


class ShardQueue:
    """The on-disk shard queue (safe for concurrent processes)."""

    def __init__(self, root: pathlib.Path | None = None):
        self.root = root if root is not None else service_dir() / "queue"

    # -- paths ---------------------------------------------------------
    def _dir(self, state: str) -> pathlib.Path:
        return self.root / state

    def _path(self, state: str, job_id: str) -> pathlib.Path:
        return self._dir(state) / f"{job_id}.json"

    def _write(self, state: str, job: ShardJob) -> None:
        """Atomically (re)write a job record in ``state``."""
        path = self._path(state, job.job_id)
        tmp = fslock.make_tmp(path.parent, path.name)
        try:
            tmp.write_text(
                seal(json.dumps(job.to_record(), sort_keys=True)),
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _read(self, path: pathlib.Path) -> ShardJob | None:
        """Parse one record; None when it is gone or damaged (a record
        whose checksum does not match is damaged)."""
        try:
            text = unseal(path.read_text(encoding="utf-8"))
            record = json.loads(text) if text is not None else None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict) or "job_id" not in record:
            return None
        try:
            return ShardJob.from_record(record)
        except TypeError:
            return None

    # -- producer side -------------------------------------------------
    def enqueue(
        self, workload: str, config: ExperimentConfig,
        kind: str = "profile", *, retry_failed: bool = True,
    ) -> tuple[str, str]:
        """Add one shard of ``kind``; returns ``(job_id, state)``.

        Idempotent: a shard already pending/leased/done is left alone
        (its current state is returned).  A previously *failed* shard
        is re-queued when ``retry_failed`` — an explicit enqueue is a
        request to try again.  So is a *done* shard whose result has
        left the cache (``repro cache clear``): the record alone would
        answer for a result nobody can read.
        """
        job_id = shard_job_id(workload, config, kind)
        fresh = ShardJob(job_id=job_id, workload=workload,
                         config=config.to_dict(), kind=kind,
                         enqueued_t=time.time())
        for state in ("done", "leased", "pending"):
            if self._present(self._path(state, job_id)):
                if state == "done" and not tracecache.profile_path(
                        workload, config.cache_key(), kind).is_file():
                    return self._requeue(fresh, "done")
                return job_id, state
        if self._present(self._path("failed", job_id)):
            if not retry_failed:
                return job_id, "failed"
            return self._requeue(fresh, "failed")
        self._write("pending", fresh)
        incr("service.enqueued")
        return job_id, "pending"

    def _requeue(self, job: ShardJob, state: str) -> tuple[str, str]:
        """Send a settled shard back to pending: its fresh record is
        written in place, then moved (a lost race means someone else
        re-queued it)."""
        self._write(state, job)
        self._move(job.job_id, state, "pending")
        incr("service.enqueued")
        return job.job_id, "pending"

    def _move(self, job_id: str, source: str, target: str) -> bool:
        """Move a shard's record from state ``source`` to ``target`` in
        one rename; False when it was not in ``source``."""
        path = self._path(target, job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(self._path(source, job_id), path)
        except FileNotFoundError:
            return False
        return True

    def _present(self, path: pathlib.Path) -> bool:
        """Whether ``path`` holds a readable record.  Records are
        written whole (``os.replace``), so an unreadable one is damage:
        it is deleted, and the shard counts as absent."""
        if not path.is_file():
            return False
        if self._read(path) is not None:
            return True
        _log.warning("damaged queue record %s; treating it as absent", path)
        path.unlink(missing_ok=True)
        return False

    # -- worker side ---------------------------------------------------
    def claim(
        self, worker: str, *, lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> ShardJob | None:
        """Claim one pending shard (oldest first), or None when empty.

        When the pending directory is dry, stale leases are stolen
        back first (work stealing from crashed/stuck workers) and the
        claim is retried once.
        """
        job = self._claim_pending(worker)
        if job is not None:
            return job
        if self.steal_stale(worker, lease_ttl=lease_ttl):
            return self._claim_pending(worker)
        return None

    def _claim_pending(self, worker: str) -> ShardJob | None:
        pending = self._dir("pending")
        if not pending.is_dir():
            return None
        candidates = sorted(
            (p for p in pending.iterdir() if p.suffix == ".json"),
            key=lambda p: p.name,
        )
        for path in candidates:
            job = self._read(path)
            if job is None or not self._move(job.job_id, "pending",
                                             "leased"):
                continue  # lost the race; somebody else owns it now
            job.state = "leased"
            job.worker = worker
            job.pid = os.getpid()
            job.claimed_t = time.time()
            job.attempts += 1
            self._write("leased", job)
            incr("service.claimed")
            return job
        return None

    def steal_stale(
        self, worker: str, *, lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> int:
        """Return stale leased shards to pending; count of steals.

        A lease is stale when its holder's pid is dead, when it is
        older than ``lease_ttl`` seconds, or when the record never
        became readable (claim crashed between rename and rewrite) and
        the file itself is old.
        """
        leased = self._dir("leased")
        if not leased.is_dir():
            return 0
        now = time.time()
        stolen = 0
        for path in sorted(leased.iterdir()):
            if path.suffix != ".json":
                continue
            job = self._read(path)
            if job is None or job.pid is None:
                # unreadable, or a claim that crashed (or is still in
                # flight) between the rename and the lease rewrite:
                # judge by file age, never instantly
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                stale = age > max(lease_ttl, 5.0)
            elif not fslock.pid_alive(job.pid):
                stale = True
            else:
                stale = now - (job.claimed_t or now) > lease_ttl
            if not stale or not self._move(path.stem, "leased", "pending"):
                continue  # owner finished or another stealer won
            stolen += 1
            incr("service.stolen")
            _log.warning(
                "worker %s stole stale shard %s (holder pid=%s worker=%s)",
                worker, path.stem,
                job.pid if job else "?", job.worker if job else "?",
            )
        return stolen

    def complete(self, job: ShardJob) -> None:
        """Mark a leased shard done (result already in the cache).  A
        lease stolen meanwhile stays with its stealer, whose run is a
        cache hit."""
        if not self._move(job.job_id, "leased", "done"):
            return
        job.state = "done"
        job.completed_t = time.time()
        job.error = None
        self._write("done", job)
        incr("service.completed")

    def fail(self, job: ShardJob, error: str,
             profile_attempts: int | None = None) -> None:
        """Mark a leased shard failed with its final error and the
        number of profile attempts behind it."""
        if not self._move(job.job_id, "leased", "failed"):
            return
        job.state = "failed"
        job.completed_t = time.time()
        job.error = error
        job.profile_attempts = profile_attempts
        self._write("failed", job)
        incr("service.failed")

    # -- inspection ----------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Shards per state (``{"pending": n, "leased": n, ...}``)."""
        out: dict[str, int] = {}
        for state in STATES:
            directory = self._dir(state)
            out[state] = (
                sum(1 for p in directory.iterdir() if p.suffix == ".json")
                if directory.is_dir() else 0
            )
        return out

    def jobs(self, state: str) -> list[ShardJob]:
        """All readable records in one state, oldest job id first."""
        directory = self._dir(state)
        if not directory.is_dir():
            return []
        out = []
        for path in sorted(directory.iterdir()):
            if path.suffix != ".json":
                continue
            job = self._read(path)
            if job is not None:
                job.state = state
                out.append(job)
        return out

    def find(self, job_id: str) -> ShardJob | None:
        """Look one job id up across every state."""
        for state in STATES:
            path = self._path(state, job_id)
            if path.is_file():
                job = self._read(path)
                if job is not None:
                    job.state = state
                    return job
        return None

    def outstanding(self) -> int:
        """Shards not yet settled (pending + leased)."""
        counts = self.counts()
        return counts["pending"] + counts["leased"]
