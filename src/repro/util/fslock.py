"""Cross-process filesystem primitives for the shared artifact store.

``.repro-cache/`` started life as a single-process memoisation
directory; the sweep service turns it into a *shared* store with many
concurrent writer processes.  Atomic renames alone are not enough for
that: read-modify-write sequences (the profile index), first-claim
races (queue shards) and crash cleanup (orphaned temp files, stale
leases) all need real cross-process coordination.  This module is the
small POSIX toolbox the store and the service are built on:

- :func:`file_lock` — advisory per-file locks via ``flock(2)``.  Locks
  are keyed by path, so independent entries never contend; the lock
  file itself is a zero-byte sibling that is cheap to create and safe
  to leave behind (``flock`` locks die with the holder's fd, so a
  killed process can never wedge the store).
- :func:`pid_alive` — liveness probe used to tell a *crashed* writer's
  leftovers from a *slow* writer's work in progress.
- :func:`make_tmp` / :func:`tmp_pid` — temp files tagged with their
  creator's pid so the reaper can apply pid liveness, not just age.
- :func:`reap_stale_tmps` — remove temp files whose creator is dead
  (immediately) or unknown and old (after ``max_age``).

On the one non-POSIX platform without ``fcntl`` the locks degrade to
no-ops with a one-time warning: single-process use stays correct, and
the concurrent sweep service is documented POSIX-only.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import tempfile
import time

from repro.obs import get_logger

try:  # pragma: no cover - fcntl exists on every POSIX platform
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback
    fcntl = None  # type: ignore[assignment]

_log = get_logger("fslock")
_warned_no_flock = False

#: Temp files whose creator pid is unknown are reaped after this many
#: seconds; pid-tagged temp files of dead processes are reaped at once.
DEFAULT_TMP_MAX_AGE = 3600.0


@contextlib.contextmanager
def file_lock(path: str | os.PathLike, *, shared: bool = False):
    """Hold an advisory ``flock`` on ``path`` for the ``with`` body.

    The lock file is created (empty) if missing and never deleted —
    deleting would race a concurrent locker that already opened the
    old inode and would silently split the lock in two.  Blocks until
    the lock is granted; ``shared=True`` takes a read lock.
    """
    global _warned_no_flock
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
        elif not _warned_no_flock:  # pragma: no cover - non-POSIX only
            _warned_no_flock = True
            _log.warning(
                "fcntl.flock unavailable on this platform; file locks "
                "degrade to no-ops (single-process use only)"
            )
        yield
    finally:
        # closing the fd releases the flock atomically
        os.close(fd)


def pid_alive(pid: int) -> bool:
    """True when a process with ``pid`` runs (signal-0 probe).

    ``EPERM`` counts as alive — the process exists, we just may not
    signal it.  An exited process its parent has not reaped yet (a
    zombie) still answers signal 0; where ``/proc`` shows its state,
    it counts as dead.  Pid reuse can report a recycled pid as alive;
    callers that care combine this with an age threshold.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-uid process
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:  # no /proc here: trust the signal probe
        return True
    # "<pid> (<comm>) <state> ...": comm may itself contain ")"
    return stat[stat.rfind(b")") + 2:][:1] not in (b"Z", b"X")


def make_tmp(directory: str | os.PathLike, prefix: str) -> pathlib.Path:
    """Create a pid-tagged temp file and return its path.

    The name embeds the creating pid (``<prefix>.pid<N>.<rand>.tmp``)
    so :func:`reap_stale_tmps` can distinguish a crashed writer's
    orphan from a live writer's file in flight.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(
        dir=directory, prefix=f"{prefix}.pid{os.getpid()}.", suffix=".tmp"
    )
    os.close(fd)
    return pathlib.Path(name)


def tmp_pid(path: str | os.PathLike) -> int | None:
    """The creator pid embedded in a temp file name, or None."""
    name = pathlib.Path(path).name
    for part in name.split("."):
        if part.startswith("pid") and part[len("pid"):].isdigit():
            return int(part[len("pid"):])
    return None


def reap_stale_tmps(
    directory: str | os.PathLike,
    *,
    max_age: float = DEFAULT_TMP_MAX_AGE,
) -> int:
    """Delete orphaned ``*.tmp`` files under ``directory`` (one level).

    A temp file is an orphan when its embedded creator pid is dead, or
    — for legacy/untagged names — when it is older than ``max_age``
    seconds.  Pid-tagged files of *live* processes are never touched
    regardless of age: a 50M-instruction trace write is slow, not
    stuck.  Returns the number of files removed.  Races with the
    creator finishing (``os.replace`` away) are benign: unlink of a
    vanished file is ignored.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return 0
    now = time.time()
    removed = 0
    for entry in directory.iterdir():
        if not entry.name.endswith(".tmp") or not entry.is_file():
            continue
        pid = tmp_pid(entry)
        if pid is not None:
            stale = not pid_alive(pid)
        else:
            try:
                stale = now - entry.stat().st_mtime > max_age
            except OSError:
                continue
        if stale:
            try:
                entry.unlink()
                removed += 1
            except OSError:  # pragma: no cover - lost a benign race
                continue
    if removed:
        _log.warning("reaped %d orphaned tmp file(s) under %s",
                     removed, directory)
    return removed
