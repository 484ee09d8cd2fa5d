"""Cross-process filesystem primitives (``repro.util.fslock``)."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.util import fslock


class TestFileLock:
    def test_reentrant_use_releases(self, tmp_path):
        lock = tmp_path / "a.lock"
        with fslock.file_lock(lock):
            pass
        # a released lock can be re-acquired immediately
        with fslock.file_lock(lock):
            pass
        assert lock.is_file()

    def test_creates_parent_directories(self, tmp_path):
        lock = tmp_path / "deep" / "nested" / "x.lock"
        with fslock.file_lock(lock):
            assert lock.is_file()

    def test_excludes_other_processes(self, tmp_path):
        """A child process must block on the lock until we release it."""
        lock = tmp_path / "x.lock"
        stamp = tmp_path / "stamp"
        script = (
            "import sys, time\n"
            "from repro.util import fslock\n"
            f"with fslock.file_lock({str(lock)!r}):\n"
            f"    open({str(stamp)!r}, 'w').write(str(time.time()))\n"
        )
        with fslock.file_lock(lock):
            child = subprocess.Popen([sys.executable, "-c", script])
            time.sleep(0.5)
            # the child is alive but has not reached the critical section
            assert child.poll() is None
            assert not stamp.exists()
        assert child.wait(timeout=10) == 0
        assert stamp.exists()

    def test_shared_locks_do_not_exclude_each_other(self, tmp_path):
        lock = tmp_path / "s.lock"
        with fslock.file_lock(lock, shared=True):
            script = (
                "from repro.util import fslock\n"
                f"with fslock.file_lock({str(lock)!r}, shared=True):\n"
                "    pass\n"
            )
            done = subprocess.run([sys.executable, "-c", script], timeout=10)
            assert done.returncode == 0


class TestPidAlive:
    def test_own_pid(self):
        assert fslock.pid_alive(os.getpid())

    def test_dead_pid(self):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        assert not fslock.pid_alive(child.pid)

    def test_nonsense_pids(self):
        assert not fslock.pid_alive(0)
        assert not fslock.pid_alive(-5)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_unreaped_zombie_is_dead(self):
        # an exited child its parent has not waited for still answers
        # signal 0; it must not pass for a live lease holder
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        try:
            os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
            assert not fslock.pid_alive(child.pid)
        finally:
            child.wait()


class TestTmpFiles:
    def test_make_tmp_embeds_pid(self, tmp_path):
        tmp = fslock.make_tmp(tmp_path, "entry.bin")
        assert tmp.name.endswith(".tmp")
        assert fslock.tmp_pid(tmp) == os.getpid()

    def test_tmp_pid_absent(self, tmp_path):
        assert fslock.tmp_pid(tmp_path / "plain.tmp") is None

    def test_reap_removes_dead_pid_tmp(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        orphan = tmp_path / f"entry.pid{child.pid}.abc.tmp"
        orphan.write_bytes(b"partial")
        assert fslock.reap_stale_tmps(tmp_path) == 1
        assert not orphan.exists()

    def test_reap_keeps_live_pid_tmp(self, tmp_path):
        mine = fslock.make_tmp(tmp_path, "entry.bin")
        # even an "old" file survives while its creator is alive
        os.utime(mine, (time.time() - 10_000, time.time() - 10_000))
        assert fslock.reap_stale_tmps(tmp_path) == 0
        assert mine.exists()

    def test_reap_untagged_by_age(self, tmp_path):
        legacy = tmp_path / "entry.bin.xyz.tmp"
        legacy.write_bytes(b"old")
        assert fslock.reap_stale_tmps(tmp_path, max_age=3600) == 0
        os.utime(legacy, (time.time() - 7200, time.time() - 7200))
        assert fslock.reap_stale_tmps(tmp_path, max_age=3600) == 1
        assert not legacy.exists()

    def test_reap_ignores_non_tmp_files(self, tmp_path):
        keeper = tmp_path / "entry.trace"
        keeper.write_bytes(b"data")
        os.utime(keeper, (0, 0))
        assert fslock.reap_stale_tmps(tmp_path, max_age=1) == 0
        assert keeper.exists()

    def test_reap_missing_directory(self, tmp_path):
        assert fslock.reap_stale_tmps(tmp_path / "absent") == 0
