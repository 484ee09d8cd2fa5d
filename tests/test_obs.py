"""Telemetry registries, JSONL run manifests and the ``obs`` CLI."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import telemetry
from repro.obs.manifest import RunManifest
from test_profile_entries import _mutate


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh cache directory (manifests live under ``<it>/runs``)."""
    target = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    return target


class TestTelemetry:
    def test_counters_accumulate(self):
        reg = telemetry.Telemetry()
        reg.incr("a")
        reg.incr("a", 4)
        assert reg.snapshot()["counters"] == {"a": 5}

    def test_timers_accumulate_calls(self):
        reg = telemetry.Telemetry()
        reg.add_time("stage", 0.25)
        reg.add_time("stage", 0.75)
        snap = reg.snapshot()["timers"]["stage"]
        assert snap["seconds"] == pytest.approx(1.0)
        assert snap["calls"] == 2

    def test_time_context_manager(self):
        reg = telemetry.Telemetry()
        with reg.time("block"):
            pass
        snap = reg.snapshot()["timers"]["block"]
        assert snap["calls"] == 1 and snap["seconds"] >= 0.0

    def test_merge_folds_foreign_snapshot(self):
        a = telemetry.Telemetry()
        a.incr("x", 2)
        a.add_time("t", 1.0)
        b = telemetry.Telemetry()
        b.incr("x", 3)
        b.merge(a.snapshot())
        snap = b.snapshot()
        assert snap["counters"]["x"] == 5
        assert snap["timers"]["t"]["seconds"] == pytest.approx(1.0)

    def test_scope_isolates_and_merges_outward(self):
        outer = telemetry.current()
        before = outer.counters.get("scoped", 0)
        with obs.scope() as inner:
            obs.incr("scoped", 7)
            assert inner.snapshot()["counters"]["scoped"] == 7
            # the outer registry is untouched while the scope is open
            assert outer.counters.get("scoped", 0) == before
        assert outer.counters["scoped"] == before + 7

    def test_nested_scopes(self):
        with obs.scope() as a:
            with obs.scope() as b:
                obs.incr("deep")
                assert b.counters == {"deep": 1}
            assert a.counters == {"deep": 1}

    def test_reset(self):
        reg = telemetry.Telemetry()
        reg.incr("gone")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "timers": {}}


class TestRunManifest:
    def test_events_round_trip(self, cache_dir):
        manifest = RunManifest()
        manifest.start(("li", "gcc"), {"budget": 100})
        manifest.emit("profile_done", name="li", attempt=1, seconds=0.5)
        events = obs.read_events(manifest.path)
        assert [e["event"] for e in events] == ["run_start", "profile_done"]
        assert events[0]["workloads"] == ["li", "gcc"]
        assert all("t" in e for e in events)

    def test_truncated_final_line_tolerated(self, cache_dir):
        manifest = RunManifest()
        manifest.emit("run_start", run_id=manifest.run_id)
        manifest.emit("profile_done", name="li")
        # simulate a run killed mid-write: chop the last line in half
        raw = manifest.path.read_bytes()
        manifest.path.write_bytes(raw[: len(raw) - 20])
        events = obs.read_events(manifest.path)
        assert [e["event"] for e in events] == ["run_start"]

    def test_manifests_live_under_cache_runs(self, cache_dir):
        manifest = RunManifest()
        manifest.emit("run_start")
        assert manifest.path.parent == cache_dir / "runs"

    def test_distinct_run_ids(self, cache_dir):
        assert RunManifest().run_id != RunManifest().run_id

    def test_list_runs_sorted_and_filtered(self, cache_dir):
        for _ in range(2):
            RunManifest().emit("run_start")
        (cache_dir / "runs" / "not-a-manifest.txt").write_text("x")
        runs = obs.list_runs()
        assert len(runs) == 2
        assert all(p.name.startswith("run-") for p in runs)

    def test_find_run_latest_and_substring(self, cache_dir):
        first = RunManifest(run_id="20250101-000000-p1-1")
        first.emit("run_start")
        second = RunManifest(run_id="20250101-000000-p1-2")
        second.emit("run_start")
        assert obs.find_run("latest") == second.path
        assert obs.find_run("p1-1") == first.path
        with pytest.raises(FileNotFoundError):
            obs.find_run("nonexistent")

    def test_find_run_empty_dir(self, cache_dir):
        with pytest.raises(FileNotFoundError):
            obs.find_run("latest")


class TestManifestConcurrency:
    def test_torn_final_line_counted(self, cache_dir):
        manifest = RunManifest()
        manifest.emit("run_start", run_id=manifest.run_id)
        manifest.emit("profile_done", name="li")
        raw = manifest.path.read_bytes()
        manifest.path.write_bytes(raw[: len(raw) - 20])
        events, torn = obs.read_manifest(manifest.path)
        assert [e["event"] for e in events] == ["run_start"]
        assert torn == 1

    def test_concurrent_appends_never_tear(self, cache_dir):
        """4 processes × 50 O_APPEND events into ONE file: all parse."""
        import os
        import subprocess
        import sys

        manifest = RunManifest(run_id="shared")
        manifest.emit("run_start", run_id="shared")
        script = (
            "from repro.obs.manifest import RunManifest\n"
            "import sys\n"
            "m = RunManifest(run_id='shared')\n"
            "for i in range(50):\n"
            "    m.emit('tick', writer=sys.argv[1], i=i,\n"
            "           pad='x' * 200)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, f"p{k}"],
                env=os.environ.copy(),
            )
            for k in range(4)
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        events, torn = obs.read_manifest(manifest.path)
        assert torn == 0
        ticks = [e for e in events if e["event"] == "tick"]
        assert len(ticks) == 200
        # every writer's every event landed intact, in order per writer
        for k in range(4):
            own = [e["i"] for e in ticks if e["writer"] == f"p{k}"]
            assert own == list(range(50))


class TestManifestFamilies:
    def _family(self):
        coordinator = RunManifest(run_id="fam1")
        coordinator.start(("li",), {})
        w0 = RunManifest(run_id="fam1", worker="w0")
        w0.emit("shard_claim", name="li")
        w1 = RunManifest(run_id="fam1", worker="w1")
        w1.emit("shard_steal", name="li", attempt=2)
        w1.emit("shard_done", name="li")
        coordinator.end(ok=["li"], failed=[], resumed=[], seconds=0.1)
        return coordinator, w0, w1

    def test_group_key_strips_worker_tag(self, cache_dir):
        coordinator, w0, _ = self._family()
        assert obs.manifest.group_key(coordinator.path) == "fam1"
        assert obs.manifest.group_key(w0.path) == "fam1"

    def test_list_run_groups_coordinator_first(self, cache_dir):
        self._family()
        RunManifest(run_id="solo").emit("run_start")
        groups = dict(obs.list_run_groups())
        assert set(groups) == {"fam1", "solo"}
        fam = groups["fam1"]
        assert len(fam) == 3
        assert fam[0].name == "run-fam1.jsonl"
        assert [p.name for p in fam[1:]] == [
            "run-fam1-ww0.jsonl", "run-fam1-ww1.jsonl",
        ]

    def test_find_run_paths_resolves_family(self, cache_dir):
        self._family()
        paths = obs.find_run_paths("fam1")
        assert len(paths) == 3
        assert obs.find_run_paths("latest") == paths

    def test_merge_events_time_ordered_and_tagged(self, cache_dir):
        self._family()
        events, torn = obs.merge_events(obs.find_run_paths("fam1"))
        assert torn == 0
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"
        times = [e["t"] for e in events]
        assert times == sorted(times)
        workers = {e.get("worker") for e in events}
        assert {"w0", "w1"} <= workers

    def test_summarize_merged_family(self, cache_dir):
        self._family()
        events, _ = obs.merge_events(obs.find_run_paths("fam1"))
        summary = obs.summarize(events)
        assert summary["run_id"] == "fam1"
        assert summary["workers"] == ["w0", "w1"]
        assert summary["steals"] == 1
        assert summary["complete"] is True


class TestSummarize:
    def _events(self):
        return [
            {"event": "run_start", "run_id": "r1",
             "workloads": ["li", "gcc", "swim"]},
            {"event": "profile_start", "name": "li", "attempt": 1},
            {"event": "profile_done", "name": "li", "attempt": 1,
             "seconds": 0.4, "source": "computed",
             "telemetry": {"counters": {"trace_cache.miss": 1},
                           "timers": {"stage.trace":
                                      {"seconds": 0.3, "calls": 1}}}},
            {"event": "profile_start", "name": "gcc", "attempt": 1},
            {"event": "profile_error", "name": "gcc", "attempt": 1,
             "kind": "RuntimeError", "message": "boom", "will_retry": True},
            {"event": "retry", "name": "gcc", "attempt": 2, "backoff": 0.05},
            {"event": "profile_start", "name": "gcc", "attempt": 2},
            {"event": "profile_error", "name": "gcc", "attempt": 2,
             "kind": "RuntimeError", "message": "boom", "will_retry": False},
            {"event": "worker_crash", "in_flight": ["swim"]},
            {"event": "run_end", "ok": ["li"], "failed": ["gcc"],
             "resumed": [], "seconds": 1.5},
        ]

    def test_statuses(self):
        summary = obs.summarize(self._events())
        kernels = summary["kernels"]
        assert kernels["li"]["status"] == "ok"
        assert kernels["li"]["source"] == "computed"
        assert kernels["gcc"]["status"] == "failed"
        assert kernels["gcc"]["attempts"] == 2
        assert kernels["gcc"]["errors"] == ["RuntimeError: boom"] * 2
        assert kernels["swim"]["status"] == "missing"

    def test_totals_and_flags(self):
        summary = obs.summarize(self._events())
        assert summary["run_id"] == "r1"
        assert summary["complete"] is True
        assert summary["worker_crashes"] == 1
        assert summary["seconds"] == 1.5
        assert summary["counters"] == {"trace_cache.miss": 1}
        assert summary["timers"]["stage.trace"]["calls"] == 1

    def test_incomplete_run(self):
        summary = obs.summarize(self._events()[:3])
        assert summary["complete"] is False
        assert summary["seconds"] is None

    def test_error_then_success_is_ok(self):
        events = [
            {"event": "profile_error", "name": "li", "attempt": 1,
             "kind": "RuntimeError", "message": "flaky"},
            {"event": "profile_done", "name": "li", "attempt": 2,
             "seconds": 0.1},
        ]
        entry = obs.summarize(events)["kernels"]["li"]
        assert entry["status"] == "ok"
        assert entry["attempts"] == 2


class TestObsCli:
    def test_list_empty(self, cache_dir, capsys):
        from repro.cli import main

        assert main(["obs", "list"]) == 0
        assert "no run manifests" in capsys.readouterr().out

    def test_show_missing(self, cache_dir, capsys):
        from repro.cli import main

        assert main(["obs", "show"]) == 1
        assert "no run manifests" in capsys.readouterr().err

    def test_list_and_show(self, cache_dir, capsys):
        from repro.cli import main

        manifest = RunManifest()
        manifest.start(("li",), {"budget": 100})
        manifest.emit("profile_done", name="li", attempt=1, seconds=0.25,
                      source="computed", telemetry={"counters": {"c": 2}})
        manifest.end(ok=["li"], failed=[], resumed=[], seconds=0.3)

        assert main(["obs", "list"]) == 0
        out = capsys.readouterr().out
        assert manifest.run_id in out and "yes" in out

        assert main(["obs", "show", "latest"]) == 0
        out = capsys.readouterr().out
        assert "li" in out and "computed" in out and str(manifest.path) in out

    def test_show_failed_kernels_listed(self, cache_dir, capsys):
        from repro.cli import main

        manifest = RunManifest()
        manifest.start(("li", "gcc"), {})
        manifest.emit("profile_error", name="gcc", attempt=1,
                      kind="RuntimeError", message="boom", will_retry=False)
        manifest.end(ok=["li"], failed=["gcc"], resumed=[], seconds=0.1)
        assert main(["obs", "show"]) == 0
        out = capsys.readouterr().out
        assert "failed kernels: gcc" in out


class TestManifestFuzz:
    @pytest.fixture
    def finished_run(self, cache_dir):
        """A finished one-kernel run: (its manifest, bytes, events)."""
        manifest = RunManifest(run_id="fuzz")
        manifest.start(("li",), {"max_instructions": 600})
        manifest.emit("profile_start", name="li", attempt=1)
        manifest.emit("profile_done", name="li", attempt=1, seconds=0.25,
                      source="computed",
                      telemetry={"counters": {"profiles.computed": 1},
                                 "timers": {}})
        manifest.end(ok=["li"], failed=[], resumed=[], seconds=0.5)
        raw = manifest.path.read_bytes()
        events, torn = obs.read_manifest(manifest.path)
        assert torn == 0 and len(events) == 4
        return manifest, raw, events

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_lines_are_torn_never_different(self, finished_run,
                                                    data):
        manifest, raw, original = finished_run
        manifest.path.write_bytes(_mutate(data, raw))
        events, _ = obs.read_manifest(manifest.path)
        # what is read is the original events, in order; the rest is torn
        remaining = iter(original)
        assert all(any(event == o for o in remaining) for event in events)
        obs.summarize(events)

    def test_unsealed_line_is_read_as_it_stands(self, cache_dir):
        manifest = RunManifest(run_id="old")
        manifest.path.parent.mkdir(parents=True)
        manifest.path.write_text('{"event":"run_start","run_id":"old"}\n')
        events, torn = obs.read_manifest(manifest.path)
        assert events == [{"event": "run_start", "run_id": "old"}]
        assert torn == 0
