"""Static-mode serving, the estimate CLI, and the validation harness."""

from __future__ import annotations

import json

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.service.server import ServiceFrontend
from repro.static import validate as sv


@pytest.fixture
def frontend(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # isolate BENCH_static.json lookup
    return ServiceFrontend(ExperimentConfig(max_instructions=4_000))


class TestServeStaticMode:
    def test_static_mode_is_always_a_hot_hit(self, frontend):
        code, answer = frontend.dispatch(
            "/profile", {"workload": "li", "mode": "static"}
        )
        assert code == 200
        body = json.loads(answer)
        assert body["source"] == "static"
        assert body["profile"]["percent_reusable"] > 0.0

    def test_static_answers_are_memoised(self, frontend):
        _, first = frontend.dispatch(
            "/profile", {"workload": "li", "mode": "static"}
        )
        _, second = frontend.dispatch(
            "/profile", {"workload": "li", "mode": "static"}
        )
        assert second is first

    def test_unknown_workload_404(self, frontend):
        code, _ = frontend.dispatch(
            "/profile", {"workload": "nope", "mode": "static"}
        )
        assert code == 404

    def test_band_quoted_when_recorded(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = {
            "budget": 4_000, "window": 256, "scale": 1,
            "kernels": {"li": {"errors": {"percent_reusable": 0.03},
                               "static": {}, "dynamic": {}}},
            "families": {},
            "summary": {},
        }
        (tmp_path / "BENCH_static.json").write_text(json.dumps(report))
        frontend = ServiceFrontend(ExperimentConfig(max_instructions=4_000))
        _, answer = frontend.dispatch(
            "/profile", {"workload": "li", "mode": "static"}
        )
        body = json.loads(answer)
        assert body["error_band"] == {"percent_reusable": 0.03}

    def test_dynamic_mode_untouched(self, frontend):
        # without mode=static the cold path still enqueues
        code, body = frontend.dispatch("/profile", {"workload": "li"})
        assert code == 202
        assert body["source"] == "enqueued"


class TestEstimateCli:
    def test_estimate_command(self, capsys):
        from repro.cli import main

        assert main(["estimate", "li", "--budget", "4000"]) == 0
        out = capsys.readouterr().out
        assert "no execution" in out
        assert "base_ipc" in out


class TestValidationHarness:
    def test_bands_roundtrip_and_check(self, tmp_path):
        config = ExperimentConfig(
            max_instructions=1_500,
            workloads=("li", "compress"),
        )
        report = sv.validate_static(config, include_families=False)
        assert set(report["kernels"]) == {"li", "compress"}

        path = tmp_path / "bands.json"
        sv.write_bands(report, path)
        recorded = sv.load_bands(path)
        assert recorded is not None
        assert sv.kernel_band(recorded, "li")

        # a fresh identical report is always within its own bands
        assert sv.check_bands(report, recorded) == []

        # an error past the tolerance is flagged
        worse = json.loads(json.dumps(report))
        worse["kernels"]["li"]["errors"]["percent_reusable"] = 0.99
        problems = sv.check_bands(worse, recorded)
        assert any("li.percent_reusable" in p for p in problems)

    def test_load_bands_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert sv.load_bands(path) is None
        path.write_text('{"no": "kernels"}')
        assert sv.load_bands(path) is None
        assert sv.load_bands(tmp_path / "absent.json") is None
