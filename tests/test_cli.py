"""The command-line interface."""

import shutil

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["analyze", "compress"])
        assert args.budget == 20_000 and args.window == 256

    @pytest.mark.parametrize("argv", [
        ["run", "li", "--backend", "fast"],
        ["figures", "--backend", "interp"],
        ["sweep", "--backend", "fast"],
    ])
    def test_no_backend_option(self, argv):
        # there is one machine; no option picks it
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "hydro2d" in out

    def test_run(self, capsys):
        assert main(["run", "li", "--budget", "500"]) == 0
        out = capsys.readouterr().out
        assert "500 dynamic instructions" in out
        assert "INT_ALU" in out

    def test_run_save_trace(self, tmp_path, capsys):
        """The file's suffix picks its format."""
        from repro.vm.tracefile import trace_file_info

        for name, fmt in (("t.jsonl.gz", "v1"), ("t.jsonl", "v1"),
                          ("t.trace", "v3")):
            path = tmp_path / name
            assert main(["run", "li", "--budget", "300",
                         "--save-trace", str(path)]) == 0
            assert f"({fmt})" in capsys.readouterr().out
            info = trace_file_info(path)
            assert (info["format"], info["instructions"]) == (fmt, 300)

    def test_analyze(self, capsys):
        assert main(["analyze", "compress", "--budget", "2000"]) == 0
        out = capsys.readouterr().out
        assert "reusable" in out
        assert "tlr_speedup" in out

    def test_rtm(self, capsys):
        assert main(["rtm", "li", "--budget", "1500", "--sizes", "512"]) == 0
        out = capsys.readouterr().out
        assert "ILR NE" in out and "invalidate" in out

    def test_damaged_cache_entry_heals(self, tmp_path, capsys, monkeypatch):
        """A cached trace whose footer opens but whose chunk does not
        decode: ``analyze`` and ``rtm`` print what they print over the
        intact entry, and the entry is rewritten intact."""
        from repro.vm import tracecache
        from repro.vm.tracev3 import CHUNK_MAGIC, TraceReader
        from repro.workloads.base import get_workload

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        name, budget = "compress", 3000
        analyze = ["analyze", name, "--budget", str(budget)]
        rtm = ["rtm", name, "--budget", str(budget), "--sizes", "512"]
        assert main(analyze) == 0  # cold: executes, tees the entry
        cold = capsys.readouterr().out
        path = tracecache.trace_path(name, 1, budget,
                                     get_workload(name).source(1))
        intact = path.read_bytes()
        assert main(rtm) == 0
        rtm_out = capsys.readouterr().out

        def damage_a_chunk():
            with TraceReader(path) as reader:
                chunk = reader.index[0]
            data = bytearray(intact)
            data[chunk.offset + len(CHUNK_MAGIC) + 8
                 + chunk.comp_bytes // 2] ^= 0xFF
            path.write_bytes(bytes(data))
            # analyze answers from its profile entry when there is one,
            # without reading the trace
            shutil.rmtree(tmp_path / "profiles", ignore_errors=True)

        for argv, expected in ((analyze, cold), (rtm, rtm_out)):
            damage_a_chunk()
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
            assert path.read_bytes() == intact

    def test_disasm(self, capsys):
        assert main(["disasm", "compress"]) == 0
        out = capsys.readouterr().out
        assert "0:" in out and "halt" in out

    def test_figures_small(self, capsys, monkeypatch):
        # shrink the suite for test speed
        import repro.cli as cli
        from repro.exp.config import ExperimentConfig

        original = cli.ExperimentConfig

        def tiny(max_instructions, **kwargs):
            return original(
                max_instructions=min(max_instructions, 1500),
                workloads=("compress", "applu"),
                **kwargs,
            )

        monkeypatch.setattr(cli, "ExperimentConfig", tiny)
        assert main(["figures", "--budget", "1500"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 8" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "li", "--budget", "800"]) == 0
        out = capsys.readouterr().out
        assert "li" in out and "bb_len" in out

    def test_obs_round_trip_after_figures(self, capsys, monkeypatch,
                                          tmp_path):
        import repro.cli as cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        original = cli.ExperimentConfig

        def tiny(max_instructions, **kwargs):
            return original(
                max_instructions=min(max_instructions, 1000),
                workloads=("li",),
                **kwargs,
            )

        monkeypatch.setattr(cli, "ExperimentConfig", tiny)
        assert main(["figures", "--budget", "1000"]) == 0
        err = capsys.readouterr().err
        assert "run manifest:" in err
        assert main(["obs", "list"]) == 0
        assert main(["obs", "show", "latest"]) == 0
        out = capsys.readouterr().out
        assert "li" in out

    def test_figures_fig9_prints_both_manifests(self, capsys, monkeypatch,
                                                tmp_path):
        """``figures --fig9`` names the figures 3-8 run's manifest and
        the Figure 9 run's, which counts its RTM simulations."""
        import pathlib

        import repro.cli as cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        original = cli.ExperimentConfig

        def tiny(max_instructions, **kwargs):
            return original(max_instructions=min(max_instructions, 1000),
                            workloads=("li",), **kwargs)

        monkeypatch.setattr(cli, "ExperimentConfig", tiny)
        assert main(["figures", "--budget", "1000", "--fig9",
                     "--fig9-budget", "1000"]) == 0
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out
        paths = [line.removeprefix("run manifest: ")
                 for line in captured.err.splitlines()
                 if line.startswith("run manifest: ")]
        assert len(paths) == 2 and paths[0] != paths[1]
        figures, fig9 = (pathlib.Path(p).read_text() for p in paths)
        assert "fig9.simulations" not in figures
        assert "fig9.simulations" in fig9

    def test_cache_info_lists_runs_layer(self, capsys, monkeypatch,
                                         tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "runs" in out


class TestNoCacheFlag:
    """--no-cache (and REPRO_TRACE_CACHE=0) must mean *zero* cache
    directory writes on every subcommand that executes kernels."""

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        return target

    def test_run(self, cache_dir, capsys):
        assert main(["run", "li", "--budget", "300", "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_analyze(self, cache_dir, capsys):
        assert main(["analyze", "li", "--budget", "500", "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_rtm(self, cache_dir, capsys):
        assert main(
            ["rtm", "li", "--budget", "800", "--sizes", "512", "--no-cache"]
        ) == 0
        assert not cache_dir.exists()

    def test_characterize(self, cache_dir, capsys):
        assert main(["characterize", "li", "--budget", "500",
                     "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_figures(self, cache_dir, capsys, monkeypatch):
        import repro.cli as cli
        from repro.exp.config import ExperimentConfig

        original = cli.ExperimentConfig

        def tiny(max_instructions, **kwargs):
            return original(
                max_instructions=min(max_instructions, 1000),
                workloads=("li",),
                **kwargs,
            )

        monkeypatch.setattr(cli, "ExperimentConfig", tiny)
        assert main(["figures", "--budget", "1000", "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_kill_switch_env(self, cache_dir, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert main(["run", "li", "--budget", "300"]) == 0
        assert main(["rtm", "li", "--budget", "500", "--sizes", "512"]) == 0
        assert main(["characterize", "li", "--budget", "500"]) == 0
        assert not cache_dir.exists()
