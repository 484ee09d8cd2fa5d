"""Tests of the benchmark itself: ``python -m pytest bench/``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from harness import (
    BENCH_DIR,
    ROOT,
    Spans,
    SpanStream,
    golden_mismatches,
    load_golden,
    percentile,
    require_program,
    tail,
)

require_program()


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50.5
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 100
    assert percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_picks_highest_level_with_ten_samples_beyond():
    assert tail(list(range(1000)))["level"] == 99.0
    assert tail(list(range(10000)))["level"] == 99.9
    small = tail(list(range(20)))
    assert (small["level"], small["samples"], small["beyond"]) == (50.0, 20, 10)
    assert tail(list(range(5)))["level"] is None


def test_golden_check_catches_a_one_ulp_perturbation(tmp_path):
    import batch

    key = batch.golden_key("profile_cold", 20_000)
    golden = load_golden()
    config = batch.make_config(
        batch.WORKLOADS["profile_cold"].config_fields(["compress"], 20_000))
    rnd = batch.run_round(config, tmp_path / "cache")
    assert golden_mismatches(golden, key, rnd.profiles) == []

    perturbed = json.loads(json.dumps(rnd.profiles))
    ipc = perturbed["compress"]["base_ipc_inf"]
    perturbed["compress"]["base_ipc_inf"] = math.nextafter(ipc, math.inf)
    assert golden_mismatches(golden, key, perturbed) == ["compress"]


def test_span_stream_yields_the_same_chunks():
    from repro.vm.backends import create_machine
    from repro.vm.trace import trace_identical
    from repro.vm.tracestream import ExecutionChunkStream
    from repro.workloads.base import build_program

    def stream():
        return ExecutionChunkStream(
            lambda: create_machine(build_program("li")),
            program_name="li", max_instructions=20_000, chunk_size=3_000)

    plain = list(stream().chunks())
    spans = Spans()
    proxy = SpanStream(stream(), spans)
    proxied = list(proxy.chunks())
    assert len(proxied) == len(plain) == 7
    assert all(trace_identical(a, b) for a, b in zip(plain, proxied))
    # one span per chunk plus the step that ends the stream
    assert spans.count("producer") == len(plain) + 1
    assert proxy.count == 20_000 and proxy.program_name == "li"


def test_spans_self_time_excludes_children():
    spans = Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            sum(range(10_000))
    assert spans.self_time("outer") == pytest.approx(
        spans.total("outer") - spans.total("inner"))
    assert spans.top_level_total() == spans.total("outer")


def test_smoke_run_emits_every_metric_of_the_benchmark():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = results[f"{workload}/trace0"]
        traced = results[f"{workload}/trace1"]
        for line, names in ((untraced, e2e), (traced, layers)):
            assert line["correct"] and line["failed"] == 0
            assert line["attempted"] >= 1
            assert list(line["metrics"]) == names
            assert all(m["value"] > 0 for m in line["metrics"].values()
                       if names is e2e)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "profile_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
