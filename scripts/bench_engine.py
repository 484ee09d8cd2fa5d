#!/usr/bin/env python
"""Engine smoke benchmark: writes ``BENCH_engine.json``.

Measures the three layers of a profile run, against the retained
per-scenario reference pipeline:

- ``machine_run``: raw VM throughput (instr/s) of both execution
  backends — the ``Machine`` interpreter and the trace-compiling
  ``FastMachine`` — at the paper-scale instruction budget, plus the
  per-kernel and aggregate speed-ups and a bit-identity check (run at
  a smaller ``verify_budget`` so the differential comparison does not
  hold two paper-scale traces in memory at once).  Each timing is the
  best of two runs, each in a fresh process, so one kernel's heap does
  not pollute the next measurement and scheduler noise is rejected;
- ``streaming_engine``: scenario throughput (scenarios/s) of
  ``StreamingDataflowEngine`` over the figure-3..8 scenario set
  (``repro.exp.runner.profile_scenarios``), split into the
  scenario-independent ``shared_seconds`` (an ``analyze_all([])``
  drain) and ``fold_seconds_per_scenario``, with a bit-identity check
  against the per-scenario ``DataflowModel`` oracle;
- ``collect_profiles``: wall-clock of a full 14-kernel profile
  collection — the per-scenario oracle pipeline
  (``run_profile_reference``), a cold run (empty cache), and a warm
  run (cache hit) — plus the cold/warm speed-ups and a bit-identical
  check of the profiles.

With ``--tracev3`` the script instead benchmarks the streaming trace
pipeline and writes ``BENCH_tracev3.json``:

- ``codec``: v3 write/read throughput (instr/s) and compression stats
  at the paper-scale ``--trace-budget`` — execution streams through
  the incremental ``TraceWriter``, so this path never materializes
  the trace — plus the on-disk ratio against a v2 (pickled columnar)
  encoding of the same trace;
- per-kernel ``columns``: a per-column decode micro-benchmark —
  encoded size, share and decode wall time of every v3 section (the
  breakdown that located the tomcatv value-column decode anomaly);
- ``engine``: ``StreamingDataflowEngine`` scenario throughput over
  the figure-3..8 scenario set at ``--budget``, draining a v3 file,
  with a bit-identity check of every ``TimingResult`` against the
  per-scenario ``DataflowModel`` oracle;
- exits non-zero when bit-identity fails, when the v3-vs-v2
  compression ratio drops below the 4x floor on any kernel, or when
  the slowest kernel decodes more than 3x slower than the fastest
  (the tomcatv-anomaly regression gate).

With ``--coldpath`` the script benchmarks the cold execute→analyze
path end to end and writes ``BENCH_coldpath.json``: per kernel, pure
execution wall time (fresh-process best-of-2), execute+encode wall
time (the incremental v3 writer), and the tee'd cold run
(execute+encode+analyze in one drain, cache entry persisted), plus
identity checks at ``--verify-budget``: a cold ``run_profile``
through the tee must equal ``run_profile_reference``, and its cache
entry must be byte-identical to a ``write_stream`` file of the same
execution.  Ratio gates keep it machine-independent: encode overhead
(write/exec wall) must stay under 3x and every identity check must
hold.

The committed ``BENCH_*.json`` files may still carry keys from
engines and cold paths that no longer exist (``fused_engine``,
``materialized_*``, ``streaming_overhead``); those numbers are
historical and are replaced on the next regeneration.

Usage::

    PYTHONPATH=src python scripts/bench_engine.py [--budget N] \
        [--machine-budget N] [--output PATH]
    PYTHONPATH=src python scripts/bench_engine.py --tracev3 \
        [--budget N] [--trace-budget N] [--output PATH]

``REPRO_BENCH_BUDGET`` / ``REPRO_BENCH_MACHINE_BUDGET`` also set the
budgets (flags win).  ``--budget`` drives the engine and profile
benches; ``--machine-budget`` drives the backend throughput bench and
defaults to the paper's 50M-instruction scale.  The cache
measurements use a throwaway directory, so the run neither reads nor
pollutes ``.repro-cache/``.

The script exits non-zero when the fast backend fails bit-identity,
when it is *slower* than the interpreter, when the streaming engine
disagrees with the oracle, or when profile collection regresses — so
a CI hook-up fails loudly instead of silently shipping a slow or
wrong backend.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.ilr import (  # noqa: E402
    ilr_reuse_plan,
    instruction_reusability,
)
from repro.core.reuse_tlr import (  # noqa: E402
    ConstantReuseLatency,
    ProportionalReuseLatency,
    tlr_reuse_plan,
)
from repro.core.traces import maximal_reusable_spans  # noqa: E402
from repro.dataflow.model import DataflowModel, Scenario  # noqa: E402
from repro.dataflow.streaming import StreamingDataflowEngine  # noqa: E402
from repro.exp.config import ExperimentConfig  # noqa: E402
from repro.exp.runner import (  # noqa: E402
    profile_scenarios,
    run_profile,
    run_profile_reference,
)
from repro.workloads.base import build_program, run_workload  # noqa: E402
from repro.vm.fastmachine import FastMachine  # noqa: E402
from repro.vm.machine import Machine  # noqa: E402
from repro.vm.trace import trace_identical  # noqa: E402
from repro.vm.tracestream import (  # noqa: E402
    ExecutionChunkStream,
    FileTraceStream,
    write_stream,
)


def oracle_results(trace, scenarios: list[Scenario]) -> list:
    """Every scenario through its own ``DataflowModel.analyze`` scan
    with a materialized reuse plan — the independent oracle the
    streaming engine must match bit for bit."""
    flags = instruction_reusability(trace).flags
    spans = maximal_reusable_spans(trace, flags)
    results = []
    for sc in scenarios:
        if sc.kind == "base":
            plan = None
        elif sc.kind == "ilr":
            plan = ilr_reuse_plan(trace, flags, sc.latency)
        else:
            latency = (ProportionalReuseLatency(sc.k) if sc.k is not None
                       else ConstantReuseLatency(sc.latency))
            plan = tlr_reuse_plan(trace, spans, latency,
                                  fetch_free=sc.fetch_free)
        results.append(DataflowModel(sc.window_size).analyze(trace, plan))
    return results


_RUN_SNIPPET = """\
import sys, time
from repro.workloads.base import build_program
from repro.vm.backends import create_machine
machine = create_machine(build_program(sys.argv[2]), sys.argv[1])
start = time.perf_counter()
trace = machine.run(max_instructions=int(sys.argv[3]))
print(len(trace), time.perf_counter() - start)
"""


def _timed_run(backend: str, name: str, budget: int,
               repeats: int = 2) -> tuple[int, float]:
    """Best-of-N wall clock of one backend run, each in a fresh process.

    Process isolation keeps one measurement's heap from polluting the
    next: a retired paper-scale trace leaves the allocator arenas
    fragmented even after it is freed, which costs the *following*
    kernel 10-20% (measured: tomcatv's 50M fast run takes 15.7s after
    compress's in the same process, 13.0s in a fresh one).  Taking the
    minimum of two runs rejects scheduler noise on shared boxes — the
    minimum is the least-disturbed observation of a deterministic
    workload.
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    n = None
    best = float("inf")
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_SNIPPET, backend, name, str(budget)],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{backend}/{name} benchmark process failed:\n{proc.stderr}")
        count_s, elapsed_s = proc.stdout.split()
        count, elapsed = int(count_s), float(elapsed_s)
        assert n is None or n == count, f"{backend}/{name}: {n} vs {count}"
        n = count
        best = min(best, elapsed)
    return n, best


def bench_machine_run(budget: int, verify_budget: int) -> dict:
    kernels = ("compress", "tomcatv", "go")
    per_kernel = {}
    interp_total = fast_total = 0.0
    total_instr = 0
    identical = True
    for name in kernels:
        ni, ti = _timed_run("interp", name, budget)
        nf, tf = _timed_run("fast", name, budget)
        assert ni == nf, f"{name}: backends retired {ni} vs {nf} instructions"
        interp_total += ti
        fast_total += tf
        total_instr += ni
        per_kernel[name] = {
            "instructions": ni,
            "interp_seconds": round(ti, 4),
            "fast_seconds": round(tf, 4),
            "interp_instr_per_sec": round(ni / ti),
            "fast_instr_per_sec": round(nf / tf),
            "speedup": round(ti / tf, 2),
        }
        # differential oracle at a budget small enough to hold both
        # traces in memory at once
        a = Machine(build_program(name)).run(max_instructions=verify_budget)
        b = FastMachine(build_program(name)).run(max_instructions=verify_budget)
        identical = identical and trace_identical(a, b)
        del a, b
        gc.collect()
    return {
        "kernels": list(kernels),
        "budget": budget,
        "verify_budget": verify_budget,
        "protocol": "best-of-2, fresh process per measurement",
        "instructions": total_instr,
        "interp_seconds": round(interp_total, 4),
        "fast_seconds": round(fast_total, 4),
        "interp_instr_per_sec": round(total_instr / interp_total),
        "fast_instr_per_sec": round(total_instr / fast_total),
        "speedup": round(interp_total / fast_total, 2),
        "bit_identical": identical,
        "per_kernel": per_kernel,
    }


def bench_streaming_engine(budget: int, config: ExperimentConfig) -> dict:
    """One full-profile drain, split into the scenario-independent part
    (an ``analyze_all([])`` drain: reusability history, spans, block
    precompute) and the multi-scenario fold on top of it."""
    trace = run_workload("compress", max_instructions=budget, use_cache=False)
    scens = profile_scenarios(config)
    # the first drain also compiles the scenario list's fold (once per
    # process); time the drains after it
    results = StreamingDataflowEngine(trace).analyze_all(scens)
    start = time.perf_counter()
    StreamingDataflowEngine(trace).analyze_all([])
    shared = time.perf_counter() - start
    start = time.perf_counter()
    StreamingDataflowEngine(trace).analyze_all(scens)
    elapsed = time.perf_counter() - start
    return {
        "kernel": "compress",
        "instructions": len(trace),
        "scenarios": len(scens),
        "seconds": round(elapsed, 4),
        "shared_seconds": round(shared, 4),
        "fold_seconds_per_scenario": round(
            max(elapsed - shared, 0.0) / len(scens), 5),
        "scenarios_per_sec": round(len(scens) / elapsed, 1),
        "bit_identical": results == oracle_results(trace, scens),
    }


def bench_collect_profiles(budget: int) -> dict:
    from repro.exp.runner import collect_profiles

    cold_config = ExperimentConfig(max_instructions=budget, max_workers=1)

    start = time.perf_counter()
    baseline_profiles = [
        run_profile_reference(name, cold_config)
        for name in cold_config.workloads
    ]
    baseline = time.perf_counter() - start

    start = time.perf_counter()
    cold_profiles = collect_profiles(cold_config)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    warm_profiles = collect_profiles(cold_config)
    warm = time.perf_counter() - start

    return {
        "workloads": len(cold_config.workloads),
        "baseline_seconds": round(baseline, 4),
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "cold_speedup": round(baseline / cold, 2),
        "warm_speedup": round(baseline / warm, 1),
        "bit_identical": (
            baseline_profiles == cold_profiles == warm_profiles
        ),
    }


class _CountingSink:
    """A write-only file object that just counts bytes (v2 sizing
    without touching disk)."""

    def __init__(self) -> None:
        self.count = 0

    def write(self, data) -> int:
        self.count += len(data)
        return len(data)


def bench_tracev3(trace_budget: int, engine_budget: int,
                  config: ExperimentConfig, tmpdir: str) -> dict:
    """Streaming trace pipeline benchmark (``--tracev3``)."""
    import pickle

    from repro.vm.trace import as_columnar
    from repro.vm.tracev3 import trace_v3_info, write_v3

    tmp = pathlib.Path(tmpdir)
    kernels = ("compress", "tomcatv", "go")
    per_kernel = {}
    min_ratio_vs_v2 = float("inf")
    for name in kernels:
        path = tmp / f"{name}.trace"
        stream = ExecutionChunkStream(
            lambda name=name: FastMachine(build_program(name)),
            program_name=name,
            max_instructions=trace_budget,
        )
        start = time.perf_counter()
        n = write_stream(stream, path)
        write_s = time.perf_counter() - start

        reader = FileTraceStream(path)
        start = time.perf_counter()
        read_n = sum(len(chunk) for chunk in reader.chunks())
        read_s = time.perf_counter() - start
        assert read_n == n, f"{name}: wrote {n}, read back {read_n}"

        info = trace_v3_info(path, columns=True)
        v3_bytes = info["file_bytes"]
        total_enc = sum(
            c["encoded_bytes"] for c in info["columns"].values()) or 1
        columns = {
            col: {
                "encoded_bytes": c["encoded_bytes"],
                "share": round(c["encoded_bytes"] / total_enc, 4),
                "decode_seconds": round(c["decode_seconds"], 4),
                "modes": c["modes"],
            }
            for col, c in sorted(info["columns"].items(),
                                 key=lambda kv: -kv[1]["encoded_bytes"])
        }

        # v2 size of the same trace: pickle the materialized columnar
        # layout into a counting sink (no disk, freed immediately)
        trace = FastMachine(build_program(name)).run(
            max_instructions=trace_budget
        )
        sink = _CountingSink()
        pickle.dump(as_columnar(trace), sink,
                    protocol=pickle.HIGHEST_PROTOCOL)
        del trace
        gc.collect()
        v2_bytes = sink.count
        ratio_vs_v2 = v2_bytes / v3_bytes
        min_ratio_vs_v2 = min(min_ratio_vs_v2, ratio_vs_v2)
        per_kernel[name] = {
            "instructions": n,
            "write_seconds": round(write_s, 4),
            "write_instr_per_sec": round(n / write_s),
            "read_seconds": round(read_s, 4),
            "read_instr_per_sec": round(n / read_s),
            "chunks": info["chunk_count"],
            "v3_bytes": v3_bytes,
            "v2_bytes": v2_bytes,
            "bytes_per_instruction": round(v3_bytes / n, 3),
            "chunk_compression_ratio": round(info["compression_ratio"], 2),
            "ratio_vs_v2": round(ratio_vs_v2, 2),
            "columns": columns,
        }
        path.unlink()

    reads = [per_kernel[k]["read_instr_per_sec"] for k in kernels]
    decode_balance = max(reads) / min(reads)

    # streaming engine throughput (v3 decode included, as on a cache
    # hit) + bit-identity against the per-scenario oracle
    trace = run_workload("compress", max_instructions=engine_budget,
                         use_cache=False)
    scens = profile_scenarios(config)
    expected = oracle_results(trace, scens)
    engine_path = tmp / "engine.trace"
    write_v3(trace, engine_path)
    del trace
    gc.collect()
    start = time.perf_counter()
    streaming = StreamingDataflowEngine(FileTraceStream(engine_path))
    stream_results = streaming.analyze_all(scens)
    stream_s = time.perf_counter() - start
    engine_path.unlink()

    return {
        "kernels": list(kernels),
        "trace_budget": trace_budget,
        "codec": per_kernel,
        "min_ratio_vs_v2": round(min_ratio_vs_v2, 2),
        "decode_balance": round(decode_balance, 2),
        "engine": {
            "kernel": "compress",
            "instructions": engine_budget,
            "scenarios": len(scens),
            "streaming_seconds": round(stream_s, 4),
            "streaming_scenarios_per_sec": round(len(scens) / stream_s, 1),
            "bit_identical": stream_results == expected,
        },
    }


#: The cold-path scenario subset: one representative of each fold
#: family.  The full 24-scenario figure sweep is analysis-bound at any
#: budget (24 folds dwarf one execution), so the cold-path question —
#: "does the codec keep up with the machine?" — is asked with a
#: bounded analysis instead.
COLDPATH_SCENARIOS = [
    Scenario("base", window_size=None),
    Scenario("ilr", window_size=None, latency=1.0),
    Scenario("tlr", window_size=256, latency=1.0),
]


def bench_coldpath(trace_budget: int, verify_budget: int,
                   tmpdir: str) -> dict:
    """Cold execute→analyze benchmark (``--coldpath``)."""
    from repro.workloads.base import stream_workload

    tmp = pathlib.Path(tmpdir)
    kernels = ("compress", "tomcatv", "go")
    # the cold-path scenario families at the verify budget, through the
    # whole profile pipeline (one latency, no proportional-K family)
    verify_config = ExperimentConfig(
        max_instructions=verify_budget, backend="fast",
        reuse_latencies=(1,), proportional_ks=())
    per_kernel = {}
    all_identical = True
    max_encode_overhead = 0.0
    for name in kernels:
        # leg 1: pure execution (fresh-process best-of-2)
        n, exec_s = _timed_run("fast", name, trace_budget)

        # leg 2: execute + encode through the incremental writer
        path = tmp / f"{name}.coldpath.trace"
        stream = ExecutionChunkStream(
            lambda name=name: FastMachine(build_program(name)),
            program_name=name, max_instructions=trace_budget)
        start = time.perf_counter()
        wrote = write_stream(stream, path)
        write_s = time.perf_counter() - start
        path.unlink()
        assert wrote == n, f"{name}: executed {n}, wrote {wrote}"

        # leg 3: the tee'd cold run — execute + encode + analyze in
        # one drain, cache entry persisted as a side effect
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "cold" / name)
        start = time.perf_counter()
        tee = stream_workload(name, max_instructions=trace_budget,
                              backend="fast")
        engine = StreamingDataflowEngine(tee)
        engine.analyze_all(COLDPATH_SCENARIOS)
        cold_s = time.perf_counter() - start
        persisted = bool(getattr(tee, "persisted", False))

        # identity: a cold profile through the tee == the per-scenario
        # oracle, and the tee'd cache entry is the same bytes as a
        # file written straight from an execution stream
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "verify" / name)
        profile_ok = (run_profile(name, verify_config)
                      == run_profile_reference(name, verify_config))
        (entry,) = (tmp / "verify" / name / "traces").glob("*.trace")
        written = tmp / f"{name}.verify.trace"
        write_stream(ExecutionChunkStream(
            lambda name=name: FastMachine(build_program(name)),
            program_name=name, max_instructions=verify_budget,
        ), written)
        identical = profile_ok and entry.read_bytes() == written.read_bytes()
        written.unlink()
        gc.collect()
        all_identical = all_identical and identical and persisted

        encode_overhead = write_s / exec_s
        max_encode_overhead = max(max_encode_overhead, encode_overhead)
        per_kernel[name] = {
            "instructions": n,
            "exec_seconds": round(exec_s, 4),
            "exec_instr_per_sec": round(n / exec_s),
            "write_seconds": round(write_s, 4),
            "write_instr_per_sec": round(n / write_s),
            "cold_seconds": round(cold_s, 4),
            "cold_instr_per_sec": round(n / cold_s),
            "encode_overhead_vs_exec": round(encode_overhead, 3),
            "cold_vs_exec": round(cold_s / exec_s, 3),
            "analyze_seconds": round(cold_s - write_s, 4),
            "bit_identical": identical,
            "tee_persisted": persisted,
        }

    return {
        "kernels": list(kernels),
        "trace_budget": trace_budget,
        "verify_budget": verify_budget,
        "scenarios": len(COLDPATH_SCENARIOS),
        "codec_threads": _codec_threads(),
        "protocol": ("exec: best-of-2 fresh process; write/cold: one "
                     "in-process run each"),
        "per_kernel": per_kernel,
        "max_encode_overhead_vs_exec": round(max_encode_overhead, 3),
        "bit_identical": all_identical,
    }


def _codec_threads() -> int:
    from repro.vm.tracev3 import codec_threads

    return codec_threads()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget", type=int,
        default=int(os.environ.get("REPRO_BENCH_BUDGET", "40000")),
        help="dynamic instruction budget per kernel for the engine and "
             "profile benches (default 40000)",
    )
    parser.add_argument(
        "--machine-budget", type=int,
        default=int(os.environ.get("REPRO_BENCH_MACHINE_BUDGET",
                                   "50000000")),
        help="instruction budget per kernel for the backend throughput "
             "bench (default 50M, the paper scale)",
    )
    parser.add_argument(
        "--verify-budget", type=int,
        default=int(os.environ.get("REPRO_BENCH_VERIFY_BUDGET",
                                   "1000000")),
        help="budget for the backend bit-identity check (default 1M)",
    )
    parser.add_argument(
        "--tracev3", action="store_true",
        help="benchmark the streaming trace pipeline instead "
             "(writes BENCH_tracev3.json)",
    )
    parser.add_argument(
        "--coldpath", action="store_true",
        help="benchmark the cold execute→analyze path instead "
             "(writes BENCH_coldpath.json)",
    )
    parser.add_argument(
        "--trace-budget", type=int,
        default=int(os.environ.get("REPRO_BENCH_TRACE_BUDGET",
                                   "50000000")),
        help="instruction budget per kernel for the v3 codec bench "
             "(default 50M, the paper scale)",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON report (default "
             "BENCH_engine.json, or BENCH_tracev3.json with --tracev3)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        if args.coldpath:
            args.output = "BENCH_coldpath.json"
        elif args.tracev3:
            args.output = "BENCH_tracev3.json"
        else:
            args.output = "BENCH_engine.json"

    if args.coldpath:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            os.environ["REPRO_CACHE_DIR"] = tmp
            report = {
                "coldpath": bench_coldpath(
                    args.trace_budget,
                    min(args.verify_budget, 200_000),
                    tmp,
                ),
            }
        out = pathlib.Path(args.output)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        print(f"\nwritten to {out}", file=sys.stderr)
        cp = report["coldpath"]
        ok = True
        if not cp["bit_identical"]:
            print("FAIL: the tee'd cold path disagrees with the oracle "
                  "profile or the written trace bytes", file=sys.stderr)
            ok = False
        if cp["max_encode_overhead_vs_exec"] > 3.0:
            print(f"FAIL: encoding overhead exceeds 3x pure execution "
                  f"({cp['max_encode_overhead_vs_exec']}x)", file=sys.stderr)
            ok = False
        return 0 if ok else 1

    if args.tracev3:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            os.environ["REPRO_CACHE_DIR"] = tmp
            report = {
                "budget": args.budget,
                "tracev3": bench_tracev3(
                    args.trace_budget, args.budget,
                    ExperimentConfig(max_instructions=args.budget), tmp,
                ),
            }
        out = pathlib.Path(args.output)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        print(f"\nwritten to {out}", file=sys.stderr)
        tv = report["tracev3"]
        ok = True
        if not tv["engine"]["bit_identical"]:
            print("FAIL: streaming engine results are not bit-identical "
                  "to the per-scenario oracle", file=sys.stderr)
            ok = False
        if tv["min_ratio_vs_v2"] < 4.0:
            print(f"FAIL: v3 compression ratio vs v2 fell below the 4x "
                  f"floor ({tv['min_ratio_vs_v2']}x)", file=sys.stderr)
            ok = False
        if tv["decode_balance"] > 3.0:
            print(f"FAIL: slowest kernel decodes {tv['decode_balance']}x "
                  f"slower than the fastest (tomcatv-anomaly gate is 3x)",
                  file=sys.stderr)
            ok = False
        return 0 if ok else 1

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        report = {
            "budget": args.budget,
            "machine_run": bench_machine_run(
                args.machine_budget, args.verify_budget
            ),
            "streaming_engine": bench_streaming_engine(
                args.budget, ExperimentConfig(max_instructions=args.budget)
            ),
            "collect_profiles": bench_collect_profiles(args.budget),
        }

    out = pathlib.Path(args.output)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {out}", file=sys.stderr)

    ok = True
    mr = report["machine_run"]
    if not mr["bit_identical"]:
        print("FAIL: fast backend traces are not bit-identical",
              file=sys.stderr)
        ok = False
    if mr["speedup"] < 1.0:
        print(f"FAIL: fast backend is slower than the interpreter "
              f"({mr['speedup']}x)", file=sys.stderr)
        ok = False
    if not report["streaming_engine"]["bit_identical"]:
        print("FAIL: streaming engine results are not bit-identical "
              "to the per-scenario oracle", file=sys.stderr)
        ok = False
    cp = report["collect_profiles"]
    if not (cp["bit_identical"] and cp["cold_speedup"] >= 1.0):
        print("FAIL: profile collection regressed", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
