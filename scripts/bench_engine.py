#!/usr/bin/env python
"""Engine smoke benchmark: writes ``BENCH_engine.json``.

Measures the three layers of a profile run, against the retained
per-scenario reference pipeline:

- ``machine_run``: raw VM throughput (instr/s) of the tiered
  ``Machine`` against its tier 0 alone (nothing compiled) at the
  paper-scale instruction budget, plus the per-kernel and aggregate
  speed-ups and a tier-1-vs-tier-0 bit-identity check (run at a
  smaller ``verify_budget`` so the comparison does not hold two
  paper-scale traces in memory at once).  Its ``tiering`` section
  holds the ratio gates of :data:`TIER_GATES` over all 14 kernels.
  Each timing is the best of two runs, each in a fresh process, so one
  measurement's heap does not pollute the next and scheduler noise is
  rejected;
- ``streaming_engine``: scenario throughput (scenarios/s) of
  ``StreamingDataflowEngine`` over the figure-3..8 scenario set
  (``repro.exp.runner.profile_scenarios``), split into the
  scenario-independent ``shared_seconds`` (an ``analyze_all([])``
  drain) and ``fold_seconds_per_scenario``, with a bit-identity check
  against the per-scenario ``DataflowModel`` oracle.  Its ``folds``
  section forces each of the engine's two folds (generated and level)
  for compress and li at 6 and 24 scenarios, and runs the cost rule:
  fold ns per instruction per scenario, level count and mean width,
  the rule's pick, and each fold's bit-identity; it fails when a fold
  is not bit-identical or when the rule's 24-scenario pick is slower
  than the generated fold in the same run.  Its
  ``scale_curve`` holds, for compress and li at 5x, 25x and 125x
  ``--budget`` (200k, 1M and 5M by default), the ns per instruction of
  the signature history alone (``signature_flags``), of the shared part
  (``analyze_all([])``) and of the 6-scenario ``repro analyze`` set,
  each drained from a v3 file decoded serially with decode time
  excluded.  It gates that the history's cost per instruction grows
  by at most :data:`CURVE_FLATNESS` from the smallest budget to the
  largest; the shared part's growth is recorded, not gated;
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
  the trace — plus the on-disk ratio against the retired v2 encoding
  (the pickled columnar trace, sized here by pickling into a byte
  counter) of the same trace;
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
benches; ``--machine-budget`` drives the machine throughput bench and
defaults to the paper's 50M-instruction scale.  The cache
measurements use a throwaway directory, so the run neither reads nor
pollutes ``.repro-cache/``.

The script exits non-zero when tier 1 fails bit-identity against tier
0, when the tiered machine is *slower* than tier 0 alone at
``--machine-budget``, when a tiering gate fails, when the streaming
engine disagrees with the oracle, when the signature history's scale
curve is not flat, or when profile collection regresses — so a CI
hook-up fails loudly instead of silently shipping a slow or wrong
machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from statistics import median
from types import SimpleNamespace
from unittest import mock

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.ilr import (  # noqa: E402
    ilr_reuse_plan,
    instruction_reusability,
    signature_flags,
)
from repro.core.reuse_tlr import (  # noqa: E402
    ConstantReuseLatency,
    ProportionalReuseLatency,
    tlr_reuse_plan,
)
from repro.core.traces import maximal_reusable_spans  # noqa: E402
from repro.dataflow.model import DataflowModel, Scenario  # noqa: E402
from repro.dataflow import streaming  # noqa: E402
from repro.dataflow.streaming import StreamingDataflowEngine  # noqa: E402
from repro.exp.config import ExperimentConfig  # noqa: E402
from repro.exp.runner import (  # noqa: E402
    profile_scenarios,
    run_profile,
    run_profile_reference,
)
from repro.workloads.base import (  # noqa: E402
    all_workloads,
    build_program,
    run_workload,
)
from repro.vm import machine  # noqa: E402
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
from repro.vm import machine
from repro.vm.tracestream import run_chunks
mode, how, budget, rounds = sys.argv[1:3] + [int(a) for a in sys.argv[3:5]]
if mode == "tier0":
    machine.COMPILE_BAR = sys.maxsize  # nothing ever compiles
programs = [build_program(name) for name in sys.argv[5:]]
start = time.perf_counter()
count = 0
for _ in range(rounds):
    for program in programs:
        m = machine.Machine(program)
        if how == "chunked":
            for segment in run_chunks(m, budget):
                count += len(segment)
        else:
            count += len(m.run(budget))
print(count, time.perf_counter() - start)
"""


def _timed_run(mode: str, names, budget: int, how: str = "chunked",
               repeats: int = 2, rounds: int = 1) -> tuple[int, float]:
    """Best-of-N wall clock of the machine running each of ``names``
    (one fresh machine per kernel, ``rounds`` times over) at
    ``budget``, each repeat in a fresh process.  ``mode`` is
    ``"tiered"`` (production) or ``"tier0"`` (nothing compiles);
    ``how`` is ``"chunked"`` (``run_chunks``, O(chunk) memory) or
    ``"single"`` (one ``run()``).

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
    label = f"{mode}/{how}/{'+'.join(names)}@{budget}"
    n = None
    best = float("inf")
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_SNIPPET, mode, how, str(budget),
             str(rounds), *names],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{label} benchmark process failed:\n{proc.stderr}")
        count_s, elapsed_s = proc.stdout.split()
        count, elapsed = int(count_s), float(elapsed_s)
        assert n is None or n == count, f"{label}: {n} vs {count}"
        n = count
        best = min(best, elapsed)
    return n, best


#: The tiering gates, each a ratio of two timings of the same kernels
#: in one run: ``(name, budget, rounds, numerator, denominator, bound,
#: sense)`` with ``(mode, how)`` legs.  At 2k nothing should compile
#: that does not pay, so the tiered machine stays within 1.1x of tier
#: 0 alone (20 rounds, so each leg times ~0.5M instructions instead of
#: a noise-sized 30 ms); at 1M compiled blocks must make it at least
#: 2x faster; and splitting a 1M run into chunks must cost under 1.1x
#: one ``run()``.
TIER_GATES = (
    ("short_run_overhead", 2_000, 20, ("tiered", "chunked"),
     ("tier0", "chunked"), 1.1, "max"),
    ("long_run_speedup", 1_000_000, 1, ("tier0", "chunked"),
     ("tiered", "chunked"), 2.0, "min"),
    ("chunking_overhead", 1_000_000, 1, ("tiered", "chunked"),
     ("tiered", "single"), 1.1, "max"),
)


def bench_tier_gates() -> dict:
    """Every tiering gate over all kernels; see :data:`TIER_GATES`."""
    names = [w.name for w in all_workloads()]
    gates = {}
    for gate, budget, rounds, num, den, bound, sense in TIER_GATES:
        n, num_s = _timed_run(num[0], names, budget, how=num[1],
                              repeats=3, rounds=rounds)
        n_den, den_s = _timed_run(den[0], names, budget, how=den[1],
                                  repeats=3, rounds=rounds)
        assert n == n_den, f"{gate}: legs retired {n} vs {n_den}"
        ratio = num_s / den_s
        gates[gate] = {
            "budget": budget,
            "rounds": rounds,
            "instructions": n,
            f"{num[0]}_{num[1]}_seconds": round(num_s, 4),
            f"{den[0]}_{den[1]}_seconds": round(den_s, 4),
            "ratio": round(ratio, 3),
            "bound": bound,
            "sense": sense,
            "ok": ratio <= bound if sense == "max" else ratio >= bound,
        }
    return {
        "kernels": len(names),
        "protocol": "best-of-3, fresh process per leg, all kernels in "
                    "one process",
        "gates": gates,
        "ok": all(g["ok"] for g in gates.values()),
    }


def bench_machine_run(budget: int, verify_budget: int) -> dict:
    kernels = ("compress", "tomcatv", "go")
    per_kernel = {}
    tier0_total = tiered_total = 0.0
    total_instr = 0
    identical = True
    for name in kernels:
        n0, t0 = _timed_run("tier0", [name], budget)
        n1, t1 = _timed_run("tiered", [name], budget)
        assert n0 == n1, f"{name}: tiers retired {n0} vs {n1} instructions"
        tier0_total += t0
        tiered_total += t1
        total_instr += n0
        per_kernel[name] = {
            "instructions": n0,
            "tier0_seconds": round(t0, 4),
            "tiered_seconds": round(t1, 4),
            "tier0_instr_per_sec": round(n0 / t0),
            "tiered_instr_per_sec": round(n1 / t1),
            "speedup": round(t0 / t1, 2),
        }
        # tier 1 against tier 0 at a budget small enough to hold both
        # traces in memory at once
        with mock.patch.object(machine, "COMPILE_BAR", sys.maxsize):
            a = Machine(build_program(name)).run(
                max_instructions=verify_budget)
        b = Machine(build_program(name)).run(max_instructions=verify_budget)
        identical = identical and trace_identical(a, b)
        del a, b
        gc.collect()
    return {
        "kernels": list(kernels),
        "budget": budget,
        "verify_budget": verify_budget,
        "protocol": "best-of-2 chunked runs, fresh process per measurement",
        "instructions": total_instr,
        "tier0_seconds": round(tier0_total, 4),
        "tiered_seconds": round(tiered_total, 4),
        "tier0_instr_per_sec": round(total_instr / tier0_total),
        "tiered_instr_per_sec": round(total_instr / tiered_total),
        "speedup": round(tier0_total / tiered_total, 2),
        "bit_identical": identical,
        "per_kernel": per_kernel,
        "tiering": bench_tier_gates(),
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


#: Kernels and scenario counts of the fold comparison: the 6-scenario
#: ``repro analyze`` set and the 24-scenario figure profile.
FOLD_KERNELS = ("compress", "li")
FOLD_ROUNDS = 5
#: Fewest instructions the folds are compared at: below a few
#: sub-blocks, warm-up and timer noise would decide the speed gate.
FOLD_MIN_BUDGET = 20_000


def _fold_sets(config: ExperimentConfig) -> dict[int, list[Scenario]]:
    six = dataclasses.replace(config, reuse_latencies=(1,),
                              proportional_ks=())
    return {len(profile_scenarios(c)): profile_scenarios(c)
            for c in (six, config)}


def bench_folds(budget: int, config: ExperimentConfig) -> dict:
    """Both folds of ``StreamingDataflowEngine``, each forced for every
    sub-block, and the cost rule's pick, for compress and li at 6 and
    24 scenarios: fold ns per instruction per scenario (a drain minus
    an ``analyze_all([])`` drain; medians of interleaved rounds), the
    level count and mean width, the sub-blocks the rule gave each fold,
    and each fold's bit-identity with ``oracle_results``.  The level
    pass is timed on its own too, so the rule's three constants can be
    re-derived from one report (DESIGN.md §7.1)."""
    levels_fn = streaming._levels
    spent = [0.0]

    def timed_levels(*args):
        start = time.perf_counter()
        try:
            return levels_fn(*args)
        finally:
            spent[0] += time.perf_counter() - start

    budget = max(budget, FOLD_MIN_BUDGET)
    out: dict = {"budget": budget, "kernels": {}, "rounds": FOLD_ROUNDS}
    ok = True
    for name in FOLD_KERNELS:
        trace = run_workload(name, max_instructions=budget, use_cache=False)
        n = len(trace)
        per_set = {}
        for count, scens in _fold_sets(config).items():
            oracle = oracle_results(trace, scens)
            times: dict = {"shared": [], "generated": [], "level": [],
                           "rule": [], "pass": []}
            same = {}
            for rnd in range(FOLD_ROUNDS + 1):  # round 0 warms up
                for fold in ("shared", "generated", "level", "rule"):
                    forced = fold if fold in ("generated", "level") else None
                    spent[0] = 0.0
                    with mock.patch.object(streaming, "_FORCE_FOLD", forced), \
                            mock.patch.object(streaming, "_levels",
                                              timed_levels):
                        engine = StreamingDataflowEngine(trace)
                        start = time.perf_counter()
                        results = engine.analyze_all(
                            [] if fold == "shared" else scens)
                        elapsed = time.perf_counter() - start
                    if fold == "shared":
                        if rnd:
                            times["shared"].append(elapsed)
                        continue
                    same[fold] = results == oracle
                    if fold == "level":
                        levels = engine.folds["levels"]
                        if rnd:
                            times["pass"].append(spent[0])
                    if fold == "rule":
                        picked = {k: engine.folds[k]
                                  for k in ("generated", "level")}
                    if rnd:
                        times[fold].append(elapsed)
            shared = median(times["shared"])

            def ns(fold):
                return round((median(times[fold]) - shared) / n / count
                             * 1e9, 1)

            step = ns("generated")
            pass_ns = median(times["pass"]) / n * 1e9
            level_ns = ((median(times["level"]) - shared) / n * 1e9
                        - pass_ns) * n / levels
            entry = {
                "fold_ns_per_instr_per_scenario": {
                    "generated": step, "level": ns("level"),
                    "rule": ns("rule")},
                "levels": levels,
                "mean_width": round(n / levels, 2),
                "rule_picked_sub_blocks": picked,
                "bit_identical": same,
                "level_pass_ns_per_instr": round(pass_ns, 1),
                "level_step_ns": round(level_ns),
                "ratios_to_step": {"level": round(level_ns / step, 1),
                                   "pass": round(pass_ns / step, 2)},
            }
            # a rule that kept the generated fold everywhere ran it
            entry["ok"] = all(same.values()) and (
                count < 24 or not picked["level"]
                or ns("rule") <= step)
            ok = ok and entry["ok"]
            per_set[str(count)] = entry
        out["kernels"][name] = {"instructions": n, "scenarios": per_set}
    out["constants"] = {"STEP_NS": streaming.STEP_NS,
                        "LEVEL_NS": streaming.LEVEL_NS,
                        "PASS_NS": streaming.PASS_NS,
                        "WIDEST": streaming.WIDEST}
    out["ok"] = ok
    return out


#: Scale-curve budgets as multiples of ``--budget``.
CURVE_SCALES = (5, 25, 125)
CURVE_KERNELS = ("compress", "li")
CURVE_ROUNDS = 5
#: Most the signature history's ns per instruction may grow from the
#: smallest curve budget to the largest: ROADMAP item 4's +-20%
#: flatness.  li's history holds 4.3x the signatures for 5x the
#: instructions, so this is where a history that scales badly shows.
CURVE_FLATNESS = 1.2


def _serial_chunks(stream: FileTraceStream):
    """A v3 file's chunks decoded on this thread: a prefetch pool would
    compete with the timed work for the interpreter lock, the more so
    the longer the file."""
    return SimpleNamespace(chunks=lambda: stream.reader.chunks(prefetch=0))


def _history_seconds(path) -> tuple[float, int]:
    """Seconds inside ``signature_flags`` over a v3 file's chunks, and
    the signatures it stored."""
    history: dict = {}
    pos = 0
    spent = 0.0
    with FileTraceStream(path) as stream:
        for chunk in _serial_chunks(stream).chunks():
            start = time.perf_counter()
            signature_flags(chunk, history, pos)
            spent += time.perf_counter() - start
            pos += len(chunk)
    return spent, len(history)


def _analysis_seconds(path, scenarios: list[Scenario]) -> float:
    """Seconds of an engine drain of a v3 file, decode excluded."""
    with FileTraceStream(path) as stream:
        engine = StreamingDataflowEngine(_serial_chunks(stream))
        start = time.perf_counter()
        engine.analyze_all(scenarios)
        return time.perf_counter() - start - engine.producer_seconds


def bench_scale_curve(budget: int, tmpdir: str) -> dict:
    """Per-instruction analysis cost against trace length.  A round
    measures every budget back to back; a point is the median over
    :data:`CURVE_ROUNDS` rounds, and a growth the median of the
    rounds' own largest / smallest ratios, so a slow spell on a shared
    host neither hits one budget alone nor lets one quiet sample of a
    short drain set the baseline."""
    scens = profile_scenarios(ExperimentConfig(reuse_latencies=(1,),
                                               proportional_ks=()))
    StreamingDataflowEngine([]).analyze_all(scens)  # compile the fold
    budgets = [budget * scale for scale in CURVE_SCALES]
    metrics = ("history_ns_per_instr", "shared_ns_per_instr",
               "six_scenario_ns_per_instr")
    per_kernel = {}
    ok = True
    for name in CURVE_KERNELS:
        paths, sizes, signatures = {}, {}, {}
        for b in budgets:
            paths[b] = pathlib.Path(tmpdir) / f"curve-{name}-{b}.trace"
            sizes[b] = write_stream(ExecutionChunkStream(
                lambda name=name: Machine(build_program(name)),
                program_name=name, max_instructions=b,
            ), paths[b])
        rounds = []
        for _ in range(CURVE_ROUNDS):
            got = {}
            for b in budgets:
                # the gated history drains each budget to the largest's
                # length, so bursts of load hit every point alike
                repeats = budgets[-1] // b
                history = 0.0
                for _ in range(repeats):
                    spent, signatures[b] = _history_seconds(paths[b])
                    history += spent / repeats
                seconds = (history, _analysis_seconds(paths[b], []),
                           _analysis_seconds(paths[b], scens))
                got[b] = {m: t / sizes[b] * 1e9
                          for m, t in zip(metrics, seconds)}
            rounds.append(got)
        for path in paths.values():
            path.unlink()
        gc.collect()
        points = {
            str(b): {
                "instructions": sizes[b],
                "signatures": signatures[b],
                **{m: round(median(r[b][m] for r in rounds), 1)
                   for m in metrics},
            }
            for b in budgets
        }
        growth = {
            m: round(median(r[budgets[-1]][m] / r[budgets[0]][m]
                            for r in rounds), 3)
            for m in metrics[:2]
        }
        flat = growth["history_ns_per_instr"] <= CURVE_FLATNESS
        ok = ok and flat
        per_kernel[name] = {"points": points, "growth": growth, "ok": flat}
    return {
        "kernels": list(CURVE_KERNELS),
        "budgets": budgets,
        "scenarios": len(scens),
        "flatness_bound": CURVE_FLATNESS,
        "protocol": (f"{CURVE_ROUNDS} rounds of in-process drains of a v3 "
                     "file, every budget once per round (the history "
                     "repeated up to the largest budget's length), serial "
                     "decode, excluded; points are medians over rounds, "
                     "growth the median of the rounds' largest / smallest "
                     "budget ratios"),
        "per_kernel": per_kernel,
        "ok": ok,
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
    from repro.vm.tracev3 import trace_v3_info

    tmp = pathlib.Path(tmpdir)
    kernels = ("compress", "tomcatv", "go")
    per_kernel = {}
    min_ratio_vs_v2 = float("inf")
    for name in kernels:
        path = tmp / f"{name}.trace"
        stream = ExecutionChunkStream(
            lambda name=name: Machine(build_program(name)),
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
        trace = Machine(build_program(name)).run(
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
    write_stream(trace, engine_path)
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
        max_instructions=verify_budget,
        reuse_latencies=(1,), proportional_ks=())
    per_kernel = {}
    all_identical = True
    max_encode_overhead = 0.0
    for name in kernels:
        # leg 1: pure execution (fresh-process best-of-2)
        n, exec_s = _timed_run("tiered", [name], trace_budget)

        # leg 2: execute + encode through the incremental writer
        path = tmp / f"{name}.coldpath.trace"
        stream = ExecutionChunkStream(
            lambda name=name: Machine(build_program(name)),
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
        tee = stream_workload(name, max_instructions=trace_budget)
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
            lambda name=name: Machine(build_program(name)),
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


def _write_report(report: dict, output: str) -> None:
    out = pathlib.Path(output)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {out}", file=sys.stderr)


def _tiering_ok(tiering: dict) -> bool:
    for name, gate in tiering["gates"].items():
        if not gate["ok"]:
            bound = "at most" if gate["sense"] == "max" else "at least"
            print(f"FAIL: tiering gate {name} at {gate['budget']} "
                  f"instructions: ratio {gate['ratio']}, must be {bound} "
                  f"{gate['bound']}", file=sys.stderr)
    return tiering["ok"]


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
        help="instruction budget per kernel for the machine throughput "
             "bench (default 50M, the paper scale)",
    )
    parser.add_argument(
        "--verify-budget", type=int,
        default=int(os.environ.get("REPRO_BENCH_VERIFY_BUDGET",
                                   "1000000")),
        help="budget for the tier-1 bit-identity check (default 1M)",
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
        _write_report(report, args.output)
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
        _write_report(report, args.output)
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
            "streaming_engine": {
                **bench_streaming_engine(
                    args.budget,
                    ExperimentConfig(max_instructions=args.budget)),
                "folds": bench_folds(
                    args.budget,
                    ExperimentConfig(max_instructions=args.budget)),
                "scale_curve": bench_scale_curve(args.budget, tmp),
            },
            "collect_profiles": bench_collect_profiles(args.budget),
        }

    _write_report(report, args.output)

    mr = report["machine_run"]
    ok = _tiering_ok(mr["tiering"])
    if not mr["bit_identical"]:
        print("FAIL: tier-1 traces are not bit-identical to tier 0",
              file=sys.stderr)
        ok = False
    if mr["speedup"] < 1.0:
        print(f"FAIL: the tiered machine is slower than tier 0 alone "
              f"({mr['speedup']}x)", file=sys.stderr)
        ok = False
    if not report["streaming_engine"]["bit_identical"]:
        print("FAIL: streaming engine results are not bit-identical "
              "to the per-scenario oracle", file=sys.stderr)
        ok = False
    folds = report["streaming_engine"]["folds"]
    for name, kernel in folds["kernels"].items():
        for count, entry in kernel["scenarios"].items():
            if not all(entry["bit_identical"].values()):
                print(f"FAIL: a fold is not bit-identical to the oracle "
                      f"on {name} at {count} scenarios: "
                      f"{entry['bit_identical']}", file=sys.stderr)
                ok = False
            elif not entry["ok"]:
                print(f"FAIL: the fold the rule picked on {name} at "
                      f"{count} scenarios is slower than the generated "
                      f"fold: {entry['fold_ns_per_instr_per_scenario']}",
                      file=sys.stderr)
                ok = False
    curve = report["streaming_engine"]["scale_curve"]
    for name, kernel in curve["per_kernel"].items():
        if not kernel["ok"]:
            print(f"FAIL: {name}'s signature history cost per "
                  f"instruction grows "
                  f"{kernel['growth']['history_ns_per_instr']}x from "
                  f"{curve['budgets'][0]} to {curve['budgets'][-1]} "
                  f"instructions, above {curve['flatness_bound']}",
                  file=sys.stderr)
            ok = False
    cp = report["collect_profiles"]
    if not (cp["bit_identical"] and cp["cold_speedup"] >= 1.0):
        print("FAIL: profile collection regressed", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
