"""The repository benchmark.

One workload per invocation::

    python3 bench/run.py --workload profile_cold --seed 1 --seconds 30 --trace 0

prints the workload's details and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
its per-layer metrics.

Without ``--workload`` every workload runs, each in a fresh process.
``--repeat N`` runs each selected workload N times (fresh process,
seeds ``seed .. seed+N-1``) and reports each metric's median and
quartiles; ``--smoke`` runs every workload in both modes at tiny
budgets; ``--record-golden`` rewrites ``bench/golden.json`` from the
program as it is.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from harness import (
    ROOT,
    ProgramMissing,
    load_golden,
    record_golden,
    require_program,
)

import batch
import serve

WORKLOADS = ("profile_cold", "profile_long", "profile_rewindow", "serve_warm")
#: Batch-workload budget in ``--smoke`` runs.
SMOKE_BUDGET = 20_000
SMOKE_SECONDS = 2.0
#: Seconds of the serve probe in a batch workload's traced run.
PROBE_SECONDS = 3.0
#: An untraced run sets up at least SETUP_REPEATS times, and again
#: while its set-ups took less than SETUP_SECONDS; ``setup_s`` is
#: their median.  Short set-ups are repeated more, so that the median
#: of a sub-second interpreter start is as steady as that of a fill.
SETUP_REPEATS = 2
SETUP_SECONDS = 3.0
OUT_DIR = ROOT / ".bench_out"
SUBPROCESS_TIMEOUT_S = 900


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def budget_of(workload: str, smoke: bool) -> int:
    if workload == "serve_warm":
        return serve.SERVE_BUDGET
    return SMOKE_BUDGET if smoke else batch.WORKLOADS[workload].budget


def run_workload(workload: str, *, seed: int, seconds: float, trace: bool,
                 smoke: bool, workdir) -> dict:
    """Measure one workload; returns the result with its details."""
    golden = load_golden()
    budget = budget_of(workload, smoke)
    if not trace:
        repeats = {"setup_repeats": 1 if smoke else SETUP_REPEATS,
                   "setup_seconds": 0 if smoke else SETUP_SECONDS}
        if workload == "serve_warm":
            return serve.measure(seed=seed, seconds=seconds, budget=budget,
                                 workdir=workdir, golden=golden, **repeats)
        return batch.measure(batch.WORKLOADS[workload], seed=seed,
                             seconds=seconds, budget=budget, workdir=workdir,
                             golden=golden, **repeats)

    if workload == "serve_warm":
        # layers of the serve fill itself, then each route; the fill's
        # profiles are the served ones, so they share the golden record
        # serve_profile@<budget>
        traced = batch.BatchWorkload("serve_profile", serve.kernels(), budget)
        layer_seconds = probe_seconds = seconds / 2
    else:
        traced = batch.WORKLOADS[workload]
        probe_seconds = min(PROBE_SECONDS, seconds / 2)
        layer_seconds = seconds - probe_seconds
    layers = batch.trace_layers(traced, seed=seed, seconds=layer_seconds,
                                budget=budget, workdir=workdir,
                                golden=golden)
    probe = serve.layer_probe(seed=seed, seconds=probe_seconds,
                              budget=serve.SERVE_BUDGET, workdir=workdir,
                              golden=golden)
    return {
        "attempted": layers["attempted"] + probe["attempted"],
        "failed": layers["failed"] + probe["failed"],
        "metrics": {**layers["metrics"], **probe["metrics"]},
        "details": {**layers["details"], "serve_routes": probe["details"]},
    }


def result_line(result: dict, trace: bool) -> dict:
    """The result object of a run, metrics in ``BENCHMARK.json`` order."""
    wanted = spec()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(result["metrics"][m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }


def single(args) -> int:
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, seed=args.seed,
                              seconds=args.seconds, trace=bool(args.trace),
                              smoke=args.smoke, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = result_line(result, bool(args.trace))
    for name, metric in line["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print("details:", json.dumps(result.get("details", {}), default=str))
    out = OUT_DIR / (f"result-{args.workload}-s{args.seed}"
                     f"-t{args.trace}.json")
    out.write_text(json.dumps({**line, "details": result.get("details")},
                              indent=1, default=str) + "\n")
    print(json.dumps(line), flush=True)
    return 0


def child(workload: str, seed: int, seconds: float, trace: int,
          smoke: bool) -> dict:
    """Run one workload in a fresh process; returns its result line."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} (trace {trace}) exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_report(workloads, args) -> int:
    """``--repeat N``: per metric median, quartiles and IQR / median."""
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    report = {}
    for workload in workloads:
        runs = [child(workload, args.seed + i, args.seconds, args.trace,
                      args.smoke) for i in range(args.repeat)]
        report[workload] = {"failed": sum(r["failed"] for r in runs),
                            "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, mid, q3 = (statistics.quantiles(values, n=4)
                           if len(values) > 1 else values * 3)
            spread = (q3 - q1) / mid if mid else float("inf")
            report[workload]["metrics"][name] = {
                "median": mid, "q1": q1, "q3": q3, "spread": spread,
                "values": values}
            bound = bounds.get(name) if not args.trace else None
            flag = ("" if bound is None
                    else "ok" if spread < bound / 3 else "WIDE")
            print(f"{workload:18s} {name:32s} median {mid:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} {flag}",
                  flush=True)
    print(json.dumps(report))
    return 0


def all_workloads(args) -> int:
    traces = (0, 1) if args.smoke else (args.trace,)
    results = {}
    for workload in WORKLOADS:
        for trace in traces:
            start = time.perf_counter()
            line = child(workload, args.seed, args.seconds, trace, args.smoke)
            results[f"{workload}/trace{trace}"] = line
            print(f"{workload:18s} trace={trace} correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']} "
                  f"({time.perf_counter() - start:.1f}s)", flush=True)
            for name, metric in line["metrics"].items():
                print(f"    {name:32s} {metric['value']:14.6g} "
                      f"{metric['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def record(args) -> int:
    """``--record-golden``: profiles of one round of every batch
    workload at the full and the smoke budgets, and every serve answer,
    written to ``bench/golden.json``."""
    runs = [(w, smoke) for smoke in (False, True) for w in batch.WORKLOADS]
    for workload, smoke in runs + [("serve_warm", False)]:
        budget = budget_of(workload, smoke)
        workdir = OUT_DIR / f"golden-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            if workload == "serve_warm":
                result = serve.layer_probe(seed=args.seed, seconds=0.3,
                                           budget=budget, workdir=workdir,
                                           golden={})
                for route, data in result["answers"].items():
                    record_golden(serve.golden_key(route, budget), data)
            else:
                result = batch.measure(
                    batch.WORKLOADS[workload], seed=args.seed, seconds=0,
                    budget=budget, setup_repeats=1, setup_seconds=0,
                    workdir=workdir, golden={})
                record_golden(batch.golden_key(workload, budget),
                              result["profiles"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"recorded {workload} at budget {budget}", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="fresh-process runs per workload; reports "
                        "medians and quartiles")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_BUDGET}-instruction budgets, "
                        f"{SMOKE_SECONDS:g}s runs")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec()["run_seconds"]

    try:
        require_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_golden:
        return record(args)
    if args.repeat:
        workloads = (args.workload,) if args.workload else WORKLOADS
        return spread_report(workloads, args)
    if args.workload:
        return single(args)
    return all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())
