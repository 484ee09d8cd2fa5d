"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``workloads``
    List the registered benchmark kernels.
``run WORKLOAD``
    Execute a kernel and print stream statistics (optionally saving
    the trace with ``--save-trace``).
``analyze WORKLOAD``
    The full single-kernel analysis: reusability, trace sizes, and
    base/ILR/TLR timing for both window scenarios.
``figures``
    Regenerate the paper's figures 3-8 tables (and figure 9 with
    ``--fig9``, as one cached ``fig9`` shard per kernel).
``rtm WORKLOAD``
    Finite-RTM sweep for one kernel (sizes x heuristics, both reuse
    tests).
``disasm WORKLOAD``
    Disassemble a kernel's text segment.
``cache {info,clear}``
    Inspect or wipe the persistent trace/profile/Figure 9 cache
    (``.repro-cache/``; see ``repro.vm.tracecache``).  ``info`` lists
    every cached trace with its format (v3, or corrupt), on-disk size
    and compression ratio.  Commands that execute kernels accept
    ``--no-cache`` to bypass it.
``trace info PATH``
    Structural stats of a saved trace file: format version, program,
    instruction count, and — for chunked v3 files — chunk geometry and
    compression ratio (read from the footer alone, O(1)).
``obs {list,show}``
    Inspect the JSONL run manifests that ``figures`` (and the
    benchmark suite) record under ``<cache_dir>/runs/`` — per-kernel
    status, timings, retries, cache hit/miss counters.  A service
    sweep's coordinator + worker manifests are merged into one run
    view, and torn (partially written) lines are reported instead of
    silently dropped.  See :mod:`repro.obs`.
``sweep``
    Profile every kernel (``collect_profiles``, as ``figures`` does)
    with ``--workers N`` worker processes draining the shard queue
    over the shared cache, and print the per-kernel outcome.
    ``--enqueue-only`` just loads the queue (workers started
    separately drain it).
``worker``
    One worker shard: claim/lease/complete loop over the persistent
    queue, stealing stale leases from crashed workers.  Normally
    spawned by ``sweep``/``serve``, but first-class for running shards
    across terminals or hosts sharing one cache directory.
``serve``
    Async front end: answers ``/profile`` and ``/figure`` queries from
    the cache in the hot path (the VM is never touched on a hit) and
    enqueues misses as shards; ``--workers N`` spawns resident workers
    to drain them.  See :mod:`repro.exp.service.server`.
``estimate WORKLOAD``
    Simulation-free profile prediction through the static analyser
    (:mod:`repro.static`): reuse percentage, trace shape and the full
    IPC/speed-up sweep without executing one instruction, annotated
    with the kernel's recorded error band from ``BENCH_static.json``.
``lint [PATHS...]``
    Static diagnostics over RL sources (``.rl`` files/directories) or
    — with ``--kernels`` or no arguments — every registered kernel's
    assembled program.  Exits non-zero when any finding survives.
``static validate``
    Cross-validate the static estimator against the dynamic pipeline
    over all kernels plus the generated workload families; writes (or
    ``--check``s against) the per-kernel error bands in
    ``BENCH_static.json``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.rtm.collector import FixedLengthHeuristic, ILRHeuristic
from repro.core.rtm.memory import RTM_PRESETS
from repro.core.rtm.simulator import FiniteReuseSimulator
from repro.dataflow.model import Scenario
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.exp.config import ExperimentConfig
from repro.exp.figures import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9_from_rows,
    trace_io_summary,
)
from repro.exp.report import render
from repro.exp.runner import collect_profiles
from repro.isa.disasm import disassemble
from repro.util.tables import format_table
from repro.vm import tracecache
from repro.vm.tracefile import save_trace
from repro.workloads.base import (
    all_workloads,
    build_program,
    run_workload,
    stream_workload,
)


def _cmd_workloads(_args) -> int:
    rows = [[w.name, w.suite, w.description] for w in all_workloads()]
    print(format_table(["name", "suite", "description"], rows))
    return 0


def _cmd_run(args) -> int:
    trace = run_workload(
        args.workload,
        max_instructions=args.budget,
        use_cache=not args.no_cache,
    )
    print(f"{args.workload}: {len(trace)} dynamic instructions "
          f"(halted={trace.halted})")
    hist = sorted(
        trace.class_histogram().items(), key=lambda kv: kv[1], reverse=True
    )
    print(format_table(
        ["class", "count", "share"],
        [[cls.name, count, f"{100 * count / len(trace):.1f}%"]
         for cls, count in hist],
    ))
    if args.save_trace:
        # .jsonl/.gz ask for the portable JSON-lines layout; anything
        # else gets the chunked v3 format
        fmt = ("v1" if str(args.save_trace).endswith((".jsonl", ".gz"))
               else "v3")
        save_trace(trace, args.save_trace, format=fmt)
        print(f"trace written to {args.save_trace} ({fmt})")
    return 0


def _cmd_analyze(args) -> int:
    """Reusability, trace shape and base/ILR/TLR timing for one kernel.

    The trace is consumed as a chunk stream and all six scenarios fold
    inside one :class:`StreamingDataflowEngine` drain (O(chunk)
    memory).
    """
    scenarios = []
    for window in (None, args.window):
        scenarios.append(Scenario("base", window_size=window))
        scenarios.append(Scenario("ilr", window_size=window, latency=1.0))
        scenarios.append(Scenario("tlr", window_size=window, latency=1.0))

    def drain(stream):
        engine = StreamingDataflowEngine(stream)
        return engine, engine.analyze_all(scenarios)

    engine, results = tracecache.drain_healing(
        lambda: stream_workload(args.workload, max_instructions=args.budget,
                                use_cache=not args.no_cache),
        drain,
    )
    stats = engine.io_stats
    print(f"{args.workload}: {engine.n} instructions, "
          f"{engine.reuse.percent_reusable:.1f}% reusable, "
          f"{stats.trace_count} traces (avg {stats.avg_trace_size:.1f} instr, "
          f"{stats.avg_inputs:.1f} in / {stats.avg_outputs:.1f} out)")
    rows = []
    for i, window in enumerate((None, args.window)):
        base, ilr, tlr = results[3 * i:3 * i + 3]
        label = "infinite" if window is None else f"W={args.window}"
        rows.append([label, base.ipc, ilr.speedup_over(base), tlr.speedup_over(base)])
    print(format_table(["window", "base_ipc", "ilr_speedup", "tlr_speedup"], rows))
    return 0


def _cmd_figures(args) -> int:
    config = ExperimentConfig(
        max_instructions=args.budget, use_cache=not args.no_cache)
    profiles = collect_profiles(config)
    for failure in getattr(profiles, "failures", ()):
        print(
            f"warning: kernel {failure.name} failed after "
            f"{failure.attempts} attempt(s): {failure.kind}: "
            f"{failure.message}; figures exclude it",
            file=sys.stderr,
        )
    if not profiles:
        print("error: no kernel produced a profile", file=sys.stderr)
        return 1
    for result in (
        figure3(profiles),
        figure4(profiles, config),
        figure5(profiles, config),
        figure6(profiles),
        figure7(profiles),
        figure8(profiles, config),
        trace_io_summary(profiles),
    ):
        print(render(result))
        print()
    runs = [profiles]
    if args.fig9:
        fig9_config = ExperimentConfig(
            max_instructions=args.fig9_budget, use_cache=not args.no_cache)
        runs.append(collect_profiles(fig9_config, kind="fig9"))
        print(render(figure9_from_rows(runs[-1])))
    for run in runs:
        if run.manifest_path is not None:
            print(f"run manifest: {run.manifest_path}", file=sys.stderr)
    return 0


def _cmd_rtm(args) -> int:
    trace = run_workload(
        args.workload,
        max_instructions=args.budget,
        use_cache=not args.no_cache,
    )
    heuristics = [ILRHeuristic(False), ILRHeuristic(True),
                  FixedLengthHeuristic(4)]
    rows = []
    for reuse_test in ("compare", "invalidate"):
        for heuristic in heuristics:
            for rtm_name in args.sizes:
                sim = FiniteReuseSimulator(
                    RTM_PRESETS[rtm_name], heuristic, reuse_test=reuse_test
                )
                result = sim.run(trace)
                rows.append([
                    reuse_test, heuristic.name, rtm_name,
                    result.percent_reused, result.avg_reused_trace_size,
                    result.rtm_invalidations,
                ])
    print(format_table(
        ["reuse_test", "heuristic", "rtm", "reused_pct", "avg_trace", "invalidations"],
        rows,
        title=f"Finite-RTM sweep for {args.workload} ({len(trace)} instructions)",
    ))
    return 0


def _cmd_disasm(args) -> int:
    program = build_program(args.workload)
    print(disassemble(program, with_pcs=True))
    return 0


def _cmd_cache(args) -> int:
    if args.action == "clear":
        removed = tracecache.clear_cache()
        print(f"removed {removed} cache entries from {tracecache.cache_dir()}")
        return 0
    info = tracecache.cache_info(per_entry=True)
    state = "enabled" if info["enabled"] else "disabled (REPRO_TRACE_CACHE=0)"
    print(f"cache directory: {info['dir']} ({state})")
    print(format_table(
        ["layer", "entries", "bytes"],
        [
            ["traces", info["traces"], info["trace_bytes"]],
            ["profiles", info["profiles"], info["profile_bytes"]],
            ["fig9", info["fig9"], info["fig9_bytes"]],
            ["runs", info["runs"], info["run_bytes"]],
        ],
    ))
    entries = info.get("trace_entries") or []
    if entries:
        print()
        print(format_table(
            ["trace entry", "format", "bytes", "instructions", "ratio"],
            [
                [
                    e["file"],
                    e["format"],
                    e["bytes"],
                    "-" if e["instructions"] is None else e["instructions"],
                    "-" if e["compression_ratio"] is None
                    else f"{e['compression_ratio']:.1f}x",
                ]
                for e in entries
            ],
        ))
    return 0


def _cmd_trace(args) -> int:
    from repro.vm.tracefile import TraceFileError, trace_file_info

    want_columns = getattr(args, "columns", False)
    want_chunks = getattr(args, "chunks", False)
    try:
        info = trace_file_info(args.path, columns=want_columns,
                               per_chunk=want_chunks)
    except (TraceFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [
        ["format", info["format"]],
        ["program", info["program"]],
        ["instructions", info["instructions"]],
        ["halted", info["halted"]],
        ["truncated", info["truncated"]],
        ["file bytes", info["file_bytes"]],
        ["bytes/instr", f"{info['bytes_per_instruction']:.2f}"],
    ]
    if info["chunk_count"] is not None:
        rows.append(["chunks", info["chunk_count"]])
        rows.append(["chunk size", info["chunk_size"]])
        rows.append(["encoded bytes", info["encoded_bytes"]])
        rows.append(["compressed bytes", info["compressed_bytes"]])
        rows.append(["compression", f"{info['compression_ratio']:.1f}x"])
    print(format_table(["field", "value"], rows, title=info["path"]))
    if (want_columns or want_chunks) and info["chunk_count"] is None:
        print("(per-column/per-chunk breakdowns need a v3 file)")
        return 0
    if want_columns:
        total = sum(c["encoded_bytes"] for c in info["columns"].values()) or 1
        print()
        print(format_table(
            ["column", "encoded bytes", "share", "decode ms", "modes"],
            [
                [
                    name,
                    stats["encoded_bytes"],
                    f"{100 * stats['encoded_bytes'] / total:.1f}%",
                    f"{1000 * stats['decode_seconds']:.1f}",
                    ",".join(sorted(stats["modes"])),
                ]
                for name, stats in sorted(
                    info["columns"].items(),
                    key=lambda kv: -kv[1]["encoded_bytes"],
                )
            ],
            title="per-column breakdown",
        ))
    if want_chunks:
        print()
        print(format_table(
            ["chunk", "instr", "encoded", "compressed", "ratio", "decode ms"],
            [
                [
                    c["chunk"],
                    c["instructions"],
                    c["encoded_bytes"],
                    c["compressed_bytes"],
                    f"{c['compression_ratio']:.1f}x",
                    f"{1000 * c['decode_seconds']:.1f}",
                ]
                for c in info["chunks"]
            ],
            title="per-chunk breakdown",
        ))
    return 0


def _cmd_characterize(args) -> int:
    from repro.workloads.base import FP_SUITE, INT_SUITE
    from repro.workloads.characterize import suite_characterization

    names = args.workloads or (FP_SUITE + INT_SUITE)
    fig = suite_characterization(
        names, max_instructions=args.budget, use_cache=not args.no_cache,
    )
    print(render(fig))
    return 0


def _cmd_obs(args) -> int:
    from repro import obs

    if args.action == "list":
        rows = []
        for run_id, paths in obs.list_run_groups():
            events, torn = obs.merge_events(paths)
            summary = obs.summarize(events)
            kernels = summary["kernels"]
            failed = sum(1 for k in kernels.values() if k["status"] == "failed")
            ok = sum(1 for k in kernels.values() if k["status"] == "ok")
            rows.append([
                summary["run_id"] or run_id,
                len(paths),
                ok,
                failed,
                len(summary["resumed"]),
                "-" if summary["seconds"] is None
                else f"{summary['seconds']:.2f}",
                ("yes" if summary["complete"] else "no (interrupted?)")
                + (f", {torn} torn line(s)" if torn else ""),
            ])
        if not rows:
            print(f"no run manifests under {obs.runs_dir()}")
            return 0
        print(format_table(
            ["run", "files", "ok", "failed", "resumed", "seconds",
             "complete"], rows,
            title=f"Recorded runs ({obs.runs_dir()})",
        ))
        return 0

    try:
        paths = obs.find_run_paths(args.run)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    events, torn = obs.merge_events(paths)
    summary = obs.summarize(events)
    if len(paths) == 1:
        print(f"manifest: {paths[0]}")
    else:
        print(f"manifests ({len(paths)}, merged):")
        for path in paths:
            print(f"  {path}")
    if torn:
        print(f"note: skipped {torn} torn line(s) — a writer was killed "
              "mid-append; every complete event is shown")
    if summary["workers"]:
        note = f"workers: {', '.join(summary['workers'])}"
        if summary["steals"]:
            note += f" ({summary['steals']} stolen shard(s))"
        print(note)
    if not summary["complete"]:
        print("note: no run_end event — the run was interrupted")
    kernel_rows = [
        [
            name,
            entry["status"],
            entry["source"] or "-",
            entry["attempts"],
            "-" if entry["seconds"] is None else f"{entry['seconds']:.3f}",
            "; ".join(entry["errors"]) or "-",
        ]
        for name, entry in summary["kernels"].items()
    ]
    print(format_table(
        ["kernel", "status", "source", "attempts", "seconds", "errors"],
        kernel_rows,
        title=f"Run {summary['run_id']} "
        f"({summary['seconds']:.2f}s)" if summary["seconds"] is not None
        else f"Run {summary['run_id']}",
    ))
    if summary["counters"]:
        print()
        print(format_table(
            ["counter", "count"],
            sorted(summary["counters"].items()),
            title="Counters",
        ))
    if summary["timers"]:
        print()
        print(format_table(
            ["timer", "seconds", "calls"],
            [[name, f"{entry['seconds']:.3f}", entry["calls"]]
             for name, entry in sorted(summary["timers"].items())],
            title="Stage timers",
        ))
    failed = [n for n, k in summary["kernels"].items()
              if k["status"] == "failed"]
    if failed:
        print()
        print(f"failed kernels: {', '.join(failed)}")
    return 0


def _print_sweep_outcome(run) -> None:
    rows = [[p.name, "ok", "resumed" if p.name in run.resumed else "computed"]
            for p in run]
    rows += [[f.name, "FAILED", f"{f.kind}: {f.message}"] for f in run.failures]
    print(format_table(["kernel", "status", "detail"], rows,
                       title="Sweep"))
    if run.manifest_path is not None:
        print(f"run manifest: {run.manifest_path}", file=sys.stderr)


def _cmd_sweep(args) -> int:
    from repro.exp.service import ShardQueue, enqueue_sweep

    config = ExperimentConfig(max_instructions=args.budget,
                              max_workers=args.workers)
    if args.enqueue_only:
        plan = enqueue_sweep(config)
        queue = ShardQueue()
        print(f"enqueued {len(plan.enqueued)} shard(s), "
              f"{len(plan.resumed)} already cached; queue: {queue.counts()}")
        return 0
    run = collect_profiles(config)
    _print_sweep_outcome(run)
    return 0 if run.ok else 1


def _cmd_worker(args) -> int:
    from repro.exp.service import run_worker
    from repro.obs.manifest import RunManifest

    # mark this process as a killable worker shard (fault injection's
    # ``crash`` mode takes the process down instead of raising)
    os.environ["REPRO_SERVICE_WORKER"] = "1"
    # no --run-id: a run of its own; an empty one (a sweep that records
    # no manifest): none
    manifest = None if args.run_id == "" else \
        RunManifest(args.run_id, worker=args.worker_id)
    report = run_worker(
        args.worker_id,
        manifest=manifest,
        exit_when_empty=not args.forever,
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval,
    )
    print(f"worker {report.worker}: {len(report.completed)} shard(s) "
          f"completed, {len(report.failed)} failed "
          f"in {report.seconds:.2f}s")
    return 0 if not report.failed else 1


def _cmd_serve(args) -> int:
    from repro.exp.service.server import serve_forever
    from repro.exp.service.sweep import spawn_worker_process

    defaults = ExperimentConfig(max_instructions=args.budget)
    procs = []
    for k in range(args.workers):
        procs.append(spawn_worker_process(
            f"serve-w{k}", f"serve-p{os.getpid()}", exit_when_empty=False,
        ))
    try:
        serve_forever(args.host, args.port, defaults=defaults)
    finally:
        for proc in procs:
            proc.terminate()
    return 0


def _cmd_estimate(args) -> int:
    from repro.static.estimator import estimate_workload
    from repro.static.validate import kernel_band, load_bands

    config = ExperimentConfig(
        max_instructions=args.budget, window_size=args.window
    )
    estimate = estimate_workload(args.workload, config)
    profile = estimate.profile
    print(f"{args.workload}: {profile.dynamic_count} predicted "
          f"instructions, {profile.percent_reusable:.1f}% reusable, "
          f"{profile.trace_count} traces "
          f"(avg {profile.avg_trace_size:.1f} instr) — static, "
          f"no execution")
    rows = [
        ["infinite", f"{profile.base_ipc_inf:.2f}",
         f"{profile.ilr_speedup_inf.get(1, 1.0):.2f}",
         f"{profile.tlr_speedup_inf.get(1, 1.0):.2f}"],
        [f"W={config.window_size}", f"{profile.base_ipc_win:.2f}",
         f"{profile.ilr_speedup_win.get(1, 1.0):.2f}",
         f"{profile.tlr_speedup_win.get(1, 1.0):.2f}"],
    ]
    print(format_table(
        ["window", "base_ipc", "ilr_speedup", "tlr_speedup"], rows
    ))
    if estimate.loop_table:
        print(format_table(
            ["loop@pc", "depth", "eff_trips", "exact", "II", "body_reuse"],
            [[row["header_pc"], row["depth"], f"{row['eff_trips']:.1f}",
              "y" if row["exact"] else "n", f"{row['ii']:.1f}",
              f"{row['body_reuse_rate']:.2f}"]
             for row in estimate.loop_table],
        ))
    band = kernel_band(load_bands(), args.workload)
    if band:
        print("recorded error band (vs dynamic, "
              f"see BENCH_static.json): reuse ±{band['percent_reusable']:.3f}, "
              f"ipc_inf ±{band['base_ipc_inf']:.3f}, "
              f"ipc_win ±{band['base_ipc_win']:.3f}")
    else:
        print("no recorded error band — run 'repro static validate'")
    for note in estimate.assumptions:
        print(f"note: {note}")
    return 0


def _cmd_lint(args) -> int:
    from repro.static.lint import lint_paths, lint_workloads

    findings = []
    if args.kernels or not args.paths:
        findings.extend(lint_workloads())
    if args.paths:
        findings.extend(lint_paths(args.paths))
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("clean")
    return 0


def _cmd_static(args) -> int:
    from repro.static import validate as sv

    config = ExperimentConfig(max_instructions=args.budget)
    report = sv.validate_static(
        config,
        include_families=not args.no_families,
        progress=print,
    )
    summary = report["summary"]
    rows = [
        [metric, f"{stats['mean']:.3f}", f"{stats['max']:.3f}"]
        for metric, stats in summary.items()
    ]
    print(format_table(["metric (error)", "mean", "max"], rows))
    if args.check:
        recorded = sv.load_bands(args.output)
        if recorded is None:
            print(f"no recorded bands at {args.output}; "
                  "run without --check first")
            return 1
        problems = sv.check_bands(report, recorded)
        for problem in problems:
            print(f"REGRESSION {problem}")
        if problems:
            return 1
        print(f"within recorded bands ({args.output})")
        return 0
    path = sv.write_bands(report, args.output)
    print(f"wrote error bands to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trace-level reuse (ICPP 1999) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list benchmark kernels")

    p_run = sub.add_parser("run", help="execute a kernel")
    p_run.add_argument("workload")
    p_run.add_argument("--budget", type=int, default=20_000)
    p_run.add_argument("--save-trace", metavar="PATH",
                       help="write the trace here: JSON lines (v1) for "
                       ".jsonl/.gz paths, chunked v3 otherwise")
    p_run.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent trace cache")

    p_an = sub.add_parser("analyze", help="full single-kernel analysis")
    p_an.add_argument("workload")
    p_an.add_argument("--budget", type=int, default=20_000)
    p_an.add_argument("--window", type=int, default=256)
    p_an.add_argument("--no-cache", action="store_true",
                      help="bypass the persistent trace cache")

    p_fig = sub.add_parser("figures", help="regenerate the paper's figures")
    p_fig.add_argument("--budget", type=int, default=20_000)
    p_fig.add_argument("--fig9", action="store_true",
                       help="also run the (slow) finite-RTM grid")
    p_fig.add_argument("--fig9-budget", type=int, default=8_000)
    p_fig.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent trace/profile cache "
                       "(the kernels then run one after another in this "
                       "process: worker processes return profiles "
                       "through the cache)")

    p_rtm = sub.add_parser("rtm", help="finite-RTM design sweep")
    p_rtm.add_argument("workload")
    p_rtm.add_argument("--budget", type=int, default=12_000)
    p_rtm.add_argument("--sizes", nargs="+", default=["512", "4K"],
                       choices=list(RTM_PRESETS))
    p_rtm.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent trace cache")

    p_dis = sub.add_parser("disasm", help="disassemble a kernel")
    p_dis.add_argument("workload")

    p_ch = sub.add_parser("characterize", help="workload suite statistics")
    p_ch.add_argument("workloads", nargs="*")
    p_ch.add_argument("--budget", type=int, default=10_000)
    p_ch.add_argument("--no-cache", action="store_true",
                      help="bypass the persistent trace cache")

    p_cache = sub.add_parser("cache", help="inspect or wipe the trace cache")
    p_cache.add_argument("action", choices=["info", "clear"])

    p_tr = sub.add_parser("trace", help="inspect a saved trace file")
    p_tr.add_argument("action", choices=["info"])
    p_tr.add_argument("path", help="path to a .trace file (v1/v3)")
    p_tr.add_argument("--columns", action="store_true",
                      help="decode the file and report per-column "
                      "encoded size, decode time and codec mode (v3)")
    p_tr.add_argument("--chunks", action="store_true",
                      help="report per-chunk size/ratio/decode-time "
                      "breakdowns (v3)")

    p_obs = sub.add_parser("obs", help="inspect recorded run manifests")
    p_obs.add_argument("action", choices=["list", "show"])
    p_obs.add_argument("run", nargs="?", default="latest",
                       help="run id (or unique prefix) for 'show'; "
                       "defaults to the most recent run")

    p_sw = sub.add_parser(
        "sweep", help="profile every kernel through the shard queue",
    )
    p_sw.add_argument("--budget", type=int, default=20_000)
    p_sw.add_argument("--workers", type=int, default=None,
                      help="worker processes to spawn (default: one per "
                      "core; 0 or 1 = run in this process)")
    p_sw.add_argument("--enqueue-only", action="store_true",
                      help="load the queue and exit; separately started "
                      "workers drain it")

    p_wk = sub.add_parser(
        "worker", help="run one shard worker over the persistent queue",
    )
    p_wk.add_argument("--worker-id", default=f"w{os.getpid()}",
                      help="name used in leases and manifest events")
    p_wk.add_argument("--run-id", default=None,
                      help="sweep run id to attach this worker's manifest "
                      "to ('' records no manifest)")
    p_wk.add_argument("--forever", action="store_true",
                      help="keep polling when the queue is empty (serve "
                      "mode) instead of exiting")
    p_wk.add_argument("--lease-ttl", type=float, default=600.0)
    p_wk.add_argument("--poll-interval", type=float, default=0.2)

    p_srv = sub.add_parser(
        "serve", help="async cache-backed profile/figure server",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8023)
    p_srv.add_argument("--budget", type=int, default=20_000,
                       help="default max_instructions for queries that "
                       "don't pass ?budget=")
    p_srv.add_argument("--workers", type=int, default=0,
                       help="resident worker processes draining enqueued "
                       "misses")

    p_est = sub.add_parser(
        "estimate",
        help="simulation-free static profile prediction",
    )
    p_est.add_argument("workload")
    p_est.add_argument("--budget", type=int, default=20_000,
                       help="instruction budget the estimate models")
    p_est.add_argument("--window", type=int, default=256)

    p_lint = sub.add_parser(
        "lint", help="static diagnostics over RL sources / kernels",
    )
    p_lint.add_argument("paths", nargs="*",
                        help=".rl files or directories (default: lint "
                        "every registered kernel)")
    p_lint.add_argument("--kernels", action="store_true",
                        help="also lint the registered kernels when "
                        "paths are given")

    p_st = sub.add_parser(
        "static", help="static-estimator validation harness",
    )
    st_sub = p_st.add_subparsers(dest="static_command", required=True)
    p_val = st_sub.add_parser(
        "validate",
        help="score static vs dynamic over kernels + generated families",
    )
    p_val.add_argument("--budget", type=int, default=8_000)
    p_val.add_argument("--output", default="BENCH_static.json",
                       help="error-band file to write or check")
    p_val.add_argument("--check", action="store_true",
                       help="compare against recorded bands instead of "
                       "rewriting them; non-zero exit on regression")
    p_val.add_argument("--no-families", action="store_true",
                       help="skip the generated RL workload families")
    return parser


_COMMANDS = {
    "workloads": _cmd_workloads,
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "figures": _cmd_figures,
    "rtm": _cmd_rtm,
    "disasm": _cmd_disasm,
    "characterize": _cmd_characterize,
    "cache": _cmd_cache,
    "trace": _cmd_trace,
    "obs": _cmd_obs,
    "sweep": _cmd_sweep,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "estimate": _cmd_estimate,
    "lint": _cmd_lint,
    "static": _cmd_static,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # stdout went away mid-report (e.g. piped into ``head``); the
        # conventional quiet exit, with stdout detached so the
        # interpreter's shutdown flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
