"""Batch workloads: profile collection, cold and re-windowed.

Each workload profiles a fixed kernel set in rounds, one
``collect_profiles`` call (one worker, in-process) per kernel.  Every
call starts from its own cache directory: empty for the cold
workloads, a copy of the set-up's filled cache for
``profile_rewindow``.  The seed only shuffles the kernel order of each
round, so every round does the same work.

The traced mode (:func:`trace_layers`) wraps the program's public
layer entry points in spans for whole-kernel-set rounds and then
splits the layers that interleave inside them by draining the same
traces again, one layer at a time.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from harness import (
    Spans,
    SpanStream,
    golden_mismatches,
    host_slowdown,
    median,
    peak_rss_mb,
    repeated_setup,
    run_fill,
)

COLD_KERNELS = ("compress", "li", "tomcatv", "su2cor")
LONG_KERNELS = ("compress", "li")

#: Instruction budgets.  The profile of the paper runs 50M instructions
#: per kernel; 1M and 5M are what this benchmark would like, but the
#: whole run set must fit a fixed time cap, so both are scaled down by
#: the same factor (20) and keep their 1:5 ratio.  See README.md.
COLD_BUDGET = 50_000
LONG_BUDGET = 250_000

#: The 6-scenario set of ``repro analyze``: base, ILR and TLR at one
#: reuse latency, each with an infinite and a 256-entry window.
SIX_SCENARIOS = {"reuse_latencies": [1], "proportional_ks": []}
#: The cheapest fill that stores the traces: the two base scenarios.
BASE_SCENARIOS = {"reuse_latencies": [], "proportional_ks": []}

#: Profile loads timed per kernel when measuring the cache layer.
LOAD_REPEATS = 20
#: Most rounds of layer drains in a traced run; tiny budgets would
#: otherwise repeat them hundreds of times.
DRAIN_MAX_ROUNDS = 10
#: Seconds of drains between two host-speed probes.
PROBE_EVERY_S = 0.5


@dataclass(frozen=True)
class BatchWorkload:
    """One batch workload: kernels, budget and semantic config fields."""

    name: str
    kernels: tuple[str, ...]
    budget: int
    #: semantic ``ExperimentConfig`` fields besides budget and kernels
    fields: dict = field(default_factory=dict)
    #: fields of the set-up fill; None when set-up fills nothing
    fill: dict | None = None

    @property
    def rereads_traces(self) -> bool:
        """True when every round must hit the trace cache."""
        return self.fill is not None

    def config_fields(self, order, budget: int) -> dict:
        return {"max_instructions": budget, "workloads": list(order),
                **self.fields}

    def fill_fields(self, budget: int) -> dict:
        if self.fill is None:
            return {"workloads": []}
        return {"max_instructions": budget, "workloads": list(self.kernels),
                **self.fill}


WORKLOADS = {
    w.name: w for w in (
        BatchWorkload("profile_cold", COLD_KERNELS, COLD_BUDGET),
        BatchWorkload("profile_long", LONG_KERNELS, LONG_BUDGET,
                      dict(SIX_SCENARIOS)),
        BatchWorkload("profile_rewindow", LONG_KERNELS, LONG_BUDGET,
                      {**SIX_SCENARIOS, "window_size": 512},
                      fill=dict(BASE_SCENARIOS)),
    )
}


def make_config(fields: dict):
    """An ``ExperimentConfig`` from semantic fields, one worker."""
    from repro.exp.config import ExperimentConfig

    kwargs = {k: tuple(v) if isinstance(v, list) else v
              for k, v in fields.items()}
    return ExperimentConfig(max_workers=1, **kwargs)


def canon_profile(profile) -> dict:
    """A profile as the server's JSON answer carries it, as plain data
    (JSON floats round-trip exactly through ``repr``)."""
    from repro.exp.service.server import profile_to_json

    return json.loads(json.dumps(profile_to_json(profile)))


@dataclass
class Round:
    """One ``collect_profiles`` call and what it reported."""

    kernels: tuple[str, ...]
    wall: float
    profiles: dict
    failures: list
    retries: int
    counters: dict
    timers: dict


def run_round(config, cache_dir, base_dir=None) -> Round:
    """Profile ``config.workloads`` once over ``cache_dir``.

    ``cache_dir`` starts empty, or as a copy of ``base_dir``.  Only the
    ``collect_profiles`` call is timed.
    """
    from repro import obs
    from repro.exp.runner import collect_profiles

    if base_dir is not None:
        shutil.copytree(base_dir, cache_dir)
    else:
        cache_dir.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    with obs.scope() as registry:
        start = time.perf_counter()
        run = collect_profiles(config)
        wall = time.perf_counter() - start
        snapshot = registry.snapshot()
    events = obs.read_events(run.manifest_path) if run.manifest_path else []
    return Round(
        kernels=tuple(config.workloads),
        wall=wall,
        profiles={p.name: canon_profile(p) for p in run},
        failures=[f.name for f in run.failures],
        retries=sum(1 for e in events if e.get("event") == "retry"),
        counters=snapshot["counters"],
        timers={k: v["seconds"] for k, v in snapshot["timers"].items()},
    )


def failed_kernels(workload: BatchWorkload, rnd: Round, golden: dict,
                   golden_key: str) -> set[str]:
    """Kernels of a round that failed, mismatched the golden record, or
    ran without using the layer the workload is meant to exercise."""
    failed = set(rnd.failures)
    failed |= set(golden_mismatches(golden, golden_key, rnd.profiles))
    kernels = len(rnd.kernels)
    hits = rnd.counters.get("trace_cache.hit", 0)
    stores = rnd.counters.get("trace_cache.store", 0)
    if workload.rereads_traces:
        layer_ok = hits == kernels and stores == 0
    else:
        layer_ok = stores == kernels
    if not layer_ok:
        failed |= set(rnd.kernels)
    return failed


def golden_key(name: str, budget: int) -> str:
    return f"{name}@{budget}"


def measure(workload: BatchWorkload, *, seed: int, seconds: float,
            budget: int, setup_repeats: int, setup_seconds: float, workdir,
            golden: dict) -> dict:
    """The untraced run: repeated set-ups, then rounds until ``seconds``
    pass.

    An op is one kernel profiled under every scenario of the workload,
    by its own ``collect_profiles`` call; a round runs every kernel
    once.  Each op's wall is divided by the host slowdown probed just
    before and just after it, and the metrics are medians of those
    normalised times.
    """
    rng = random.Random(seed)
    fields = workload.fill_fields(budget)

    def fill(i):
        shutil.rmtree(workdir / f"setup{i - 1}", ignore_errors=True)
        run_fill(workdir / f"setup{i}", fields)

    setup_raw, setup_slow = repeated_setup(
        fill, repeats=setup_repeats, seconds=setup_seconds)
    base = (workdir / f"setup{len(setup_raw) - 1}"
            if workload.rereads_traces else None)
    key = golden_key(workload.name, budget)
    rounds: list[list[tuple[Round, float]]] = []
    failed = 0
    start = time.perf_counter()
    before = host_slowdown()
    while True:
        order = list(workload.kernels)
        rng.shuffle(order)
        ops = []
        for name in order:
            cache = workdir / f"op{len(rounds)}-{name}"
            op = run_round(make_config(workload.config_fields([name], budget)),
                           cache, base)
            after = host_slowdown()
            shutil.rmtree(cache, ignore_errors=True)
            ops.append((op, (before + after) / 2))
            before = after
            failed += len(failed_kernels(workload, op, golden, key))
        rounds.append(ops)
        round_wall = sum(op.wall for op, _ in ops)
        if time.perf_counter() + round_wall > start + seconds:
            break
    normalised = [[op.wall / slowdown for op, slowdown in ops]
                  for ops in rounds]
    kernels = len(workload.kernels)
    return {
        "attempted": len(rounds) * kernels,
        "failed": failed,
        "metrics": {
            "ops_per_s": kernels / median(sum(r) for r in normalised),
            "latency_p50_ms": 1e3 * median(t for r in normalised for t in r),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": median(t / s for t, s in zip(setup_raw, setup_slow)),
        },
        "details": {
            "rounds": len(rounds),
            "op_wall_s": [[(op.kernels[0], op.wall) for op, _ in ops]
                          for ops in rounds],
            "op_slowdown": [[s for _, s in ops] for ops in rounds],
            "minstr_per_s": [
                sum(p["dynamic_count"] for op, _ in ops
                    for p in op.profiles.values())
                / sum(op.wall for op, _ in ops) / 1e6 for ops in rounds],
            "setup_s": setup_raw,
            "setup_slowdown": setup_slow,
            "budget": budget,
            "kernels": list(workload.kernels),
        },
        "profiles": {name: data for op, _ in rounds[0]
                     for name, data in op.profiles.items()},
    }


# ----------------------------------------------------------------------
# traced mode
# ----------------------------------------------------------------------

@contextmanager
def traced_program(spans: Spans, scenarios: list):
    """Record spans around the runner's calls into each layer.

    Wraps, for the duration of the block: ``stream_workload`` (its
    stream also gets a span per producer step), the streaming engine's
    ``analyze_all`` (capturing the runner's scenario list into
    ``scenarios``) and the profile cache's load and store.
    """
    from repro.exp import runner
    from repro.vm import tracecache

    saved = []

    def patch(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    stream_workload = runner.stream_workload

    def traced_stream_workload(*args, **kwargs):
        with spans.span("stream_workload"):
            stream = stream_workload(*args, **kwargs)
        return SpanStream(stream, spans)

    class TracedEngine(runner.StreamingDataflowEngine):
        def analyze_all(self, scens):
            scenarios[:] = list(scens)
            with spans.span("analyze_all"):
                return super().analyze_all(scens)

    def spanned(name, fn):
        def call(*args, **kwargs):
            with spans.span(name):
                return fn(*args, **kwargs)
        return call

    patch(runner, "stream_workload", traced_stream_workload)
    patch(runner, "StreamingDataflowEngine", TracedEngine)
    for name in ("load_cached_profile", "store_cached_profile"):
        patch(tracecache, name, spanned(name, getattr(tracecache, name)))
    try:
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class KernelDrains:
    """Timed drains of one kernel's layers, each a call returning its
    seconds.

    Execute is an execution-stream drain; encode is a ``write_stream``
    of the same stream minus execute; decode is a file-stream drain;
    the shared precompute is ``analyze_all([])`` minus decode.  The
    fold families are added one at a time, base, then ILR, then TLR:
    each family's cost is ``analyze_all`` with it and the families
    before it, minus ``analyze_all`` without it.  The families then add
    up to ``analyze_all`` over every scenario, measured directly, so
    their sum is as steady as one drain even where one family's share
    is lost in noise.
    """

    def __init__(self, name: str, budget: int, scenarios, path) -> None:
        from repro.dataflow.streaming import StreamingDataflowEngine
        from repro.vm.backends import create_machine
        from repro.vm.tracestream import (
            ExecutionChunkStream,
            FileTraceStream,
            write_stream,
        )
        from repro.workloads.base import build_program

        self.path = path
        self.engine = None

        def execution():
            return ExecutionChunkStream(
                lambda: create_machine(build_program(name)),
                program_name=name, max_instructions=budget)

        def timed(fn):
            def drain():
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
            return drain

        def decode():
            with FileTraceStream(path) as stream:
                return timed(lambda: sum(len(c) for c in stream.chunks()))()

        def analysis(scens):
            def drain():
                with FileTraceStream(path) as stream:
                    self.engine = StreamingDataflowEngine(stream)
                    return timed(lambda: self.engine.analyze_all(scens))()
            return drain

        families = {kind: [s for s in scenarios if s.kind == kind]
                    for kind in ("base", "ilr", "tlr")}
        self.families = {k: f for k, f in families.items() if f}
        cumulative = {"shared": []}
        added: list = []
        for kind, family in self.families.items():
            added = added + family
            cumulative[kind] = added
        # write before decode and the analyses, which read its file
        self.drains = {
            "exec": timed(lambda: sum(len(c) for c in execution().chunks())),
            "write": timed(lambda: write_stream(execution(), path)),
            "decode": decode,
            **{kind: analysis(scens) for kind, scens in cumulative.items()},
        }

    def layers(self, seconds: dict) -> dict:
        """Layer seconds from the typical seconds of each drain."""
        previous = ["shared", *self.families][:-1]
        return {
            "n": self.engine.n,
            "exec": seconds["exec"],
            "encode": seconds["write"] - seconds["exec"],
            "bytes": self.path.stat().st_size,
            "decode": seconds["decode"],
            "shared": seconds["shared"] - seconds["decode"],
            "folds": {kind: (seconds[kind] - seconds[prev], len(family))
                      for prev, (kind, family)
                      in zip(previous, self.families.items())},
            "signatures": self.engine.reuse.signature_count,
            "spans": self.engine.span_count,
            "covered": self.engine.span_covered,
        }


def drain_layers(names, budget: int, scenarios, workdir,
                 deadline: float) -> dict[str, dict]:
    """Each kernel's layer seconds, in reference-host seconds.

    The drains run in rounds, each round running every drain of every
    kernel once, until the next round would end after ``deadline``
    (:func:`time.perf_counter` time; at least one round, at most
    :data:`DRAIN_MAX_ROUNDS`).  Rounds, not back-to-back repeats, so
    that a host slow spell, which lasts seconds, does not fall on one
    drain and miss the drain it is subtracted from.  The host slowdown
    is probed after every :data:`PROBE_EVERY_S` of drains; each drain
    is divided by the mean of the probes around it, and each drain
    keeps the median of its normalised times.
    """
    kernels = {name: KernelDrains(name, budget, scenarios,
                                  workdir / f"{name}.drain.trace")
               for name in names}
    normalised: dict[tuple, list[float]] = {
        (name, kind): [] for name, k in kernels.items() for kind in k.drains}
    pending: list[tuple[tuple, float]] = []
    before = host_slowdown()
    rounds = 0
    while True:
        begun = time.perf_counter()
        for key in normalised:
            pending.append((key, kernels[key[0]].drains[key[1]]()))
            if sum(t for _, t in pending) >= PROBE_EVERY_S:
                after = host_slowdown()
                for done, seconds in pending:
                    normalised[done].append(seconds / ((before + after) / 2))
                pending.clear()
                before = after
        rounds += 1
        now = time.perf_counter()
        if rounds >= DRAIN_MAX_ROUNDS or now + (now - begun) > deadline:
            break
    if pending:
        after = host_slowdown()
        for done, seconds in pending:
            normalised[done].append(seconds / ((before + after) / 2))
    layers = {name: k.layers({kind: median(normalised[(name, kind)])
                              for kind in k.drains})
              for name, k in kernels.items()}
    for k in kernels.values():
        k.path.unlink()
    return layers


def per_kernel_layers(x: dict) -> dict:
    """One kernel's layer costs in ns per instruction (folds: per
    instruction and scenario), so a kernel can be compared with itself
    at another budget whatever else the workloads run."""
    ns = 1e9 / x["n"]
    return {
        "instructions": x["n"],
        "exec_ns": x["exec"] * ns,
        "encode_ns": x["encode"] * ns,
        "decode_ns": x["decode"] * ns,
        "shared_ns": x["shared"] * ns,
        **{f"fold_{kind}_ns": seconds * ns / count
           for kind, (seconds, count) in x["folds"].items()},
        "signatures": x["signatures"],
        "avg_span_len": x["covered"] / x["spans"],
    }


def traced_pair(workload: BatchWorkload, order, budget: int, workdir,
                base_dir, golden: dict, key: str) -> dict:
    """One untraced and one traced round of the same config, and the
    profile cache measured after them.  Walls are also given in
    reference-host seconds (``plain_s``, ``traced_s``)."""
    from repro.vm import tracecache

    config = make_config(workload.config_fields(order, budget))
    probes = [host_slowdown()]
    plain = run_round(config, workdir / "plain", base_dir)
    probes.append(host_slowdown())
    shutil.rmtree(workdir / "plain")

    spans = Spans()
    scenarios: list = []
    with traced_program(spans, scenarios):
        traced = run_round(config, workdir / "traced", base_dir)
    probes.append(host_slowdown())
    failed = (failed_kernels(workload, plain, golden, key)
              | failed_kernels(workload, traced, golden, key))

    loads = []
    for name in order:
        start = time.perf_counter()
        for _ in range(LOAD_REPEATS):
            tracecache.load_cached_profile(name, config.cache_key())
        loads.append((time.perf_counter() - start) / LOAD_REPEATS)
    info = tracecache.cache_info()
    shutil.rmtree(workdir / "traced")
    if not scenarios:
        raise RuntimeError("traced round captured no analyze_all call")
    return {
        "plain": plain, "traced": traced, "spans": spans,
        "scenarios": scenarios, "probes": probes, "loads": loads,
        "info": info, "failed": failed,
        "plain_s": plain.wall / ((probes[0] + probes[1]) / 2),
        "traced_s": traced.wall / ((probes[1] + probes[2]) / 2),
    }


def pair_metrics(pair: dict, layers: list[dict],
                 rereads_traces: bool) -> dict:
    """The metrics one round pair gives, its traced wall checked
    against the drained layers."""
    plain, traced, spans = pair["plain"], pair["traced"], pair["spans"]
    producer = ("decode",) if rereads_traces else ("exec", "encode")
    model = sum(sum(x[k] for k in producer) + x["shared"]
                + sum(f for f, _ in x["folds"].values()) for x in layers)
    analyze = spans.total("analyze_all")
    # the traced round's time outside analyze_all, in reference seconds
    outside = (traced.wall - analyze) * pair["traced_s"] / traced.wall
    stage_sum = sum(s for k, s in plain.timers.items()
                    if k.startswith("stage."))
    return {
        "pipeline.producer_share": spans.total("producer") / analyze,
        "runner.minstr_per_s": sum(
            p["dynamic_count"] for p in plain.profiles.values())
            / pair["plain_s"] / 1e6,
        "runner.unattributed_s": traced.wall - spans.top_level_total(),
        "cache.profile_load_us": 1e6 * median(pair["loads"]),
        "cache.profile_store_us": 1e6 * spans.total("store_cached_profile")
            / max(1, spans.count("store_cached_profile")),
        "cache.profile_entry_bytes": pair["info"]["profile_bytes"]
            / max(1, pair["info"]["profiles"]),
        "obs.stage_coverage": stage_sum / plain.wall,
        "trace.overhead": pair["traced_s"] / pair["plain_s"],
        "trace.layer_coverage": (model + outside) / pair["traced_s"],
    }


def layer_metrics(layers: list[dict]) -> dict:
    """The per-instruction layer costs of the drained kernels."""
    n = sum(x["n"] for x in layers)

    def fold_ns(kind):
        total = sum(x["folds"][kind][0] for x in layers)
        return 1e9 * total / (n * layers[0]["folds"][kind][1])

    return {
        "vm.exec_ns_per_instr": 1e9 * sum(x["exec"] for x in layers) / n,
        "codec.encode_ns_per_instr":
            1e9 * sum(x["encode"] for x in layers) / n,
        "codec.bytes_per_instr": sum(x["bytes"] for x in layers) / n,
        "codec.decode_ns_per_instr":
            1e9 * sum(x["decode"] for x in layers) / n,
        "analysis.shared_ns_per_instr":
            1e9 * sum(x["shared"] for x in layers) / n,
        "analysis.fold_base_ns": fold_ns("base"),
        "analysis.fold_ilr_ns": fold_ns("ilr"),
        "analysis.fold_tlr_ns": fold_ns("tlr"),
    }


def trace_layers(workload: BatchWorkload, *, seed: int, seconds: float,
                 budget: int, workdir, golden: dict) -> dict:
    """The traced run: untraced/traced round pairs for a third of
    ``seconds``, then rounds of layer drains for the rest.

    The drains give the per-instruction layer costs; every other
    metric is the median over pairs.
    """
    from repro.vm.tracev3 import codec_threads

    rng = random.Random(seed)
    run_fill(workdir / "setup", workload.fill_fields(budget))
    base = workdir / "setup" if workload.rereads_traces else None
    key = golden_key(workload.name, budget)
    pairs: list[dict] = []
    start = time.perf_counter()
    while True:
        order = list(workload.kernels)
        rng.shuffle(order)
        begun = time.perf_counter()
        pairs.append(traced_pair(workload, order, budget, workdir, base,
                                 golden, key))
        now = time.perf_counter()
        if now + (now - begun) > start + seconds / 3:
            break
    layers = drain_layers(workload.kernels, budget, pairs[0]["scenarios"],
                          workdir, start + seconds)
    drained = list(layers.values())
    samples = [pair_metrics(p, drained, workload.rereads_traces)
               for p in pairs]
    span_count = sum(x["spans"] for x in drained)
    first = pairs[0]["traced"]
    return {
        "attempted": 2 * len(pairs) * len(workload.kernels),
        "failed": sum(len(p["failed"]) for p in pairs),
        "metrics": {**layer_metrics(drained),
                    **{k: median(s[k] for s in samples) for k in samples[0]}},
        # counts fixed by the inputs, the self-check counters and the
        # program's own stage timers, printed beside the bench spans
        "details": {
            "budget": budget,
            "instructions": sum(x["n"] for x in drained),
            "analysis.signatures": sum(x["signatures"] for x in drained),
            "analysis.spans": span_count,
            "analysis.avg_span_len":
                sum(x["covered"] for x in drained) / span_count,
            "cache.trace_hits": first.counters.get("trace_cache.hit", 0),
            "cache.trace_stores": first.counters.get("trace_cache.store", 0),
            "cache.profile_misses":
                first.counters.get("profile_cache.miss", 0),
            "runner.retries": sum(p["plain"].retries + p["traced"].retries
                                  for p in pairs),
            "codec.threads": codec_threads(),
            "per_kernel": {name: per_kernel_layers(x)
                           for name, x in layers.items()},
            "pairs": [{
                "wall_s": {"untraced": p["plain"].wall,
                           "traced": p["traced"].wall},
                "host_slowdown": p["probes"],
                "obs.stages_s": p["plain"].timers,
                "bench.spans": p["spans"].summary(),
                "metrics": m,
            } for p, m in zip(pairs, samples)],
        },
    }
