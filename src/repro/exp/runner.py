"""Per-benchmark analysis pipeline and the one fan-out.

``run_profile`` executes one kernel and derives every number figures
3-8 and the section 4.5 statistics need.  The ~24 timing scenarios
(base, ILR and TLR sweeps, both window sizes, plus the proportional-K
family; see :func:`profile_scenarios`) fold inside one
:class:`~repro.dataflow.streaming.StreamingDataflowEngine` drain of
the kernel's chunk stream.  ``run_profile_reference`` keeps the
original per-scenario pipeline (row-layout trace, one
``DataflowModel.analyze`` per scenario) as the independent oracle for
differential tests and as the slow baseline for the engine benchmark.

``collect_profiles`` runs the 14 kernels either in this process or,
with several workers and the cache on, as shards of the persistent
queue in :mod:`repro.exp.service` drained by ``repro worker``
processes (each regenerates its own trace and hands its result back
through the cache, per the owner-computes rule).  A shard's *kind*
picks what it computes per kernel: a ``profile`` (:func:`run_profile`)
or the kernel's Figure 9 rows (``fig9``,
:func:`repro.exp.figures.fig9_rows`).

The sweep is *fault tolerant and observable*: every run appends a
JSONL manifest under ``<cache_dir>/runs/`` (see
:mod:`repro.obs.manifest`), a kernel that fails — raises, hangs past
``config.task_timeout``, or takes its worker process down — is
retried with backoff up to ``config.task_retries`` extra attempts and
then *recorded* as a failure instead of killing the sweep, and once
every worker has exited the shards they left behind are drained in
the parent.  Completed profiles land in the persistent cache as they
finish, so an interrupted sweep is checkpointed for free: the next
invocation resumes from the cache and recomputes only the
failed/missing kernels, bit-identical to an uninterrupted run.

``REPRO_FAULT_INJECT="li=crash,gcc=raise"`` (testing/CI only) makes
the named kernels fail on purpose: ``crash`` kills the worker process
(``raise`` in the parent), ``raise`` raises, ``sleep<secs>`` stalls.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from repro import obs
from repro.baselines.ilr import ilr_reuse_plan, instruction_reusability
from repro.core.reuse_tlr import (
    ConstantReuseLatency,
    ProportionalReuseLatency,
    tlr_reuse_plan,
)
from repro.core.stats import TraceIOStats, trace_io_stats
from repro.core.traces import average_span_length, maximal_reusable_spans
from repro.dataflow.model import DataflowModel, Scenario
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.exp.config import ExperimentConfig
from repro.obs.manifest import RunManifest
from repro.vm import tracecache
from repro.workloads.base import build_program, get_workload, stream_workload

_log = obs.get_logger("runner")

#: Fault-injection env var: ``"kernel=mode[,kernel=mode...]"`` with
#: modes ``crash`` (kill the worker), ``raise`` (raise RuntimeError)
#: and ``sleep<seconds>`` (stall; trips the per-task timeout).
FAULT_ENV = "REPRO_FAULT_INJECT"

@dataclass(slots=True)
class BenchmarkProfile:
    """Everything figures 3-8 need for one benchmark."""

    name: str
    suite: str
    dynamic_count: int
    percent_reusable: float
    avg_trace_size: float
    trace_count: int
    base_ipc_inf: float
    base_ipc_win: float
    #: reuse latency (cycles) -> speed-up, infinite window
    ilr_speedup_inf: dict[int, float] = field(default_factory=dict)
    #: reuse latency (cycles) -> speed-up, finite window
    ilr_speedup_win: dict[int, float] = field(default_factory=dict)
    tlr_speedup_inf: dict[int, float] = field(default_factory=dict)
    tlr_speedup_win: dict[int, float] = field(default_factory=dict)
    #: proportionality constant K -> speed-up, finite window
    tlr_speedup_win_prop: dict[float, float] = field(default_factory=dict)
    io_stats: TraceIOStats | None = None


#: The speed-up tables keyed by reuse latency (int cycles), and the one
#: keyed by the proportionality constant K (float).
_LATENCY_TABLES = ("ilr_speedup_inf", "ilr_speedup_win", "tlr_speedup_inf",
                   "tlr_speedup_win")
_K_TABLE = "tlr_speedup_win_prop"
_PROFILE_FIELDS = tuple(f.name for f in fields(BenchmarkProfile))
_IO_FIELDS = tuple(f.name for f in fields(TraceIOStats))


def profile_to_json(profile: BenchmarkProfile) -> dict[str, Any]:
    """A profile as a JSON-safe dict, fields in declaration order, with
    the numeric dict keys stringified.  This is the profile cache's
    document and the ``profile`` of ``repro serve``'s answers."""
    out = {f: getattr(profile, f) for f in _PROFILE_FIELDS}
    for f in _LATENCY_TABLES + (_K_TABLE,):
        out[f] = {str(k): v for k, v in out[f].items()}
    io = profile.io_stats
    out["io_stats"] = (None if io is None else
                       {f: getattr(io, f) for f in _IO_FIELDS})
    return out


def profile_from_json(doc: dict[str, Any]) -> BenchmarkProfile:
    """The inverse of :func:`profile_to_json`: latency keys back to
    ``int``, K keys to ``float``, ``io_stats`` to :class:`TraceIOStats`.
    JSON floats round-trip exactly, so the result ``==`` the original."""
    kwargs = dict(doc)
    for f in _LATENCY_TABLES:
        kwargs[f] = {int(k): v for k, v in doc[f].items()}
    kwargs[_K_TABLE] = {float(k): v for k, v in doc[_K_TABLE].items()}
    io = doc["io_stats"]
    kwargs["io_stats"] = None if io is None else TraceIOStats(**io)
    return BenchmarkProfile(**kwargs)


def profile_scenarios(config: ExperimentConfig) -> list[Scenario]:
    """The figure 3-8 scenario list of one profile, in the order
    :func:`profile_from_engine` reads the results: both base runs, then
    ILR/TLR x infinite/finite window per reuse latency, then the
    proportional-K TLR family."""
    win = config.window_size
    scenarios = [
        Scenario("base", window_size=None),
        Scenario("base", window_size=win),
    ]
    for latency in config.reuse_latencies:
        lat = float(latency)
        scenarios += [
            Scenario("ilr", window_size=None, latency=lat),
            Scenario("ilr", window_size=win, latency=lat),
            Scenario("tlr", window_size=None, latency=lat),
            Scenario("tlr", window_size=win, latency=lat),
        ]
    for k in config.proportional_ks:
        scenarios.append(Scenario("tlr", window_size=win, k=k))
    return scenarios


def profile_from_engine(
    name: str,
    suite: str,
    engine: StreamingDataflowEngine,
    config: ExperimentConfig,
) -> BenchmarkProfile:
    """Drain ``engine`` once over :func:`profile_scenarios` and
    assemble the :class:`BenchmarkProfile` from its results and its
    reusability/span summaries."""
    it = iter(engine.analyze_all(profile_scenarios(config)))
    base_inf = next(it)
    base_win = next(it)
    profile = BenchmarkProfile(
        name=name,
        suite=suite,
        dynamic_count=engine.n,
        percent_reusable=engine.reuse.percent_reusable,
        avg_trace_size=engine.avg_span_length,
        trace_count=engine.span_count,
        base_ipc_inf=base_inf.ipc,
        base_ipc_win=base_win.ipc,
        io_stats=engine.io_stats,
    )
    for latency in config.reuse_latencies:
        profile.ilr_speedup_inf[latency] = next(it).speedup_over(base_inf)
        profile.ilr_speedup_win[latency] = next(it).speedup_over(base_win)
        profile.tlr_speedup_inf[latency] = next(it).speedup_over(base_inf)
        profile.tlr_speedup_win[latency] = next(it).speedup_over(base_win)
    for k in config.proportional_ks:
        profile.tlr_speedup_win_prop[k] = next(it).speedup_over(base_win)
    return profile


def run_profile(
    name: str, config: ExperimentConfig | None = None
) -> BenchmarkProfile:
    """Run one kernel and analyse it under every figure-3..8 scenario.

    The trace is consumed as a chunk stream: a cache hit decodes the v3
    entry chunk by chunk, a miss executes the kernel and tees each
    segment into the analysis while a background writer persists the
    cache entry.  Every scenario folds inside one
    :class:`StreamingDataflowEngine` drain, so peak memory is O(chunk),
    not O(trace).  The numbers are bit-for-bit identical to
    :func:`run_profile_reference`.

    With ``config.use_cache`` (the default) the finished profile is
    memoised in the persistent cache, keyed by the workload, the
    analysis-relevant config fields and the code fingerprint — a warm
    run skips VM execution *and* analysis.  A cached trace whose
    chunks turn out not to decode is discarded and recomputed.
    """
    if config is None:
        config = ExperimentConfig()
    if config.tier0_static:
        # tier-0: predict the whole profile statically — no VM, no
        # trace, no cache round-trip (the estimator is milliseconds)
        from repro.static.estimator import estimate_profile

        return estimate_profile(name, config)
    if config.use_cache:
        cached = tracecache.load_cached_profile(name, config.cache_key())
        if cached is not None:
            return profile_from_json(cached)
    workload = get_workload(name)

    clock = time.perf_counter
    opened: list[float] = []  # seconds spent constructing each stream

    def open_stream():
        start = clock()
        try:
            return stream_workload(
                name,
                scale=config.scale,
                max_instructions=config.max_instructions,
                use_cache=config.use_cache,
            )
        finally:
            opened.append(clock() - start)

    # The stream is lazy: execute, the tee hand-off and decode run inside
    # the engine's drain, which times its stream's next() calls.  That
    # time and stream construction are billed to stage.trace, engine
    # construction to stage.engine_init and the rest of the drain to
    # stage.analysis.
    engines: list[StreamingDataflowEngine] = []
    inits: list[float] = []

    def drain(stream):
        init = clock()
        engines.append(StreamingDataflowEngine(stream))
        inits.append(clock() - init)
        return profile_from_engine(name, workload.suite, engines[-1], config)

    start = clock()
    try:
        profile = tracecache.drain_healing(open_stream, drain)
    finally:
        drained = clock() - start
        producer = sum(opened) + sum(e.producer_seconds for e in engines)
        telemetry = obs.current()
        telemetry.add_time("stage.trace", producer)
        telemetry.add_time("stage.engine_init", sum(inits))
        telemetry.add_time("stage.analysis",
                           drained - producer - sum(inits))
    obs.incr("profiles.computed")
    if config.use_cache:
        tracecache.store_cached_profile(name, config.cache_key(),
                                        profile_to_json(profile))
    return profile


def run_profile_reference(
    name: str, config: ExperimentConfig | None = None
) -> BenchmarkProfile:
    """The original per-scenario pipeline, kept as the slow oracle.

    Executes the kernel through the step-interpreter
    (:meth:`Machine.run_rows`), builds row-layout reuse plans, and
    runs one :meth:`DataflowModel.analyze` scan per scenario — no code
    shared with the streaming engine.  Differential tests assert
    equality with :func:`run_profile`; the engine benchmark measures
    its wall-clock as the baseline.
    """
    if config is None:
        config = ExperimentConfig()
    from repro.vm.machine import Machine

    workload = get_workload(name)
    machine = Machine(build_program(name, config.scale))
    trace = machine.run_rows(max_instructions=config.max_instructions)
    reuse = instruction_reusability(trace)
    spans = maximal_reusable_spans(trace, reuse.flags)

    infinite = DataflowModel(window_size=None)
    windowed = DataflowModel(window_size=config.window_size)
    base_inf = infinite.analyze(trace)
    base_win = windowed.analyze(trace)

    profile = BenchmarkProfile(
        name=name,
        suite=workload.suite,
        dynamic_count=len(trace),
        percent_reusable=reuse.percent_reusable,
        avg_trace_size=average_span_length(spans),
        trace_count=len(spans),
        base_ipc_inf=base_inf.ipc,
        base_ipc_win=base_win.ipc,
        io_stats=trace_io_stats(spans),
    )

    for latency in config.reuse_latencies:
        ilr_plan = ilr_reuse_plan(trace, reuse.flags, float(latency))
        profile.ilr_speedup_inf[latency] = infinite.analyze(
            trace, ilr_plan
        ).speedup_over(base_inf)
        profile.ilr_speedup_win[latency] = windowed.analyze(
            trace, ilr_plan
        ).speedup_over(base_win)
        tlr_plan = tlr_reuse_plan(trace, spans, ConstantReuseLatency(float(latency)))
        profile.tlr_speedup_inf[latency] = infinite.analyze(
            trace, tlr_plan
        ).speedup_over(base_inf)
        profile.tlr_speedup_win[latency] = windowed.analyze(
            trace, tlr_plan
        ).speedup_over(base_win)

    for k in config.proportional_ks:
        plan = tlr_reuse_plan(trace, spans, ProportionalReuseLatency(k))
        profile.tlr_speedup_win_prop[k] = windowed.analyze(trace, plan).speedup_over(
            base_win
        )

    return profile


@dataclass(slots=True)
class ProfileFailure:
    """One kernel that could not be profiled, with its final error."""

    name: str
    kind: str
    message: str
    attempts: int


class ProfileRun(list):
    """``collect_profiles`` result: the successful profiles (in config
    order, as a plain list — existing callers keep working) plus the
    run's fault/resume metadata."""

    def __init__(self, profiles=(), *, failures=(), resumed=(),
                 manifest_path=None):
        super().__init__(profiles)
        #: kernels that exhausted their attempts, as :class:`ProfileFailure`
        self.failures: list[ProfileFailure] = list(failures)
        #: kernels restored from the persistent cache (checkpoint resume)
        self.resumed: tuple[str, ...] = tuple(resumed)
        #: the run's JSONL manifest, or None when manifests are disabled
        self.manifest_path = manifest_path

    @property
    def ok(self) -> bool:
        """True when every configured kernel produced a profile."""
        return not self.failures


def _maybe_inject_fault(name: str) -> None:
    """Honour ``REPRO_FAULT_INJECT`` (testing/CI fault injection).

    ``crash`` terminates the worker process abruptly — but only when
    actually running inside a ``repro worker`` process, which marks
    itself with ``REPRO_SERVICE_WORKER``; in the parent (e.g. during
    the inline drain) it degrades to an exception so the injection can
    never take the whole run down.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    for clause in spec.split(","):
        kernel, _, mode = clause.partition("=")
        if kernel.strip() != name:
            continue
        mode = mode.strip() or "raise"
        if mode == "crash" and os.environ.get("REPRO_SERVICE_WORKER") == "1":
            os._exit(3)
        if mode.startswith("sleep"):
            time.sleep(float(mode[len("sleep"):] or "3600"))
            return
        raise RuntimeError(f"injected fault for kernel {name!r} ({mode})")


def default_worker_count(task_count: int) -> int:
    """Pick a worker count: never more workers than tasks or cores."""
    cores = os.cpu_count() or 1
    return max(1, min(task_count, cores))


def shard_kind(kind: str) -> tuple[Callable[[str, ExperimentConfig], Any],
                                   Callable[[Any], Any]]:
    """``(compute, from_json)`` for one shard kind: the per-kernel
    function a shard runs (it reads and fills the kind's cache entries
    itself) and the reader of a cached document."""
    if kind == "fig9":
        from repro.exp.figures import fig9_rows

        return fig9_rows, list
    if kind != "profile":
        raise ValueError(f"unknown shard kind {kind!r}")
    return run_profile, profile_from_json


class _Collector:
    """Shared bookkeeping for one ``collect_profiles`` run of ``kind``."""

    def __init__(self, config: ExperimentConfig, manifest: RunManifest | None,
                 kind: str = "profile"):
        self.config = config
        self.manifest = manifest
        self.kind = kind
        self.compute, self.from_json = shard_kind(kind)
        self.done: dict[str, Any] = {}
        self.failures: dict[str, ProfileFailure] = {}
        self.attempts: dict[str, int] = {}
        self.errors: dict[str, tuple[str, str]] = {}

    def emit(self, event: str, **fields) -> None:
        if self.manifest is not None:
            self.manifest.emit(event, **fields)

    # -- outcome recording ---------------------------------------------
    def succeeded(self, name: str, result: Any,
                  seconds: float, snapshot: dict, source: str = "computed",
                  ) -> None:
        self.done[name] = result
        self.emit(
            "profile_done", name=name, attempt=self.attempts.get(name, 0),
            seconds=round(seconds, 6), source=source, telemetry=snapshot,
        )

    def errored(self, name: str, kind: str, message: str) -> bool:
        """Record one failed attempt; returns True when a retry is due."""
        attempt = self.attempts.get(name, 0)
        will_retry = attempt <= self.config.task_retries
        self.errors[name] = (kind, message)
        self.emit(
            "profile_error", name=name, attempt=attempt, kind=kind,
            message=message, will_retry=will_retry,
        )
        _log.warning("kernel %s failed (attempt %d, %s: %s)%s",
                     name, attempt, kind, message,
                     "; retrying" if will_retry else "")
        if not will_retry:
            self.failures[name] = ProfileFailure(
                name=name, kind=kind, message=message, attempts=attempt
            )
        return will_retry

    def backoff(self, name: str) -> None:
        attempt = self.attempts.get(name, 1)
        delay = self.config.retry_backoff * (2 ** (attempt - 1))
        self.emit("retry", name=name, attempt=attempt + 1,
                  backoff=round(delay, 6))
        if delay > 0:
            time.sleep(delay)

    def start_attempt(self, name: str) -> int:
        self.attempts[name] = self.attempts.get(name, 0) + 1
        self.emit("profile_start", name=name, attempt=self.attempts[name])
        return self.attempts[name]


def _run_sequential(collector: _Collector, names: list[str]) -> None:
    """Run ``collector.compute`` over ``names`` in-process, with the
    same retry policy.

    Used for single-worker and cache-off sweeps and inside each queue
    shard.  ``task_timeout`` cannot preempt in-process work, so it is
    not enforced here.
    """
    config = collector.config
    for name in names:
        while name not in collector.done and name not in collector.failures:
            if collector.attempts.get(name, 0) > 0:
                collector.backoff(name)
            collector.start_attempt(name)
            t0 = time.monotonic()
            try:
                # each attempt's telemetry is captured in its own scope
                with obs.scope() as registry:
                    _maybe_inject_fault(name)
                    result = collector.compute(name, config)
                    snapshot = registry.snapshot()
            except Exception as exc:
                collector.errored(name, type(exc).__name__, str(exc))
                continue
            collector.succeeded(name, result, time.monotonic() - t0,
                                snapshot)


def collect_profiles(
    config: ExperimentConfig | None = None,
    *,
    manifest: RunManifest | bool | None = None,
    kind: str = "profile",
) -> ProfileRun:
    """Profiles for every configured workload, fanned out over cores.

    With ``kind="fig9"`` the same fan-out collects each kernel's
    Figure 9 rows (:func:`repro.exp.figures.fig9_rows`) instead: the
    list holds one row list per kernel.

    The kernels run in this process when ``config.max_workers`` is 1
    (or 0), when fewer than two are pending, when the cache is off, or
    for ``tier0_static`` estimates.  Otherwise they run as shards of
    the persistent queue, drained by that many ``repro worker``
    processes (:func:`repro.exp.service.sweep.run_queued`).  The queue
    returns profiles through the cache, so it cannot run without one.
    Both ways give bit-identical profiles.

    Fault-tolerant: a kernel that raises, times out or kills its
    worker is retried (``config.task_retries`` extra attempts with
    exponential backoff) and finally recorded in ``.failures`` instead
    of aborting the sweep.  Completed profiles are checkpointed in the
    persistent cache, so re-invoking after an interruption recomputes
    only what is missing ("resume"); restored kernels are listed in
    ``.resumed``.

    ``manifest`` selects run-manifest recording: ``None`` (default)
    writes one when the cache is enabled, ``True`` forces one,
    ``False`` disables it.  The manifest is a JSONL event log under
    ``<cache_dir>/runs/`` — see :mod:`repro.obs.manifest` and the
    ``repro obs`` CLI.
    """
    if config is None:
        config = ExperimentConfig()
    if manifest is None or manifest is True:
        wants = manifest is True or (
            config.use_cache and tracecache.cache_enabled()
        )
        manifest = RunManifest() if wants else None
    elif manifest is False:
        manifest = None

    collector = _Collector(config, manifest, kind)
    names = list(config.workloads)
    t0 = time.monotonic()
    if manifest is not None:
        import dataclasses

        manifest.start(tuple(names), dataclasses.asdict(config))

    # checkpoint resume: anything already in the persistent profile
    # cache (from a previous, possibly interrupted, run) is restored
    # without spawning a worker
    resumed: list[str] = []
    if config.use_cache and tracecache.cache_enabled():
        for name in names:
            with obs.scope() as registry:
                cached = tracecache.load_cached_profile(
                    name, config.cache_key(), kind
                )
                snapshot = registry.snapshot()
            if cached is not None:
                resumed.append(name)
                collector.succeeded(name, collector.from_json(cached), 0.0,
                                    snapshot, source="cache")

    pending = [n for n in names if n not in collector.done]
    if pending:
        workers = config.max_workers
        if workers is None:
            workers = default_worker_count(len(pending))
        # the queue hands profiles back through the cache, which the
        # static estimator's profiles never enter
        if (workers <= 1 or len(pending) < 2 or config.tier0_static
                or not config.use_cache or not tracecache.cache_enabled()):
            _run_sequential(collector, pending)
        else:
            from repro.exp.service.sweep import run_queued

            run_queued(collector, pending, workers)

    profiles = [collector.done[n] for n in names if n in collector.done]
    failures = [collector.failures[n] for n in names
                if n in collector.failures]
    if manifest is not None:
        manifest.end(
            ok=[n for n in names if n in collector.done],
            failed=[n for n in names if n in collector.failures],
            resumed=resumed,
            seconds=round(time.monotonic() - t0, 6),
        )
    return ProfileRun(
        profiles,
        failures=failures,
        resumed=resumed,
        manifest_path=manifest.path if manifest is not None else None,
    )
