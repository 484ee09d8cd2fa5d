"""Per-benchmark analysis pipeline and the parallel fan-out.

``run_profile`` executes one kernel and derives every number figures
3-8 and the section 4.5 statistics need.  The ~24 timing scenarios
(base, ILR and TLR sweeps, both window sizes, plus the proportional-K
family; see :func:`profile_scenarios`) fold inside one
:class:`~repro.dataflow.streaming.StreamingDataflowEngine` drain of
the kernel's chunk stream.  ``run_profile_reference`` keeps the
original per-scenario pipeline (row-layout trace, one
``DataflowModel.analyze`` per scenario) as the independent oracle for
differential tests and as the slow baseline for the engine benchmark.

``collect_profiles`` fans the 14 kernels out over a process pool
(each worker regenerates its own trace — cheaper than shipping
multi-megabyte streams through pickles, per the owner-computes rule).

The fan-out is *fault tolerant and observable*: every run appends a
JSONL manifest under ``<cache_dir>/runs/`` (see
:mod:`repro.obs.manifest`), a kernel that fails — raises, hangs past
``config.task_timeout``, or takes its worker process down — is
retried with backoff up to ``config.task_retries`` extra attempts and
then *recorded* as a failure instead of killing the sweep, and a
broken process pool degrades to sequential execution in the parent.
Completed profiles land in the persistent cache as they finish, so an
interrupted sweep is checkpointed for free: the next invocation
resumes from the cache and recomputes only the failed/missing
kernels, bit-identical to an uninterrupted run.

``REPRO_FAULT_INJECT="li=crash,gcc=raise"`` (testing/CI only) makes
the named kernels fail on purpose: ``crash`` kills the worker process
(``raise`` in the parent), ``raise`` raises, ``sleep<secs>`` stalls.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

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
from repro.util.parallel import default_worker_count
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
        if isinstance(cached, BenchmarkProfile):
            return cached
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
        tracecache.store_cached_profile(name, config.cache_key(), profile)
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
    actually running inside a worker (a process-pool child, or a
    service worker shard, which marks itself with
    ``REPRO_SERVICE_WORKER``); in the parent (e.g. during the
    sequential fallback) it degrades to an exception so the injection
    can never take the whole run down.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    for clause in spec.split(","):
        kernel, _, mode = clause.partition("=")
        if kernel.strip() != name:
            continue
        mode = mode.strip() or "raise"
        in_worker = (
            multiprocessing.parent_process() is not None
            or os.environ.get("REPRO_SERVICE_WORKER") == "1"
        )
        if mode == "crash" and in_worker:
            os._exit(3)
        if mode.startswith("sleep"):
            time.sleep(float(mode[len("sleep"):] or "3600"))
            return
        raise RuntimeError(f"injected fault for kernel {name!r} ({mode})")


def _profile_task(
    args: tuple[str, ExperimentConfig]
) -> tuple[str, BenchmarkProfile, dict]:
    """Worker body: one kernel, telemetry captured in its own scope."""
    name, config = args
    with obs.scope() as registry:
        _maybe_inject_fault(name)
        profile = run_profile(name, config)
        snapshot = registry.snapshot()
    return name, profile, snapshot


class _Collector:
    """Shared bookkeeping for one ``collect_profiles`` run."""

    def __init__(self, config: ExperimentConfig, manifest: RunManifest | None):
        self.config = config
        self.manifest = manifest
        self.done: dict[str, BenchmarkProfile] = {}
        self.failures: dict[str, ProfileFailure] = {}
        self.attempts: dict[str, int] = {}
        self.errors: dict[str, tuple[str, str]] = {}

    def emit(self, event: str, **fields) -> None:
        if self.manifest is not None:
            self.manifest.emit(event, **fields)

    # -- outcome recording ---------------------------------------------
    def succeeded(self, name: str, profile: BenchmarkProfile,
                  seconds: float, snapshot: dict, source: str = "computed",
                  ) -> None:
        self.done[name] = profile
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
    """Profile ``names`` in-process, with the same retry policy.

    Used for single-worker configs and as the degraded mode after a
    process-pool crash.  ``task_timeout`` cannot preempt in-process
    work, so it is not enforced here.
    """
    config = collector.config
    for name in names:
        while name not in collector.done and name not in collector.failures:
            if collector.attempts.get(name, 0) > 0:
                collector.backoff(name)
            collector.start_attempt(name)
            t0 = time.monotonic()
            try:
                _, profile, snapshot = _profile_task((name, config))
            except Exception as exc:
                collector.errored(name, type(exc).__name__, str(exc))
                continue
            collector.succeeded(name, profile, time.monotonic() - t0,
                                snapshot)


def _run_pool(collector: _Collector, names: list[str], workers: int) -> None:
    """Fan ``names`` out over a spawn-context process pool.

    Per-task timeouts are measured from submission; a timed-out or
    crashed attempt is retried (with backoff) like any other failure.
    A broken pool falls back to :func:`_run_sequential` for everything
    not yet completed.
    """
    config = collector.config
    context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    in_flight: dict = {}
    abandoned = False
    pool_broken = False

    def submit(name: str) -> bool:
        nonlocal pool_broken
        collector.start_attempt(name)
        try:
            future = pool.submit(_profile_task, (name, config))
        except BrokenProcessPool:
            pool_broken = True
            return False
        in_flight[future] = (name, time.monotonic())
        return True

    try:
        for name in names:
            if not submit(name):
                break
        while in_flight and not pool_broken:
            poll = 0.1 if config.task_timeout is not None else None
            completed, _ = wait(list(in_flight), timeout=poll,
                                return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for future in completed:
                name, submitted = in_flight.pop(future)
                try:
                    _, profile, snapshot = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    break
                except Exception as exc:
                    if collector.errored(name, type(exc).__name__, str(exc)):
                        collector.backoff(name)
                        submit(name)
                    continue
                collector.succeeded(name, profile, now - submitted, snapshot)
            if pool_broken:
                break
            if config.task_timeout is not None:
                for future in list(in_flight):
                    name, submitted = in_flight[future]
                    if now - submitted <= config.task_timeout:
                        continue
                    del in_flight[future]
                    if not future.cancel():
                        # already running: the worker may be hung; it
                        # will be terminated at shutdown
                        abandoned = True
                    if collector.errored(
                        name, "TimeoutError",
                        f"kernel exceeded task_timeout="
                        f"{config.task_timeout}s",
                    ):
                        collector.backoff(name)
                        submit(name)
    finally:
        if abandoned or pool_broken:
            # don't wait on hung or dead workers; reclaim them hard
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except OSError:  # pragma: no cover - already gone
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)

    if pool_broken:
        remaining = sorted(
            {name for name, _ in in_flight.values()}
            | {
                name for name in names
                if name not in collector.done
                and name not in collector.failures
            }
        )
        collector.emit("worker_crash", in_flight=remaining)
        _log.warning(
            "a profile worker crashed; kernels not yet completed: %s — "
            "falling back to sequential execution",
            ", ".join(remaining) or "<none>",
        )
        obs.incr("runner.worker_crash")
        collector.emit("fallback_sequential", remaining=remaining)
        ordered = [n for n in names if n in remaining]
        _run_sequential(collector, ordered)


def collect_profiles(
    config: ExperimentConfig | None = None,
    *,
    manifest: RunManifest | bool | None = None,
) -> ProfileRun:
    """Profiles for every configured workload, fanned out over cores.

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

    collector = _Collector(config, manifest)
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
                    name, config.cache_key()
                )
                snapshot = registry.snapshot()
            if isinstance(cached, BenchmarkProfile):
                resumed.append(name)
                collector.succeeded(name, cached, 0.0, snapshot,
                                    source="cache")

    pending = [n for n in names if n not in collector.done]
    if pending:
        workers = config.max_workers
        if workers is None:
            workers = default_worker_count(len(pending))
        if workers <= 1 or len(pending) < 2:
            _run_sequential(collector, pending)
        else:
            _run_pool(collector, pending, workers)

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
