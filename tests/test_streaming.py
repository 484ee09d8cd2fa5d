"""The streaming pipeline's bit-identity contract.

Every consumer of a chunk stream — the streaming dataflow engine, the
RTM simulator, the ILR/distance/block/prediction baselines, and the
profile runner — must produce numbers *bit-identical* to its
materialized counterpart, at any chunk size.  The dataflow oracle is
the per-scenario :class:`DataflowModel`; profiles are checked against
``run_profile_reference``.  The beyond-RAM test then proves the point
of it all: under an address-space limit where the materialized
pipeline dies of MemoryError, the streaming pipeline completes and
still matches.
"""

import dataclasses
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

import repro.workloads  # registers the kernels
from repro.baselines.block import basic_block_spans
from repro.baselines.ilr import instruction_reusability, reusability_by_class
from repro.baselines.prediction import (
    LastValuePredictor,
    StridePredictor,
    value_predictability,
)
from repro.baselines.reuse_distance import signature_reuse_distances
from repro.core.rtm.collector import FixedLengthHeuristic, ILRHeuristic
from repro.core.rtm.memory import RTM_PRESETS
from repro.core.rtm.simulator import FiniteReuseSimulator
from repro.core.traces import maximal_reusable_spans
from repro.dataflow import streaming
from repro.dataflow.model import Scenario
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.exp.config import ExperimentConfig
from repro.exp.runner import (
    profile_scenarios,
    run_profile,
    run_profile_reference,
)
from repro.vm.trace import ColumnarTrace, extend_columnar
from repro.vm.tracestream import as_chunk_stream
from repro.workloads.base import all_workloads, run_workload, stream_workload

from test_fused_engine import reference_result

KERNELS = [w.name for w in all_workloads()]

SCENARIOS = [
    Scenario("base", window_size=None),
    Scenario("base", window_size=256),
    Scenario("base", window_size=7),
    Scenario("ilr", window_size=None, latency=1.0),
    Scenario("ilr", window_size=256, latency=2.0),
    Scenario("tlr", window_size=None, latency=1.0),
    Scenario("tlr", window_size=256, latency=1.0),
    Scenario("tlr", window_size=7, latency=3.0),
    Scenario("tlr", window_size=256, k=1 / 8),
    Scenario("tlr", window_size=256, latency=1.0, fetch_free=True),
]


def oracle_results(trace):
    """``SCENARIOS`` through the per-scenario :class:`DataflowModel`
    oracle, plus the reusability and spans its plans were built on."""
    reuse = instruction_reusability(trace)
    spans = maximal_reusable_spans(trace, reuse.flags)
    results = [reference_result(trace, scenario, reuse.flags, spans)
               for scenario in SCENARIOS]
    return results, reuse, spans


class TestStreamingEngine:
    @pytest.mark.parametrize("chunk_size", [7, 997, 65536])
    def test_bit_identical_to_fused(self, chunk_size):
        trace = run_workload("compress", max_instructions=4_000)
        expected, reuse, spans = oracle_results(trace)
        engine = StreamingDataflowEngine(trace, chunk_size=chunk_size)
        got = engine.analyze_all(SCENARIOS)
        assert got == expected
        assert engine.n == len(trace)
        assert engine.reuse.reusable_count == reuse.reusable_count
        assert engine.reuse.percent_reusable == reuse.percent_reusable
        assert engine.span_count == len(spans)

    def test_all_kernels_one_chunk_size(self):
        for name in KERNELS:
            trace = run_workload(name, max_instructions=2_000)
            expected, _, _ = oracle_results(trace)
            got = StreamingDataflowEngine(
                trace, chunk_size=311).analyze_all(SCENARIOS)
            assert got == expected, name

    @pytest.mark.parametrize("fold", ["generated", "level"])
    def test_all_kernels_each_fold(self, fold):
        for name in KERNELS:
            trace = run_workload(name, max_instructions=2_000)
            expected, _, _ = oracle_results(trace)
            with mock.patch.object(streaming, "_FORCE_FOLD", fold):
                got = StreamingDataflowEngine(
                    trace, chunk_size=311).analyze_all(SCENARIOS)
            assert got == expected, name

    def test_cost_rule(self):
        # the 6-scenario analyze set never pays for a level pass; the
        # 24-scenario profile levels compress's ~9-wide sub-blocks and
        # folds them by level
        trace = run_workload("compress", max_instructions=20_000)
        six = ExperimentConfig(reuse_latencies=(1,), proportional_ks=())
        engine = StreamingDataflowEngine(trace)
        engine.analyze_all(profile_scenarios(six))
        assert engine.folds["leveled"] == 0
        assert engine.folds["level"] == 0
        engine = StreamingDataflowEngine(trace)
        engine.analyze_all(profile_scenarios(ExperimentConfig()))
        assert engine.folds["generated"] == 0
        assert engine.folds["leveled"] == len(trace)

    def test_io_stats_match(self):
        from repro.core.stats import trace_io_stats

        trace = run_workload("li", max_instructions=3_000)
        reuse = instruction_reusability(trace)
        spans = maximal_reusable_spans(trace, reuse.flags)
        engine = StreamingDataflowEngine(trace, chunk_size=100)
        engine.analyze_all([Scenario("base", window_size=None)])
        assert engine.io_stats == trace_io_stats(spans)


class TestStreamingConsumers:
    @pytest.fixture(scope="class")
    def kernel(self):
        name = "compress"
        trace = run_workload(name, max_instructions=3_000)
        return name, trace

    def stream(self, trace, chunk_size=257):
        return as_chunk_stream(trace, chunk_size=chunk_size)

    def test_reusability(self, kernel):
        _, trace = kernel
        expected = instruction_reusability(trace)
        got = instruction_reusability(self.stream(trace))
        assert got.flags == expected.flags
        assert got.reusable_count == expected.reusable_count
        assert got.signature_count == expected.signature_count
        assert got.static_count == expected.static_count

    def test_rebased_bound_past_32_bits_raises(self):
        # a chunk appended after 2**32 - 1 reads must not wrap a bound
        dst = ColumnarTrace()
        dst.append(0, 0, [], [], 1, 1)
        dst.read_bounds[-1] = 2**32 - 1
        src = ColumnarTrace()
        src.append(0, 0, [(1, 5)], [], 1, 1)
        with pytest.raises(OverflowError):
            extend_columnar(dst, src)

    def test_reusability_by_class(self, kernel):
        _, trace = kernel
        flags = instruction_reusability(trace).flags
        assert (reusability_by_class(self.stream(trace), flags)
                == reusability_by_class(trace, flags))

    def test_maximal_spans(self, kernel):
        _, trace = kernel
        flags = instruction_reusability(trace).flags
        assert (maximal_reusable_spans(self.stream(trace), flags)
                == maximal_reusable_spans(trace, flags))

    def test_block_spans(self, kernel):
        _, trace = kernel
        flags = instruction_reusability(trace).flags
        assert (basic_block_spans(self.stream(trace), flags)
                == basic_block_spans(trace, flags))

    def test_predictors(self, kernel):
        _, trace = kernel
        for predictor_cls in (LastValuePredictor, StridePredictor):
            expected = value_predictability(trace, predictor_cls())
            got = value_predictability(self.stream(trace), predictor_cls())
            assert got.flags == expected.flags
            assert got.predicted_count == expected.predicted_count

    def test_reuse_distance(self, kernel):
        _, trace = kernel
        expected = signature_reuse_distances(trace)
        got = signature_reuse_distances(self.stream(trace))
        assert got.distances == expected.distances
        assert got.total_count == expected.total_count

    @pytest.mark.parametrize("reuse_test", ["compare", "invalidate"])
    def test_rtm_simulator(self, kernel, reuse_test):
        _, trace = kernel
        for heuristic in (ILRHeuristic(False), ILRHeuristic(True),
                          FixedLengthHeuristic(4)):
            sim = FiniteReuseSimulator(
                RTM_PRESETS["512"], heuristic, reuse_test=reuse_test)
            expected = sim.run(trace)
            sim2 = FiniteReuseSimulator(
                RTM_PRESETS["512"], heuristic, reuse_test=reuse_test)
            got = sim2.run(self.stream(trace, chunk_size=101))
            assert got.reused_instructions == expected.reused_instructions
            assert got.reuse_events == expected.reuse_events
            assert got.reused_ranges == expected.reused_ranges
            assert got.rtm_insertions == expected.rtm_insertions
            assert got.rtm_occupancy == expected.rtm_occupancy
            assert got.rtm_invalidations == expected.rtm_invalidations
            assert (got.collector_limit_terminations
                    == expected.collector_limit_terminations)


class TestStreamingProfiles:
    CONFIG = ExperimentConfig(
        max_instructions=1_500,
        reuse_latencies=(1, 4),
        proportional_ks=(1 / 8, 1.0),
        use_cache=False,
    )

    def test_profiles_bit_identical_all_kernels(self):
        for name in KERNELS:
            a = run_profile_reference(name, self.CONFIG)
            b = run_profile(name, self.CONFIG)
            assert dataclasses.asdict(a) == dataclasses.asdict(b), name

    def test_chunk_size_invariance(self):
        from repro.exp.runner import profile_scenarios

        trace = run_workload("go", max_instructions=1_500, use_cache=False)
        flags = instruction_reusability(trace).flags
        spans = maximal_reusable_spans(trace, flags)
        scens = profile_scenarios(self.CONFIG)
        expected = [reference_result(trace, scenario, flags, spans)
                    for scenario in scens]
        for chunk in (1, 7, 4096):
            engine = StreamingDataflowEngine(trace, chunk_size=chunk)
            assert engine.analyze_all(scens) == expected, chunk

    def test_cache_key_shared_across_pipelines(self):
        """Shard records written while the config still carried the
        ``streaming``/``direct_stream``/``stream_chunk_size``/``backend``
        knobs load and resolve to the same profile cache key."""
        record = self.CONFIG.to_dict()
        old = dict(record, streaming=True, direct_stream=False,
                   stream_chunk_size=777, backend="fast")
        loaded = ExperimentConfig.from_dict(json.loads(json.dumps(old)))
        assert loaded == self.CONFIG
        assert loaded.cache_key() == self.CONFIG.cache_key()

    def test_producer_time_billed_to_stage_trace(self, monkeypatch):
        """Time spent inside the lazy stream's chunk steps (execute,
        decode) is ``stage.trace``, not ``stage.analysis``; the two
        still add up to the whole stream-plus-drain time."""
        import time

        from repro import obs
        from repro.exp import runner

        pause = 0.05
        naps = []

        class SleepyStream:
            def __init__(self, stream):
                self._stream = stream

            def chunks(self):
                for chunk in self._stream.chunks():
                    time.sleep(pause)
                    naps.append(pause)
                    yield chunk

        def sleepy_stream_workload(name, **kwargs):
            trace = run_workload(name, max_instructions=1_500,
                                 use_cache=False)
            return SleepyStream(as_chunk_stream(trace, chunk_size=300))

        monkeypatch.setattr(runner, "stream_workload", sleepy_stream_workload)
        with obs.scope() as registry:
            start = time.perf_counter()
            run_profile("compress", self.CONFIG)
            wall = time.perf_counter() - start
        timers = registry.timers
        slept = sum(naps)
        assert timers["stage.trace"][0] >= slept
        assert timers["stage.analysis"][0] < slept / 2
        assert (timers["stage.trace"][0] + timers["stage.analysis"][0]
                + timers["stage.engine_init"][0]) <= wall


#: Budget/limit pair at which the materialized pipeline exceeds the
#: address-space limit but the O(chunk) streaming pipeline does not
#: (measured boundary: materialized needs >192 MiB from ~600k
#: instructions on, streaming stays under 160 MiB at any budget).
_BEYOND_RAM_BUDGET = 600_000
_BEYOND_RAM_LIMIT = 192 * 1024 * 1024

_MAT_SNIPPET = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS,
                   ({limit}, {limit}))
from repro.workloads.base import run_workload
from repro.dataflow.model import DataflowModel
t = run_workload("compress", max_instructions={budget}, use_cache=False)
DataflowModel(256).analyze(t)
print("materialized unexpectedly fit")
"""

_STREAM_SNIPPET = """\
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS,
                   ({limit}, {limit}))
from repro.workloads.base import stream_workload
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.dataflow.model import Scenario
from repro.core.rtm.memory import RTM_PRESETS
from repro.core.rtm.simulator import FiniteReuseSimulator
from repro.core.rtm.collector import ILRHeuristic
e = StreamingDataflowEngine(
    stream_workload("compress", max_instructions={budget}))
res = e.analyze_all([Scenario("base", window_size=256),
                     Scenario("tlr", window_size=256, latency=1.0)])
sim = FiniteReuseSimulator(RTM_PRESETS["512"], ILRHeuristic(False))
rtm = sim.run(
    stream_workload("compress", max_instructions={budget}))
print(json.dumps({{
    "n": e.n,
    "percent_reusable": e.reuse.percent_reusable,
    "span_count": e.span_count,
    "base_cycles": res[0].total_cycles,
    "tlr_cycles": res[1].total_cycles,
    "tlr_reused": res[1].reused_count,
    "rtm_reused": rtm.reused_instructions,
    "rtm_events": rtm.reuse_events,
    "rtm_invalidations": rtm.rtm_invalidations,
}}))
"""


class TestBeyondRAM:
    """The acceptance run: a trace whose decoded working set exceeds
    the process address-space limit streams through run -> analyze ->
    RTM bit-identically, where the materialized path dies."""

    def _run(self, snippet):
        env = dict(os.environ)
        # BLAS thread arenas reserve address space per thread, so an
        # unpinned `import numpy` alone costs more of the limit on a
        # host with more CPUs; pin them so the bound measures the
        # pipeline, not the host
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        # glibc gives a thread that allocates its own malloc arena,
        # reserving 64 MiB of address space, so whether a codec thread
        # wins one is timing-dependent; one arena keeps the bound on
        # what the pipeline allocates
        env["MALLOC_ARENA_MAX"] = "1"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = snippet.format(limit=_BEYOND_RAM_LIMIT,
                              budget=_BEYOND_RAM_BUDGET)
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)

    def test_materialized_pipeline_exceeds_limit(self):
        proc = self._run(_MAT_SNIPPET)
        assert proc.returncode != 0, (
            "materialized pipeline fit under the limit; raise the "
            f"budget:\n{proc.stdout}")
        assert "MemoryError" in proc.stderr

    def test_streaming_pipeline_completes_and_matches(self):
        proc = self._run(_STREAM_SNIPPET)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)

        # reference numbers from the materialized pipeline, no limit
        # (the subprocess populated the trace cache, so this is a
        # streamed-v3 cache hit, not a re-execution)
        trace = run_workload("compress",
                             max_instructions=_BEYOND_RAM_BUDGET)
        r = instruction_reusability(trace)
        s = maximal_reusable_spans(trace, r.flags)
        base = reference_result(
            trace, Scenario("base", window_size=256), r.flags, s)
        tlr = reference_result(
            trace, Scenario("tlr", window_size=256, latency=1.0), r.flags, s)
        sim = FiniteReuseSimulator(RTM_PRESETS["512"], ILRHeuristic(False))
        rtm = sim.run(trace)

        assert got["n"] == len(trace)
        assert got["percent_reusable"] == r.percent_reusable
        assert got["span_count"] == len(s)
        assert got["base_cycles"] == base.total_cycles
        assert got["tlr_cycles"] == tlr.total_cycles
        assert got["tlr_reused"] == tlr.reused_count
        assert got["rtm_reused"] == rtm.reused_instructions
        assert got["rtm_events"] == rtm.reuse_events
        assert got["rtm_invalidations"] == rtm.rtm_invalidations


class TestDirectStream:
    """The tee'd execute→analyze path: one execution feeds the analysis
    *and* persists the cache entry, bit-identical to the oracle and
    byte-identical to a file written straight from an execution
    stream."""

    CONFIG = ExperimentConfig(
        max_instructions=1_500,
        reuse_latencies=(1, 4),
        proportional_ks=(1 / 8, 1.0),
    )

    def test_tee_profiles_bit_identical_all_kernels(self, tmp_path,
                                                    monkeypatch):
        """Each kernel's cold profile through the tee equals the
        oracle's, and its cache entry is byte-identical to a
        ``write_stream`` file of the same execution (the writer
        re-chunks, so execution segmentation never leaks into the
        file)."""
        oracle_config = dataclasses.replace(self.CONFIG, use_cache=False)
        for name in KERNELS:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
            got = run_profile(name, self.CONFIG)
            expected = run_profile_reference(name, oracle_config)
            assert dataclasses.asdict(got) == dataclasses.asdict(expected), name
            self._assert_entry_is_machine_trace(
                tmp_path, name, self.CONFIG.max_instructions)

    def test_tee_entry_above_machine_budget(self, tmp_path, monkeypatch):
        """A run long enough to compile blocks tees a cache entry
        byte-identical to a ``write_stream`` file of the interpreter's
        trace."""
        budget = 200_001
        for name in ("compress", "tomcatv"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
            stream = stream_workload(name, max_instructions=budget)
            assert sum(len(c) for c in stream.chunks()) == budget
            self._assert_entry_is_machine_trace(tmp_path, name, budget)

    @staticmethod
    def _assert_entry_is_machine_trace(tmp_path, name, budget):
        """The kernel's one cache entry under ``tmp_path / name`` has
        the bytes of a ``write_stream`` file of ``run_rows`` segments
        (the one-at-a-time interpreter, independent of both tiers)."""
        from repro.vm.machine import Machine
        from repro.vm.trace import as_columnar
        from repro.vm.tracestream import DEFAULT_CHUNK_SIZE, write_stream
        from repro.workloads.base import build_program

        class RowSegments:
            program_name = name

            def chunks(self):
                machine = Machine(build_program(name))
                for end in range(DEFAULT_CHUNK_SIZE,
                                 budget + DEFAULT_CHUNK_SIZE,
                                 DEFAULT_CHUNK_SIZE):
                    yield as_columnar(machine.run_rows(min(end, budget)))
                self.halted = machine.halted
                self.truncated = not machine.halted

        (entry,) = (tmp_path / name / "traces").glob("*.trace")
        written = tmp_path / f"{name}.written.trace"
        write_stream(RowSegments(), written)
        assert entry.read_bytes() == written.read_bytes(), name

    def test_tee_persists_and_replays(self, tmp_path, monkeypatch):
        from repro.vm.tracestream import TeeChunkStream

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stream = stream_workload("li", max_instructions=1_000,
                                 use_cache=True)
        assert isinstance(stream, TeeChunkStream)
        assert not stream.persisted
        first = [len(c) for c in stream.chunks()]
        assert stream.persisted  # complete drain published the entry
        assert sum(first) == 1_000
        # later drains replay the cache entry, not the machine
        assert sum(len(c) for c in stream.chunks()) == 1_000

    def test_abandoned_drain_publishes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stream = stream_workload("li", max_instructions=5_000,
                                 use_cache=True, chunk_size=100)
        it = stream.chunks()
        next(it)
        it.close()  # consumer walks away mid-drain
        assert not stream.persisted
        traces = tmp_path / "cache" / "traces"
        leftovers = list(traces.iterdir()) if traces.exists() else []
        assert [p for p in leftovers if p.suffix == ".trace"] == []
        # the next drain starts over and completes normally
        assert sum(len(c) for c in stream.chunks()) == 5_000
        assert stream.persisted
