"""Trace-level reuse: the paper's primary contribution.

- :mod:`repro.core.traces` — the trace model: live-in/live-out
  computation, maximal-reusable-trace partitioning (the Theorem 1
  construction) and per-trace I/O limits.
- :mod:`repro.core.reuse_tlr` — trace-level reuse timing plans with
  constant and proportional reuse-latency models (sections 4.4/4.5).
- :mod:`repro.core.stats` — per-trace input/output statistics
  (section 4.5's bandwidth discussion).
- :mod:`repro.core.rtm` — the finite Reuse Trace Memory, dynamic
  trace-collection heuristics and the realistic engine (section 4.6).
"""

from repro.util.lazy import lazy_exports

# Imported on first use: ``repro.core.rtm.memory`` (the RTM presets
# the CLI lists) loads without the trace model and numpy.
__getattr__, __all__ = lazy_exports(__name__, {
    "repro.core.reuse_tlr":
        "ConstantReuseLatency ProportionalReuseLatency tlr_reuse_plan",
    "repro.core.stats": "TraceIOStats trace_io_stats",
    "repro.core.traces": "TraceLimits TraceSpan compute_liveness "
        "maximal_reusable_spans spans_from_ranges",
})
