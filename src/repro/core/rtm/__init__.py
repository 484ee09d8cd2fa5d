"""Finite Reuse Trace Memory and the realistic engine (section 4.6)."""

from repro.util.lazy import lazy_exports

# Imported on first use, as in ``repro.core``.
__getattr__, __all__ = lazy_exports(__name__, {
    "repro.core.rtm.collector":
        "FixedLengthHeuristic Heuristic ILRHeuristic TraceCollector",
    "repro.core.rtm.entry": "RTMEntry",
    "repro.core.rtm.invalidating": "InvalidatingRTM",
    "repro.core.rtm.memory":
        "RTM_PRESETS ReuseTraceMemory RTMConfig hashed_index pc_index",
    "repro.core.rtm.simulator": "FiniteReuseSimulator FiniteReuseResult",
})
