"""Experiment drivers: one function per paper figure.

``run_profile`` computes everything figures 3-8 need for one
benchmark; ``figures`` assembles the per-figure tables; ``report``
renders them the way the paper reports them (per-program rows plus
AVG_FP / AVG_INT / AVERAGE, harmonic means for speed-ups, arithmetic
means for percentages).
"""

from repro.util.lazy import lazy_exports

# Imported on first use: ``repro.exp.config`` and the service front
# end load without the runner and its engine.
__getattr__, __all__ = lazy_exports(__name__, {
    "repro.exp.config": "ExperimentConfig",
    "repro.exp.figures": "FigureResult figure3 figure4 figure5 figure6 "
        "figure7 figure8 figure9 trace_io_summary",
    "repro.exp.runner": "BenchmarkProfile collect_profiles run_profile",
})
