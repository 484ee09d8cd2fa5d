"""Cross-validation of the static estimator against dynamic profiles.

``repro static validate`` runs every kernel (and a grid of generated
RL workload families) twice — once through the static estimator, once
through the real dynamic pipeline — and scores the prediction error
per metric.  The per-kernel error bands persist to
``BENCH_static.json``; the serving layer quotes them next to every
``mode=static`` answer, and CI re-runs the harness in ``--check``
mode, failing when any kernel's error regresses beyond its recorded
band (plus a small tolerance for budget jitter).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.exp.config import ExperimentConfig
from repro.exp.runner import BenchmarkProfile

DEFAULT_BANDS_PATH = Path("BENCH_static.json")

#: headroom allowed before a recorded band counts as regressed:
#: ``allowed = recorded * (1 + REL) + ABS``
CHECK_REL_TOLERANCE = 0.25
CHECK_ABS_TOLERANCE = 0.05

#: error metrics scored per kernel (all relative except where noted)
METRICS = (
    "percent_reusable",  # absolute error in percentage points / 100
    "avg_trace_size",
    "trace_count",
    "dynamic_count",
    "base_ipc_inf",
    "base_ipc_win",
    "ilr_speedup_inf",
    "tlr_speedup_inf",
    "tlr_speedup_win_prop",
)


def _rel(pred: float, true: float) -> float:
    """Symmetric-ish relative error, safe at zero."""
    denom = max(abs(true), 1e-9)
    return abs(pred - true) / denom


def profile_errors(
    static: BenchmarkProfile, dynamic: BenchmarkProfile
) -> dict[str, float]:
    """Per-metric prediction error of one static profile."""
    errors = {
        "percent_reusable": abs(
            static.percent_reusable - dynamic.percent_reusable
        ) / 100.0,
        "avg_trace_size": _rel(
            static.avg_trace_size, dynamic.avg_trace_size
        ),
        "trace_count": _rel(static.trace_count, dynamic.trace_count),
        "dynamic_count": _rel(static.dynamic_count, dynamic.dynamic_count),
        "base_ipc_inf": _rel(static.base_ipc_inf, dynamic.base_ipc_inf),
        "base_ipc_win": _rel(static.base_ipc_win, dynamic.base_ipc_win),
    }
    for key in ("ilr_speedup_inf", "tlr_speedup_inf"):
        s_map = getattr(static, key)
        d_map = getattr(dynamic, key)
        shared = sorted(set(s_map) & set(d_map))
        errors[key] = max(
            (_rel(s_map[k], d_map[k]) for k in shared), default=0.0
        )
    s_map = static.tlr_speedup_win_prop
    d_map = dynamic.tlr_speedup_win_prop
    shared_k = sorted(set(s_map) & set(d_map))
    errors["tlr_speedup_win_prop"] = max(
        (_rel(s_map[k], d_map[k]) for k in shared_k), default=0.0
    )
    return {k: round(v, 4) for k, v in errors.items()}


def _profile_summary(profile: BenchmarkProfile) -> dict:
    return {
        "dynamic_count": profile.dynamic_count,
        "percent_reusable": round(profile.percent_reusable, 2),
        "avg_trace_size": round(profile.avg_trace_size, 2),
        "trace_count": profile.trace_count,
        "base_ipc_inf": round(profile.base_ipc_inf, 3),
        "base_ipc_win": round(profile.base_ipc_win, 3),
    }


def _dynamic_profile_for_program(
    program, name: str, config: ExperimentConfig
) -> BenchmarkProfile:
    """A dynamic profile for an unregistered (generated) program.

    :func:`repro.exp.runner.run_profile` on a raw :class:`Program`
    (same scenario list, same engine, no cache) — the generated RL
    families are not in the workload registry, so they can't ride the
    normal path.
    """
    from repro.dataflow.streaming import StreamingDataflowEngine
    from repro.exp.runner import profile_from_engine
    from repro.vm.machine import Machine
    from repro.vm.tracestream import ExecutionChunkStream

    engine = StreamingDataflowEngine(ExecutionChunkStream(
        lambda: Machine(program),
        program_name=name,
        max_instructions=config.max_instructions,
    ))
    return profile_from_engine(name, "gen", engine, config)


def validate_static(
    config: ExperimentConfig | None = None,
    *,
    include_families: bool = True,
    progress=None,
) -> dict:
    """Score static vs dynamic for every kernel (+ generated families).

    Returns the full report dict (the shape written to
    ``BENCH_static.json``).  ``progress`` is an optional callable
    receiving one status line per unit.
    """
    from repro.exp.runner import run_profile
    from repro.static.estimator import estimate_profile, estimate_source

    if config is None:
        config = ExperimentConfig(max_instructions=8_000)

    kernels: dict[str, dict] = {}
    for name in config.workloads:
        static = estimate_profile(name, config)
        dynamic = run_profile(name, config)
        errors = profile_errors(static, dynamic)
        kernels[name] = {
            "errors": errors,
            "static": _profile_summary(static),
            "dynamic": _profile_summary(dynamic),
        }
        if progress is not None:
            progress(
                f"{name}: reuse {static.percent_reusable:.1f}% static vs "
                f"{dynamic.percent_reusable:.1f}% dynamic "
                f"(err {errors['percent_reusable']:.3f})"
            )

    families: dict[str, dict] = {}
    if include_families:
        from repro.lang.compiler import compile_source
        from repro.workloads.generators import generated_families

        for name, source in generated_families():
            static = estimate_source(source, config, name=name).profile
            program = compile_source(source, name=name)
            dynamic = _dynamic_profile_for_program(program, name, config)
            errors = profile_errors(static, dynamic)
            families[name] = {
                "errors": errors,
                "static": _profile_summary(static),
                "dynamic": _profile_summary(dynamic),
            }
            if progress is not None:
                progress(
                    f"{name}: reuse {static.percent_reusable:.1f}% static "
                    f"vs {dynamic.percent_reusable:.1f}% dynamic "
                    f"(err {errors['percent_reusable']:.3f})"
                )

    all_units = {**kernels, **families}
    summary = {}
    for metric in METRICS:
        values = [u["errors"][metric] for u in all_units.values()]
        summary[metric] = {
            "mean": round(sum(values) / len(values), 4) if values else 0.0,
            "max": round(max(values), 4) if values else 0.0,
        }
    return {
        "budget": config.max_instructions,
        "window": config.window_size,
        "scale": config.scale,
        "kernels": kernels,
        "families": families,
        "summary": summary,
    }


def write_bands(report: dict, path: Path | str = DEFAULT_BANDS_PATH) -> Path:
    """Persist a validation report as the recorded error bands."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_bands(path: Path | str = DEFAULT_BANDS_PATH) -> dict | None:
    """The recorded bands, or None when the file is absent/invalid."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or "kernels" not in data:
        return None
    return data


def kernel_band(bands: dict | None, name: str) -> dict | None:
    """The recorded per-metric error band for one kernel, if any."""
    if not bands:
        return None
    entry = bands.get("kernels", {}).get(name) or bands.get(
        "families", {}
    ).get(name)
    return entry.get("errors") if entry else None


def check_bands(report: dict, recorded: dict) -> list[str]:
    """Regressions of a fresh report against recorded bands.

    A metric regresses when its fresh error exceeds
    ``recorded * (1 + CHECK_REL_TOLERANCE) + CHECK_ABS_TOLERANCE``.
    Kernels absent from the recorded bands are skipped (new kernels
    get bands on the next ``repro static validate`` refresh).
    """
    problems: list[str] = []
    for section in ("kernels", "families"):
        fresh_units = report.get(section, {})
        old_units = recorded.get(section, {})
        for name, unit in fresh_units.items():
            old = old_units.get(name)
            if old is None:
                continue
            for metric, value in unit["errors"].items():
                baseline = old.get("errors", {}).get(metric)
                if baseline is None:
                    continue
                allowed = (
                    baseline * (1.0 + CHECK_REL_TOLERANCE)
                    + CHECK_ABS_TOLERANCE
                )
                if value > allowed and math.isfinite(allowed):
                    problems.append(
                        f"{name}.{metric}: error {value:.4f} exceeds "
                        f"recorded band {baseline:.4f} "
                        f"(allowed {allowed:.4f})"
                    )
    return problems
