"""Post-run analysis utilities: comparisons, exports, shape checks.

These helpers operate on :class:`~repro.engine.stats.RunResult`s so users
can interrogate sweeps (and persist them) without re-running simulations.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Mapping, Sequence

from repro.engine.stats import RunResult
from repro.tensorsim.clock import left_sum

GB = 1024**3


# ---------------------------------------------------------------- comparison

def compare_runs(
    runs: Sequence[RunResult], baseline_name: str = "baseline"
) -> list[dict[str, object]]:
    """Normalise a set of runs against the named baseline.

    Returns one row per run with normalized time, memory, and overheads.
    Raises ValueError if the baseline run is absent.
    """
    baseline = next(
        (r for r in runs if r.planner_name == baseline_name), None
    )
    if baseline is None:
        raise ValueError(f"no run named {baseline_name!r} among {len(runs)} runs")
    rows = []
    for r in runs:
        breakdown = r.time_breakdown()
        rows.append(
            {
                "task": r.task_name,
                "planner": r.planner_name,
                "budget_gb": r.budget_bytes / GB,
                "normalized_time": r.normalized_time(baseline),
                "peak_used_gb": r.peak_in_use / GB,
                "peak_reserved_gb": r.peak_reserved / GB,
                "budget_utilisation": r.peak_in_use / r.budget_bytes,
                "recompute_frac": breakdown["recompute_time"] / r.total_time
                if r.total_time
                else 0.0,
                "overhead_frac": r.overhead_fraction(),
                "oom_iterations": r.oom_count,
                "succeeded": r.succeeded,
            }
        )
    return rows


def improvement_over(
    runs: Sequence[RunResult], planner: str, reference: str
) -> float:
    """Mean relative speedup of ``planner`` over ``reference`` at matched
    budgets: positive means ``planner`` is faster."""
    by_key: dict[tuple[str, int], RunResult] = {
        (r.planner_name, r.budget_bytes): r for r in runs
    }
    ratios = []
    for (name, budget), r in by_key.items():
        if name != planner:
            continue
        ref = by_key.get((reference, budget))
        if ref is None or r.total_time == 0:
            continue
        ratios.append(ref.total_time / r.total_time - 1.0)
    if not ratios:
        raise ValueError(
            f"no matched budgets between {planner!r} and {reference!r}"
        )
    return left_sum(ratios) / len(ratios)


# ------------------------------------------------------------------- export

_ITERATION_FIELDS = (
    "iteration", "input_size", "mode", "plan_label", "num_checkpointed",
    "fwd_time", "bwd_time", "recompute_time", "collect_time",
    "planning_time", "upkeep_time", "optimizer_time", "swap_stall_time",
    "peak_in_use", "peak_reserved", "end_in_use", "fragmentation_bytes",
    "evictions", "num_swapped", "oom",
)


def iterations_to_csv(result: RunResult) -> str:
    """Serialise a run's per-iteration stats as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_ITERATION_FIELDS)
    for s in result.iterations:
        writer.writerow([getattr(s, f) for f in _ITERATION_FIELDS])
    return buf.getvalue()


def run_to_json(result: RunResult) -> str:
    """Serialise a run summary plus per-iteration stats as JSON text."""
    payload = {
        "task": result.task_name,
        "planner": result.planner_name,
        "budget_bytes": result.budget_bytes,
        "total_time_s": result.total_time,
        "peak_in_use": result.peak_in_use,
        "peak_reserved": result.peak_reserved,
        "succeeded": result.succeeded,
        "iterations": [
            {f: getattr(s, f) for f in _ITERATION_FIELDS}
            for s in result.iterations
        ],
    }
    return json.dumps(payload, indent=2)


# ------------------------------------------------------------- shape checks

def check_paper_shape(
    rows: Mapping[str, Sequence[Mapping[str, object]]],
) -> list[str]:
    """Validate a Fig 10-style series dict against the paper's claims.

    Args:
        rows: ``{planner: [{budget_gb, normalized_time, respects_budget,
            oom_iterations}, ...]}`` as produced by
            :func:`repro.experiments.figures.fig10_data`'s ``series``.

    Returns a list of human-readable violations (empty = shape holds).
    """
    problems: list[str] = []
    mimose = rows.get("mimose")
    if not mimose:
        return ["no mimose series present"]
    for point in mimose:
        if not point["respects_budget"]:
            problems.append(
                f"mimose exceeded the budget at {point['budget_gb']:.2f} GB"
            )
        if point["oom_iterations"]:
            problems.append(
                f"mimose hit OOM at {point['budget_gb']:.2f} GB"
            )
    for rival in ("sublinear", "dtr"):
        series = rows.get(rival)
        if not series:
            continue
        n = len(series)
        wins = sum(
            1
            for m, r in zip(mimose, series)
            if m["normalized_time"] <= r["normalized_time"] * 1.02
        )
        if wins < (n + 1) // 2:
            problems.append(
                f"mimose beats {rival} at only {wins}/{n} budgets"
            )
    times = [p["normalized_time"] for p in mimose]
    if times and times[-1] > times[0] + 0.02:
        problems.append("mimose does not improve with larger budgets")
    return problems
