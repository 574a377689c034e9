"""Data generators for every figure in the paper.

Each ``figN_data`` function returns plain dict/list structures holding the
same series the corresponding figure plots; the benchmarks print them and
EXPERIMENTS.md records paper-vs-measured shapes.  No plotting dependency is
required (or available) — the numbers are the reproduction.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from repro.experiments.runner import run_task, sweep
from repro.experiments.tasks import GB, load_task
from repro.models.base import BatchInput
from repro.models.registry import build_model
from repro.planners.analysis import no_checkpoint_peak, predict_peak_bytes
from repro.planners.base import ActionAssignment, ModelView
from repro.tensorsim.dtypes import INT64


# ---------------------------------------------------------------------------
# Fig 3 — input-size distributions and memory footprint vs input size
# ---------------------------------------------------------------------------

def fig3_data(
    iterations: int = 300, memory_points: int = 8, seed: int = 0
) -> dict[str, dict[str, object]]:
    """Per NLP task: the collated-length histogram and the GPU memory
    footprint (no checkpointing) as a function of input size.

    The paper plots Bert-base on SWAG/SQuAD/GLUE-QQP and T5-base on UN_PC
    with batch sizes 16/12/32/8; the memory curve's smoothness is the
    §III-A argument for an analytic estimator.
    """
    combos = [
        ("swag", "MC-Roberta"),
        ("squad", "QA-Bert"),
        ("glue-qqp", "TC-Bert"),
        ("un_pc", "TR-T5"),
    ]
    out: dict[str, dict[str, object]] = {}
    for dataset_name, task_abbr in combos:
        task = load_task(task_abbr, iterations=iterations, seed=seed)
        lengths = [b.shape[-1] for b in task.loader]
        histogram = dict(sorted(Counter(lengths).items()))
        # memory footprint curve over the observed length range
        model = task.fresh_model()
        view = ModelView(model)
        rows = next(iter(task.loader)).shape[0]
        lo, hi = min(lengths), max(lengths)
        sizes = np.linspace(lo, hi, memory_points).astype(int)
        curve = []
        for length in sizes:
            batch = BatchInput((rows, int(length)), INT64)
            peak = no_checkpoint_peak(
                view.profiles(batch),
                static_bytes=view.static_memory.total,
                input_nbytes=batch.nbytes,
            )
            curve.append((int(length), peak))
        out[dataset_name] = {
            "task": task_abbr,
            "length_range": (lo, hi),
            "histogram": histogram,
            "memory_curve_bytes": curve,
        }
    return out


# ---------------------------------------------------------------------------
# Fig 4 — Sublinear's wasted budget on small inputs (TC-Bert @ 3 GB)
# ---------------------------------------------------------------------------

def fig4_data(
    budget_gb: float = 3.0, iterations: int = 60, seed: int = 0
) -> dict[str, object]:
    """Per-iteration peak memory and time: Sublinear vs no checkpointing.

    The paper's observation: Sublinear plans for the largest input, so a
    small input leaves over a GB of budget unused while paying recompute —
    up to 35 % throughput loss.
    """
    task = load_task("TC-Bert", iterations=iterations, seed=seed)
    budget = int(budget_gb * GB)
    sub = run_task(task, "sublinear", budget)
    base = run_task(task, "baseline", budget)
    rows = []
    for s_sub, s_base in zip(sub.iterations, base.iterations):
        rows.append(
            {
                "iteration": s_sub.iteration,
                "seqlen": s_sub.input_shape[-1],
                "sublinear_peak": s_sub.peak_in_use,
                "baseline_peak": s_base.peak_in_use,
                "unused_budget": max(0, budget - s_sub.peak_in_use),
                "slowdown": s_sub.total_time / s_base.total_time,
            }
        )
    return {
        "budget_bytes": budget,
        "rows": rows,
        "mean_slowdown": sub.total_time / base.total_time,
        "max_unused_budget": max(r["unused_budget"] for r in rows),
    }


# ---------------------------------------------------------------------------
# Fig 5 — DTR's overheads and memory overshoot (MC-Roberta)
# ---------------------------------------------------------------------------

def fig5_data(
    budgets_gb: tuple[float, ...] = (4.2, 4.5, 5.0, 5.5),
    iterations: int = 60,
    seed: int = 0,
) -> list[dict[str, object]]:
    """DTR training-time breakdown and actual memory per budget.

    The paper reports upkeep at 26 % average (40.1 % max), planning up to
    11.9 %, and actual usage of 6.7/7/7.5/8 GB for budgets 4.2/4.5/5/5.5.
    """
    task = load_task("MC-Roberta", iterations=iterations, seed=seed)
    rows = []
    for budget_gb in budgets_gb:
        result = run_task(task, "dtr", int(budget_gb * GB))
        breakdown = result.time_breakdown()
        total = result.total_time
        rows.append(
            {
                "budget_gb": budget_gb,
                "actual_reserved_gb": result.peak_reserved / GB,
                "peak_in_use_gb": result.peak_in_use / GB,
                "upkeep_frac": breakdown["upkeep_time"] / total,
                "planning_frac": breakdown["planning_time"] / total,
                "recompute_frac": breakdown["recompute_time"] / total,
                "compute_frac": (
                    breakdown["fwd_time"]
                    + breakdown["bwd_time"]
                    + breakdown["optimizer_time"]
                )
                / total,
                "evictions": sum(s.evictions for s in result.iterations),
                "oom_iterations": result.oom_count,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig 9 — peak memory when checkpointing encoder k of Bert-base
# ---------------------------------------------------------------------------

def fig9_data(
    seqlens: tuple[int, ...] = (128, 256, 384, 512),
    batch_size: int = 32,
) -> dict[int, list[tuple[int, int]]]:
    """For each input size: peak bytes with exactly encoder k checkpointed.

    Checkpointing the *last* encoder gives almost no peak reduction — its
    recompute happens when every other activation is still resident —
    which motivates Algorithm 1's earliest-timestamp preference.
    """
    model = build_model("bert-base")
    view = ModelView(model)
    out: dict[int, list[tuple[int, int]]] = {}
    for seqlen in seqlens:
        batch = BatchInput((batch_size, seqlen), INT64)
        profiles = view.profiles(batch)
        series = []
        for k in range(12):
            peak = predict_peak_bytes(
                profiles,
                ActionAssignment.from_sets(recompute=[f"encoder.{k}"]),
                static_bytes=view.static_memory.total,
                input_nbytes=batch.nbytes,
                checkpointable=view.checkpointable,
            )
            series.append((k, peak))
        out[seqlen] = series
    return out


# ---------------------------------------------------------------------------
# Fig 10 — normalized training time vs budget, all tasks x planners
# ---------------------------------------------------------------------------

def fig10_data(
    task_abbr: str,
    *,
    budgets: Optional[list[int]] = None,
    planners: tuple[str, ...] = ("sublinear", "checkmate", "monet", "dtr", "mimose"),
    iterations: int = 60,
    seed: int = 0,
    jobs: int = 1,
) -> dict[str, object]:
    """One Fig 10 panel: normalized times per planner per budget + bounds.

    ``jobs > 1`` runs the (planner, budget) grid in parallel worker
    processes; the numbers are byte-identical to a serial run.  The
    baseline is budget-independent (it ignores the budget entirely), so
    taking it from the sweep's single baseline run is exact.
    """
    task = load_task(task_abbr, iterations=iterations, seed=seed)
    budgets = budgets or task.default_budgets()
    results = sweep(
        task, ("baseline",) + tuple(planners), budgets, jobs=jobs
    )
    baseline = next(r for r in results if r.planner_name == "baseline")
    lb, ub = task.memory_bounds()
    series: dict[str, list[dict[str, object]]] = {}
    for name in planners:
        rows = []
        for r in results:
            if r.planner_name != name:
                continue
            rows.append(
                {
                    "budget_gb": r.budget_bytes / GB,
                    "normalized_time": r.normalized_time(baseline),
                    "peak_reserved_gb": r.peak_reserved / GB,
                    "oom_iterations": r.oom_count,
                    "respects_budget": r.peak_reserved <= r.budget_bytes,
                }
            )
        series[name] = rows
    return {
        "task": task_abbr,
        "budgets_gb": [b / GB for b in budgets],
        "memory_lower_bound_gb": lb / GB,
        "memory_upper_bound_gb": ub / GB,
        "series": series,
    }


# ---------------------------------------------------------------------------
# Fig 11 — Mimose memory consumption vs input size per budget
# ---------------------------------------------------------------------------

def fig11_data(
    budgets_gb: tuple[float, ...] = (4.0, 5.0, 6.0),
    iterations: int = 120,
    seed: int = 0,
    task_abbr: str = "TC-Bert",
    jobs: int = 1,
) -> dict[float, list[dict[str, object]]]:
    """Per-iteration (input size, peak memory, plan size) under Mimose.

    The paper's shape: memory rises with input size until the budget is
    reached, then flattens just below it (a 0.5–1 GB reserve), with small
    plateaus where similar sizes share cached plans.  ``jobs > 1`` runs
    the budgets in parallel worker processes with identical results.
    """
    task = load_task(task_abbr, iterations=iterations, seed=seed)
    results = sweep(
        task, ("mimose",), [int(b * GB) for b in budgets_gb], jobs=jobs
    )
    out: dict[float, list[dict[str, object]]] = {}
    for budget_gb, result in zip(budgets_gb, results):
        rows = []
        for s in result.iterations:
            rows.append(
                {
                    "input_size": s.input_size,
                    "peak_bytes": s.peak_in_use,
                    "mode": s.mode,
                    "num_checkpointed": s.num_checkpointed,
                    "oom": s.oom,
                }
            )
        out[budget_gb] = rows
    return out
