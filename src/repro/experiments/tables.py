"""Row generators for the paper's tables (I, III, IV, V)."""

from __future__ import annotations

import dataclasses
import time

from repro.core.collector import ShuttlingCollector
from repro.core.estimator import LightningMemoryEstimator
from repro.core.estimators import make_regressor
from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.experiments.runner import run_task
from repro.experiments.tasks import GB, TaskContext, load_task
from repro.planners.base import ModelView
from repro.planners.capuchin import CapuchinPlanner
from repro.planners.checkmate import CheckmatePlanner
from repro.planners.dtr import DTRPlanner
from repro.planners.monet import MonetPlanner
from repro.planners.none import NoCheckpointPlanner
from repro.planners.sublinear import SublinearPlanner


# ---------------------------------------------------------------------------
# Table I — qualitative planner comparison
# ---------------------------------------------------------------------------

def _capability_row(name: str, caps) -> dict[str, object]:
    return {
        "planner": name,
        "swapping": caps.swapping,
        "checkpointing": caps.checkpointing,
        "dynamic_input": caps.dynamic_input,
        "dynamic_graph": caps.dynamic_graph,
        "nonstationary_input": caps.nonstationary_input,
        "frag_avoidance": caps.fragmentation_avoidance,
        "granularity": caps.granularity,
        "plan_timing": caps.plan_timing,
        "search_space": caps.search_space,
        "search_algorithm": caps.search_algorithm,
    }


def table1_rows(
    with_gaps: bool = False,
    gap_task: str = "TC-Bert",
    gap_sizes: int = 3,
) -> list[dict[str, object]]:
    """The capability matrix for the planners implemented here.

    ``mimose-hybrid`` is Mimose under ``--solver hybrid``: the same
    planner with the excess-covering step swapped for the shared PCIe
    cost model, which adds Capuchin's swapping column while keeping
    every input-dynamics capability.  ``mimose-knapsack`` and
    ``mimose-exact`` are likewise Mimose under ``--solver knapsack`` /
    ``--solver exact``.

    ``mimose-lifecycle`` is Mimose with the lifecycle drift monitors
    armed (``--drift-scenario`` / ``drift_detection=True``): the same
    planner surviving *non-stationary* input-size distributions via
    online detection, partial re-collection and refitting — OOM
    survival under drift is what ``benchmarks/bench_drift.py`` gates.

    Every row carries an ``optimality_gap`` column: "—" by default, and
    with ``with_gaps=True`` the per-input-size relative gaps of the
    row's solver against the exact optimum on ``gap_task``, at
    ``gap_sizes`` evenly spaced input sizes from one fitted estimator
    (see :mod:`repro.experiments.optimality`).  Opt-in because it costs
    a short mini-run; the qualitative matrix stays instant.
    """
    classes = [MimosePlanner, DTRPlanner, SublinearPlanner, CheckmatePlanner,
               MonetPlanner, CapuchinPlanner, NoCheckpointPlanner]
    rows = [_capability_row(cls.name, cls.capabilities) for cls in classes]
    rows.insert(
        1,
        _capability_row(
            "mimose-hybrid",
            dataclasses.replace(
                MimosePlanner.capabilities,
                swapping=True,
                search_algorithm="hybrid-greedy",
            ),
        ),
    )
    rows.insert(
        2,
        _capability_row(
            "mimose-lifecycle",
            dataclasses.replace(
                MimosePlanner.capabilities,
                nonstationary_input=True,
                plan_timing="runtime+replan",
            ),
        ),
    )
    rows.insert(
        3,
        _capability_row(
            "mimose-knapsack",
            dataclasses.replace(
                MimosePlanner.capabilities, search_algorithm="knapsack"
            ),
        ),
    )
    rows.insert(
        4,
        _capability_row(
            "mimose-exact",
            dataclasses.replace(
                MimosePlanner.capabilities,
                swapping=True,
                search_algorithm="exact B&B",
            ),
        ),
    )
    for row in rows:
        row["optimality_gap"] = "—"
    if with_gaps:
        from repro.experiments.optimality import (
            TABLE1_SOLVERS,
            fitted_inputs,
            format_gaps,
            gap_report,
        )

        inputs = fitted_inputs(gap_task, num_sizes=gap_sizes)
        report = gap_report(sorted(set(TABLE1_SOLVERS.values())), inputs)
        for row in rows:
            solver = TABLE1_SOLVERS.get(str(row["planner"]))
            if solver is not None and report.get(solver):
                row["optimality_gap"] = format_gaps(report[solver])
    return rows


# ---------------------------------------------------------------------------
# Table III — Mimose overhead breakdown at a 6 GB budget
# ---------------------------------------------------------------------------

def table3_rows(
    tasks: tuple[str, ...] = (
        "MC-Roberta", "TR-T5", "QA-Bert", "TC-Bert", "OD-R50", "OD-R101"
    ),
    budget_gb: float = 6.0,
    iterations: int = 150,
    seed: int = 0,
) -> list[dict[str, object]]:
    """Collector / estimator+scheduler / total overhead per task.

    Matches the paper's normalisation: total overhead expressed in units
    of one mean iteration time.  OD tasks use a 14 GB-class budget like
    §VI-B (6 GB is below their full-checkpoint floor).
    """
    rows = []
    for abbr in tasks:
        task = load_task(abbr, iterations=iterations, seed=seed)
        budget = int(budget_gb * GB)
        lb, _ = task.memory_bounds()
        if budget < lb * 1.05:  # OD tasks cannot fit a 6 GB budget
            budget = int(lb * 1.15)
        executors: list = []
        result = run_task(task, "mimose", budget, observers=(executors.append,))
        collects = [s for s in result.iterations if s.is_collect]
        responsive = [s for s in result.iterations if not s.is_collect]
        breakdown = result.time_breakdown()  # left folds over iterations
        collector_time = breakdown["collect_time"]
        # Two kinds of planning_time are *not* steady-state per-plan
        # estimator/scheduler cost and are excluded from the min/max
        # columns (the quantity the paper bounds at 0.26-1.25 ms and the
        # bench gates below 10 ms):
        #  * the first responsive iteration carries the one-time estimator
        #    fit (MimosePlanner fits lazily inside plan()) — wall-clock
        #    proportional to model size and host speed, reported
        #    separately as fit_ms;
        #  * recovered iterations (retries > 0) carry the simulated time
        #    burnt on their OOM'd attempts, folded into planning_time by
        #    the executor's recovery accounting.
        fit_ms = 1e3 * responsive[0].planning_time if responsive else 0.0
        plan_times = [
            s.planning_time
            for s in responsive[1:]
            if s.planning_time > 0 and s.retries == 0
        ]
        mean_iter = result.mean_iteration_time()
        # Mimose's own overhead: the shuttling double-forwards plus the
        # estimator/scheduler planning time.  (Recompute is the price of
        # checkpointing itself, paid by every planner, and is therefore
        # not part of the paper's Table III.)  The one-time estimator fit
        # is *excluded* here too, not just from the min/max columns: it is
        # host wall-clock, so leaving it in made total_overhead_iters (and
        # the bench gating it) machine-dependent.  It stays visible in the
        # separate fit_ms column.
        overhead = (
            collector_time
            + breakdown["planning_time"]
            - (responsive[0].planning_time if responsive else 0.0)
        )
        rows.append(
            {
                "task": abbr,
                "budget_gb": budget / GB,
                "mean_iter_ms": 1e3 * mean_iter,
                "collector_ms": 1e3 * collector_time,
                "collector_iters": len(collects),
                "fit_ms": fit_ms,
                "estimator_scheduler_ms_min": 1e3 * min(plan_times, default=0.0),
                "estimator_scheduler_ms_max": 1e3 * max(plan_times, default=0.0),
                # Every plan the planner built — plan-cache misses and the
                # recovery ladder's replans — a structural count, not the
                # old "planning_time > 0.1 ms" wall-clock threshold (which
                # undercounted on fast hosts and overcounted on slow ones).
                "plans_generated": executors[0].planner.plan_count,
                "total_overhead_ms": 1e3 * overhead,
                "total_overhead_iters": overhead / mean_iter if mean_iter else 0.0,
                # Cache effectiveness: how much of the planning column was
                # absorbed by the plan cache, and how many whole
                # iterations the executor served from the replay and
                # compiled tiers instead of simulating.
                "plan_cache_hit_pct": 100.0 * result.plan_cache_hit_rate,
                "replay_hit_pct": 100.0 * result.replay_hit_rate,
                "compiled_hit_pct": 100.0 * result.compiled_hit_rate,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Tables IV and V — memory-estimator regression comparison
# ---------------------------------------------------------------------------

def _collect_samples(
    task: TaskContext,
    num_sizes: int,
    seed: int = 0,
    measurement_noise: float = 0.003,
) -> tuple[ShuttlingCollector, dict[int, dict[str, int]]]:
    """Run sheltered iterations over ``num_sizes`` distinct input sizes and
    also produce held-out ground truth for error evaluation.

    ``measurement_noise`` models real profiling jitter (timer resolution,
    allocator races) at the few-per-mille level — without it the
    simulated memory law is exactly quadratic and every regressor's error
    collapses to rounding, which the paper's Tables IV/V do not show.
    """
    model = task.model
    planner = MimosePlanner(
        budget_bytes=64 * GB, collect_iterations=num_sizes
    )
    planner.collector.min_iterations = num_sizes
    view = ModelView(model)
    planner.setup(view)
    executor = TrainingExecutor(
        model,
        planner,
        capacity_bytes=64 * GB,
        measurement_noise=measurement_noise,
        noise_seed=seed,
    )
    seen = 0
    for batch in task.loader:
        if seen >= num_sizes:
            break
        stats = executor.step(batch)
        if stats.is_collect:
            seen += 1
    # Held-out truth from analytic per-unit saved bytes at unseen sizes
    from repro.planners.analysis import unit_saved_bytes

    truth: dict[int, dict[str, int]] = {}
    for batch in task.loader.peek_sizes(16, seed_offset=555):
        per_unit = {
            p.module_name: unit_saved_bytes(p)
            for p in view.profiles(batch)
            if p.module_name in view.checkpointable
        }
        truth[batch.input_size] = per_unit
    return planner.collector, truth


def table4_rows(
    regressors: tuple[tuple[str, int], ...] = (
        ("poly1", 10), ("poly2", 10), ("poly3", 10),
        ("svr", 10), ("svr", 50),
        ("tree", 10), ("tree", 50),
        ("gbt", 10), ("gbt", 50),
    ),
    task_abbr: str = "TC-Bert",
    seed: int = 0,
) -> list[dict[str, object]]:
    """Regression-family comparison on TC-Bert (Table IV).

    Reports per-family training time, prediction latency, and relative
    error of the summed per-layer prediction, on collector samples.
    """
    max_samples = max(n for _, n in regressors)
    task = load_task(task_abbr, iterations=4 * max_samples, seed=seed)
    collector, truth = _collect_samples(task, max_samples, seed=seed)
    rows = []
    for name, num_samples in regressors:
        sub = ShuttlingCollector(min_iterations=1, min_distinct_sizes=3)
        # replay only the first num_samples iterations' worth of samples
        data = collector.training_data()
        for unit, (sizes, bytes_, times, bwd_times) in data.items():
            from repro.engine.stats import UnitMeasurement

            sub.ingest(
                UnitMeasurement(unit, s, b, t, bt)
                for s, b, t, bt in list(
                    zip(sizes, bytes_, times, bwd_times)
                )[:num_samples]
            )
        estimator = LightningMemoryEstimator(lambda: make_regressor(name))
        train_time = estimator.fit(sub)
        report = estimator.evaluate(truth)
        rows.append(
            {
                "regressor": name,
                "num_samples": num_samples,
                "train_time_ms": 1e3 * train_time,
                "predict_latency_us": 1e6 * report.predict_latency_s,
                "error_pct": 100.0 * report.relative_error,
            }
        )
    return rows


def table5_rows(
    tasks: tuple[str, ...] = (
        "MC-Roberta", "TR-T5", "QA-Bert", "TC-Bert", "OD-R50", "OD-R101"
    ),
    num_samples: int = 10,
    seed: int = 0,
) -> list[dict[str, object]]:
    """Quadratic-polynomial estimator across all six tasks (Table V)."""
    rows = []
    for abbr in tasks:
        task = load_task(abbr, iterations=4 * num_samples, seed=seed)
        collector, truth = _collect_samples(task, num_samples, seed=seed)
        estimator = LightningMemoryEstimator()  # quadratic default
        train_time = estimator.fit(collector)
        report = estimator.evaluate(truth)
        rows.append(
            {
                "task": abbr,
                "num_samples": num_samples,
                "train_time_ms": 1e3 * train_time,
                "predict_latency_us": 1e6 * report.predict_latency_s,
                "error_pct": 100.0 * report.relative_error,
            }
        )
    return rows
