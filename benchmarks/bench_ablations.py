"""Ablations over Mimose's design choices (DESIGN.md §5).

* bucket tolerance (Algorithm 1's ±10 %),
* plan cache on/off and similarity tolerance,
* number of collector iterations vs estimator error,
* greedy vs knapsack scheduling (the paper's pluggable interface).

Each ablation's grid points are independent runs, so they execute through
:func:`repro.experiments.runner.parallel_map` — the workers are
module-level functions taking one picklable config tuple each, and the
results are identical to a serial sweep regardless of ``JOBS``.
"""

import os

from repro.core.plan_cache import PlanCache
from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.engine.stats import RunResult
from repro.experiments.report import render_table
from repro.experiments.runner import parallel_map
from repro.experiments.tasks import GB, load_task
from repro.planners.base import ModelView
from repro.solvers import GreedyScheduler, KnapsackScheduler

from conftest import run_once, save_result

BUDGET = 4 * GB
JOBS = min(4, os.cpu_count() or 1)


def run_mimose(task, planner):
    model = task.model
    planner.setup(ModelView(model))
    ex = TrainingExecutor(model, planner, capacity_bytes=planner.budget_bytes)
    result = RunResult(task.spec.abbr, "mimose", planner.budget_bytes)
    for batch in task.loader:
        result.append(ex.step(batch))
    return result


def _bucket_point(tol):
    task = load_task("TC-Bert", iterations=80, seed=21)
    planner = MimosePlanner(BUDGET, scheduler=GreedyScheduler(tol))
    r = run_mimose(task, planner)
    return {
        "bucket_tolerance": tol,
        "total_time_s": r.total_time,
        "peak_gb": r.peak_in_use / GB,
        "ooms": r.oom_count,
    }


def bench_ablation_bucket_tolerance(benchmark, results_dir):
    def sweep():
        return parallel_map(
            _bucket_point, (0.0, 0.05, 0.10, 0.25, 0.50), jobs=JOBS
        )

    rows = run_once(benchmark, sweep)
    text = render_table(rows, title="Ablation: Algorithm 1 bucket tolerance")
    save_result(results_dir, "ablation_bucket", text)
    assert all(r["ooms"] == 0 for r in rows)
    times = [r["total_time_s"] for r in rows]
    # the choice is not very sensitive (why the paper's 10% works)
    assert max(times) / min(times) < 1.15


def _cache_point(point):
    label, tolerance, max_entries = point
    task = load_task("TC-Bert", iterations=120, seed=22)
    cache = (
        PlanCache(tolerance=tolerance, max_entries=max_entries)
        if max_entries is not None
        else PlanCache(tolerance=tolerance)
    )
    planner = MimosePlanner(BUDGET, cache=cache)
    r = run_mimose(task, planner)
    return {
        "cache": label,
        "hit_rate": planner.cache.hit_rate,
        "plans_generated": planner.plan_count,
        "planning_ms_total": 1e3 * sum(s.planning_time for s in r.iterations),
        "ooms": r.oom_count,
    }


def bench_ablation_plan_cache(benchmark, results_dir):
    def sweep():
        return parallel_map(
            _cache_point,
            (
                ("off", 0.0, 1),
                ("exact-only", 0.0, None),
                ("5% (paper)", 0.05, None),
                ("15%", 0.15, None),
            ),
            jobs=JOBS,
        )

    rows = run_once(benchmark, sweep)
    text = render_table(rows, title="Ablation: plan cache tolerance")
    save_result(results_dir, "ablation_cache", text)
    assert all(r["ooms"] == 0 for r in rows)
    # wider sharing -> fewer generated plans
    assert rows[0]["plans_generated"] >= rows[2]["plans_generated"]
    assert rows[2]["hit_rate"] > rows[1]["hit_rate"] * 0.99


def _collector_point(n):
    from repro.core.estimator import LightningMemoryEstimator
    from repro.experiments.tables import _collect_samples

    task = load_task("TC-Bert", iterations=4 * n, seed=23)
    collector, truth = _collect_samples(task, n)
    est = LightningMemoryEstimator()
    est.fit(collector)
    report = est.evaluate(truth)
    return {
        "collector_iterations": n,
        "error_pct": 100 * report.relative_error,
        "train_time_ms": 1e3 * report.train_time_s,
    }


def bench_ablation_collector_iterations(benchmark, results_dir):
    def sweep():
        return parallel_map(_collector_point, (4, 10, 20, 30), jobs=JOBS)

    rows = run_once(benchmark, sweep)
    text = render_table(
        rows, title="Ablation: sheltered iterations vs estimator error"
    )
    save_result(results_dir, "ablation_collector", text)
    # 10 iterations already reach sub-percent error (paper's choice)
    ten = next(r for r in rows if r["collector_iterations"] == 10)
    assert ten["error_pct"] < 1.0
    # more data never makes it dramatically worse
    assert rows[-1]["error_pct"] < 2.0


def _scheduler_point(name):
    sched = GreedyScheduler() if name == "greedy (Alg.1)" else KnapsackScheduler()
    task = load_task("TC-Bert", iterations=80, seed=24)
    planner = MimosePlanner(BUDGET, scheduler=sched)
    r = run_mimose(task, planner)
    return {
        "scheduler": name,
        "total_time_s": r.total_time,
        "recompute_s": r.time_breakdown()["recompute_time"],
        "planning_ms": 1e3 * r.time_breakdown()["planning_time"],
        "peak_gb": r.peak_in_use / GB,
        "ooms": r.oom_count,
    }


def bench_ablation_scheduler_choice(benchmark, results_dir):
    def sweep():
        return parallel_map(
            _scheduler_point, ("greedy (Alg.1)", "knapsack"), jobs=JOBS
        )

    rows = run_once(benchmark, sweep)
    text = render_table(
        rows, title="Ablation: greedy (Algorithm 1) vs knapsack scheduling"
    )
    save_result(results_dir, "ablation_scheduler", text)
    assert all(r["ooms"] == 0 for r in rows)
    greedy, knap = rows
    # "the greedy algorithm is simple but effective": within a few percent
    # of the optimisation-based alternative
    assert greedy["total_time_s"] <= knap["total_time_s"] * 1.05
