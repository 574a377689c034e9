"""Table III — Mimose overhead breakdown per task.

Paper shape: the collector runs ~10 times per epoch; estimator+scheduler
cost 0.26-1.25 ms per generated plan (well under 1 % of an iteration);
plans are generated only dozens of times per epoch thanks to the cache;
total overhead equals a few iterations' worth of time (3.48 on average).
"""

from repro.experiments.report import render_table
from repro.experiments.tables import table3_rows

from conftest import run_once, save_result


def bench_table3_overhead(benchmark, results_dir):
    rows = run_once(benchmark, table3_rows, iterations=150)
    text = render_table(
        rows,
        columns=[
            "task", "budget_gb", "mean_iter_ms", "collector_ms",
            "collector_iters", "fit_ms", "estimator_scheduler_ms_min",
            "estimator_scheduler_ms_max", "plans_generated",
            "total_overhead_iters", "replay_hit_pct", "compiled_hit_pct",
        ],
        title="Table III: Mimose overhead breakdown (150-iteration epochs)",
    )
    save_result(results_dir, "table3_overhead", text)
    for r in rows:
        # ~10 sheltered iterations, as in the paper
        assert 8 <= r["collector_iters"] <= 20, r
        # Estimator+scheduler stay in the sub-10ms regime per plan.  Two
        # exclusions keep this machine-independent (see table3_rows and
        # docs/performance.md): the one-time estimator fit is reported
        # separately (fit_ms, ungated — wall-clock proportional to model
        # size and host speed), and recovered iterations are skipped
        # (their planning_time carries the simulated cost of the OOM'd
        # attempts, not planner work).  Both used to leak into the max
        # and made this bench flake.
        assert r["estimator_scheduler_ms_max"] < 10.0, r
        assert r["fit_ms"] >= 0.0, r
        # Plans are generated far less often than once per iteration.
        # This is a structural count (every plan the planner built), not
        # the old wall-clock "planning_time > 0.1 ms" threshold.
        assert r["plans_generated"] < 150, r
    # total_overhead also excludes the one-time fit (it is gated here,
    # so keeping the fit in made the bound machine-dependent — the last
    # flake source in this bench).
    mean_overhead = sum(r["total_overhead_iters"] for r in rows) / len(rows)
    # the paper reports 3.48 iterations on average; ours lands in the same
    # few-iterations regime
    assert mean_overhead < 8.0
    benchmark.extra_info["mean_overhead_iters"] = mean_overhead
