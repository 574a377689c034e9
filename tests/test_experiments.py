"""Tests for the experiment harness: tasks, runner, and stats aggregation."""

import builtins
import math
import pathlib

import pytest

from repro.engine.stats import IterationStats, RunResult, summarize_runs
from repro.experiments import tables
from repro.experiments.report import render_table
from repro.experiments.runner import PLANNER_NAMES, make_planner, run_task, sweep
from repro.experiments.tasks import GB, TASKS, load_task
from repro.tensorsim.faults import FaultPlan


def small_task(abbr="TC-Bert", iterations=6):
    return load_task(abbr, iterations=iterations, seed=0, calibration_samples=40)


# --------------------------------------------------------------------- tasks

def test_table2_tasks_registered():
    assert {
        "MC-Roberta", "TR-T5", "QA-Bert", "TC-Bert", "OD-R50", "OD-R101"
    } <= set(TASKS)
    assert "LM-GPT2" in TASKS  # extension task
    assert TASKS["TC-Bert"].batch_size == 32
    assert TASKS["OD-R101"].batch_size == 6
    assert not TASKS["OD-R50"].static_plan_for_worst_case


def test_load_task_unknown():
    with pytest.raises(KeyError):
        load_task("XY-GPT")


def test_task_context_pieces():
    task = small_task()
    assert task.spec.model == "bert-base"
    assert len(task.loader) == 6
    assert task.worst_case.shape == (32, 332)
    assert len(task.calibration) == 40
    p50 = task.percentile_batch(0.5)
    p95 = task.percentile_batch(0.95)
    assert p50.input_size <= p95.input_size <= task.worst_case.input_size
    with pytest.raises(ValueError):
        task.percentile_batch(1.5)


def test_memory_bounds_and_budgets():
    task = small_task()
    lb, ub = task.memory_bounds()
    assert 0 < lb < ub
    budgets = task.default_budgets(4)
    assert len(budgets) == 4
    assert budgets == sorted(budgets)
    assert budgets[0] >= lb
    assert budgets[-1] <= ub
    assert len(task.default_budgets(1)) == 1


def test_assumed_static_batch_policy():
    nlp = small_task("TC-Bert")
    assert nlp.assumed_static_batch().input_size == nlp.worst_case.input_size
    od = load_task("OD-R50", iterations=2, calibration_samples=20)
    assert od.assumed_static_batch().input_size < od.worst_case.input_size


# -------------------------------------------------------------------- runner

def test_make_planner_all_names():
    task = small_task()
    for name in PLANNER_NAMES:
        p = make_planner(name, 4 * GB, task)
        assert p.name == name
    with pytest.raises(KeyError):
        make_planner("zero", GB, task)


def test_run_task_produces_result():
    task = small_task()
    r = run_task(task, "baseline", 6 * GB)
    assert r.num_iterations == 6
    assert r.succeeded
    assert r.total_time > 0
    assert r.peak_in_use > 0


def test_run_task_max_iterations():
    task = small_task()
    r = run_task(task, "baseline", 6 * GB, max_iterations=3)
    assert r.num_iterations == 3


def test_sweep_runs_baseline_once():
    task = small_task(iterations=3)
    results = sweep(task, ["baseline", "sublinear"], [4 * GB, 5 * GB])
    names = [(r.planner_name, r.budget_bytes) for r in results]
    assert names.count(("baseline", 4 * GB)) == 1
    assert ("sublinear", 4 * GB) in names and ("sublinear", 5 * GB) in names


def test_gap_entry_points(capsys):
    """``repro gaps`` and ``repro run --gap-sizes`` price their cells
    against the exact optimum, whose own gap is zero on every cell."""
    from repro.__main__ import main

    assert main(["gaps", "--task", "TC-Bert", "--sizes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    exact = next(line for line in lines if line.startswith("exact "))
    assert exact.split("|")[1].split() == ["0.0%/0.0%"]
    assert main([
        "run", "--task", "TC-Bert", "--planner", "mimose", "--solver",
        "exact", "--budget-gb", "2.5", "--iterations", "20",
        "--gap-sizes", "2",
    ]) == 0
    assert "0.0%/0.0%" in capsys.readouterr().out


def test_table3_counts_the_plans_recovery_generates(monkeypatch):
    """Table III's ``plans_generated`` counts every plan Mimose builds:
    the recovery ladder's replans take no plan-cache lookup, so two
    transient failures rescued by replanning are counted too."""
    faults = FaultPlan.parse(
        "alloc:start=30,count=1,min=1M;alloc:start=60,count=1,min=1M"
    )
    planners: list = []

    def faulted_run_task(task, planner_name, budget, *, observers=()):
        def attach(executor):
            planners.append(executor.planner)

        return run_task(
            task, planner_name, budget, faults=faults,
            observers=(*observers, attach),
        )

    monkeypatch.setattr(tables, "run_task", faulted_run_task)
    budget = load_task("TC-Bert", seed=3).default_budgets()[0]
    (row,) = tables.table3_rows(
        ("TC-Bert",), budget_gb=budget / GB, iterations=100, seed=3
    )
    (planner,) = planners
    assert planner.recovery_attempts > 0
    assert row["plans_generated"] == planner.plan_count
    assert planner.plan_count > planner.cache.misses


RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def _columns(text, names):
    """The named columns of a ``render_table`` table, one tuple per row."""
    lines = text.splitlines()
    sep = next(i for i, line in enumerate(lines) if "-+-" in line)
    header = [c.strip() for c in lines[sep - 1].split("|")]
    picks = [header.index(n) for n in names]
    rows = [[c.strip() for c in line.split("|")] for line in lines[sep + 1:]]
    return [tuple(row[i] for i in picks) for row in rows]


@pytest.mark.parametrize("artifact,key,rows", [
    pytest.param(
        "table4_regressors.txt",
        "regressor",
        # the two gbt rows would add ~4 s of boosting fits
        lambda: tables.table4_rows(regressors=(
            ("poly1", 10), ("poly2", 10), ("poly3", 10),
            ("svr", 10), ("svr", 50), ("tree", 10), ("tree", 50),
        )),
        id="table4",
    ),
    pytest.param(
        "table5_quadratic.txt", "task", tables.table5_rows, id="table5"
    ),
])
def test_committed_table_errors_match_their_generators(artifact, key, rows):
    """The committed Table IV/V artifacts hold the error figures their
    generators give now; host-timing columns are not compared."""
    names = [key, "num_samples", "error_pct"]
    committed = _columns((RESULTS / artifact).read_text(), names)
    expected = [row for row in committed if row[0] != "gbt"]
    assert _columns(render_table(rows()), names) == expected


def test_planner_capacity_contract():
    """Plan-based planners run inside the budget; reactive/static-overshoot
    ones get physical capacity."""
    task = small_task(iterations=4)
    budget = 4 * GB
    mim = run_task(task, "mimose", budget)
    assert mim.peak_reserved <= budget
    dtr = run_task(task, "dtr", budget)
    assert dtr.peak_in_use <= budget + (1 << 20)


# --------------------------------------------------------------------- stats

def make_stats(i=1, **kw):
    base = dict(
        iteration=i, input_size=100, input_shape=(4, 25), mode="normal",
        plan_label="x", num_checkpointed=0, fwd_time=1.0, bwd_time=2.0,
        recompute_time=0.5, collect_time=0.0, planning_time=0.1,
        upkeep_time=0.2, optimizer_time=0.2, peak_in_use=100, peak_reserved=120,
        end_in_use=10, fragmentation_bytes=0,
    )
    base.update(kw)
    return IterationStats(**base)


def test_iteration_stats_totals():
    s = make_stats()
    assert s.total_time == pytest.approx(4.0)
    assert s.compute_time == pytest.approx(3.2)
    assert s.overhead_time == pytest.approx(0.8)


def test_run_result_aggregation():
    r = RunResult("t", "p", 1000)
    r.append(make_stats(1, peak_in_use=50))
    r.append(make_stats(2, peak_in_use=80, oom=True))
    assert r.num_iterations == 2
    assert r.peak_in_use == 80
    assert r.oom_count == 1
    assert not r.succeeded
    assert r.mean_iteration_time() == pytest.approx(4.0)
    assert r.time_breakdown()["fwd_time"] == pytest.approx(2.0)
    assert 0 < r.overhead_fraction() < 1


def test_run_time_sums_are_left_folds(monkeypatch):
    """Run-level time sums add left to right from 0.0, as the builtin
    ``sum()`` does up to Python 3.11.  Since 3.12 it compensates, which
    ``math.fsum`` emulates here: on these times it rounds differently."""
    monkeypatch.setattr(
        builtins, "sum", lambda values, start=0: math.fsum([start, *values])
    )
    zero = dict.fromkeys(
        ("fwd_time", "bwd_time", "recompute_time", "collect_time",
         "planning_time", "upkeep_time", "optimizer_time"),
        0.0,
    )
    r = RunResult("t", "p", 1)
    for i, t in enumerate((1e16, 1.0, -1e16)):
        r.append(make_stats(i, **{**zero, "recompute_time": t}))
    r.append(make_stats(3, **{**zero, "fwd_time": 1.0}))
    assert sum(s.total_time for s in r.iterations) == 2.0  # compensated
    assert r.total_time == 1.0
    assert r.time_breakdown()["recompute_time"] == 0.0
    assert r.overhead_fraction() == 0.0


def test_run_result_normalization():
    a = RunResult("t", "a", 1)
    b = RunResult("t", "b", 1)
    a.append(make_stats(1))
    b.append(make_stats(1, fwd_time=3.0))
    assert b.normalized_time(a) > 1.0
    empty = RunResult("t", "c", 1)
    with pytest.raises(ValueError):
        a.normalized_time(empty)


def test_summarize_runs():
    r = RunResult("t", "p", 2 * GB)
    r.append(make_stats())
    rows = summarize_runs([r])
    assert rows[0]["task"] == "t"
    assert rows[0]["budget_gb"] == pytest.approx(2.0)
    assert rows[0]["succeeded"]
