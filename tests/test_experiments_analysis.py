"""Tests for the post-run analysis/export utilities."""

import builtins
import csv
import io
import json
import math
from dataclasses import replace

import pytest

from repro.engine.stats import IterationStats, RunResult
from repro.experiments.analysis import (
    check_paper_shape,
    compare_runs,
    improvement_over,
    iterations_to_csv,
    run_to_json,
)

GB = 1024**3


def make_run(planner, budget=4 * GB, iter_time=1.0, n=3, oom=0):
    r = RunResult("T", planner, budget)
    for i in range(1, n + 1):
        r.append(
            IterationStats(
                iteration=i, input_size=100 * i, input_shape=(4, 25 * i),
                mode="normal", plan_label=planner, num_checkpointed=2,
                fwd_time=iter_time * 0.3, bwd_time=iter_time * 0.55,
                recompute_time=iter_time * 0.1, collect_time=0.0,
                planning_time=iter_time * 0.02, upkeep_time=0.0,
                optimizer_time=iter_time * 0.03,
                peak_in_use=2 * GB, peak_reserved=int(2.2 * GB),
                end_in_use=GB, fragmentation_bytes=0,
                oom=bool(oom and i <= oom),
            )
        )
    return r


def test_compare_runs_normalises_against_baseline():
    base = make_run("baseline", iter_time=1.0)
    slow = make_run("sublinear", iter_time=1.3)
    rows = compare_runs([base, slow])
    by = {r["planner"]: r for r in rows}
    assert by["baseline"]["normalized_time"] == pytest.approx(1.0)
    assert by["sublinear"]["normalized_time"] == pytest.approx(1.3)
    assert by["sublinear"]["budget_utilisation"] == pytest.approx(0.5)
    assert by["sublinear"]["succeeded"]


def test_compare_runs_requires_baseline():
    with pytest.raises(ValueError, match="no run named"):
        compare_runs([make_run("mimose")])


def test_improvement_over_matched_budgets():
    runs = [
        make_run("mimose", budget=3 * GB, iter_time=1.0),
        make_run("sublinear", budget=3 * GB, iter_time=1.2),
        make_run("mimose", budget=4 * GB, iter_time=1.0),
        make_run("sublinear", budget=4 * GB, iter_time=1.1),
    ]
    imp = improvement_over(runs, "mimose", "sublinear")
    assert imp == pytest.approx((0.2 + 0.1) / 2)


def test_improvement_over_is_a_left_fold(monkeypatch):
    """The mean speedup adds left to right from 0.0, as the builtin
    ``sum()`` does up to Python 3.11.  Since 3.12 it compensates, which
    ``math.fsum`` emulates here: on these ratios it rounds differently."""
    monkeypatch.setattr(
        builtins, "sum", lambda values, start=0: math.fsum([start, *values])
    )
    zero = dict.fromkeys(
        ("bwd_time", "recompute_time", "planning_time", "optimizer_time"), 0.0
    )

    def run(planner, budget, seconds):
        r = RunResult("T", planner, budget)
        r.append(replace(make_run(planner).iterations[0], fwd_time=seconds, **zero))
        return r

    # speedup ratios 1e16, 1.0 and 1.0, in that order
    runs = []
    for budget, ref_time in zip((1, 2, 3), (1e16, 2.0, 2.0)):
        runs += [run("mimose", budget, 1.0), run("sublinear", budget, ref_time)]
    assert sum([1e16, 1.0, 1.0]) / 3 != (1e16 + 1.0 + 1.0) / 3  # compensated
    assert improvement_over(runs, "mimose", "sublinear") == (1e16 + 1.0 + 1.0) / 3


def test_improvement_over_no_match_raises():
    with pytest.raises(ValueError):
        improvement_over([make_run("mimose")], "mimose", "dtr")


def test_iterations_to_csv_roundtrip():
    run = make_run("mimose", n=4)
    text = iterations_to_csv(run)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 4
    assert rows[0]["plan_label"] == "mimose"
    assert int(rows[2]["input_size"]) == 300
    assert rows[0]["oom"] == "False"


def test_run_to_json_roundtrip():
    run = make_run("dtr", n=2, oom=1)
    payload = json.loads(run_to_json(run))
    assert payload["planner"] == "dtr"
    assert payload["succeeded"] is False
    assert len(payload["iterations"]) == 2
    assert payload["iterations"][0]["oom"] is True


def point(t, respects=True, oom=0, budget=4.0):
    return {
        "budget_gb": budget,
        "normalized_time": t,
        "respects_budget": respects,
        "oom_iterations": oom,
    }


def test_check_paper_shape_accepts_good_series():
    series = {
        "mimose": [point(1.2), point(1.1)],
        "sublinear": [point(1.3), point(1.2)],
        "dtr": [point(1.4), point(1.3)],
    }
    assert check_paper_shape(series) == []


def test_check_paper_shape_flags_budget_violation():
    series = {
        "mimose": [point(1.2, respects=False)],
        "sublinear": [point(1.3)],
    }
    problems = check_paper_shape(series)
    assert any("exceeded the budget" in p for p in problems)


def test_check_paper_shape_flags_losses():
    series = {
        "mimose": [point(1.5), point(1.5)],
        "sublinear": [point(1.1), point(1.1)],
    }
    problems = check_paper_shape(series)
    assert any("beats sublinear" in p for p in problems)


def test_check_paper_shape_flags_non_monotone():
    series = {"mimose": [point(1.1), point(1.3)]}
    problems = check_paper_shape(series)
    assert any("does not improve" in p for p in problems)


def test_check_paper_shape_requires_mimose():
    assert check_paper_shape({}) == ["no mimose series present"]
