"""Cross-module integration tests: the paper's headline claims, in miniature.

These run the full stack (data -> model -> planner -> executor) on reduced
iteration counts and assert the *shape* of the paper's results rather than
absolute numbers.
"""

import pytest

from repro.experiments.runner import run_task
from repro.experiments.tasks import GB, load_task


@pytest.fixture(scope="module")
def tc_bert_runs():
    """One shared sweep on TC-Bert @ 4 GB for several assertions."""
    task = load_task("TC-Bert", iterations=40, seed=7)
    budget = 4 * GB
    return {
        name: run_task(task, name, budget)
        for name in ("baseline", "sublinear", "dtr", "mimose")
    }, budget


def test_everyone_trains_successfully(tc_bert_runs):
    runs, _ = tc_bert_runs
    for name, r in runs.items():
        assert r.succeeded, f"{name} hit OOM"


def test_mimose_beats_sublinear_and_dtr(tc_bert_runs):
    """The headline: input-aware planning outperforms both static and
    reactive planners under the same budget (~18 % / ~15 % in the paper)."""
    runs, _ = tc_bert_runs
    base = runs["baseline"]
    t_mimose = runs["mimose"].normalized_time(base)
    t_sub = runs["sublinear"].normalized_time(base)
    t_dtr = runs["dtr"].normalized_time(base)
    assert t_mimose < t_sub
    assert t_mimose < t_dtr


def test_budget_compliance_split(tc_bert_runs):
    """Mimose and Sublinear strictly obey the budget; DTR overshoots
    (fragmentation), as §VI-B reports."""
    runs, budget = tc_bert_runs
    assert runs["mimose"].peak_reserved <= budget
    assert runs["sublinear"].peak_reserved <= budget
    assert runs["dtr"].peak_reserved > budget


def test_dtr_pays_cost_upkeep(tc_bert_runs):
    """DTR's metadata maintenance is a double-digit share of iteration
    time (26 % average in Fig 5)."""
    runs, _ = tc_bert_runs
    breakdown = runs["dtr"].time_breakdown()
    upkeep_share = breakdown["upkeep_time"] / runs["dtr"].total_time
    assert 0.05 < upkeep_share < 0.5


def test_mimose_overhead_is_small(tc_bert_runs):
    """Estimator+scheduler are sub-millisecond; collection happens ~10
    times; total overhead is a few iterations' worth (Table III)."""
    runs, _ = tc_bert_runs
    mimose = runs["mimose"]
    collects = [s for s in mimose.iterations if s.mode == "collect"]
    assert 8 <= len(collects) <= 16
    responsive = [s for s in mimose.iterations if s.mode == "normal"]
    assert responsive
    # The first responsive plan() runs the lazy estimator fit: host
    # wall-clock that table3_rows() reports apart as fit_ms and leaves
    # out of its per-plan bound.  Every later plan is gated here.
    for s in responsive[1:]:
        assert s.planning_time < 0.01  # well under 10 ms
    mean_iter = mimose.mean_iteration_time()
    overhead_iters = sum(s.overhead_time for s in mimose.iterations) / mean_iter
    assert overhead_iters < len(mimose.iterations) * 0.5


def test_mimose_adapts_plans_to_input_size(tc_bert_runs):
    """Bigger inputs get more checkpointing; small inputs get none."""
    runs, _ = tc_bert_runs
    responsive = [
        s for s in runs["mimose"].iterations if s.mode == "normal"
    ]
    small = [s for s in responsive if s.input_shape[-1] <= 80]
    large = [s for s in responsive if s.input_shape[-1] >= 250]
    if small and large:
        mean_small = sum(s.num_checkpointed for s in small) / len(small)
        mean_large = sum(s.num_checkpointed for s in large) / len(large)
        assert mean_large > mean_small


def test_generous_budget_approaches_baseline():
    """Paper: 2.6 % slowdown at generous budgets.  Collection cost is
    amortised over an epoch, so compare steady-state (responsive)
    iterations against the baseline's matching iterations."""
    task = load_task("TC-Bert", iterations=40, seed=9)
    base = run_task(task, "baseline", 8 * GB)
    mimose = run_task(task, "mimose", int(5.8 * GB))
    pairs = [
        (m, b)
        for m, b in zip(mimose.iterations, base.iterations)
        if m.mode == "normal"
    ]
    t_mimose = sum(m.total_time for m, _ in pairs)
    t_base = sum(b.total_time for _, b in pairs)
    assert t_mimose / t_base < 1.08


def test_sublinear_wastes_budget_on_small_inputs():
    """Fig 4: with the static worst-case plan, a small input leaves a
    large fraction of the budget unused."""
    task = load_task("TC-Bert", iterations=30, seed=3)
    budget = 3 * GB
    sub = run_task(task, "sublinear", budget)
    small_iters = [s for s in sub.iterations if s.input_shape[-1] <= 100]
    assert small_iters, "need small inputs in the stream"
    for s in small_iters:
        unused = budget - s.peak_in_use
        assert unused > 0.25 * budget


def test_mimose_works_on_encoder_decoder_and_cnn():
    """Sanity across architectures: T5 (TR-T5) and ResNet (OD-R50)."""
    t5 = load_task("TR-T5", iterations=16, seed=1)
    r = run_task(t5, "mimose", 6 * GB)
    assert r.succeeded
    od = load_task("OD-R50", iterations=14, seed=1)
    lb, _ = od.memory_bounds()
    r = run_task(od, "mimose", int(lb * 1.2))
    assert r.succeeded
    assert r.peak_reserved <= int(lb * 1.2)
