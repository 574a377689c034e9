"""End-to-end tests for the Mimose planner's two-phase lifecycle."""

import pytest

from repro.core.planner import MimosePlanner
from repro.solvers import KnapsackScheduler
from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.tensorsim.dtypes import FLOAT32

from tests.helpers import GB, MB, make_tiny_model


def make_setup(budget, *, num_units=6, features=512, collect=4, **planner_kw):
    model = make_tiny_model(num_units=num_units, features=features)
    planner = MimosePlanner(
        budget, collect_iterations=collect, headroom_bytes=4 * MB, **planner_kw
    )
    ex = TrainingExecutor(model, planner, capacity_bytes=budget)
    return model, planner, ex


def batches(rows_list, features=512):
    return [BatchInput((r, features), FLOAT32) for r in rows_list]


def test_sheltered_phase_runs_collect_iterations():
    _, planner, ex = make_setup(2 * GB, collect=4)
    modes = [ex.step(b).mode for b in batches([64, 128, 256, 192, 100])]
    assert modes[:4] == ["collect"] * 4
    assert modes[4] == "normal"
    assert planner.estimator.is_fitted
    assert planner.collect_count == 4


def test_small_inputs_get_empty_plans():
    """Memory optimisation is disabled when the input fits (Fig 11)."""
    _, planner, ex = make_setup(4 * GB, collect=4)
    for b in batches([64, 128, 256, 192]):
        ex.step(b)
    stats = ex.step(BatchInput((32, 512), FLOAT32))
    assert stats.num_checkpointed == 0
    assert stats.recompute_time == 0


def test_tight_budget_produces_checkpointing_plans():
    model = make_tiny_model(num_units=6, features=512)
    static = model.static_memory().total
    budget = static + 40 * MB
    planner = MimosePlanner(budget, collect_iterations=4, headroom_bytes=8 * MB)
    ex = TrainingExecutor(model, planner, capacity_bytes=budget)
    rows = [512, 1024, 1536, 768, 1400, 1500]
    results = [ex.step(b) for b in batches(rows)]
    responsive = results[4:]
    assert any(s.num_checkpointed > 0 for s in responsive)
    assert all(not s.oom for s in results)
    assert all(s.peak_in_use <= budget for s in results)


def test_plan_cache_reused_for_repeated_sizes():
    _, planner, ex = make_setup(2 * GB, collect=4)
    for b in batches([64, 128, 256, 192]):
        ex.step(b)
    ex.step(BatchInput((250, 512), FLOAT32))
    misses = planner.cache.misses
    ex.step(BatchInput((250, 512), FLOAT32))
    ex.step(BatchInput((250, 512), FLOAT32))
    assert planner.cache.misses == misses
    assert planner.cache.hits >= 2


def test_similar_sizes_share_plans():
    _, planner, ex = make_setup(2 * GB, collect=4)
    for b in batches([64, 128, 256, 192]):
        ex.step(b)
    ex.step(BatchInput((200, 512), FLOAT32))
    before = planner.plan_count
    ex.step(BatchInput((196, 512), FLOAT32))  # within 5% below
    assert planner.plan_count == before


def test_much_larger_input_triggers_recollection():
    _, planner, ex = make_setup(2 * GB, collect=4)
    for b in batches([64, 128, 256, 192]):
        ex.step(b)
    assert ex.step(BatchInput((128, 512), FLOAT32)).mode == "normal"
    big = ex.step(BatchInput((2048, 512), FLOAT32))
    assert big.mode == "collect"  # beyond the trusted extrapolation range
    # and afterwards the estimator covers the new range
    assert planner.estimator.max_trained_size >= 2048 * 512
    assert ex.step(BatchInput((2000, 512), FLOAT32)).mode == "normal"


def test_oom_widens_headroom_and_clears_cache():
    from repro.planners.base import CheckpointPlan

    _, planner, _ = make_setup(2 * GB, collect=4)
    planner.cache.put(1000, CheckpointPlan.none())
    from repro.engine.stats import IterationStats

    headroom = planner.headroom_bytes
    stats = IterationStats(
        iteration=1, input_size=1000, input_shape=(1, 1000), mode="normal",
        plan_label="mimose", num_checkpointed=0, fwd_time=1, bwd_time=1,
        recompute_time=0, collect_time=0, planning_time=0, upkeep_time=0,
        optimizer_time=0, peak_in_use=0, peak_reserved=0, end_in_use=0,
        fragmentation_bytes=0, oom=True,
    )
    planner.observe(stats)
    assert planner.headroom_bytes == headroom + planner.headroom_step
    assert len(planner.cache) == 0


def test_planning_time_is_charged():
    _, planner, ex = make_setup(2 * GB, collect=4)
    for b in batches([64, 128, 256, 192]):
        ex.step(b)
    stats = ex.step(BatchInput((300, 512), FLOAT32))
    assert stats.planning_time > 0
    # sub-millisecond planning, as Table III reports
    assert stats.planning_time < 0.05


def test_pluggable_scheduler():
    model, planner, ex = make_setup(
        2 * GB, collect=4, scheduler=KnapsackScheduler()
    )
    for b in batches([64, 128, 256, 192]):
        ex.step(b)
    stats = ex.step(BatchInput((256, 512), FLOAT32))
    assert not stats.oom


def test_capabilities_match_table1():
    caps = MimosePlanner.capabilities
    assert caps.dynamic_input
    assert not caps.dynamic_graph
    assert caps.fragmentation_avoidance == "side-effect"
    assert caps.granularity == "block"
    assert caps.plan_timing == "runtime"
    assert caps.search_algorithm == "greedy"
    assert not MimosePlanner.requires_physical_capacity


def test_invalid_headroom():
    with pytest.raises(ValueError):
        MimosePlanner(GB, headroom_bytes=-1)


def test_user_supplied_empty_cache_is_used():
    """Regression: an empty PlanCache is falsy (it defines __len__), so
    `cache or PlanCache()` silently discarded user-supplied caches."""
    from repro.core.plan_cache import PlanCache
    from repro.core.estimator import LightningMemoryEstimator

    cache = PlanCache(tolerance=0.0)
    scheduler = KnapsackScheduler()
    estimator = LightningMemoryEstimator()
    planner = MimosePlanner(
        GB, cache=cache, scheduler=scheduler, estimator=estimator
    )
    assert planner.cache is cache
    assert planner.scheduler is scheduler
    assert planner.estimator is estimator


def test_cache_tolerance_actually_changes_behavior():
    """With the regression fixed, exact-only caching generates far more
    plans than the paper's 5% similarity window on a varied stream."""
    from repro.core.plan_cache import PlanCache

    counts = {}
    for tol in (0.0, 0.05):
        model = make_tiny_model(num_units=6, features=512)
        planner = MimosePlanner(
            2 * GB, collect_iterations=4,
            cache=PlanCache(tolerance=tol), headroom_bytes=4 * MB,
        )
        ex = TrainingExecutor(model, planner, capacity_bytes=2 * GB)
        for rows in (64, 128, 256, 192, 200, 202, 205, 198, 207, 195, 203):
            ex.step(BatchInput((rows, 512), FLOAT32))
        counts[tol] = planner.plan_count
    assert counts[0.0] > counts[0.05]


# -------------------------------------------------- residual feedback (§IV-E)

def test_cache_hits_still_feed_the_residual_tracker():
    """Regression: predictions used to be stored in a per-size dict that
    plan() only wrote on cache *misses*, so every cache-served iteration
    starved the adaptive-margin feedback loop.  The prediction now rides
    on the plan itself, so hits observe too."""
    model = make_tiny_model(num_units=6, features=512)
    static = model.static_memory().total
    budget = static + 40 * MB  # tight: plans predict a positive peak
    planner = MimosePlanner(
        budget, collect_iterations=4, headroom_bytes=8 * MB,
        adaptive_margin=True,
    )
    ex = TrainingExecutor(model, planner, capacity_bytes=budget)
    for b in batches([512, 1024, 1536, 768]):
        ex.step(b)
    ex.step(BatchInput((1400, 512), FLOAT32))  # miss: creates the plan
    hits_before = planner.cache.hits
    obs_before = planner.residuals.num_observations
    for _ in range(3):
        ex.step(BatchInput((1400, 512), FLOAT32))  # pure cache hits
    assert planner.cache.hits == hits_before + 3
    assert planner.residuals.num_observations == obs_before + 3


def test_observe_without_prediction_records_nothing():
    """COLLECT/static iterations carry no prediction; the trackers must
    not be fed fabricated residuals for them."""
    _, planner, _ = make_setup(2 * GB, collect=4)
    from repro.engine.stats import IterationStats

    stats = IterationStats(
        iteration=1, input_size=1000, input_shape=(1, 1000), mode="normal",
        plan_label="mimose", num_checkpointed=0, fwd_time=1, bwd_time=1,
        recompute_time=0, collect_time=0, planning_time=0, upkeep_time=0,
        optimizer_time=0, peak_in_use=100 * MB, peak_reserved=120 * MB,
        end_in_use=0, fragmentation_bytes=0, predicted_peak_bytes=None,
    )
    planner.observe(stats)
    assert planner.residuals.num_observations == 0
    assert planner.frag_observed.num_observations == 0


def test_observe_with_zero_prediction_feeds_frag_tracker_only():
    """A predicted peak of zero is a value, not an absence (the old code's
    falsy `if predicted:` test conflated the two): allocator slack is
    still observable, but a relative residual against zero is not."""
    _, planner, _ = make_setup(2 * GB, collect=4)
    from repro.engine.stats import IterationStats

    stats = IterationStats(
        iteration=1, input_size=1000, input_shape=(1, 1000), mode="normal",
        plan_label="mimose", num_checkpointed=0, fwd_time=1, bwd_time=1,
        recompute_time=0, collect_time=0, planning_time=0, upkeep_time=0,
        optimizer_time=0, peak_in_use=100 * MB, peak_reserved=120 * MB,
        end_in_use=0, fragmentation_bytes=0, predicted_peak_bytes=0,
    )
    planner.observe(stats)
    assert planner.residuals.num_observations == 0
    assert planner.frag_observed.num_observations == 1


def test_refit_discards_stale_predictions_with_the_cache():
    """_fit() clears the plan cache; since predictions travel with the
    cached plans, a refit cannot leave a stale prediction behind to be
    attributed to a later iteration."""
    _, planner, ex = make_setup(2 * GB, collect=4)
    for b in batches([64, 128, 256, 192]):
        ex.step(b)
    ex.step(BatchInput((300, 512), FLOAT32))
    assert len(planner.cache) > 0
    ex.step(BatchInput((2048, 512), FLOAT32))  # triggers recollection+refit
    assert len(planner.cache) == 0
