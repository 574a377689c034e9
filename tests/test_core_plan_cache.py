"""Tests for the input-size-keyed plan cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan_cache import PlanCache
from repro.experiments.runner import run_task
from repro.experiments.tasks import load_task
from repro.planners.base import ActionAssignment, CheckpointPlan


def plan(label):
    return CheckpointPlan(ActionAssignment.from_sets(recompute={label}), label)


def test_exact_hit():
    c = PlanCache()
    c.put(1000, plan("a"))
    assert c.get(1000).label == "a"
    assert c.hits == 1 and c.misses == 0


def test_miss_on_empty():
    c = PlanCache()
    assert c.get(1000) is None
    assert c.misses == 1
    assert c.hit_rate == 0.0


def test_similar_size_shares_downward_only():
    c = PlanCache(tolerance=0.05)
    c.put(1000, plan("a"))
    # a slightly smaller request may safely reuse the larger plan
    assert c.get(960).label == "a"
    # a larger request must NOT reuse a smaller plan (budget risk)
    assert c.get(1041) is None


def test_tolerance_boundary():
    c = PlanCache(tolerance=0.05)
    c.put(1000, plan("a"))
    assert c.get(950) is not None  # exactly at 1000*(1-0.05)
    assert c.get(949) is None


def test_nearest_size_at_or_above_is_used():
    c = PlanCache(tolerance=0.10)
    c.put(1000, plan("big"))
    c.put(910, plan("small"))
    # 905 matches both windows; the tighter (smaller) plan wins
    assert c.get(905).label == "small"


def test_put_refreshes_existing():
    c = PlanCache()
    c.put(1000, plan("a"))
    c.put(1000, plan("b"))
    assert len(c) == 1
    assert c.get(1000).label == "b"


def test_lru_eviction():
    c = PlanCache(max_entries=2)
    c.put(100, plan("a"))
    c.put(200, plan("b"))
    c.get(100)  # refresh a
    c.put(300, plan("c"))  # evicts b (least recently used)
    assert c.get(200) is None
    assert c.get(100) is not None
    assert c.get(300) is not None
    assert len(c) == 2


def test_clear_drops_entries_and_keeps_counters():
    c = PlanCache()
    c.put(100, plan("a"))
    c.get(100)
    c.get(200)
    c.clear()
    assert len(c) == 0
    assert c.hits == 1 and c.misses == 1
    assert c.get(100) is None
    assert c.hits == 1 and c.misses == 2


def test_run_counters_cover_every_responsive_iteration():
    """A drifting run clears the cache on each of its refits; the run's
    counters still count every lookup, one per NORMAL iteration, and
    one miss per generated plan."""
    task = load_task(
        "TC-Bert", iterations=300, seed=11, drift_scenario="curriculum"
    )
    planners = []
    result = run_task(
        task, "mimose", task.default_budgets(4)[1], drift_detection=True,
        observers=(lambda executor: planners.append(executor.planner),),
    )
    assert result.refits > 0
    normal = sum(1 for s in result.iterations if s.mode == "normal")
    assert result.plan_cache_hits + result.plan_cache_misses == normal
    assert result.plan_cache_misses == planners[0].plan_count


def test_validation():
    with pytest.raises(ValueError):
        PlanCache(tolerance=1.0)
    with pytest.raises(ValueError):
        PlanCache(max_entries=0)
    c = PlanCache()
    with pytest.raises(ValueError):
        c.put(0, plan("a"))


def test_hit_rate():
    c = PlanCache()
    c.put(100, plan("a"))
    c.get(100)
    c.get(100)
    c.get(999)
    assert c.hit_rate == pytest.approx(2 / 3)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=64),
    probe=st.integers(1, 10_000),
)
def test_property_returned_plan_is_always_safe(sizes, probe):
    """Any plan the cache returns was stored for a size >= (1-tol)^-1 of
    the probe — i.e. plans are never reused upward beyond tolerance."""
    tol = 0.05
    c = PlanCache(tolerance=tol, max_entries=128)
    for s in sizes:
        c.put(s, CheckpointPlan(ActionAssignment(), str(s)))
    got = c.get(probe)
    if got is not None:
        stored_size = int(got.label)
        assert probe >= stored_size * (1 - tol)
        # never serves a plan from a *smaller* stored size than needed,
        # except exact hits
        assert stored_size >= probe or stored_size == probe
