"""Tests for the DTR reactive planner."""

import pytest

from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.planners.base import EvictableGroup, ExecutionMode
from repro.planners.dtr import DTRPlanner
from repro.tensorsim.dtypes import FLOAT32

from tests.helpers import GB, MB, make_tiny_model


def group(name, nbytes, cost, last, tensors=4):
    return EvictableGroup(name, nbytes, cost, last, tensors)


def test_plan_is_reactive_and_empty():
    p = DTRPlanner(GB)
    d = p.plan(BatchInput((8, 64), FLOAT32))
    assert d.mode is ExecutionMode.REACTIVE
    assert d.plan.assignment.is_empty


def test_h_value_prefers_cheap_large_stale():
    now = 10.0
    cheap_large_stale = group("a", nbytes=100 * MB, cost=0.001, last=1.0)
    costly_small_fresh = group("b", nbytes=1 * MB, cost=0.1, last=9.9)
    assert cheap_large_stale.h_value(now) < costly_small_fresh.h_value(now)


def test_on_oom_picks_min_h_victim():
    p = DTRPlanner(GB)
    pool = {
        "a": group("a", 100 * MB, 0.001, 1.0),
        "b": group("b", 1 * MB, 0.1, 9.9),
        "c": group("c", 50 * MB, 0.05, 5.0),
    }
    victim, search_time = p.on_oom(10 * MB, pool, now=10.0)
    assert victim == "a"
    assert search_time > 0
    assert p.oom_events == 1


def test_on_oom_empty_pool_gives_up():
    p = DTRPlanner(GB)
    victim, search_time = p.on_oom(10 * MB, {}, now=1.0)
    assert victim is None
    assert search_time > 0


def test_search_time_scales_with_tracked_tensors():
    p = DTRPlanner(GB)
    small_pool = {"a": group("a", MB, 0.1, 0.0, tensors=2)}
    big_pool = {
        f"u{i}": group(f"u{i}", MB, 0.1, 0.0, tensors=20) for i in range(10)
    }
    _, t_small = p.on_oom(MB, small_pool, now=1.0)
    _, t_big = p.on_oom(MB, big_pool, now=1.0)
    assert t_big > 10 * t_small


def test_dtr_evicts_to_stay_within_logical_budget():
    model = make_tiny_model(num_units=8, features=512)
    static = model.static_memory().total
    activations_budget = 24 * MB
    budget = static + activations_budget
    planner = DTRPlanner(budget, upkeep_time_per_tensor=0.0)
    ex = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    stats = ex.step(BatchInput((1024, 512), FLOAT32))
    assert not stats.oom
    assert stats.evictions > 0
    assert stats.peak_in_use <= budget + MB  # logical budget held
    assert stats.recompute_time > 0  # evicted units were rematerialised


def test_dtr_without_pressure_never_evicts():
    model = make_tiny_model(num_units=4, features=64)
    planner = DTRPlanner(4 * GB)
    ex = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    stats = ex.step(BatchInput((16, 64), FLOAT32))
    assert stats.evictions == 0
    assert stats.recompute_time == 0
    assert stats.upkeep_time > 0  # cost upkeep exists even with no drops


def test_dtr_oom_when_pool_exhausted():
    """If evicting everything still cannot fit, the iteration fails."""
    model = make_tiny_model(num_units=2, features=512)
    static = model.static_memory().total
    planner = DTRPlanner(static + 2 * MB)
    ex = TrainingExecutor(model, planner, capacity_bytes=static + 2 * MB)
    stats = ex.step(BatchInput((4096, 512), FLOAT32))
    assert stats.oom


def test_non_reactive_planner_on_oom_raises(tiny_model):
    from repro.planners.none import NoCheckpointPlanner

    p = NoCheckpointPlanner(GB)
    with pytest.raises(NotImplementedError):
        p.on_oom(1, {}, 0.0)
