"""Unit + integration tests for the training executor."""

import pytest

from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.engine.stats import RunResult
from repro.engine.trace import MemoryTimeline
from repro.experiments.tasks import load_task
from repro.models.base import BatchInput
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ExecutionMode,
    ModelView,
    PlanDecision,
)
from repro.planners.none import NoCheckpointPlanner
from repro.planners.sublinear import SublinearPlanner
from repro.tensorsim.dtypes import FLOAT32

from tests.helpers import GB, MB, make_tiny_model


def make_executor(model=None, capacity=4 * GB, **kwargs):
    model = model or make_tiny_model()
    planner = NoCheckpointPlanner(capacity)
    return TrainingExecutor(model, planner, capacity_bytes=capacity, **kwargs)


def batch(rows=32, features=64):
    return BatchInput((rows, features), FLOAT32)


def test_static_memory_allocated_up_front():
    ex = make_executor()
    n = ex.model.param_count()
    assert ex.static_bytes >= 16 * n  # params+grads+adam


def test_budget_below_static_footprint_raises():
    model = make_tiny_model()
    planner = NoCheckpointPlanner(1024)
    with pytest.raises(ValueError, match="static footprint"):
        TrainingExecutor(model, planner, capacity_bytes=1024)


def test_iteration_returns_to_static_memory():
    """No leaks: after each iteration only the static blocks remain."""
    ex = make_executor()
    for _ in range(3):
        stats = ex.run_iteration(batch(), PlanDecision(CheckpointPlan.none()))
        assert not stats.oom
        assert stats.end_in_use == ex.static_bytes
    ex.allocator.check_consistency()


def test_iteration_stats_time_components_positive():
    ex = make_executor()
    stats = ex.run_iteration(batch(), PlanDecision(CheckpointPlan.none()))
    assert stats.fwd_time > 0
    assert stats.bwd_time > 0
    assert stats.optimizer_time > 0
    assert stats.recompute_time == 0
    assert stats.total_time == pytest.approx(
        stats.fwd_time + stats.bwd_time + stats.optimizer_time
        + stats.planning_time + stats.upkeep_time + stats.collect_time
        + stats.recompute_time
    )


def test_checkpointing_reduces_peak_and_adds_recompute():
    model = make_tiny_model(num_units=6, features=256)
    names = [u.name for u in model.units]
    ex = make_executor(model)
    full = ex.run_iteration(batch(512, 256), PlanDecision(CheckpointPlan.none()))
    ckpt = ex.run_iteration(
        batch(512, 256), PlanDecision(CheckpointPlan(ActionAssignment.from_sets(recompute=names), "all"))
    )
    assert ckpt.peak_in_use < full.peak_in_use
    assert ckpt.recompute_time > 0
    assert ckpt.num_checkpointed == 6
    assert ckpt.total_time > full.total_time


def test_more_checkpointing_is_monotone_in_recompute_time():
    model = make_tiny_model(num_units=8, features=128)
    names = [u.name for u in model.units]
    ex = make_executor(model)
    times = []
    for k in (0, 4, 8):
        s = ex.run_iteration(
            batch(256, 128), PlanDecision(
                CheckpointPlan(ActionAssignment.from_sets(recompute=names[:k]), f"k{k}")
            )
        )
        times.append(s.recompute_time)
    assert times[0] == 0
    assert times[0] < times[1] < times[2]


def test_collect_mode_doubles_forward_and_measures():
    model = make_tiny_model(num_units=4, features=128)
    ex = make_executor(model)
    normal = ex.run_iteration(batch(64, 128), PlanDecision(CheckpointPlan.none()))
    collect = ex.run_iteration(
        batch(64, 128),
        PlanDecision(CheckpointPlan.none(), mode=ExecutionMode.COLLECT),
    )
    assert collect.collect_time == pytest.approx(collect.fwd_time)
    assert len(collect.measurements) == 4
    for m in collect.measurements:
        assert m.saved_bytes > 0
        assert m.fwd_time > 0
        assert m.input_size == 64 * 128
    # sheltered execution keeps the full-checkpoint footprint
    assert collect.peak_in_use < normal.peak_in_use
    assert collect.recompute_time > 0


def test_collect_measurement_matches_profile_saved_bytes():
    model = make_tiny_model(num_units=2, features=64)
    ex = make_executor(model)
    b = batch(32, 64)
    stats = ex.run_iteration(
        b, PlanDecision(CheckpointPlan.none(), mode=ExecutionMode.COLLECT)
    )
    from repro.planners.analysis import unit_saved_bytes

    profiles = {p.module_name: p for p in model.profiles(b)}
    for m in stats.measurements:
        expected = unit_saved_bytes(profiles[m.unit_name])
        # allocator rounding may add up to one alignment quantum per tensor
        assert expected <= m.saved_bytes <= expected + 4096


def test_oom_returns_failed_stats_and_unwinds():
    model = make_tiny_model(num_units=6, features=1024)
    static = model.static_memory().total
    planner = NoCheckpointPlanner(static + 64 * MB)
    ex = TrainingExecutor(model, planner, capacity_bytes=static + 64 * MB)
    stats = ex.run_iteration(
        batch(4096, 1024), PlanDecision(CheckpointPlan.none())
    )
    assert stats.oom
    assert ex.allocator.bytes_in_use == ex.static_bytes  # fully unwound
    ex.allocator.check_consistency()
    # the executor remains usable afterwards
    ok = ex.run_iteration(batch(4, 1024), PlanDecision(CheckpointPlan.none()))
    assert not ok.oom


def test_plan_entries_for_non_checkpointable_units_ignored(bert_model):
    planner = NoCheckpointPlanner(12 * GB)
    ex = TrainingExecutor(bert_model, planner, capacity_bytes=12 * GB)
    from repro.tensorsim.dtypes import INT64

    b = BatchInput((8, 64), INT64)
    s = ex.run_iteration(
        b, PlanDecision(
            CheckpointPlan(
                ActionAssignment.from_sets(recompute=["embeddings", "head"]), "bad"
            )
        )
    )
    assert s.num_checkpointed == 0
    assert s.recompute_time == 0


def test_timeline_records_phases():
    timeline = MemoryTimeline()
    model = make_tiny_model(num_units=3)
    planner = NoCheckpointPlanner(4 * GB)
    ex = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    timeline.attach(ex.events)
    ex.run_iteration(batch(), PlanDecision(CheckpointPlan.none()))
    phases = [p.phase for p in timeline.points]
    assert "fwd:unit.0" in phases
    assert "bwd:unit.2" in phases
    assert timeline.peak_by_iteration()[1] > 0


def test_iteration_times_helper():
    """An iteration's forward seconds are positive and below its backward
    seconds, summed over the model's per-unit times."""
    ex = make_executor()
    times = ex.model.unit_times(ex.device, batch())
    fwd = sum(f for f, _b in times)
    bwd = sum(b for _f, b in times)
    assert 0 < fwd < bwd


def test_executor_sets_up_its_planner():
    """Building the executor sets its planner up: a static planner has
    its plan and Mimose knows the model's units, with no set-up call from
    the caller; a caller's own set-up call first changes nothing."""
    ex = TrainingExecutor(
        make_tiny_model(),
        SublinearPlanner(4 * GB, worst_case_batch=batch()),
        capacity_bytes=4 * GB,
    )
    assert not ex.step(batch()).oom

    budget = int(2.5 * GB)
    digests = []
    for caller_sets_up in (False, True):
        task = load_task("TC-Bert", iterations=60, seed=0)
        planner = MimosePlanner(budget)
        if caller_sets_up:
            planner.setup(ModelView(task.model))
        ex = TrainingExecutor(task.model, planner, capacity_bytes=budget)
        result = RunResult("TC-Bert", "mimose", budget)
        for b in task.loader:
            result.append(ex.step(b))
        assert len(result.iterations) == 60
        assert not all(s.is_collect for s in result.iterations)
        digests.append(result.digest())
    assert digests[0] == digests[1]


def test_step_delegates_to_planner():
    model = make_tiny_model()
    planner = NoCheckpointPlanner(4 * GB)
    ex = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    stats = ex.step(batch())
    assert stats.plan_label == "none"
    assert stats.mode == "normal"


def test_simulated_clock_advances_monotonically():
    ex = make_executor()
    t0 = ex.clock.now
    ex.run_iteration(batch(), PlanDecision(CheckpointPlan.none()))
    t1 = ex.clock.now
    ex.run_iteration(batch(), PlanDecision(CheckpointPlan.none()))
    assert t0 < t1 < ex.clock.now
