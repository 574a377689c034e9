"""Tests for the swap execution path and the Capuchin hybrid planner."""

import pytest

from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ModelView,
    PlanDecision,
)
from repro.planners.capuchin import CapuchinPlanner
from repro.planners.none import NoCheckpointPlanner
from repro.tensorsim.dtypes import FLOAT32
from repro.tensorsim.device import DeviceModel, DevicePreset

from tests.helpers import GB, MB, make_tiny_model


def swap_plan(names, swap):
    return CheckpointPlan(
        ActionAssignment.from_sets(recompute=names, swap=swap), "hybrid"
    )


def make_executor(model, device=None, capacity=8 * GB):
    planner = NoCheckpointPlanner(capacity)
    planner.setup(ModelView(model))
    return TrainingExecutor(model, planner, device=device, capacity_bytes=capacity)


#: a host link slow enough that a unit's swap-in cannot hide under one
#: unit's backward, yet fast enough for early swap-outs to finish during
#: the forward pass — the configuration that produces genuine stalls
SLOW_LINK = DevicePreset(
    name="slowlink",
    peak_flops=15.7e12,
    mem_bandwidth=900e9,
    launch_overhead=5e-6,
    memory_capacity=8 * GB,
    pcie_bandwidth=2.5e9,
)


def test_plan_rejects_overlapping_sets():
    with pytest.raises(ValueError, match="both dropped and swapped"):
        ActionAssignment.from_sets(recompute={"a"}, swap={"a"})


def test_swapped_unit_stalls_when_link_is_slow():
    """Swap out only the first unit: its transfer finishes during the
    remaining forward, but the swap-in (issued one unit of lookahead
    before its backward) is slower than that window — a stall."""
    model = make_tiny_model(num_units=6, features=512)
    ex = make_executor(model, device=DeviceModel(SLOW_LINK))
    batch = BatchInput((2048, 512), FLOAT32)
    names = [u.name for u in model.units]
    plain = ex.run_iteration(batch, PlanDecision(CheckpointPlan.none()))
    swapped = ex.run_iteration(
        batch, PlanDecision(swap_plan([], [names[0]]))
    )
    assert swapped.num_swapped == 1
    assert not swapped.oom
    assert swapped.swap_stall_time > 0
    assert swapped.total_time > plain.total_time
    # no leaks
    assert swapped.end_in_use == ex.static_bytes


def test_swap_stall_does_not_depend_on_the_run_clock():
    """The copy engine times transfers on the iteration's own clock, so
    one swapping iteration has the same stats wherever the run's clock
    stands — the replay tier serves a world on the promise that its stats
    are a function of the world alone."""
    model = make_tiny_model(num_units=6, features=512)
    batch = BatchInput((2048, 512), FLOAT32)
    decision = PlanDecision(swap_plan([], [model.units[0].name]))
    stats = []
    for start in (0.0, 3.0, 1000.0, 2.0**20 + 0.1):
        ex = make_executor(model, device=DeviceModel(SLOW_LINK))
        ex.clock.reset(start)
        stats.append(ex.run_iteration(batch, decision))
    assert stats[0].swap_stall_time > 0
    assert all(s == stats[0] for s in stats)


def test_swap_reduces_peak_when_transfers_complete():
    """With a fast link and slow compute, swap-outs complete during the
    forward pass and the peak drops like checkpointing."""
    fast_link = DevicePreset(
        name="fastlink",
        peak_flops=1e10,  # slow compute: plenty of time to transfer
        mem_bandwidth=1e9,
        launch_overhead=1e-6,
        memory_capacity=8 * GB,
    )
    model = make_tiny_model(num_units=8, features=512)
    ex = make_executor(model, device=DeviceModel(fast_link))
    batch = BatchInput((1024, 512), FLOAT32)
    names = [u.name for u in model.units]
    plain = ex.run_iteration(batch, PlanDecision(CheckpointPlan.none()))
    swapped = ex.run_iteration(
        batch, PlanDecision(swap_plan([], names[:-1]))
    )
    assert swapped.peak_in_use < plain.peak_in_use
    assert swapped.recompute_time == 0  # swap is not recompute
    assert swapped.end_in_use == ex.static_bytes


def test_mixed_drop_and_swap_plan():
    model = make_tiny_model(num_units=6, features=256)
    ex = make_executor(model)
    batch = BatchInput((512, 256), FLOAT32)
    names = [u.name for u in model.units]
    stats = ex.run_iteration(
        batch, PlanDecision(swap_plan(names[:3], names[3:5]))
    )
    assert stats.num_checkpointed == 3
    assert stats.num_swapped == 2
    assert stats.recompute_time > 0
    assert not stats.oom
    assert stats.end_in_use == ex.static_bytes


def test_cancelled_swapout_keeps_unit_resident():
    """If backward arrives before the swap-out finished, the unit never
    left GPU memory and needs neither stall nor reallocation."""
    model = make_tiny_model(num_units=2, features=256)
    ex = make_executor(model, device=DeviceModel(SLOW_LINK))
    batch = BatchInput((64, 256), FLOAT32)
    names = [u.name for u in model.units]
    stats = ex.run_iteration(batch, PlanDecision(swap_plan([], [names[-1]])))
    # the last unit's backward starts immediately after forward: with the
    # instant-compute device its transfer cannot have completed
    assert stats.num_swapped == 1
    assert not stats.oom
    assert stats.end_in_use == ex.static_bytes


# ------------------------------------------------------------------ capuchin

def test_capuchin_plans_on_first_batch_and_grows():
    model = make_tiny_model(num_units=6, features=512)
    planner = CapuchinPlanner(model.static_memory().total + 16 * MB)
    planner.setup(ModelView(model))
    small = BatchInput((128, 512), FLOAT32)
    big = BatchInput((1024, 512), FLOAT32)
    d1 = planner.plan(small)
    assert planner.planned_for_size == small.input_size
    d2 = planner.plan(big)  # larger input forces a re-plan
    assert planner.planned_for_size == big.input_size
    d3 = planner.plan(small)  # smaller input reuses the big plan
    assert d3.plan is d2.plan
    assert len(d2.plan.assignment.units) >= len(
        d1.plan.assignment.units
    )


def test_capuchin_respects_budget_for_planned_size():
    model = make_tiny_model(num_units=8, features=512)
    static = model.static_memory().total
    budget = static + 24 * MB
    planner = CapuchinPlanner(budget)
    planner.setup(ModelView(model))
    ex = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    batch = BatchInput((1024, 512), FLOAT32)
    stats = ex.step(batch)
    assert not stats.oom
    total_actions = stats.num_checkpointed + stats.num_swapped
    assert total_actions > 0


def test_capuchin_capabilities_row():
    caps = CapuchinPlanner.capabilities
    assert caps.swapping and caps.checkpointing
    assert not caps.dynamic_input
    assert caps.plan_timing == "runtime"


def test_capuchin_under_unlimited_budget_is_noop():
    model = make_tiny_model()
    planner = CapuchinPlanner(64 * GB)
    planner.setup(ModelView(model))
    d = planner.plan(BatchInput((64, 64), FLOAT32))
    assert d.plan.assignment.is_empty
