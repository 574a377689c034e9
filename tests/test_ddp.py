"""Tests for the data-parallel extension."""

import builtins
import math
from dataclasses import replace

import pytest

from repro.data.datasets import DataLoader, make_dataset
from repro.engine.ddp import DataParallelExecutor
from repro.models.base import BatchInput
from repro.models.registry import build_model
from repro.core.planner import MimosePlanner
from repro.planners.none import NoCheckpointPlanner
from repro.tensorsim.dtypes import FLOAT32

from tests.helpers import GB, make_tiny_model


def tiny_ddp(world_size=4, budget=2 * GB, planner=None):
    return DataParallelExecutor(
        lambda: make_tiny_model(num_units=4, features=256),
        planner or (lambda rank: NoCheckpointPlanner(budget)),
        world_size,
        capacity_bytes=budget,
    )


def batches(rows_list, features=256):
    return [BatchInput((r, features), FLOAT32) for r in rows_list]


def test_step_time_is_gated_by_straggler():
    ddp = tiny_ddp()
    stats = ddp.step(batches([64, 64, 1024, 64]))
    assert stats.straggler_rank == 2
    slowest = stats.per_rank[2].total_time
    assert stats.step_time == pytest.approx(
        slowest + stats.exposed_allreduce
    )
    assert stats.step_time >= max(s.total_time for s in stats.per_rank)
    assert stats.imbalance > 1.5  # heavily imbalanced batch sizes


def test_balanced_batches_have_low_imbalance():
    ddp = tiny_ddp()
    stats = ddp.step(batches([256, 256, 256, 256]))
    assert stats.imbalance == pytest.approx(1.0, abs=1e-6)


def test_allreduce_ring_cost_model():
    ddp = tiny_ddp(world_size=4)
    grad_bytes = ddp.executors[0].model.static_memory().grad_bytes
    expected = 2 * (3 / 4) * grad_bytes / ddp.link_bandwidth
    assert ddp.allreduce_time() == pytest.approx(expected)
    single = tiny_ddp(world_size=1)
    assert single.allreduce_time() == 0.0


def test_allreduce_overlap_hides_under_backward():
    full = DataParallelExecutor(
        lambda: make_tiny_model(num_units=4, features=256),
        lambda rank: NoCheckpointPlanner(2 * GB),
        2,
        capacity_bytes=2 * GB,
        overlap_fraction=1.0,
    )
    none = DataParallelExecutor(
        lambda: make_tiny_model(num_units=4, features=256),
        lambda rank: NoCheckpointPlanner(2 * GB),
        2,
        capacity_bytes=2 * GB,
        overlap_fraction=0.0,
    )
    b = batches([256, 256])[:2]
    s_full = full.step(b)
    s_none = none.step(b)
    assert s_none.exposed_allreduce >= s_full.exposed_allreduce
    assert s_none.step_time >= s_full.step_time


def test_ranks_have_independent_memory_and_planners():
    ddp = tiny_ddp()
    allocators = {id(ex.allocator) for ex in ddp.executors}
    planners = {id(ex.planner) for ex in ddp.executors}
    assert len(allocators) == len(planners) == 4


def test_validation():
    with pytest.raises(ValueError):
        tiny_ddp(world_size=0)
    with pytest.raises(ValueError):
        DataParallelExecutor(
            lambda: make_tiny_model(), lambda r: NoCheckpointPlanner(GB), 2,
            capacity_bytes=GB, overlap_fraction=1.5,
        )
    ddp = tiny_ddp(world_size=2)
    with pytest.raises(ValueError, match="need 2 batches"):
        ddp.step(batches([64]))


def test_mimose_under_ddp_trains_within_budget():
    """Each rank runs its own Mimose instance over its own length stream;
    every rank respects the per-rank budget."""
    world = 2
    budget = int(3.5 * GB)
    ddp = DataParallelExecutor(
        lambda: build_model("bert-base"),
        lambda rank: MimosePlanner(budget, collect_iterations=6),
        world,
        capacity_bytes=budget,
    )
    loaders = [
        DataLoader(make_dataset("glue-qqp"), 32, 20, seed=100 + r)
        for r in range(world)
    ]
    mean_imbalance = 0.0
    for step_batches in zip(*loaders):
        stats = ddp.step(list(step_batches))
        assert not stats.oom
        for s in stats.per_rank:
            assert s.peak_in_use <= budget
        mean_imbalance += stats.imbalance
    mean_imbalance /= ddp.steps
    # independent length streams really do produce stragglers
    assert mean_imbalance > 1.02
    assert ddp.mean_step_time > 0


def test_subscribe_all_attaches_one_observer_per_rank():
    from repro.engine.events import IterationStart

    ddp = tiny_ddp(world_size=3)
    per_rank_counts = {0: 0, 1: 0, 2: 0}

    def factory(rank):
        def handler(event):
            if isinstance(event, IterationStart):
                per_rank_counts[rank] += 1
        return handler

    tokens = ddp.subscribe_all(factory)
    assert len(tokens) == 3
    ddp.step(batches([64, 64, 64]))
    ddp.step(batches([64, 64, 64]))
    assert per_rank_counts == {0: 2, 1: 2, 2: 2}
    for bus, token in tokens:
        bus.unsubscribe(token)
    ddp.step(batches([64, 64, 64]))
    assert per_rank_counts == {0: 2, 1: 2, 2: 2}


def test_step_time_sums_are_left_folds(monkeypatch):
    """Rank-time means add left to right from 0.0, as the builtin ``sum()``
    does up to Python 3.11.  Since 3.12 it compensates, which
    ``math.fsum`` emulates here: on these times it rounds differently."""
    times = (1.0, 1e-16, 1e-16)
    ddp = tiny_ddp(world_size=len(times))
    real = ddp.executors[0].step(batches([4])[0])
    zero = dict.fromkeys(
        ("bwd_time", "recompute_time", "collect_time", "planning_time",
         "upkeep_time", "optimizer_time", "swap_stall_time"),
        0.0,
    )
    for ex, t in zip(ddp.executors, times):
        stats = replace(real, **zero, fwd_time=t)
        monkeypatch.setattr(ex, "step", lambda batch, stats=stats: stats)
    monkeypatch.setattr(
        builtins, "sum", lambda values, start=0: math.fsum([start, *values])
    )
    assert sum(times) != 1.0  # compensated
    step = ddp.step(batches([4] * len(times)))
    mean = 1.0 / len(times)  # the left fold drops both 1e-16 terms
    assert ddp.total_compute_time == mean
    assert step.imbalance == 1.0 / mean
