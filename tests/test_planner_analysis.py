"""The analytic peak predictor must mirror the executor exactly."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.planners.analysis import (
    boundary_bytes,
    full_checkpoint_peak,
    no_checkpoint_peak,
    predict_peak_bytes,
    unit_saved_bytes,
    unit_transient_bytes,
)
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ModelView,
    PlanDecision,
)
from repro.planners.none import NoCheckpointPlanner
from repro.tensorsim.dtypes import FLOAT32, INT64

from tests.helpers import GB, make_tiny_model

#: max divergence allowed: allocator alignment rounding only
ALIGNMENT_SLACK = 64 * 1024


def drop_plan(names, label):
    return CheckpointPlan(ActionAssignment.from_sets(recompute=names), label)


def executed_peak(model, batch, plan, capacity=64 * GB):
    planner = NoCheckpointPlanner(capacity)
    ex = TrainingExecutor(model, planner, capacity_bytes=capacity)
    stats = ex.run_iteration(batch, PlanDecision(plan))
    assert not stats.oom
    return stats.peak_in_use


def predicted_peak(model, batch, plan):
    view = ModelView(model)
    return predict_peak_bytes(
        view.profiles(batch),
        plan.assignment,
        static_bytes=view.static_memory.total,
        input_nbytes=batch.nbytes,
        checkpointable=view.checkpointable,
    )


def test_no_checkpoint_prediction_matches_executor_tiny():
    model = make_tiny_model(num_units=5, features=256)
    b = BatchInput((128, 256), FLOAT32)
    assert abs(
        predicted_peak(model, b, CheckpointPlan.none())
        - executed_peak(model, b, CheckpointPlan.none())
    ) <= ALIGNMENT_SLACK


def test_full_checkpoint_prediction_matches_executor_tiny():
    model = make_tiny_model(num_units=5, features=256)
    names = [u.name for u in model.units]
    b = BatchInput((128, 256), FLOAT32)
    plan = drop_plan(names, "all")
    assert abs(
        predicted_peak(model, b, plan) - executed_peak(model, b, plan)
    ) <= ALIGNMENT_SLACK


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_plans_match_executor_on_bert(bert_model, seed):
    rng = random.Random(seed)
    view = ModelView(bert_model)
    names = sorted(view.checkpointable)
    drop = frozenset(rng.sample(names, rng.randint(0, len(names))))
    plan = drop_plan(drop, "rnd")
    b = BatchInput((16, 128), INT64)
    pred = predicted_peak(bert_model, b, plan)
    real = executed_peak(bert_model, b, plan)
    assert abs(pred - real) <= ALIGNMENT_SLACK


def test_bounds_bracket_every_plan(bert_model):
    view = ModelView(bert_model)
    b = BatchInput((16, 128), INT64)
    profiles = view.profiles(b)
    static = view.static_memory.total
    lb = full_checkpoint_peak(
        profiles, static_bytes=static, input_nbytes=b.nbytes,
        checkpointable=view.checkpointable,
    )
    ub = no_checkpoint_peak(profiles, static_bytes=static, input_nbytes=b.nbytes)
    assert lb < ub
    rng = random.Random(7)
    names = sorted(view.checkpointable)
    for _ in range(5):
        drop = frozenset(rng.sample(names, rng.randint(0, len(names))))
        peak = predict_peak_bytes(
            profiles, ActionAssignment.from_sets(recompute=drop),
            static_bytes=static, input_nbytes=b.nbytes,
            checkpointable=view.checkpointable,
        )
        assert lb <= peak  # nothing beats full checkpointing
        # a single-unit recompute window can exceed the no-ckpt peak
        # slightly (transients replayed on top of residents), Fig 9
        assert peak <= ub * 1.05


def test_checkpointing_last_unit_barely_helps(bert_model):
    """Fig 9's observation, as an invariant."""
    view = ModelView(bert_model)
    b = BatchInput((32, 256), INT64)
    profiles = view.profiles(b)
    static = view.static_memory.total
    first = predict_peak_bytes(
        profiles, ActionAssignment.from_sets(recompute=["encoder.0"]),
        static_bytes=static, input_nbytes=b.nbytes,
        checkpointable=view.checkpointable,
    )
    last = predict_peak_bytes(
        profiles, ActionAssignment.from_sets(recompute=["encoder.11"]),
        static_bytes=static, input_nbytes=b.nbytes,
        checkpointable=view.checkpointable,
    )
    ub = no_checkpoint_peak(profiles, static_bytes=static, input_nbytes=b.nbytes)
    assert first < ub  # early checkpoint reduces the peak
    assert last >= ub * 0.99  # the last one does not


def test_unit_byte_helpers(bert_model):
    b = BatchInput((8, 64), INT64)
    enc = bert_model.profiles(b)[1]
    assert unit_saved_bytes(enc) > 0
    assert unit_transient_bytes(enc) > 0
    assert boundary_bytes(enc) == 8 * 64 * 768 * 4


def test_more_checkpointing_never_increases_forward_peak():
    """Peaks are monotone when dropping a prefix of units."""
    model = make_tiny_model(num_units=6, features=512)
    names = [u.name for u in model.units]
    b = BatchInput((256, 512), FLOAT32)
    peaks = [
        predicted_peak(model, b, drop_plan(names[:k], f"k{k}"))
        for k in range(len(names) + 1)
    ]
    for a, c in zip(peaks, peaks[1:]):
        assert c <= a + 1


@settings(max_examples=25, deadline=None)
@given(
    num_units=st.integers(2, 6),
    rows=st.integers(4, 64),
    drop_mask=st.integers(0, 63),
)
def test_property_predictor_equals_executor_on_tiny_models(
    num_units, rows, drop_mask
):
    model = make_tiny_model(num_units=num_units, features=128)
    names = [u.name for u in model.units]
    drop = frozenset(n for i, n in enumerate(names) if drop_mask & (1 << i))
    plan = drop_plan(drop, "prop")
    b = BatchInput((rows, 128), FLOAT32)
    assert abs(
        predicted_peak(model, b, plan) - executed_peak(model, b, plan)
    ) <= ALIGNMENT_SLACK
