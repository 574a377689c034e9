"""Tests for the GPT-2 extension model, the LM task, and AMP support."""

import pytest

from repro.experiments.runner import run_task
from repro.experiments.tasks import GB, load_task
from repro.models.base import BatchInput
from repro.models.registry import build_model
from repro.planners.analysis import unit_saved_bytes
from repro.tensorsim.dtypes import FLOAT16, INT64


@pytest.fixture(scope="module")
def gpt2():
    return build_model("gpt2-small")


# ---------------------------------------------------------------------- gpt2

def test_gpt2_parameter_count(gpt2):
    # the real gpt2-small has 124 M parameters
    assert abs(gpt2.param_count() / 1e6 - 124) < 3


def test_gpt2_structure(gpt2):
    names = gpt2.unit_names()
    assert names[0] == "embeddings" and names[-1] == "lm_head"
    assert sum(n.startswith("block.") for n in names) == 12
    assert len(gpt2.checkpointable_units()) == 12


def test_gpt2_logits_shape(gpt2):
    profiles = gpt2.profiles(BatchInput((4, 64), INT64))
    assert profiles[-1].output.shape == (4, 64, 50257)


def test_gpt2_attention_memory_quadratic(gpt2):
    """Causal masking does not change the materialised score size."""
    block = gpt2.units[1]
    m = {}
    for length in (128, 256, 512):
        spec = BatchInput((4, length), INT64).spec.with_shape((4, length, 768))
        m[length] = unit_saved_bytes(block.profile(spec))
    assert m[256] > 2 * m[128]
    assert m[512] > 2 * m[256]


def test_lm_gpt2_task_runs_under_budget():
    task = load_task("LM-GPT2", iterations=14, seed=4)
    lb, ub = task.memory_bounds()
    assert lb < ub
    r = run_task(task, "mimose", int(lb * 1.3))
    assert r.succeeded
    assert r.peak_reserved <= int(lb * 1.3)


def test_webtext_lengths_heavy_tailed():
    task = load_task("LM-GPT2", iterations=200, seed=0)
    lengths = [b.shape[-1] for b in task.loader]
    assert min(lengths) < 150
    assert max(lengths) > 500
    assert max(lengths) <= 1024


# ----------------------------------------------------------------------- amp

def test_amp_halves_activation_bytes():
    fp32 = build_model("bert-base")
    amp = build_model("bert-base-amp")
    b = BatchInput((16, 128), INT64)
    s32 = sum(unit_saved_bytes(p) for p in fp32.profiles(b))
    s16 = sum(unit_saved_bytes(p) for p in amp.profiles(b))
    # ~half, diluted by dtype-independent dropout masks
    assert 0.45 < s16 / s32 < 0.65


def test_amp_activation_dtype_propagates():
    amp = build_model("bert-base-amp")
    profiles = amp.profiles(BatchInput((2, 16), INT64))
    enc = profiles[1]
    float_acts = [a for a in enc.activations if a.spec.dtype.is_floating]
    assert float_acts
    assert all(a.spec.dtype is FLOAT16 for a in float_acts)


def test_amp_static_memory_recipe():
    fp32 = build_model("roberta-base")
    amp = build_model("roberta-base-amp")
    n = fp32.param_count()
    s32 = fp32.static_memory()
    s16 = amp.static_memory()
    assert s32.param_bytes == 4 * n
    assert s16.param_bytes == 6 * n  # fp32 master + fp16 copy
    assert s16.grad_bytes == 2 * n
    assert s32.optimizer_bytes == s16.optimizer_bytes == 8 * n


def test_amp_param_count_unchanged():
    assert (
        build_model("bert-base").param_count()
        == build_model("bert-base-amp").param_count()
    )


def test_amp_trains_under_smaller_budget():
    """An fp16 model fits a budget its fp32 twin cannot."""
    from repro.engine.executor import TrainingExecutor
    from repro.planners.base import CheckpointPlan, PlanDecision
    from repro.planners.none import NoCheckpointPlanner

    budget = int(3.9 * GB)  # between the amp (3.5 GB) and fp32 (5 GB) peaks
    b = BatchInput((32, 256), INT64)
    results = {}
    for name in ("bert-base", "bert-base-amp"):
        model = build_model(name)
        planner = NoCheckpointPlanner(budget)
        ex = TrainingExecutor(model, planner, capacity_bytes=budget)
        results[name] = ex.run_iteration(b, PlanDecision(CheckpointPlan.none()))
    assert results["bert-base"].oom
    assert not results["bert-base-amp"].oom