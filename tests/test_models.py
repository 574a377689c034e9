"""Unit tests for the model zoo: parameter counts, shapes, memory laws."""

import pytest

from repro.models.base import BatchInput, SegmentedModel, StaticMemory
from repro.models.registry import available_models, build_model
from repro.models.resnet import build_resnet50_det, build_resnet101_det
from repro.models.t5 import build_t5_base
from repro.tensorsim.device import DeviceModel
from repro.tensorsim.dtypes import FLOAT32, INT64

from tests.helpers import make_tiny_model


# ------------------------------------------------------------- param counts

@pytest.mark.parametrize(
    "name,expected_m,tol",
    [
        ("bert-base", 110, 2),  # paper: 110 M
        ("roberta-base", 125, 2),  # paper: 125 M
        ("t5-base", 220, 5),  # paper: 220 M
    ],
)
def test_nlp_parameter_counts_match_paper(name, expected_m, tol):
    model = build_model(name)
    millions = model.param_count() / 1e6
    assert abs(millions - expected_m) <= tol, f"{name}: {millions:.1f}M"


def test_resnet_backbone_depth_ordering():
    r50 = build_resnet50_det()
    r101 = build_resnet101_det()
    assert r101.param_count() > r50.param_count()
    # 16 bottlenecks + stem + head vs 33 bottlenecks + stem + head
    assert len(r50.units) == 18
    assert len(r101.units) == 35


def test_registry_lists_and_builds():
    names = available_models()
    assert "bert-base" in names and "resnet101-det" in names
    for n in names:
        assert isinstance(build_model(n), SegmentedModel)
    with pytest.raises(KeyError, match="unknown model"):
        build_model("gpt-17")


# ----------------------------------------------------------------- structure

def test_bert_units_are_checkpointable_encoders(bert_model):
    ckpt = [u.name for u in bert_model.checkpointable_units()]
    assert ckpt == [f"encoder.{i}" for i in range(12)]
    assert bert_model.units[0].name == "embeddings"
    assert bert_model.units[-1].name == "head"


def test_bert_profile_chain_shapes(bert_model):
    batch = BatchInput((4, 32), INT64)
    profiles = bert_model.profiles(batch)
    assert profiles[0].output.shape == (4, 32, 768)
    for p in profiles[1:-1]:
        assert p.output.shape == (4, 32, 768)
    assert profiles[-1].output.shape == (4, 2)  # classifier logits


def test_bert_rejects_float_input(bert_model):
    with pytest.raises(ValueError, match="integer"):
        bert_model.profiles(BatchInput((4, 32), FLOAT32))


def test_t5_has_encoder_and_decoder_stacks():
    t5 = build_t5_base()
    names = t5.unit_names()
    assert sum(n.startswith("enc.") for n in names) == 12
    assert sum(n.startswith("dec.") for n in names) == 12
    profiles = t5.profiles(BatchInput((2, 16), INT64))
    assert profiles[-1].output.shape == (2, 16, 32128)


def test_t5_decoder_has_more_activations_than_encoder():
    """The decoder adds cross-attention, so it pins more memory."""
    t5 = build_t5_base()
    profiles = t5.profiles(BatchInput((2, 64), INT64))
    by_name = {p.module_name: p for p in profiles}
    assert by_name["dec.0"].saved_bytes > by_name["enc.0"].saved_bytes


def test_resnet_spatial_downsampling(resnet50_model):
    batch = BatchInput((2, 3, 256, 256), FLOAT32)
    profiles = resnet50_model.profiles(batch)
    by_name = {p.module_name: p for p in profiles}
    assert by_name["stem"].output.shape == (2, 64, 64, 64)
    assert by_name["layer1.0"].output.shape == (2, 256, 64, 64)
    assert by_name["layer2.0"].output.shape == (2, 512, 32, 32)
    assert by_name["layer4.2"].output.shape == (2, 2048, 8, 8)


def test_detection_head_reserves_memory(resnet50_model):
    static = resnet50_model.static_memory()
    assert static.workspace_bytes == int(1.5 * 1024**3)


# -------------------------------------------------------------- memory model

def test_attention_memory_is_quadratic_in_seqlen(bert_model):
    """§IV-C: the seqlen x seqlen score tensors make encoder activation
    memory quadratic in input size — the basis for the quadratic fit."""
    enc = bert_model.units[1]
    mems = {}
    for length in (64, 128, 256):
        p = enc.profile(BatchInput((8, length), INT64).spec.with_shape((8, length, 768)))
        mems[length] = p.saved_bytes
    # quadratic growth: doubling seqlen more than doubles memory
    assert mems[128] > 2 * mems[64]
    assert mems[256] > 2 * mems[128]
    # ... but stays below the pure-quadratic 4x (linear terms dilute it)
    assert mems[256] < 4 * mems[128]


def test_static_memory_adam_vs_sgd(tiny_model):
    adam = tiny_model.static_memory(optimizer="adam")
    sgd = tiny_model.static_memory(optimizer="sgd")
    n = tiny_model.param_count()
    assert adam.param_bytes == sgd.param_bytes == 4 * n
    assert adam.optimizer_bytes == 8 * n
    assert sgd.optimizer_bytes == 4 * n
    assert adam.total > sgd.total
    with pytest.raises(ValueError):
        tiny_model.static_memory(optimizer="adagrad")


def test_static_memory_total():
    sm = StaticMemory(10, 10, 20, 5)
    assert sm.total == 45


def test_batch_input_properties():
    b = BatchInput((4, 32), INT64)
    assert b.input_size == 128
    assert b.nbytes == 1024
    assert b.spec.shape == (4, 32)


def test_segmented_model_rejects_bad_construction():
    units = make_tiny_model(2).units
    with pytest.raises(ValueError):
        SegmentedModel("m", [])
    with pytest.raises(ValueError):
        SegmentedModel("m", [units[0], units[0]])


def test_param_count_is_cached_and_stable(tiny_model):
    first = tiny_model.param_count()
    assert tiny_model.param_count() == first


def test_clear_caches(bert_model):
    batch = BatchInput((2, 16), INT64)
    device = DeviceModel()
    first = bert_model.profiles(batch)
    derived = (
        bert_model.record_layout(batch),
        bert_model.request_sizes(batch),
        bert_model.unit_times(device, batch),
    )
    # memoised per shape: the same objects until the caches are cleared
    assert bert_model.profiles(batch) is first
    assert bert_model.unit_times(device, batch) is derived[2]
    placements = bert_model.placements(batch)
    placements[b"program"] = (0, ())
    assert bert_model.placements(batch) is placements
    bert_model.clear_caches()
    assert bert_model.placements(batch) == {}
    again = bert_model.profiles(batch)
    # every unit is traced again, to equal profiles in new objects
    assert again is not first and again == first
    assert all(a is not b for a, b in zip(again, first))
    rederived = (
        bert_model.record_layout(batch),
        bert_model.request_sizes(batch),
        bert_model.unit_times(device, batch),
    )
    assert all(a is not b for a, b in zip(rederived, derived))
    assert rederived == derived
