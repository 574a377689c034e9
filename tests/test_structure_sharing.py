"""Units built alike share one trace per input spec, and nothing else does.

:meth:`SegmentedModel.profiles` traces each (unit structure, input spec)
once and hands a unit of equal structure the shared trace under its own
``module_name``.  These tests check that against the ground truth: every
unit of every registered model traced on its own, at several shapes.
They also check that units which differ in what their trace reads (a
stride, a stage, a class, a child's name) never share, even at one input
spec.
"""

from __future__ import annotations

import pytest

from repro.graph.module import Module, ModuleProfile, Sequential
from repro.models.base import BatchInput, SegmentedModel
from repro.models.registry import available_models, build_model
from repro.models.resnet import Bottleneck
from repro.models.swin import SwinBlock, SwinConfig
from repro.models.t5 import T5Config, T5DecoderLayer, T5EncoderLayer
from repro.tensorsim.dtypes import FLOAT32

from tests.helpers import TinyUnit

#: three batch shapes per input kind: token ids and images
_SHAPES = {
    False: [(2, 16), (4, 64), (8, 128)],
    True: [(1, 3, 224, 224), (1, 3, 256, 320), (2, 3, 320, 288)],
}


def _independent(units, batch: BatchInput) -> list[ModuleProfile]:
    """Every unit traced on its own, each on its predecessor's output."""
    x = batch.spec
    chain = []
    for unit in units:
        p = unit.profile(x)
        chain.append(p)
        x = p.output
    return chain


@pytest.mark.parametrize("name", available_models())
def test_shared_traces_equal_independent_traces(name):
    model = build_model(name)
    structures = [u.structure() for u in model.units]
    assert len(set(structures)) < len(structures)  # some units share
    for shape in _SHAPES[model.input_dtype.is_floating]:
        batch = BatchInput(shape, model.input_dtype)
        shared = model.profiles(batch)
        own = _independent(model.units, batch)
        for unit, p, q in zip(model.units, shared, own):
            assert p.module_name == q.module_name == unit.name
            assert (p.input, p.output) == (q.input, q.output)
            assert [(a.name, a.spec, a.saved, a.op_kind) for a in p.activations] == [
                (a.name, a.spec, a.saved, a.op_kind) for a in q.activations
            ]
            assert p.op_costs == q.op_costs
            assert (p.fwd_flops, p.fwd_bytes, p.bwd_flops, p.bwd_bytes) == (
                q.fwd_flops, q.fwd_bytes, q.bwd_flops, q.bwd_bytes
            )
            assert p.param_count == q.param_count
        # one record tuple per distinct (structure, input spec)
        keys = {(s, p.input) for s, p in zip(structures, shared)}
        assert len({id(p.activations) for p in shared}) == len(keys)


def _alike_but_for(a: Module, b: Module, spec: tuple[int, ...]) -> None:
    """``a`` and ``b`` meet one input spec yet must trace apart."""
    model = SegmentedModel("pair", [a, b], input_dtype=FLOAT32)
    batch = BatchInput(spec, FLOAT32)
    first, second = model.profiles(batch)
    assert second.input == first.input  # the same input spec ...
    assert a.structure() != b.structure()  # ... under two structures
    assert (first, second) == tuple(_independent([a, b], batch))
    assert second.activations != first.activations


def test_bottlenecks_of_different_strides_do_not_share():
    _alike_but_for(
        Bottleneck("a", 256, 64, stride=1),
        Bottleneck("b", 256, 64, stride=2),
        (1, 256, 32, 32),
    )


def test_swin_blocks_of_different_stages_do_not_share():
    cfg = SwinConfig()
    # a stage sets the head count, so the score tensors differ
    _alike_but_for(SwinBlock(cfg, 0, 0), SwinBlock(cfg, 1, 0), (1, 3136, 96))


def test_t5_encoder_and_decoder_layers_do_not_share():
    cfg = T5Config()
    _alike_but_for(T5EncoderLayer(cfg, 0), T5DecoderLayer(cfg, 0), (2, 16, 768))


def test_children_of_different_names_do_not_share():
    # a child's name scopes its records ("a/lin1"), so it is structure
    _alike_but_for(
        Sequential("s", [TinyUnit("a", 8)]),
        Sequential("t", [TinyUnit("b", 8)]),
        (2, 8),
    )
