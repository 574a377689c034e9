"""Unit tests for the module tracer and the model's trace memo."""

import pytest

from repro.graph.module import Module, ProfileContext, Sequential
from repro.graph.ops import Add, Dropout, Linear, Relu
from repro.models.base import BatchInput
from repro.tensorsim.dtypes import FLOAT32
from repro.tensorsim.tensor import TensorSpec

from tests.helpers import TinyUnit, make_tiny_model


def test_profile_records_activations_and_costs():
    unit = TinyUnit("u", 8)
    p = unit.profile(TensorSpec((2, 8), FLOAT32))
    assert p.output == TensorSpec((2, 8), FLOAT32)
    # lin1 (transient), gelu (saved), lin2 (transient), relu (saved)
    assert len(p.activations) == 4
    assert [a.saved for a in p.activations] == [False, True, False, True]
    assert p.param_count == 2 * (8 * 8 + 8)
    assert p.fwd_flops > 0
    assert p.bwd_flops > p.fwd_flops  # backward costs more
    assert len(p.op_costs) == 4


def test_units_of_one_structure_share_one_trace_per_spec(monkeypatch):
    traced: list[tuple] = []
    finish = ProfileContext.finish

    def counting_finish(self, module_name, x, out):
        traced.append((module_name, x))
        return finish(self, module_name, x, out)

    monkeypatch.setattr(ProfileContext, "finish", counting_finish)
    model = make_tiny_model(num_units=4, features=8)
    small, large = (BatchInput((n, 8), FLOAT32) for n in (2, 4))
    chain = model.profiles(small)
    # four units built alike: one trace, shared records and op costs,
    # each profile under its own unit's name
    assert traced == [("unit.0", small.spec)]
    assert [p.module_name for p in chain] == model.unit_names()
    assert all(p.activations is chain[0].activations for p in chain)
    assert all(p.op_costs is chain[0].op_costs for p in chain)
    model.profiles(large)
    model.profiles(small)
    assert traced == [("unit.0", small.spec), ("unit.0", large.spec)]
    model.clear_caches()
    assert model.profiles(small) == chain
    assert traced[-1] == ("unit.0", small.spec) and len(traced) == 3


def test_profile_differs_per_input_spec():
    unit = TinyUnit("u", 8)
    p1 = unit.profile(TensorSpec((2, 8), FLOAT32))
    p2 = unit.profile(TensorSpec((4, 8), FLOAT32))
    assert p1.saved_bytes < p2.saved_bytes


def test_hierarchical_names():
    # names are relative to the profiled module
    unit = TinyUnit("blk", 8)
    p = unit.profile(TensorSpec((1, 8), FLOAT32))
    assert p.module_name == "blk"
    assert [a.name for a in p.activations] == ["lin1", "act1", "lin2", "act2"]


def test_sequential_composes_children():
    seq = Sequential("seq", [TinyUnit("a", 8), TinyUnit("b", 8)])
    p = seq.profile(TensorSpec((2, 8), FLOAT32))
    assert len(p.activations) == 8
    # each child scopes its records; the profiled module adds no prefix
    names = [a.name for a in p.activations]
    assert names[:4] == ["a/lin1", "a/act1", "a/lin2", "a/act2"]
    assert names[4:] == ["b/lin1", "b/act1", "b/lin2", "b/act2"]


def test_sequential_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Sequential("s", [])
    with pytest.raises(ValueError):
        Sequential("s", [TinyUnit("a", 8), TinyUnit("a", 8)])


def test_module_requires_name():
    with pytest.raises(ValueError):
        TinyUnit("", 8)


def test_module_name_holds_no_scope_separator():
    # a tensor's full name is "<unit>/<relative name>"
    with pytest.raises(ValueError, match="scope separator"):
        TinyUnit("a/b", 8)


def test_saved_and_transient_byte_split():
    unit = TinyUnit("u", 16)
    p = unit.profile(TensorSpec((4, 16), FLOAT32))
    expected_each = 4 * 16 * 4
    assert p.transient_bytes == 2 * expected_each  # the two linear outputs
    assert p.saved_bytes == 2 * expected_each  # gelu + relu outputs
    assert p.total_activation_bytes == 4 * expected_each
    assert len(p.saved_activations()) == 2


class BranchyUnit(Module):
    """Exercises multi-input ops and dropout masks in one trace."""

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        a = ctx.op(Linear(8, 8), x, name="a")
        b = ctx.op(Relu(), a, name="b")
        c = ctx.op(Add(), b, x, name="c")
        return ctx.op(Dropout(0.1), c, name="d")


def test_branchy_module_traces_every_op():
    unit = BranchyUnit("br")
    p = unit.profile(TensorSpec((2, 8), FLOAT32))
    # linear out, relu out, add out, dropout out, dropout mask
    assert len(p.activations) == 5
    kinds = {a.op_kind for a in p.activations}
    assert kinds == {"reduction", "elementwise"}
    assert len(p.op_costs) == 4  # mask is not a kernel


def test_scalar_output_not_recorded():
    from repro.graph.ops import CrossEntropyLoss

    class LossUnit(Module):
        def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
            return ctx.op(CrossEntropyLoss(), x, name="loss")

    p = LossUnit("l").profile(TensorSpec((4, 10), FLOAT32))
    # the scalar loss itself is not an activation; the saved probs are
    assert [a.spec.shape for a in p.activations] == [(4, 10)]
