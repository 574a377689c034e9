"""Tests for augmentation simulation and the collating data loader."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.augment import MultiScaleResize, TokenizerSim, pad_and_truncate
from repro.data.datasets import (
    DataLoader,
    apply_drift_scenario,
    available_datasets,
    make_dataset,
)
from repro.tensorsim.dtypes import FLOAT32, INT64


def rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------------ tokenizer

def test_tokenizer_expands_and_adds_specials():
    tok = TokenizerSim(expansion_mean=1.3, expansion_std=0.0, special_tokens=2)
    assert tok.tokenize_length(100, rng()) == 132
    assert tok.tokenize_length(0, rng()) == 2


def test_tokenizer_rejects_negative():
    with pytest.raises(ValueError):
        TokenizerSim().tokenize_length(-1, rng())


# ---------------------------------------------------------------- collation

def test_pad_and_truncate_pads_to_max():
    assert pad_and_truncate([10, 50, 30], 512) == 50


def test_pad_and_truncate_truncates_at_cap():
    assert pad_and_truncate([10, 900], 512) == 512


def test_pad_and_truncate_validation():
    with pytest.raises(ValueError):
        pad_and_truncate([], 512)
    with pytest.raises(ValueError):
        pad_and_truncate([10], 0)


# ------------------------------------------------------------------- resize

def test_multiscale_resize_short_side_in_range():
    resize = MultiScaleResize()
    g = rng(1)
    for _ in range(50):
        h, w = resize.resize(480, 640, g)
        short, long_ = min(h, w), max(h, w)
        assert long_ <= resize.max_long
        assert short <= resize.max_short + 1


def test_multiscale_resize_preserves_aspect_ratio():
    resize = MultiScaleResize()
    h, w = resize.resize(400, 800, rng(2))
    assert w / h == pytest.approx(2.0, rel=0.02)


def test_multiscale_resize_caps_long_side():
    resize = MultiScaleResize()
    g = rng(3)
    for _ in range(50):
        h, w = resize.resize(100, 1000, g)  # extreme 10:1 aspect
        assert max(h, w) <= resize.max_long


def test_multiscale_worst_case():
    assert MultiScaleResize().worst_case() == (800, 1333)


def test_multiscale_validation():
    with pytest.raises(ValueError):
        MultiScaleResize(min_short=800, max_short=480)
    with pytest.raises(ValueError):
        MultiScaleResize(max_long=100)
    with pytest.raises(ValueError):
        MultiScaleResize().resize(0, 10, rng())


# ------------------------------------------------------------------ datasets

def test_all_presets_build():
    names = available_datasets()
    assert names == ["coco", "glue-qqp", "squad", "swag", "un_pc", "webtext"]
    for n in names:
        assert make_dataset(n) is not None
    with pytest.raises(KeyError):
        make_dataset("imagenet")


@pytest.mark.parametrize(
    "name,batch,lo,hi",
    [
        ("swag", 16, 35, 141),
        ("squad", 12, 153, 512),
        ("glue-qqp", 32, 30, 332),
        ("un_pc", 8, 17, 460),
    ],
)
def test_collated_lengths_match_fig3_ranges(name, batch, lo, hi):
    """Collated lengths stay within (and substantially span) the paper's
    Fig 3 ranges."""
    ds = make_dataset(name)
    loader = DataLoader(ds, batch, 300, seed=11)
    lengths = [b.shape[-1] for b in loader]
    assert min(lengths) >= lo * 0.8
    assert max(lengths) <= hi
    assert max(lengths) - min(lengths) > (hi - lo) * 0.4  # real spread


def test_swag_multiple_choice_flattens_batch():
    loader = DataLoader(make_dataset("swag"), 16, 5, seed=0)
    for b in loader:
        assert b.shape[0] == 64  # 16 questions x 4 choices
        assert b.dtype is INT64


def test_coco_batches_are_padded_images():
    loader = DataLoader(make_dataset("coco"), 8, 20, seed=0)
    shapes = [b.shape for b in loader]
    for s in shapes:
        assert s[0] == 8 and s[1] == 3
        assert 480 <= s[2] <= 1333 and 480 <= s[3] <= 1333
    assert len({s[2:] for s in shapes}) > 10  # dimensions vary


def test_loader_is_deterministic_per_seed():
    ds = make_dataset("glue-qqp")
    a = [b.shape for b in DataLoader(ds, 8, 20, seed=5)]
    b = [b.shape for b in DataLoader(ds, 8, 20, seed=5)]
    c = [b.shape for b in DataLoader(ds, 8, 20, seed=6)]
    assert a == b
    assert a != c


def test_peek_does_not_consume_loader_stream():
    loader = DataLoader(make_dataset("swag"), 4, 10, seed=1)
    before = [b.shape for b in loader]
    peeked = loader.peek_sizes(16)
    assert len(peeked) == 16
    assert [b.shape for b in loader] == before


def test_loader_draws_its_stream_once(monkeypatch):
    draws = []
    collate = DataLoader._collate

    def counting_collate(self, rng):
        draws.append(self)
        return collate(self, rng)

    monkeypatch.setattr(DataLoader, "_collate", counting_collate)
    ds = apply_drift_scenario(make_dataset("glue-qqp"), "curriculum", 20)
    loader = DataLoader(ds, 8, 20, seed=5)
    assert len(list(itertools.islice(loader, 5))) == 5
    first = list(loader)  # the partial pass kept nothing: a full draw
    assert len(draws) == 5 + 20
    loader.peek_sizes(16)
    assert list(loader) == first  # replayed, not drawn
    assert len(draws) == 5 + 20 + 16
    # the kept stream is the one a fresh loader draws
    assert list(DataLoader(ds, 8, 20, seed=5)) == first


def test_worst_case_batch_dominates_observed():
    for name, batch in [("swag", 16), ("un_pc", 8)]:
        loader = DataLoader(make_dataset(name), batch, 200, seed=2)
        worst = loader.worst_case_batch()
        assert all(b.input_size <= worst.input_size for b in loader)


def test_worst_case_coco_is_square_max():
    loader = DataLoader(make_dataset("coco"), 8, 5, seed=0)
    worst = loader.worst_case_batch()
    assert worst.shape == (8, 3, 1333, 1333)
    assert worst.dtype is FLOAT32


def test_loader_validation():
    ds = make_dataset("swag")
    with pytest.raises(ValueError):
        DataLoader(ds, 0, 10)
    with pytest.raises(ValueError):
        DataLoader(ds, 4, 0)
    assert len(DataLoader(ds, 4, 7)) == 7


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_text_lengths_never_exceed_cap(seed):
    ds = make_dataset("un_pc")
    loader = DataLoader(ds, 8, 10, seed=seed)
    for b in loader:
        assert b.shape[-1] <= ds.max_length
