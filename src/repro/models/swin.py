"""Swin-Transformer-tiny: the staged architecture §IV-D reasons about.

The paper uses Swin to motivate *stage*-aware scheduling: "the patch
merging structure on the boundary of each stage reduces the output tensor
size of the previous stage by 50 %, which leads to the step-down of
memory usage in different stages".  This model reproduces that memory
staircase so the scheduler's bucketing can be exercised on units of
genuinely different sizes (unlike BERT's twelve identical encoders).

Swin-tiny: patch embed (4x4, dim 96), stages of depth (2, 2, 6, 2) at
dims (96, 192, 384, 768), 7x7 window attention, ~28 M parameters.
Each transformer block is a checkpointable unit; patch-merging layers
are the cheap stage boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.graph.module import Module, ProfileContext
from repro.graph.ops import (
    Add,
    BatchMatMul,
    Conv2d,
    Gelu,
    LayerNorm,
    Linear,
    Reshape,
    Scale,
    Softmax,
    Transpose,
)
from repro.models.base import SegmentedModel
from repro.tensorsim.dtypes import FLOAT32
from repro.tensorsim.tensor import TensorSpec


@dataclass(frozen=True)
class SwinConfig:
    """Hyper-parameters (defaults: swin-tiny)."""

    embed_dim: int = 96
    depths: tuple[int, ...] = (2, 2, 6, 2)
    num_heads: tuple[int, ...] = (3, 6, 12, 24)
    window: int = 7
    mlp_ratio: int = 4
    patch_size: int = 4
    num_classes: int = 1000
    dropout: float = 0.0


class SwinPatchEmbed(Module):
    """4x4 strided conv patchification + LayerNorm."""

    def __init__(self, cfg: SwinConfig, name: str = "patch_embed") -> None:
        super().__init__(name)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        if x.ndim != 4:
            raise ValueError(f"expected (B, 3, H, W) images, got {x}")
        h = ctx.op(
            Conv2d(3, cfg.embed_dim, kernel_size=cfg.patch_size,
                   stride=cfg.patch_size),
            x,
            name="proj",
        )
        b, c, ph, pw = h.shape
        h = ctx.op(Reshape((b, c, ph * pw)), h, name="flatten")
        h = ctx.op(Transpose(1, 2), h, name="tokens")  # (B, L, C)
        h = ctx.op(LayerNorm(c), h, name="norm")
        return h


def _window_attention(
    ctx: ProfileContext, cfg: SwinConfig, x: TensorSpec, heads: int, tag: str
) -> TensorSpec:
    """Attention within non-overlapping windows: memory *linear* in tokens.

    Windows hold ``window**2`` tokens regardless of image size, so the
    score tensors scale with the number of windows — linearly with the
    input — unlike global attention's quadratic growth.
    """
    b, length, dim = x.shape
    win_tokens = cfg.window**2
    num_windows = max(1, math.ceil(length / win_tokens))
    rows = b * num_windows
    head_dim = dim // heads

    ctx.op(Linear(dim, 3 * dim), x, name=f"{tag}_qkv")
    # The qkv output is partitioned into padded windows; the partition is
    # a view, so q/k/v specs are constructed directly.
    q = TensorSpec((rows, heads, win_tokens, head_dim), x.dtype)
    scores = ctx.op(BatchMatMul(transpose_b=True), q, q, name=f"{tag}_qk")
    scores = ctx.op(Scale(1.0 / head_dim**0.5), scores, name=f"{tag}_scale")
    probs = ctx.op(Softmax(), scores, name=f"{tag}_softmax")
    out = ctx.op(BatchMatMul(), probs, q, name=f"{tag}_pv")
    out = ctx.op(Transpose(1, 2), out, name=f"{tag}_perm")
    out = ctx.op(Reshape((rows * win_tokens, dim)), out, name=f"{tag}_merge")
    proj = ctx.op(Linear(dim, dim), out, name=f"{tag}_proj")
    assert proj.numel >= b * length * dim  # padded rows cover every token
    # dropping window padding is a view back to the token sequence
    tokens = TensorSpec((b, length, dim), x.dtype)
    res = ctx.op(Add(), tokens, x, name=f"{tag}_residual")
    return ctx.op(LayerNorm(dim), res, name=f"{tag}_norm")


class SwinBlock(Module):
    """One (shifted-)window transformer block — a checkpointable unit."""

    def __init__(self, cfg: SwinConfig, stage: int, index: int) -> None:
        super().__init__(f"stage{stage + 1}.block{index}", checkpointable=True)
        self.cfg = cfg
        self.stage = stage

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        cfg = self.cfg
        heads = cfg.num_heads[self.stage]
        h = _window_attention(ctx, cfg, x, heads, "attn")
        dim = x.shape[-1]
        m = ctx.op(Linear(dim, cfg.mlp_ratio * dim), h, name="mlp_up")
        m = ctx.op(Gelu(), m, name="mlp_act")
        m = ctx.op(Linear(cfg.mlp_ratio * dim, dim), m, name="mlp_down")
        m = ctx.op(Add(), m, h, name="mlp_residual")
        return ctx.op(LayerNorm(dim), m, name="mlp_norm")


class SwinPatchMerging(Module):
    """Stage boundary: 2x2 patch merge — half the tokens, double the dim.

    This is the §IV-D structure that creates the per-stage memory
    step-down (output tensor size of the previous stage shrinks by 50 %).
    """

    def __init__(self, cfg: SwinConfig, stage: int) -> None:
        super().__init__(f"merge{stage + 1}")
        self.cfg = cfg
        self.stage = stage

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        b, length, dim = x.shape
        merged = max(1, length // 4)
        # gathering the 2x2 neighbourhoods is a (possibly truncating) view
        h = TensorSpec((b, merged, 4 * dim), x.dtype)
        h = ctx.op(LayerNorm(4 * dim), h, name="norm")
        return ctx.op(Linear(4 * dim, 2 * dim, bias=False), h, name="reduce")


class SwinHead(Module):
    """Global pool + classifier."""

    def __init__(self, cfg: SwinConfig, name: str = "head") -> None:
        super().__init__(name)
        self.cfg = cfg

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        b, _length, dim = x.shape
        pooled = TensorSpec((b, dim), x.dtype)  # mean over tokens (a view-ish)
        h = ctx.op(LayerNorm(dim), pooled, name="norm")
        return ctx.op(Linear(dim, self.cfg.num_classes), h, name="fc")


def build_swin_tiny(num_classes: int = 1000) -> SegmentedModel:
    """swin-tiny: depths (2,2,6,2), dims 96-768, ~28 M parameters."""
    cfg = SwinConfig(num_classes=num_classes)
    units: list[Module] = [SwinPatchEmbed(cfg)]
    for stage, depth in enumerate(cfg.depths):
        for i in range(depth):
            units.append(SwinBlock(cfg, stage, i))
        if stage + 1 < len(cfg.depths):
            units.append(SwinPatchMerging(cfg, stage))
    units.append(SwinHead(cfg))
    return SegmentedModel(
        "swin-tiny",
        units,
        input_dtype=FLOAT32,
        probe_shape=(1, 3, 224, 224),
    )
