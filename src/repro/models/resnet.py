"""ResNet-50/101 detection backbones (OD-R50 / OD-R101 in Table II).

The paper trains MMDetection two-stage detectors whose backbone is a
ResNet.  Activation checkpointing operates on the backbone's residual
blocks; the RPN/ROI heads generate content-dependent numbers of anchors and
proposals, which §IV-C explicitly declines to predict — Mimose performs
*memory reservation* for them instead.  We model that with a
:class:`DetectionHeadReservation` unit that contributes a fixed,
non-checkpointable memory reservation and compute cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.module import Module, ProfileContext
from repro.graph.ops import (
    Add,
    BatchNorm2d,
    Conv2d,
    Linear,
    MaxPool2d,
    Op,
    OpProfile,
    Relu,
)
from repro.models.base import SegmentedModel
from repro.tensorsim.dtypes import FLOAT32
from repro.tensorsim.tensor import TensorSpec


@dataclass(frozen=True)
class ResNetConfig:
    """Stage depths for the bottleneck ResNets."""

    name: str
    stage_blocks: tuple[int, int, int, int]


RESNET50 = ResNetConfig("resnet50", (3, 4, 6, 3))
RESNET101 = ResNetConfig("resnet101", (3, 4, 23, 3))

_STAGE_WIDTH = (64, 128, 256, 512)  # bottleneck inner widths per stage


class ResNetStem(Module):
    """7x7/2 conv + BN + ReLU + 3x3/2 max-pool."""

    def __init__(self, name: str = "stem") -> None:
        super().__init__(name, checkpointable=True)

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        h = ctx.op(Conv2d(3, 64, kernel_size=7, stride=2, padding=3), x, name="conv1")
        h = ctx.op(BatchNorm2d(64), h, name="bn1")
        h = ctx.op(Relu(), h, name="relu1")
        h = ctx.op(MaxPool2d(kernel_size=3, stride=2, padding=1), h, name="pool")
        return h


class Bottleneck(Module):
    """1x1 reduce -> 3x3 -> 1x1 expand with a residual shortcut."""

    def __init__(
        self,
        name: str,
        in_channels: int,
        width: int,
        *,
        stride: int = 1,
    ) -> None:
        super().__init__(name, checkpointable=True)
        self.in_channels = in_channels
        self.width = width
        self.out_channels = width * 4
        self.stride = stride
        self.has_projection = stride != 1 or in_channels != self.out_channels

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        w, cin, cout = self.width, self.in_channels, self.out_channels
        h = ctx.op(Conv2d(cin, w, kernel_size=1), x, name="conv1")
        h = ctx.op(BatchNorm2d(w), h, name="bn1")
        h = ctx.op(Relu(), h, name="relu1")
        h = ctx.op(
            Conv2d(w, w, kernel_size=3, stride=self.stride, padding=1),
            h,
            name="conv2",
        )
        h = ctx.op(BatchNorm2d(w), h, name="bn2")
        h = ctx.op(Relu(), h, name="relu2")
        h = ctx.op(Conv2d(w, cout, kernel_size=1), h, name="conv3")
        h = ctx.op(BatchNorm2d(cout), h, name="bn3")
        if self.has_projection:
            shortcut = ctx.op(
                Conv2d(cin, cout, kernel_size=1, stride=self.stride),
                x,
                name="proj",
            )
            shortcut = ctx.op(BatchNorm2d(cout), shortcut, name="proj_bn")
        else:
            shortcut = x
        h = ctx.op(Add(), h, shortcut, name="residual")
        h = ctx.op(Relu(), h, name="relu3")
        return h


@dataclass(frozen=True, repr=False)
class _ProposalWork(Op):
    """Content-dependent RPN/ROI compute, modelled as fixed per-image work.

    Output keeps the backbone feature spec so the chain stays well-typed;
    the (unpredictable) proposal tensors are covered by the model-level
    ``extra_reserved_bytes`` reservation, never by the estimator.
    """

    kind = "structure"
    flops_per_image: float = 4.0e10

    def profile(self, *inputs: TensorSpec) -> OpProfile:
        self._expect_arity(inputs, 1)
        x = inputs[0]
        batch = x.shape[0] if x.ndim else 1
        flops = self.flops_per_image * batch
        return OpProfile(
            output=x,
            flops=flops,
            bytes_moved=2.0 * x.nbytes,
            bwd_flops=2.0 * flops,
            bwd_bytes=3.0 * x.nbytes,
            saved=(),
        )


class DetectionHeadReservation(Module):
    """RPN + ROI heads with reserved (not predicted) activation memory."""

    def __init__(self, feature_channels: int = 2048, name: str = "det_head") -> None:
        super().__init__(name, checkpointable=False)
        self.feature_channels = feature_channels

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        h = ctx.op(_ProposalWork(), x, name="proposals")
        b = x.shape[0]
        # Per-ROI box/class heads over a fixed 512-proposal budget.
        rois = TensorSpec((b * 512, self.feature_channels), FLOAT32)
        h2 = ctx.op(Linear(self.feature_channels, 1024), rois, name="fc1")
        h2 = ctx.op(Relu(), h2, name="fc1_relu")
        h2 = ctx.op(Linear(1024, 1024), h2, name="fc2")
        h2 = ctx.op(Relu(), h2, name="fc2_relu")
        ctx.op(Linear(1024, 81 * 5), h2, name="box_cls")
        return h


def _build_backbone(cfg: ResNetConfig) -> list[Module]:
    units: list[Module] = [ResNetStem()]
    in_channels = 64
    for stage_idx, (blocks, width) in enumerate(zip(cfg.stage_blocks, _STAGE_WIDTH)):
        for block_idx in range(blocks):
            stride = 2 if (block_idx == 0 and stage_idx > 0) else 1
            unit = Bottleneck(
                f"layer{stage_idx + 1}.{block_idx}",
                in_channels,
                width,
                stride=stride,
            )
            units.append(unit)
            in_channels = unit.out_channels
    return units


def _build_detector(cfg: ResNetConfig, reserved_gb: float) -> SegmentedModel:
    units = _build_backbone(cfg)
    units.append(DetectionHeadReservation())
    return SegmentedModel(
        f"{cfg.name}-det",
        units,
        input_dtype=FLOAT32,
        extra_reserved_bytes=int(reserved_gb * 1024**3),
    )


def build_resnet50_det() -> SegmentedModel:
    """Faster-R-CNN-style detector on a ResNet-50 backbone (~41 M params)."""
    return _build_detector(RESNET50, reserved_gb=1.5)


def build_resnet101_det() -> SegmentedModel:
    """Same detector on ResNet-101 (~60 M params)."""
    return _build_detector(RESNET101, reserved_gb=1.5)
