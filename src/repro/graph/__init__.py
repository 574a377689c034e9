"""Model-graph substrate: operators, modules, and profiling.

Models in this reproduction are *symbolic*: an operator knows how to infer
its output shape and its compute/memory costs from input shapes, and a
module's ``forward`` is executed against a :class:`ProfileContext` tracer
that records every intermediate activation tensor.  This is exactly the
information a checkpointing planner consumes — tensor sizes, liveness order,
and recompute costs — without paying for numerical execution.
"""

from repro.graph.ops import (
    Op,
    OpProfile,
    Add,
    AdaptiveAvgPool2d,
    BatchMatMul,
    BatchNorm2d,
    Concat,
    Conv2d,
    CrossEntropyLoss,
    Dropout,
    Embedding,
    Gelu,
    LayerNorm,
    Linear,
    MaxPool2d,
    Mul,
    Relu,
    Reshape,
    Scale,
    Softmax,
    Tanh,
    Transpose,
)
from repro.graph.module import (
    ActivationRecord,
    Module,
    ModuleProfile,
    ProfileContext,
    Sequential,
)

__all__ = [
    "Op",
    "OpProfile",
    "Add",
    "AdaptiveAvgPool2d",
    "BatchMatMul",
    "BatchNorm2d",
    "Concat",
    "Conv2d",
    "CrossEntropyLoss",
    "Dropout",
    "Embedding",
    "Gelu",
    "LayerNorm",
    "Linear",
    "MaxPool2d",
    "Mul",
    "Relu",
    "Reshape",
    "Scale",
    "Softmax",
    "Tanh",
    "Transpose",
    "ActivationRecord",
    "Module",
    "ModuleProfile",
    "ProfileContext",
    "Sequential",
]
