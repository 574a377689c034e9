"""Segmented model abstraction shared by the whole reproduction.

A :class:`SegmentedModel` is a chain of units; the planner's decision space
is "which units to checkpoint".  The model also accounts for the *static*
part of the memory footprint — parameters, gradients, and optimizer states —
which §III-A notes is constant across input sizes (only activations vary).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.graph.module import Module, ModuleProfile
from repro.tensorsim.allocator import request_size
from repro.tensorsim.dtypes import DType, INT64
from repro.tensorsim.tensor import TensorSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.tensorsim.device import DeviceModel


@dataclass(frozen=True, slots=True)
class BatchInput:
    """One collated mini-batch, described by shape only.

    For NLP tasks ``shape = (batch, seqlen)`` with an integer dtype; for
    vision tasks ``shape = (batch, 3, H, W)`` float.  ``input_size`` (the
    paper's x-axis everywhere) is the element count of this tensor.
    """

    shape: tuple[int, ...]
    dtype: DType = INT64

    @property
    def spec(self) -> TensorSpec:
        return TensorSpec(self.shape, self.dtype)

    @property
    def input_size(self) -> int:
        return self.spec.numel

    @property
    def nbytes(self) -> int:
        return self.spec.nbytes


@dataclass(frozen=True, slots=True)
class StaticMemory:
    """Input-size-independent memory: weights, grads, optimizer states."""

    param_bytes: int
    grad_bytes: int
    optimizer_bytes: int
    workspace_bytes: int = 0  # cuDNN-style scratch reserved by the framework

    @property
    def total(self) -> int:
        return (
            self.param_bytes
            + self.grad_bytes
            + self.optimizer_bytes
            + self.workspace_bytes
        )


@dataclass(slots=True, eq=False)
class _ShapeMemo:
    """What one model derives from one batch shape; fields fill on demand."""

    profiles: tuple[ModuleProfile, ...]
    layout: Optional[tuple] = None
    sizes: Optional[array] = None
    #: device preset -> per-unit (forward, backward) seconds
    times: dict = field(default_factory=dict)
    #: compiled program -> (its peak at ``sizes``, {free blocks: places?})
    placements: dict = field(default_factory=dict)


class SegmentedModel:
    """An ordered chain of (mostly checkpointable) units.

    A model is immutable once built: nothing writes to it after
    construction.  Its only state is memoised derived data — the trace
    memo per (unit structure, input spec), the per-shape memo behind
    :meth:`profiles`, :meth:`record_layout`, :meth:`request_sizes`,
    :meth:`unit_times` and :meth:`placements`, the unit-time memo per
    (device preset, unit structure, input spec) and the parameter count
    — each a pure function of the architecture, the input spec and (for
    times) the device preset (for placements, of the compiled program
    that keys them).  Units of equal :meth:`~repro.graph.module.Module
    .structure` share one trace and one pricing per input spec.  One
    model can therefore serve every run of a task, and a worker process
    that inherits a warm model computes exactly what a cold one would.

    Args:
        name: model identifier (e.g. ``"bert-base"``).
        units: modules applied in order; the output spec of unit *i* is the
            input spec of unit *i+1*.
        input_dtype: dtype of the collated batch tensor.
        extra_reserved_bytes: content-dependent memory the model reserves up
            front instead of predicting (the paper's §IV-C "memory
            reservation" for detection heads whose proposal counts depend on
            image content).
    """

    def __init__(
        self,
        name: str,
        units: Sequence[Module],
        *,
        input_dtype: DType = INT64,
        extra_reserved_bytes: int = 0,
        probe_shape: tuple[int, ...] | None = None,
        amp: bool = False,
    ) -> None:
        if not units:
            raise ValueError("a model needs at least one unit")
        names = [u.name for u in units]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate unit names: {names}")
        self.name = name
        self.units = list(units)
        self.input_dtype = input_dtype
        self.extra_reserved_bytes = int(extra_reserved_bytes)
        self.probe_shape = probe_shape
        self.amp = amp
        # per unit: the index of the first unit built alike, standing for
        # its structure in the memo keys
        first: dict[tuple, int] = {}
        self._structure = tuple(
            first.setdefault(u.structure(), i) for i, u in enumerate(self.units)
        )
        self._param_count: int | None = None
        self._traces: dict[tuple, ModuleProfile] = {}
        self._shapes: dict[BatchInput, _ShapeMemo] = {}
        self._layouts: dict[tuple, tuple] = {}
        self._unit_times: dict[tuple, tuple[float, float]] = {}

    # ------------------------------------------------------------ profiling

    def profiles(self, batch: BatchInput) -> tuple[ModuleProfile, ...]:
        """Profile the full chain for one batch shape (memoised per shape).

        Each (unit structure, input spec) is traced once; a unit that
        shares another's trace gets its own ``module_name`` on the shared
        records and op costs."""
        memo = self._shapes.get(batch)
        if memo is None:
            x = batch.spec
            chain = []
            for unit, structure in zip(self.units, self._structure):
                p = self._traces.get((structure, x))
                if p is None:
                    p = self._traces[structure, x] = unit.profile(x)
                if p.module_name != unit.name:
                    p = replace(p, module_name=unit.name)
                chain.append(p)
                x = p.output
            memo = self._shapes[batch] = _ShapeMemo(tuple(chain))
        return memo.profiles

    def _shape(self, batch: BatchInput) -> _ShapeMemo:
        memo = self._shapes.get(batch)
        if memo is None:
            self.profiles(batch)  # every trace runs inside profiles()
            memo = self._shapes[batch]
        return memo

    def record_layout(self, batch: BatchInput) -> tuple:
        """Per unit: its activation records' ``(name, saved)`` pairs, and
        whether the last record is the unit's output boundary.

        Two shapes with equal layouts index :meth:`request_sizes`
        identically, and share one layout object."""
        memo = self._shape(batch)
        if memo.layout is None:
            layout = tuple(
                (
                    tuple((rec.name, rec.saved) for rec in p.activations),
                    bool(p.activations) and p.activations[-1].spec == p.output,
                )
                for p in memo.profiles
            )
            memo.layout = self._layouts.setdefault(layout, layout)
        return memo.layout

    def request_sizes(self, batch: BatchInput) -> array:
        """Allocator request bytes of every tensor an iteration at this
        shape allocates, in canonical order: the input, then every
        activation record of every unit (unit by unit), then each unit's
        output boundary."""
        memo = self._shape(batch)
        if memo.sizes is None:
            profiles = memo.profiles
            memo.sizes = array(
                "q",
                [request_size(batch.nbytes)]
                + [
                    request_size(rec.spec.nbytes)
                    for p in profiles
                    for rec in p.activations
                ]
                + [request_size(p.output.nbytes) for p in profiles],
            )
        return memo.sizes

    def unit_times(
        self, device: "DeviceModel", batch: BatchInput
    ) -> tuple[tuple[float, float], ...]:
        """(forward, backward) seconds of every unit at one batch shape.

        Each (device preset, unit structure, input spec) is priced once,
        so units built alike share one entry, as do units whose input
        does not depend on the batch shape."""
        memo = self._shape(batch)
        times = memo.times.get(device.preset)
        if times is None:
            out = []
            for structure, p in zip(self._structure, memo.profiles):
                key = (device.preset, structure, p.input)
                t = self._unit_times.get(key)
                if t is None:
                    t = self._unit_times[key] = device.unit_times(p)
                out.append(t)
            times = memo.times[device.preset] = tuple(out)
        return times

    def placements(self, batch: BatchInput) -> dict:
        """The compiled tier's placements of :meth:`request_sizes` at this
        shape: per program, its peak and its verdict per starting free
        list (see :mod:`repro.engine.compiled`)."""
        return self._shape(batch).placements

    def unit_names(self) -> list[str]:
        return [u.name for u in self.units]

    def checkpointable_units(self) -> list[Module]:
        return [u for u in self.units if u.checkpointable]

    # ------------------------------------------------------------- memory

    def param_count(self) -> int:
        """Total learnable parameters (computed once via a probe profile)."""
        if self._param_count is None:
            batch = self.probe_batch()
            self._param_count = sum(p.param_count for p in self.profiles(batch))
        return self._param_count

    def probe_batch(self) -> BatchInput:
        """A minimal valid batch used for parameter counting."""
        if self.probe_shape is not None:
            return BatchInput(self.probe_shape, self.input_dtype)
        if self.input_dtype.is_floating:
            return BatchInput((1, 3, 256, 256), self.input_dtype)
        return BatchInput((1, 16), self.input_dtype)

    def static_memory(
        self, *, optimizer: str = "adam", amp: bool | None = None
    ) -> StaticMemory:
        """Static footprint for training with the given optimizer.

        With ``amp`` (mixed precision; inferred from the model's
        activation dtype by default) the fp32 master weights keep their
        full size and an fp16 working copy plus fp16 gradients are added —
        the standard AMP recipe, whose *static* memory is barely smaller
        than fp32 training (activations are where AMP saves).
        """
        n = self.param_count()
        if amp is None:
            amp = self.amp
        if amp:
            param_bytes = 4 * n + 2 * n  # fp32 master + fp16 working copy
            grad_bytes = 2 * n
        else:
            param_bytes = 4 * n
            grad_bytes = 4 * n
        if optimizer == "adam":
            opt_bytes = 8 * n  # first and second moment, fp32
        elif optimizer == "sgd":
            opt_bytes = 4 * n  # momentum buffer
        else:
            raise ValueError(f"unknown optimizer {optimizer!r}")
        return StaticMemory(
            param_bytes=param_bytes,
            grad_bytes=grad_bytes,
            optimizer_bytes=opt_bytes,
            workspace_bytes=self.extra_reserved_bytes,
        )

    def clear_caches(self) -> None:
        """Drop every memo: unit traces, per-shape entries (placements
        included), unit times."""
        self._traces.clear()
        self._shapes.clear()
        self._layouts.clear()
        self._unit_times.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentedModel({self.name!r}, units={len(self.units)})"
