"""Data-parallel training on top of the single-GPU executor (extension).

The paper trains on one GPU, but its motivating deployments (continuous
fine-tuning) run data-parallel — and input dynamics get *worse* there:
each rank collates its own batch, so every step is gated by the rank
that drew the longest sequences (the straggler).  A planner's per-rank
overhead lands on the critical path exactly when that rank is already
the slowest.

:class:`DataParallelExecutor` composes N independent
:class:`~repro.engine.executor.TrainingExecutor`s (one simulated GPU
each, with its own allocator and planner instance) and models the
synchronous step:

    step_time = max_r(iteration_r) + exposed_allreduce

The gradient all-reduce uses the ring-allreduce cost model,
``2 * (N-1)/N * grad_bytes / link_bandwidth``, partially hidden behind
the backward pass (gradients of late layers are ready early): the
exposed part is what exceeds ``overlap_fraction`` of the slowest rank's
backward time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.engine.executor import TrainingExecutor
from repro.engine.stats import IterationStats
from repro.models.base import BatchInput, SegmentedModel
from repro.planners.base import ModelView, Planner
from repro.tensorsim.clock import left_sum
from repro.tensorsim.device import DeviceModel


@dataclass(frozen=True, slots=True)
class DdpStepStats:
    """One synchronous data-parallel step."""

    per_rank: tuple[IterationStats, ...]
    step_time: float
    straggler_rank: int
    allreduce_time: float
    exposed_allreduce: float

    @property
    def world_size(self) -> int:
        return len(self.per_rank)

    @property
    def oom(self) -> bool:
        return any(s.oom for s in self.per_rank)

    @property
    def imbalance(self) -> float:
        """Slowest over mean rank time — 1.0 means perfectly balanced."""
        times = [s.total_time for s in self.per_rank]
        mean = left_sum(times) / len(times)
        return max(times) / mean if mean else 1.0


class DataParallelExecutor:
    """N synchronous replicas, each with its own planner and memory.

    Args:
        model_factory: builds one replica's model (fresh per rank).
        planner_factory: builds one replica's planner, given the rank.
        world_size: number of replicas.
        capacity_bytes: per-rank device capacity.
        device: per-rank device model.
        link_bandwidth: all-reduce ring bandwidth in bytes/s (NVLink-class
            default, 150 GB/s effective).
        overlap_fraction: share of the backward pass the all-reduce can
            hide under (bucketed gradients overlap with earlier layers'
            backward).
    """

    def __init__(
        self,
        model_factory: Callable[[], SegmentedModel],
        planner_factory: Callable[[int], Planner],
        world_size: int,
        *,
        capacity_bytes: int,
        device: Optional[DeviceModel] = None,
        link_bandwidth: float = 150e9,
        overlap_fraction: float = 0.7,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if not 0.0 <= overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in [0, 1]")
        if link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        self.world_size = world_size
        self.link_bandwidth = link_bandwidth
        self.overlap_fraction = overlap_fraction
        self.executors: list[TrainingExecutor] = []
        for rank in range(world_size):
            model = model_factory()
            planner = planner_factory(rank)
            planner.setup(ModelView(model))
            self.executors.append(
                TrainingExecutor(
                    model,
                    planner,
                    device=device,
                    capacity_bytes=capacity_bytes,
                )
            )
        self._grad_bytes = self.executors[0].model.static_memory().grad_bytes
        self.steps = 0
        self.total_time = 0.0
        self.total_compute_time = 0.0

    def subscribe_all(self, observer_factory: Callable[[int], Callable]):
        """Attach one event-bus observer per rank.

        ``observer_factory(rank)`` must return a handler; it is subscribed
        (wildcard) to that rank's ``executor.events`` bus.  Returns the
        per-rank ``(bus, subscription)`` pairs so callers can unsubscribe.
        """
        tokens = []
        for rank, ex in enumerate(self.executors):
            handler = observer_factory(rank)
            tokens.append((ex.events, ex.events.subscribe(handler)))
        return tokens

    def allreduce_time(self) -> float:
        """Full ring all-reduce duration for one gradient set."""
        if self.world_size == 1:
            return 0.0
        n = self.world_size
        return 2.0 * (n - 1) / n * self._grad_bytes / self.link_bandwidth

    def step(self, batches: Sequence[BatchInput]) -> DdpStepStats:
        """Run one synchronous step; each rank gets its own batch."""
        if len(batches) != self.world_size:
            raise ValueError(
                f"need {self.world_size} batches, got {len(batches)}"
            )
        per_rank = tuple(
            ex.step(batch) for ex, batch in zip(self.executors, batches)
        )
        times = [s.total_time for s in per_rank]
        straggler = max(range(self.world_size), key=times.__getitem__)
        allreduce = self.allreduce_time()
        hidden = self.overlap_fraction * per_rank[straggler].bwd_time
        exposed = max(0.0, allreduce - hidden)
        step_time = times[straggler] + exposed
        self.steps += 1
        self.total_time += step_time
        self.total_compute_time += left_sum(
            s.compute_time for s in per_rank
        ) / len(per_rank)
        return DdpStepStats(
            per_rank=per_rank,
            step_time=step_time,
            straggler_rank=straggler,
            allreduce_time=allreduce,
            exposed_allreduce=exposed,
        )

    @property
    def mean_step_time(self) -> float:
        return self.total_time / self.steps if self.steps else 0.0
