"""DTR — Dynamic Tensor Rematerialization (Kirisame et al. 2021).

DTR keeps everything resident and reacts to out-of-memory events by
evicting the tensor minimising the ``h`` heuristic

    h(t) = cost(t) / (size(t) * staleness(t))

i.e. prefer victims that are cheap to recompute, large, and long unused.
Because it is purely reactive, it pays two overheads the paper quantifies
in Fig 5:

* *cost upkeep* — metadata maintenance for every tracked tensor on every
  operation (26 % of iteration time on average, up to 40.1 % under tight
  budgets), modelled as ``upkeep_time_per_tensor`` charged per activation
  record on each unit execution;
* *planning* — scanning the evictable pool on every OOM event (up to
  11.9 %), modelled as ``search_time_per_item * pool size`` per event.

DTR also churns the allocator: evict/rematerialise cycles with varying
sizes strand free space across many partly-used segments of the caching
allocator, which coalesces only within a segment.  That fragmentation
makes DTR's *actual* memory exceed its logical budget (6.7 GB used for a
4.2 GB budget in Fig 5), so the runner executes DTR with physical
capacity and the budget enforced logically.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.models.base import BatchInput
from repro.planners.base import (
    CheckpointPlan,
    EvictableGroup,
    ExecutionMode,
    PlanDecision,
    Planner,
    PlannerCapabilities,
)


class DTRPlanner(Planner):
    """Reactive eviction planner with the DTR h-heuristic.

    Args:
        budget_bytes: the *logical* budget DTR tries to respect (actual
            usage exceeds it through fragmentation).
        upkeep_time_per_tensor: seconds of metadata maintenance per tracked
            tensor per executed unit.  The default reproduces the paper's
            ~26 % average upkeep share on transformer iteration times.
        search_time_per_item: seconds per evictable-pool entry scanned on
            each OOM event.
    """

    name = "dtr"
    capabilities = PlannerCapabilities(
        granularity="tensor",
        dynamic_input=True,
        dynamic_graph=True,
        plan_timing="runtime",
        search_space="currently traced tensors",
        search_algorithm="greedy",
    )
    requires_physical_capacity = True

    def __init__(
        self,
        budget_bytes: int,
        *,
        upkeep_time_per_tensor: float = 2.5e-4,
        search_time_per_item: float = 2.0e-5,
    ) -> None:
        super().__init__(budget_bytes)
        self.upkeep_time_per_tensor = upkeep_time_per_tensor
        self.search_time_per_item = search_time_per_item
        self.oom_events = 0

    def plan(self, batch: BatchInput) -> PlanDecision:
        # DTR never plans ahead; it reacts during execution.
        return PlanDecision(
            CheckpointPlan(frozenset(), "dtr-reactive"),
            mode=ExecutionMode.REACTIVE,
        )

    def on_oom(
        self,
        requested_bytes: int,
        evictable: Mapping[str, EvictableGroup],
        now: float,
    ) -> tuple[Optional[str], float]:
        # DTR scans its per-tensor metadata on every eviction pass.
        tracked = sum(g.num_tensors for g in evictable.values())
        search_time = self.search_time_per_item * max(tracked, 1)
        if not evictable:
            return None, search_time
        self.oom_events += 1
        victim = min(evictable.values(), key=lambda g: g.h_value(now))
        return victim.unit_name, search_time
