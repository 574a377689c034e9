"""Sublinear (Chen et al. 2016): static segment checkpointing.

Plans once, offline, for the *worst-case* input the dataset can produce
(after truncation/augmentation caps), then applies the same plan to every
iteration.  This is exactly the conservatism §III-B criticises: for small
inputs the plan recomputes far more than the budget requires (Fig 4's
wasted 1.2 GB / up to 35% throughput loss).

The original algorithm keeps ~√n evenly spaced segment boundaries.  At
this reproduction's unit granularity, keeping a unit means keeping its
internal activations; the planner keeps the largest evenly-spaced set of
units whose predicted worst-case peak fits the budget.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.models.base import BatchInput
from repro.planners.analysis import peak_model
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ModelView,
    PlannerCapabilities,
    StaticPlanner,
)


def evenly_spaced_keep(names: Sequence[str], keep: int) -> frozenset[str]:
    """The ``keep`` names to preserve, spread evenly across the chain."""
    n = len(names)
    if keep <= 0:
        return frozenset()
    if keep >= n:
        return frozenset(names)
    step = n / keep
    kept = {names[min(n - 1, int((i + 0.5) * step))] for i in range(keep)}
    return frozenset(kept)


def even_keep_drop(
    names: Sequence[str], fits: Callable[[frozenset[str]], bool]
) -> Optional[frozenset[str]]:
    """The drop set of the largest evenly spaced keep that ``fits``.

    Tries keep counts from ``len(names)`` down to 0 and returns the first
    drop set (the complement of :func:`evenly_spaced_keep`) the caller's
    feasibility test accepts, or ``None`` when even dropping everything
    fails it.  The planners test against the exact peak model, the
    solver adapter against the linear excess.
    """
    for keep in range(len(names), -1, -1):
        drop = frozenset(names) - evenly_spaced_keep(names, keep)
        if fits(drop):
            return drop
    return None


def recompute_fits(
    peak: Callable[[ActionAssignment], int], usable: int
) -> Callable[[frozenset[str]], bool]:
    """Feasibility test: recomputing the drop set keeps ``peak`` within
    ``usable`` bytes."""
    return lambda drop: peak(ActionAssignment.from_sets(recompute=drop)) <= usable


class SublinearPlanner(StaticPlanner):
    """Static √n-style planner targeting the worst-case input.

    Args:
        budget_bytes: GPU memory budget.
        worst_case_batch: the largest batch shape the pipeline can emit
            (known offline from dataset + augmentation caps).
    """

    name = "sublinear"
    capabilities = PlannerCapabilities(
        granularity="layer",
        plan_timing="offline",
        search_space="segments",
        search_algorithm="greedy",
    )

    def __init__(self, budget_bytes: int, worst_case_batch: BatchInput) -> None:
        super().__init__(budget_bytes, worst_case_batch)

    def _solve(self, view: ModelView) -> CheckpointPlan:
        names = [n for n in view.unit_names if n in view.checkpointable]
        usable = self.budget_bytes - self.FRAG_RESERVE
        drop = even_keep_drop(
            names, recompute_fits(peak_model(view, self.assumed_batch), usable)
        )
        if drop is None:
            # even full checkpointing misses the budget; fall back to all
            drop = frozenset(names)
        return CheckpointPlan(ActionAssignment.from_sets(recompute=drop), "sublinear")
