"""Segment-level checkpointing: the original Chen et al. √n scheme.

Per-unit checkpointing (everything else in this reproduction) always
keeps every inter-unit boundary, so its memory floor is
``static + Σ boundaries + max unit working set``.  Chen et al.'s actual
algorithm checkpoints *segments*: only one boundary per segment survives
the forward, and the backward replays a whole segment before unwinding
it.  With k balanced segments over n units the floor becomes roughly

    static + k boundaries + (n/k) segment working set

minimised around k ≈ √n — strictly below the per-unit floor whenever
boundaries are a significant share of activations (CNNs especially).

:class:`SegmentedSublinearPlanner` extends the static Sublinear baseline
with this capability: it first tries per-unit plans (cheaper backward
working set) and falls back to segment plans when the budget sits below
the per-unit floor, extending trainability into budgets no per-unit
planner can satisfy.
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
from repro.planners.sublinear import even_keep_drop, recompute_fits


def checkpointable_runs(view: ModelView) -> list[list[str]]:
    """Maximal consecutive runs of checkpointable units, in model order."""
    runs: list[list[str]] = []
    current: list[str] = []
    for name in view.unit_names:
        if name in view.checkpointable:
            current.append(name)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


def balanced_segments(
    runs: Sequence[Sequence[str]], k: int
) -> tuple[tuple[str, ...], ...]:
    """Partition the units of ``runs`` into ~k contiguous segments.

    Segment boundaries never cross a non-checkpointable unit; each run
    receives a share of segments proportional to its length (at least
    one), split as evenly as possible.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = sum(len(r) for r in runs)
    if total == 0:
        return ()
    segments: list[tuple[str, ...]] = []
    remaining_k = min(k, total)
    remaining_units = total
    for run in runs:
        share = max(1, round(remaining_k * len(run) / max(remaining_units, 1)))
        share = min(share, len(run), remaining_k) or 1
        base, extra = divmod(len(run), share)
        start = 0
        for i in range(share):
            size = base + (1 if i < extra else 0)
            segments.append(tuple(run[start:start + size]))
            start += size
        remaining_k = max(1, remaining_k - share)
        remaining_units -= len(run)
    return tuple(s for s in segments if s)


def segment_plan(view: ModelView, k: int, label: str = "segmented") -> CheckpointPlan:
    """A plan with every checkpointable unit in one of ~k segments."""
    segments = balanced_segments(checkpointable_runs(view), k)
    return CheckpointPlan(ActionAssignment(segments=segments), label)


def minimum_memory_plan(
    view: ModelView, batch: BatchInput
) -> tuple[CheckpointPlan, int]:
    """The segmentation with the lowest predicted peak for this input.

    Returns ``(plan, predicted_peak_bytes)`` after scanning every segment
    count from 1 to the number of checkpointable units.
    """
    return _minimum_memory_plan(view, peak_model(view, batch))


def _minimum_memory_plan(
    view: ModelView, peak: Callable[[ActionAssignment], int]
) -> tuple[CheckpointPlan, int]:
    best_plan: Optional[CheckpointPlan] = None
    best_peak = 0
    for k in range(1, max(len(view.checkpointable), 1) + 1):
        plan = segment_plan(view, k, f"segmented-k{k}")
        plan_peak = peak(plan.assignment)
        if best_plan is None or plan_peak < best_peak:
            best_plan, best_peak = plan, plan_peak
    assert best_plan is not None
    return best_plan, best_peak


class SegmentedSublinearPlanner(StaticPlanner):
    """Static planner with the segment-level fallback.

    Args:
        budget_bytes: GPU memory budget.
        worst_case_batch: the largest batch the pipeline can emit.
    """

    name = "sublinear-seg"
    capabilities = PlannerCapabilities(
        granularity="segment",
        plan_timing="offline",
        search_space="segments",
        search_algorithm="greedy",
    )

    def __init__(self, budget_bytes: int, worst_case_batch: BatchInput) -> None:
        super().__init__(budget_bytes, worst_case_batch)

    def _solve(self, view: ModelView) -> CheckpointPlan:
        usable = self.budget_bytes - self.FRAG_RESERVE
        names = [n for n in view.unit_names if n in view.checkpointable]
        peak = peak_model(view, self.assumed_batch)
        # 1) per-unit plans, keeping as much as possible (cheapest backward)
        drop = even_keep_drop(names, recompute_fits(peak, usable))
        if drop is not None:
            return CheckpointPlan(
                ActionAssignment.from_sets(recompute=drop), "sublinear-seg"
            )
        # 2) segment fallback: the coarsest segmentation that fits (fewer
        # retained boundaries; finer would fit too but k is scanned from
        # sqrt-ish outward for the smallest backward working set)
        n = len(names)
        candidates = sorted(range(1, n + 1), key=lambda k: abs(k - int(n**0.5)))
        for k in candidates:
            plan = segment_plan(view, k, "sublinear-seg")
            if peak(plan.assignment) <= usable:
                return plan
        # 3) nothing fits: the minimum-memory segmentation (may still OOM)
        plan, _ = _minimum_memory_plan(view, peak)
        return plan
