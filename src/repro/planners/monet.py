"""MONeT (Shah et al. 2021): joint operator/checkpointing offline solve.

MONeT solves a MILP jointly choosing operator implementations and a
checkpointing schedule, taking hours per (model, budget) pair — §VI-A
allocates 8/12 h for the ResNet-50/101 backbones and cites the authors'
statement that 8 h reaches within 5 % of optimal.

Differences from :class:`~repro.planners.checkmate.CheckmatePlanner` in
this reproduction:

* MONeT's static graph is traced at the *nominal* (median) input shape —
  its conversion pipeline is even less tolerant of dynamic shapes than
  Checkmate's, so it overshoots the budget more often on large inputs;
* its joint operator selection is modelled as a small headroom bonus on
  the memory constraint (output-activated / in-place implementations
  shave working memory), bounded by its 5 %-of-optimal guarantee.
"""

from __future__ import annotations

from dataclasses import replace

from repro.models.base import BatchInput
from repro.planners.base import CheckpointPlan, ModelView, PlannerCapabilities
from repro.planners.checkmate import CheckmatePlanner


class MonetPlanner(CheckmatePlanner):
    """MONeT-style offline planner (nominal-shape static solve)."""

    name = "monet"
    capabilities = PlannerCapabilities(
        granularity="tensor",
        plan_timing="offline",
        search_space="holistic",
        search_algorithm="MILP",
    )
    requires_physical_capacity = True

    #: fraction of working memory the joint op selection saves
    OPERATOR_HEADROOM = 0.05

    def __init__(
        self,
        budget_bytes: int,
        assumed_batch: BatchInput,
        *,
        solve_time_s: float = 8 * 3600.0,
        enforce_budget: bool = False,
    ) -> None:
        super().__init__(
            budget_bytes,
            assumed_batch,
            solve_time_s=solve_time_s,
            enforce_budget=enforce_budget,
        )
        # The operator-implementation freedom effectively loosens the
        # memory constraint slightly relative to a pure-checkpointing
        # solve.  Under hard budget enforcement the executor cannot model
        # those alternative implementations, so the loosening is only
        # applied when the budget is enforced logically.
        if enforce_budget:
            self._effective_budget = budget_bytes
        else:
            self._effective_budget = int(budget_bytes * (1 + self.OPERATOR_HEADROOM))

    def _solve(self, view: ModelView) -> CheckpointPlan:
        # Solve against the slightly loosened budget, then relabel.
        plan = self._solve_within(view, self._effective_budget)
        return replace(plan, label="monet")
