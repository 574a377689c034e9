"""Capuchin-style hybrid planner: swap or recompute, per unit.

Capuchin (Peng et al., ASPLOS 2020) observes the first training iteration
("measured execution") and then decides per tensor whether to *swap* it to
host memory (when the PCIe transfer hides under backward compute) or to
*recompute* it (when transferring would stall).  It plans at runtime but —
like every non-Mimose baseline in Table I — assumes the input shape it
measured, so it neither adapts to input dynamics nor guarantees the
budget for larger inputs.

This reproduction uses the same cost rule at unit granularity:

    swap_cost(u)      = max(0, transfer_time(bytes_u) - overlap_window)
    recompute_cost(u) = forward_time(u)

choosing the cheaper action per unit, largest activations first, until
the measured iteration's excess over the budget is covered.  The paper's
§II argument — PCIe at ~12 GB/s makes swapping cost "more than 2x the
computation time for most layers" — falls directly out of these numbers:
transformer-block activations transfer slower than they recompute, so
the hybrid degenerates mostly to checkpointing plus stalls wherever it
chose to swap.

The rule itself lives in the solver family
(:class:`~repro.solvers.PcieCostModel` priced through
:class:`~repro.solvers.HybridGreedyScheduler`); this planner is a
thin caller that feeds it profile-measured forward/backward times and
activation sizes for the measured input shape.
"""

from __future__ import annotations

from typing import Optional

from repro.solvers.base import PcieCostModel, SolverInput
from repro.solvers.greedy import HybridGreedyScheduler
from repro.models.base import BatchInput
from repro.planners.analysis import peak_model, unit_saved_bytes
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    PlanDecision,
    Planner,
    PlannerCapabilities,
)
from repro.tensorsim.device import DeviceModel


class CapuchinPlanner(Planner):
    """Hybrid swap/recompute planner (measured-iteration static plan).

    Args:
        budget_bytes: GPU memory budget.
        device: device model used to price PCIe transfers and kernels.
        pcie_bandwidth: host link bandwidth (bytes/s).
    """

    name = "capuchin"
    capabilities = PlannerCapabilities(
        swapping=True,
        checkpointing=True,
        granularity="tensor",
        plan_timing="runtime",
        search_space="holistic",
        search_algorithm="greedy",
    )
    requires_physical_capacity = True  # assumes the measured input shape

    def __init__(
        self,
        budget_bytes: int,
        *,
        device: Optional[DeviceModel] = None,
        pcie_bandwidth: float = 12e9,
    ) -> None:
        super().__init__(budget_bytes)
        self.device = device or DeviceModel()
        self.pcie_bandwidth = pcie_bandwidth
        self.cost_model = PcieCostModel(
            self.device, pcie_bandwidth=pcie_bandwidth
        )
        self.scheduler = HybridGreedyScheduler(self.cost_model)
        self._plan: Optional[CheckpointPlan] = None
        self.planned_for_size: int = 0

    # ------------------------------------------------------------------ plan

    def plan(self, batch: BatchInput) -> PlanDecision:
        if self._plan is None or batch.input_size > self.planned_for_size:
            # "measured execution": the largest shape seen so far drives
            # the plan.  Capuchin re-plans when memory pressure grows but
            # never relaxes for smaller inputs — the input-dynamics
            # blindness Table I records.
            self._plan = self._solve(batch)
            self.planned_for_size = batch.input_size
        return PlanDecision(self._plan, planning_time=1e-5)

    def _solve(self, batch: BatchInput) -> CheckpointPlan:
        view = self._require_view()
        profiles = view.profiles(batch)
        by_name = {p.module_name: p for p in profiles}
        names = [n for n in view.unit_names if n in view.checkpointable]

        baseline_peak = peak_model(view, batch, profiles)(ActionAssignment())
        excess = baseline_peak - self.budget_bytes
        if excess <= 0:
            return CheckpointPlan(ActionAssignment(), "capuchin")

        # Measured execution feeds the shared cost model: profile forward
        # times price RECOMPUTE, profile backward times set the overlap
        # window, and activation sizes price the PCIe transfers.  The
        # selection loop itself (largest-first until the excess is
        # covered, aggregate transfer envelope) is HybridGreedyScheduler.
        times = {n: self.device.unit_times(by_name[n]) for n in names}
        assignment = self.scheduler.assign(
            SolverInput(
                est_bytes={n: unit_saved_bytes(by_name[n]) for n in names},
                order={n: i for i, n in enumerate(names)},
                excess_bytes=excess,
                est_time={n: times[n][0] for n in names},
                bwd_time={n: times[n][1] for n in names},
            )
        )
        return CheckpointPlan(assignment, "capuchin")
