"""LP relaxation + deterministic threshold-rounding sweep.

Checkmate's ``strategy_approx_lp`` (Jain et al., MLSys 2020) solves the
LP relaxation of its ILP and rounds the fractional solution at a sweep
of thresholds, keeping the best feasible integral plan.  This solver is
that scheme specialised to the repo's one-tier action layer, where the
relaxation is small enough to solve in closed form — no external LP
dependency:

* Relaxation.  ``min Σ c_u·x_u  s.t.  Σ bytes_u·x_u ≥ excess, 0 ≤ x ≤ 1``
  with ``c_u = min(recompute_cost, swap_stall)`` is a fractional
  covering knapsack; the greedy walk in ascending cost-per-byte order is
  its exact optimum (at most one unit ends up fractional).

* Rounding.  Sweep every distinct fractional value as a threshold θ and
  select ``{u : x_u ≥ θ}``; for each candidate set, re-assign actions
  integrally — cheapest action per unit, swaps admitted in ascending
  stall order while the copy-engine envelope holds — and keep the
  lowest-cost feasible plan.  The sweep is over the solution's own
  values, so it is deterministic and needs no RNG.

The relaxation's objective value is a true lower bound on any integral
plan, which also makes this module the cross-check for the exact
solver: ``ExactSolver``'s optimum always lands between
:func:`fractional_lower_bound` and this solver's rounded cost.
"""

from __future__ import annotations

from typing import Optional

from repro.planners.base import ActionAssignment
from repro.solvers.base import (
    CostModel,
    PcieCostModel,
    Solver,
    SolverInput,
    plan_cost,
    plan_feasible,
    register_solver,
)
from repro.tensorsim.device import DeviceModel


def fractional_lower_bound(model: CostModel, inp: SolverInput) -> float:
    """Optimal value of the LP relaxation: a lower bound on every plan.

    Ignores the envelope and integrality (both relaxations can only
    lower the value), prices each unit at its cheaper action, and fills
    the coverage constraint in ascending cost-per-byte order.
    """
    if inp.excess_bytes <= 0:
        return 0.0
    window = model.overlap_window(inp)
    units = [(u, b) for u, b in inp.est_bytes.items() if b > 0]
    remaining = min(inp.excess_bytes, sum(b for _, b in units))
    priced = sorted(
        (
            (
                min(
                    model.recompute_cost(u, inp),
                    max(0.0, model.transfer_time(b) - window),
                )
                / b,
                u,
                b,
            )
            for u, b in units
        ),
        key=lambda t: (t[0], t[1]),
    )
    bound = 0.0
    for density, _, b in priced:
        if remaining <= 0:
            break
        take = b if b < remaining else remaining
        bound += density * take
        remaining -= take
    return bound


@register_solver
class LpRoundingSolver(Solver):
    """Closed-form LP relaxation, then a threshold-rounding sweep."""

    name = "lp"
    prices_actions = True

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = (
            cost_model if cost_model is not None else PcieCostModel()
        )

    @classmethod
    def create(
        cls,
        *,
        device: Optional[DeviceModel] = None,
        bwd_ratio: Optional[float] = None,
    ) -> "LpRoundingSolver":
        return cls(PcieCostModel(device, bwd_ratio=bwd_ratio))

    def _integral_plan(
        self, chosen: list[str], inp: SolverInput
    ) -> ActionAssignment:
        """Assign each chosen unit its cheaper action under the envelope.

        Swaps are admitted in ascending stall order (cheapest residuals
        claim the copy engine first); once the envelope is exhausted the
        rest recompute.
        """
        model = self.cost_model
        window = model.overlap_window(inp)
        envelope = model.transfer_envelope(inp)
        wants_swap: list[tuple[float, str, float]] = []
        recompute: set[str] = set()
        for u in chosen:
            transfer = model.transfer_time(inp.est_bytes[u])
            stall = max(0.0, transfer - window)
            if stall < model.recompute_cost(u, inp):
                wants_swap.append((stall, u, transfer))
            else:
                recompute.add(u)
        swap: set[str] = set()
        cum_transfer = 0.0
        for stall, u, transfer in sorted(wants_swap):
            if cum_transfer + transfer <= envelope:
                swap.add(u)
                cum_transfer += transfer
            else:
                recompute.add(u)
        return ActionAssignment.from_sets(
            recompute=frozenset(recompute), swap=frozenset(swap)
        )

    def assign(self, inp: SolverInput) -> ActionAssignment:
        if inp.excess_bytes <= 0:
            return ActionAssignment()
        model = self.cost_model
        window = model.overlap_window(inp)
        units = [(u, b) for u, b in inp.est_bytes.items() if b > 0]
        if not units:
            return ActionAssignment()
        need = min(inp.excess_bytes, sum(b for _, b in units))
        # Relaxation optimum: walk ascending cost-per-byte; every unit
        # before the waterline gets x=1, the waterline unit the fractional
        # remainder, everything after x=0.
        priced = sorted(
            (
                (
                    min(
                        model.recompute_cost(u, inp),
                        max(0.0, model.transfer_time(b) - window),
                    )
                    / b,
                    u,
                    b,
                )
                for u, b in units
            ),
            key=lambda t: (t[0], t[1]),
        )
        x: dict[str, float] = {}
        remaining = need
        for _, u, b in priced:
            if remaining <= 0:
                x[u] = 0.0
            elif b <= remaining:
                x[u] = 1.0
                remaining -= b
            else:
                x[u] = remaining / b
                remaining = 0
        # Threshold sweep over the solution's own distinct values: θ just
        # above each value excludes it, θ at it includes it.  Descending
        # thresholds move from the sparsest candidate to the densest.
        thresholds = sorted({v for v in x.values() if v > 0.0}, reverse=True)
        best: Optional[ActionAssignment] = None
        best_cost = float("inf")
        for theta in thresholds:
            chosen = sorted(u for u, v in x.items() if v >= theta)
            candidate = self._integral_plan(chosen, inp)
            if not plan_feasible(model, candidate, inp):
                continue
            cost = plan_cost(model, candidate, inp)
            if cost < best_cost:
                best_cost = cost
                best = candidate
        if best is None:
            # No threshold covers (can only happen through rounding
            # corner cases); fall back to dropping every priced unit.
            best = self._integral_plan([u for u, _ in units], inp)
        return best
