"""Exact optimality bound: branch-and-bound over per-unit actions.

The per-unit action layer is exactly the decision-variable set of
Checkmate's ILP (Jain et al., MLSys 2020) restricted to one unit tier:
for every checkpointable unit choose KEEP, RECOMPUTE or SWAP, minimise
the predicted overhead seconds (:func:`~repro.solvers.base.plan_cost`)
subject to

* coverage — released bytes reach the input's excess (capped at the
  total, the exhaustion case every heuristic also honours), and
* the copy-engine envelope — summed swap transfer time fits
  :meth:`~repro.solvers.base.CostModel.transfer_envelope`.

Pure python, no external solver, fully deterministic: units are visited
largest-bytes-first (name as tie-break), branches cheapest-action-first,
and the incumbent only ever *strictly* improves, so ties resolve to the
first solution in that fixed order.

Tractability: the search is exponential in the worst case but the
fractional-relaxation bound plus the swap-dominance prune keep it well
under a millisecond at the repo's unit counts (≤ ~100 units; see
``benchmarks/bench_optimality.py`` for the pinned 64-unit wall time).
``MAX_UNITS`` and ``MAX_NODES`` guard against pathological inputs — the
gap harness skips the cells the search refuses rather than hanging.
"""

from __future__ import annotations

from typing import Optional

from repro.planners.base import ActionAssignment, MemoryAction
from repro.solvers.base import (
    CostModel,
    PcieCostModel,
    Solver,
    SolverInput,
    plan_cost,
    plan_feasible,
    register_solver,
)
from repro.solvers.greedy import GreedyScheduler, HybridGreedyScheduler
from repro.tensorsim.device import DeviceModel

_KEEP = 0
_RECOMPUTE = 1
_SWAP = 2


@register_solver
class ExactSolver(Solver):
    """Minimum-cost KEEP/RECOMPUTE/SWAP assignment by branch-and-bound.

    The optimality reference for every other solver in the registry:
    :mod:`repro.experiments.optimality` prices each solver's plan with
    the shared cost model and reports the relative gap against this
    solver's optimum (identically zero for the exact solver itself).

    Args:
        cost_model: action pricing; defaults to :class:`PcieCostModel`.
    """

    name = "exact"
    prices_actions = True

    #: Inputs with more (non-zero-byte) units than this are refused —
    #: exactness is only claimed where the search is known tractable.
    MAX_UNITS = 128

    #: Search-size backstop: exactness is never claimed past this many
    #: explored nodes — pathological inputs raise instead of hanging.
    MAX_NODES = 2_000_000

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
    ) -> "ExactSolver":
        return cls(PcieCostModel(device, bwd_ratio=bwd_ratio))

    def assign(self, inp: SolverInput) -> ActionAssignment:
        if inp.excess_bytes <= 0:
            return ActionAssignment()
        model = self.cost_model
        # Zero-byte units release nothing: any action on them only adds
        # cost, so the optimum keeps them and they stay out of the search.
        units = sorted(
            (u for u in inp.est_bytes if inp.est_bytes[u] > 0),
            key=lambda u: (-inp.est_bytes[u], u),
        )
        if len(units) > self.MAX_UNITS:
            raise ValueError(
                f"exact solver capped at {self.MAX_UNITS} units; "
                f"got {len(units)}"
            )
        if not units:
            return ActionAssignment()
        n = len(units)
        nbytes = [inp.est_bytes[u] for u in units]
        rcost = [model.recompute_cost(u, inp) for u in units]
        window = model.overlap_window(inp)
        envelope = model.transfer_envelope(inp)
        transfer = [model.transfer_time(b) for b in nbytes]
        scost = [max(0.0, t - window) for t in transfer]
        # Exhaustion: when even everything falls short, freeing it all
        # as cheaply as possible is the best any plan can do.
        excess = min(inp.excess_bytes, sum(nbytes))

        # Suffix totals for the can-still-cover prune, and the fractional
        # relaxation bound: cheapest per-byte completion ignoring
        # integrality and the envelope (both relaxations only lower the
        # bound, so pruning on it is safe).
        suffix_bytes = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_bytes[i] = suffix_bytes[i + 1] + nbytes[i]
        density = [min(rcost[i], scost[i]) / nbytes[i] for i in range(n)]
        suffix_sorted: list[list[tuple[float, int]]] = [[] for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            merged = list(suffix_sorted[i + 1])
            merged.append((density[i], nbytes[i]))
            merged.sort(key=lambda db: db[0])
            suffix_sorted[i] = merged

        def completion_bound(i: int, remaining: int) -> float:
            bound = 0.0
            for dens, size in suffix_sorted[i]:
                if remaining <= 0:
                    break
                take = size if size < remaining else remaining
                bound += dens * take
                remaining -= take
            return bound

        # Incumbent: seed from the fast heuristics so the search starts
        # with a tight upper bound instead of discovering one depth-first.
        best_cost = float("inf")
        best_actions: Optional[list[int]] = None
        for heuristic in (
            HybridGreedyScheduler(model),
            GreedyScheduler(),
        ):
            seed = heuristic.assign(inp)
            if not plan_feasible(model, seed, inp):
                continue
            cost = plan_cost(model, seed, inp)
            if cost < best_cost:
                best_cost = cost
                best_actions = [
                    {
                        MemoryAction.KEEP: _KEEP,
                        MemoryAction.RECOMPUTE: _RECOMPUTE,
                        MemoryAction.SWAP: _SWAP,
                    }[seed.action_for(u)]
                    for u in units
                ]

        # Symmetry break: units indistinguishable to the objective and
        # both constraints (same bytes, same prices) are interchangeable,
        # so only one canonical action sequence per run is explored —
        # action ranks non-decreasing along the run (RECOMPUTE < SWAP <
        # KEEP).  Without this, tie-heavy inputs explode combinatorially
        # for no change in the optimal value.
        same_as_prev = [False] + [
            nbytes[i] == nbytes[i - 1]
            and rcost[i] == rcost[i - 1]
            and scost[i] == scost[i - 1]
            for i in range(1, n)
        ]
        rank = {_RECOMPUTE: 0, _SWAP: 1, _KEEP: 2}

        actions = [_KEEP] * n
        nodes = 0

        def search(i: int, freed: int, cum_transfer: float, cost: float) -> None:
            nonlocal best_cost, best_actions, nodes
            nodes += 1
            if nodes > self.MAX_NODES:
                raise ValueError(
                    f"exact search exceeded {self.MAX_NODES} nodes"
                )
            if cost >= best_cost:
                return
            if freed >= excess:
                best_cost = cost
                best_actions = actions[:]
                return
            if i == n or freed + suffix_bytes[i] < excess:
                return
            if cost + completion_bound(i, excess - freed) >= best_cost:
                return
            min_rank = rank[actions[i - 1]] if same_as_prev[i] else 0
            r, s = rcost[i], scost[i]
            # SWAP is dominated when its stall matches or exceeds the
            # recompute price: replacing it by RECOMPUTE frees the same
            # bytes at no greater cost and releases envelope budget.
            swap_ok = (
                s < r
                and cum_transfer + transfer[i] <= envelope
                and min_rank <= rank[_SWAP]
            )
            branches: list[tuple[float, int, float]] = []
            if min_rank <= rank[_RECOMPUTE]:
                branches.append((r, _RECOMPUTE, 0.0))
            if swap_ok:
                branches.append((s, _SWAP, transfer[i]))
                branches.sort(key=lambda b: b[0])
            for branch_cost, action, tr in branches:
                actions[i] = action
                search(
                    i + 1, freed + nbytes[i], cum_transfer + tr,
                    cost + branch_cost,
                )
            actions[i] = _KEEP
            search(i + 1, freed, cum_transfer, cost)

        search(0, 0, 0.0, 0.0)
        if best_actions is None:
            # Unreachable while excess <= total (the root's RECOMPUTE-all
            # path is always feasible), kept as a correctness backstop.
            return ActionAssignment.from_sets(recompute=frozenset(units))
        recompute = frozenset(
            u for u, a in zip(units, best_actions) if a == _RECOMPUTE
        )
        swap = frozenset(
            u for u, a in zip(units, best_actions) if a == _SWAP
        )
        return ActionAssignment.from_sets(recompute=recompute, swap=swap)
