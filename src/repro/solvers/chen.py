"""Chen et al. (2016) baselines: √n segmentation and the greedy sweep.

"Training Deep Nets with Sublinear Memory Cost" keeps a checkpoint at
every segment boundary and recomputes the segment interiors; boundaries
must be articulation points of the dataflow graph (a vertex every path
crosses).  The simulator's models are chains in the input's forward
order, whose articulation points are every unit but the two ends.  Both
schemes are *memory-targeted* rather than cost-minimising, which is
exactly why they belong in the optimality harness: their measured gap
against :class:`~repro.solvers.exact.ExactSolver` quantifies what
input-aware pricing buys (Table I's gap column).

* ``chen-sqrtn`` keeps ~√n evenly spaced articulation points, shrinking
  the kept set only when the released bytes fall short of the excess.
* ``chen-greedy`` sweeps a per-segment byte budget over a deterministic
  candidate grid; each budget walks the chain, placing a keep at the
  first articulation point after the running segment exceeds the
  budget, and the cheapest feasible segmentation wins.

Both emit RECOMPUTE for dropped units (KEEP for boundaries), so their
plans execute on the unchanged recompute path.
"""

from __future__ import annotations

import math

from repro.solvers.base import Solver, SolverInput, register_solver
from repro.tensorsim.clock import left_sum


def _chain(inp: SolverInput) -> list[str]:
    """Units in forward order — the simulator's dataflow chain."""
    return sorted(inp.est_bytes, key=lambda u: (inp.order[u], u))


def _dropped_bytes(chain: list[str], keep: set[str], inp: SolverInput) -> int:
    return sum(inp.est_bytes[u] for u in chain if u not in keep)


def _recompute_cost(chain: list[str], keep: set[str], inp: SolverInput) -> float:
    if inp.est_time is None:
        return 0.0
    return left_sum(inp.est_time[u] for u in chain if u not in keep)


@register_solver
class ChenSqrtNSolver(Solver):
    """Keep ~√n evenly spaced articulation points, recompute the rest."""

    name = "chen-sqrtn"

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        if inp.excess_bytes <= 0:
            return frozenset()
        chain = _chain(inp)
        boundaries = chain[1:-1]  # the chain's articulation points
        total = sum(inp.est_bytes.values())
        need = min(inp.excess_bytes, total)
        k = math.isqrt(len(chain))
        # Shrink the kept set until the dropped bytes reach the excess;
        # k = 0 degenerates to drop-everything, which is always feasible
        # under the capped requirement.
        while k > 0:
            if len(boundaries) <= k:
                keep = set(boundaries)
            else:
                step = len(boundaries) / k
                keep = {boundaries[int(i * step)] for i in range(k)}
            if _dropped_bytes(chain, keep, inp) >= need:
                return frozenset(u for u in chain if u not in keep)
            k -= 1
        return frozenset(chain)


@register_solver
class ChenGreedySolver(Solver):
    """Sweep per-segment budgets, keep the cheapest feasible split."""

    name = "chen-greedy"

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        if inp.excess_bytes <= 0:
            return frozenset()
        chain = _chain(inp)
        boundaries = frozenset(chain[1:-1])  # the chain's articulation points
        total = sum(inp.est_bytes.values())
        need = min(inp.excess_bytes, total)
        # Candidate budgets: total/k for every segment count k, plus the
        # drop-everything degenerate — a deterministic grid that brackets
        # Chen's √(total·avg) heuristic without committing to it.
        candidates = sorted(
            {total // k for k in range(1, len(chain) + 1) if total // k > 0},
            reverse=True,
        )
        best: frozenset[str] | None = None
        best_cost = float("inf")
        for budget in candidates:
            keep: set[str] = set()
            segment = 0
            for u in chain:
                segment += inp.est_bytes[u]
                if segment > budget and u in boundaries:
                    keep.add(u)
                    segment = 0
            if _dropped_bytes(chain, keep, inp) < need:
                continue
            dropped = frozenset(u for u in chain if u not in keep)
            cost = _recompute_cost(chain, keep, inp)
            if cost < best_cost:
                best_cost = cost
                best = dropped
        if best is None:
            return frozenset(chain)
        return best
