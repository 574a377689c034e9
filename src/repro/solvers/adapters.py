"""The static planners' decision rules adapted to the solver interface.

The static planners in :mod:`repro.planners` decide offline against a
profiled worst-case/assumed shape, but their decision rules — the
evenly spaced keep search of :mod:`repro.planners.sublinear` and the
keep-knapsack of :mod:`repro.planners.checkmate` — are pure functions of
per-unit bytes and times plus a feasibility test.  The adapters call
the same rule implementations as the planners, testing feasibility
against the linear excess instead of the exact peak model, so the
optimality harness can price the static families per input size like
any other solver (Table I's gap column).
"""

from __future__ import annotations

from repro.planners.checkmate import knapsack_drop
from repro.planners.sublinear import even_keep_drop
from repro.solvers.base import Solver, SolverInput, register_solver


def _ordered(inp: SolverInput) -> list[str]:
    return sorted(inp.est_bytes, key=lambda u: (inp.order[u], u))


@register_solver
class SublinearSolver(Solver):
    """Chen-style evenly spaced keeps over the forward chain.

    The decision core of
    :class:`~repro.planners.sublinear.SublinearPlanner`: keep the largest
    evenly spaced unit set whose complement still releases the excess.
    """

    name = "sublinear"

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        if inp.excess_bytes <= 0:
            return frozenset()
        names = _ordered(inp)
        need = min(inp.excess_bytes, sum(inp.est_bytes.values()))
        drop = even_keep_drop(
            names, lambda d: sum(inp.est_bytes[u] for u in d) >= need
        )
        return frozenset(names) if drop is None else drop


@register_solver
class CheckmateSolver(Solver):
    """Keep-knapsack over estimated bytes and recompute times.

    The decision core of
    :class:`~repro.planners.checkmate.CheckmatePlanner`: maximise the
    recompute time *avoided* by keeping units, subject to the kept bytes
    fitting what the budget leaves after the excess is released.  The
    knapsack quantises kept weights upward
    (:func:`~repro.planners.checkmate.knapsack_drop`), so the complement
    always releases at least the excess.
    """

    name = "checkmate"

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        if inp.excess_bytes <= 0:
            return frozenset()
        names = _ordered(inp)
        total = sum(inp.est_bytes.values())
        # capacity <= 0 keeps nothing: the knapsack drops every unit
        capacity = total - min(inp.excess_bytes, total)
        values = [
            inp.est_time[u] if inp.est_time else float(inp.order[u] + 1)
            for u in names
        ]
        return knapsack_drop(
            names, values, [inp.est_bytes[u] for u in names], capacity
        )
