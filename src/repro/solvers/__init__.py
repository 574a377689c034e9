"""One solver family over :class:`~repro.planners.base.ActionAssignment`.

Every planning algorithm in the repo — the paper's Algorithm 1 greedy,
the knapsack alternative, the Capuchin-style hybrid, the static planner
cores, and the optimality harness (exact branch-and-bound, LP rounding,
Chen baselines) — implements :class:`Solver` and registers under a name;
:func:`make_solver` is the single construction point for the runner, the
CLI (``repro run --solver``) and ``MimosePlanner``.

Importing this package registers the built-in solvers (the same
import-for-effect idiom as :mod:`repro.engine.strategies` and
:mod:`repro.analysis.rules`).
"""

from repro.solvers.base import (
    CostModel,
    PcieCostModel,
    Solver,
    SolverInput,
    covered_bytes,
    make_solver,
    plan_cost,
    plan_feasible,
    predicted_swap_stall,
    register_solver,
    required_coverage,
    solver_class,
    solver_names,
)
from repro.solvers.greedy import (
    GreedyScheduler,
    HybridGreedyScheduler,
    KnapsackScheduler,
)
from repro.solvers.exact import ExactSolver
from repro.solvers.lp import LpRoundingSolver, fractional_lower_bound
from repro.solvers.chen import ChenGreedySolver, ChenSqrtNSolver
from repro.solvers.adapters import CheckmateSolver, SublinearSolver

__all__ = [
    "CostModel",
    "PcieCostModel",
    "Solver",
    "SolverInput",
    "covered_bytes",
    "make_solver",
    "plan_cost",
    "plan_feasible",
    "predicted_swap_stall",
    "register_solver",
    "required_coverage",
    "solver_class",
    "solver_names",
    "GreedyScheduler",
    "HybridGreedyScheduler",
    "KnapsackScheduler",
    "ExactSolver",
    "LpRoundingSolver",
    "fractional_lower_bound",
    "ChenGreedySolver",
    "ChenSqrtNSolver",
    "CheckmateSolver",
    "SublinearSolver",
]
