"""Per-cell optimality gaps: every solver against the exact optimum.

The solver registry gives every planning algorithm the same contract
(:class:`~repro.solvers.base.SolverInput` in,
:class:`~repro.planners.base.ActionAssignment` out) and the same
objective (:func:`~repro.solvers.base.plan_cost` under one shared
:class:`~repro.solvers.base.PcieCostModel`), which makes plan *quality*
directly comparable: for each (solver, input size) cell, price the
solver's plan and the :class:`~repro.solvers.ExactSolver` optimum with
the same model and report the relative gap.

Two consumers:

* ``attach_gaps`` decorates a finished :class:`~repro.engine.stats
  .RunResult` with the gaps of the plans its (fitted, Mimose-family)
  planner would emit at a sample of the run's own input sizes — the
  ``repro run/sweep --gap-sizes N`` column.
* ``fitted_inputs`` + ``gap_report`` build the Table I gap column from a
  short sheltered mini-run: fit Mimose's estimator once, extract solver
  inputs at evenly spaced sizes, and score every registered solver on
  them (``repro gaps`` is the CI gate over the same report).

Gap convention (``relative_gap``): ``(cost - exact) / exact`` when the
optimum is positive; ``0.0`` when both are (near-)zero; ``inf`` when a
solver pays a positive cost where the optimum is free, or emits an
infeasible plan.  The exact solver's own gap is *identically zero* by
construction — ``gap_report`` enforces that and raises if it is not,
which is what the CI smoke job trips on.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.engine.stats import RunResult
from repro.experiments.tasks import GB, load_task
from repro.planners.base import ModelView, Planner
from repro.solvers import (
    ExactSolver,
    PcieCostModel,
    SolverInput,
    make_solver,
    plan_cost,
    plan_feasible,
)
from repro.tensorsim.device import DeviceModel

#: Table I planner rows mapped to the registered solver that drives their
#: excess-covering decision; rows absent here (MILP planners, baseline,
#: the lifecycle variant) have no one-tier solver analogue and keep "—".
TABLE1_SOLVERS: dict[str, str] = {
    "mimose": "greedy",
    "mimose-knapsack": "knapsack",
    "mimose-hybrid": "hybrid",
    "mimose-exact": "exact",
    "sublinear": "sublinear",
    "checkmate": "checkmate",
    "capuchin": "hybrid",
}


def relative_gap(cost: float, exact_cost: float) -> float:
    """Relative optimality gap of ``cost`` against the exact optimum.

    ``(cost - exact) / exact`` for a positive optimum; ``0.0`` when the
    plan matches a zero-cost optimum; ``inf`` when the optimum is free
    but the plan is not.  Never negative for a true optimum — the
    property suite asserts exactly that for every registered solver.
    """
    if exact_cost > 0.0:
        return (cost - exact_cost) / exact_cost
    return 0.0 if cost <= 0.0 else math.inf


# --------------------------------------------------------------- run results


def _sample_sizes(sizes: Sequence[int], limit: int) -> list[int]:
    """Evenly spaced sample of ``limit`` distinct sizes (ascending)."""
    distinct = sorted(set(sizes))
    if limit <= 0 or len(distinct) <= limit:
        return distinct
    if limit == 1:
        return [distinct[-1]]
    step = (len(distinct) - 1) / (limit - 1)
    return sorted({distinct[round(i * step)] for i in range(limit)})


def attach_gaps(
    planner: Planner,
    result: RunResult,
    *,
    sizes_limit: int = 3,
    device: Optional[DeviceModel] = None,
) -> RunResult:
    """Fill ``result.optimality_gaps`` from the planner's own solver.

    Samples up to ``sizes_limit`` distinct responsive input sizes from
    the run, rebuilds the solver input the planner's estimator predicts
    for each, and records the relative gap of the planner's solver
    against :class:`~repro.solvers.ExactSolver` under the solver's own
    cost model (or a default :class:`PcieCostModel` for coverage-only
    solvers).

    Best-effort by design: planners without a pluggable solver
    (``scheduler``/``scheduler_input`` attributes — the Mimose family)
    and cells the exact search refuses (unit count or node cap) are
    skipped, never fatal.  The run's digest ignores
    ``optimality_gaps``, so attaching gaps preserves digest parity.
    """
    solver = getattr(planner, "scheduler", None)
    scheduler_input = getattr(planner, "scheduler_input", None)
    if solver is None or scheduler_input is None:
        return result
    model = getattr(solver, "cost_model", None) or PcieCostModel(device)
    exact = ExactSolver(model)
    sizes = _sample_sizes(
        [s.input_size for s in result.iterations if not s.is_collect],
        sizes_limit,
    )
    for size in sizes:
        try:
            inp = scheduler_input(size)
            optimum = plan_cost(model, exact.assign(inp), inp)
            own = solver.assign(inp)
        except (KeyError, RuntimeError, ValueError):
            continue  # unfitted estimator, unknown unit, or search cap
        if not plan_feasible(model, own, inp):
            result.optimality_gaps[size] = math.inf
            continue
        result.optimality_gaps[size] = relative_gap(
            plan_cost(model, own, inp), optimum
        )
    return result


# ------------------------------------------------------------ table harness


def fitted_inputs(
    task_abbr: str = "TC-Bert",
    *,
    num_sizes: int = 3,
    budget_gb: Optional[float] = None,
    seed: int = 0,
    device: Optional[DeviceModel] = None,
) -> list[tuple[int, SolverInput]]:
    """Solver inputs from one fitted estimator, at evenly spaced sizes.

    Runs a short Mimose mini-run (sheltered collection plus a few
    responsive iterations, enough to fit the estimator), then rebuilds
    the :class:`SolverInput` the planner would hand its solver at
    ``num_sizes`` evenly spaced input sizes the run actually saw.  Every
    solver scored by :func:`gap_report` sees these same inputs, so the
    per-cell comparison isolates plan quality from estimation quality.

    ``budget_gb=None`` (the default) places the budget 30 % of the way
    between the task's full-checkpoint floor and its no-checkpoint peak
    — inside the memory-constrained regime, so the inputs carry positive
    excess and the gap cells are non-trivial.  An ample explicit budget
    makes every gap trivially zero (nothing to cover).
    """
    task = load_task(task_abbr, iterations=64, seed=seed)
    lb, ub = task.memory_bounds()
    if budget_gb is None:
        budget = int(lb + 0.30 * (ub - lb))
    else:
        budget = max(int(budget_gb * GB), int(lb * 1.15))
    planner = MimosePlanner(budget)
    iterations = planner.collector.min_iterations + 6
    model = task.model
    planner.setup(ModelView(model))
    executor = TrainingExecutor(
        model,
        planner,
        device=device,
        capacity_bytes=budget,
    )
    sizes: list[int] = []
    for i, batch in enumerate(task.loader):
        if i >= iterations:
            break
        stats = executor.step(batch)
        if not stats.is_collect:
            sizes.append(stats.input_size)
    # Candidate sizes span the task's whole input distribution (the
    # estimator extrapolates, so unseen sizes are fair game), preferring
    # sizes whose predicted peak exceeds the budget — cells with zero
    # excess have nothing to solve and gap 0 for everyone.
    candidates = sorted(
        {
            *sizes,
            *(b.input_size for b in task.loader.peek_sizes(24, seed_offset=99)),
            task.worst_case.input_size,
        }
    )
    positive = [
        s for s in candidates if planner.scheduler_input(s).excess_bytes > 0
    ]
    chosen = _sample_sizes(positive, num_sizes)
    if len(chosen) < num_sizes:
        pad = [s for s in reversed(candidates) if s not in chosen]
        chosen = sorted({*chosen, *pad[: num_sizes - len(chosen)]})
    return [(size, planner.scheduler_input(size)) for size in chosen]


def gap_report(
    solver_names: Iterable[str],
    inputs: Sequence[tuple[int, SolverInput]],
    *,
    device: Optional[DeviceModel] = None,
) -> dict[str, dict[int, float]]:
    """Per-(solver, input-size) relative gaps against the exact optimum.

    Every cell is priced with one shared :class:`PcieCostModel` so costs
    are comparable across solvers; infeasible plans and cells a solver
    refuses (the exact solver's caps) score ``inf`` / are skipped.

    Raises:
        RuntimeError: if the exact solver's own gap is not identically
            zero on any cell — the invariant the CI smoke job gates.
    """
    model = PcieCostModel(device)
    exact = ExactSolver(model)
    optima = {
        size: plan_cost(model, exact.assign(inp), inp)
        for size, inp in inputs
    }
    report: dict[str, dict[int, float]] = {}
    for name in solver_names:
        solver = make_solver(name, device=device)
        cells: dict[int, float] = {}
        for size, inp in inputs:
            try:
                assignment = solver.assign(inp)
            except ValueError:
                continue  # solver refused the cell (size caps)
            if not plan_feasible(model, assignment, inp):
                cells[size] = math.inf
                continue
            cells[size] = relative_gap(
                plan_cost(model, assignment, inp), optima[size]
            )
        if name == "exact" and any(g != 0.0 for g in cells.values()):
            raise RuntimeError(
                f"exact solver reported a nonzero gap against itself: {cells}"
            )
        report[name] = cells
    return report
