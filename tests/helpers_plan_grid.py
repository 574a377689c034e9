"""The plan-golden grids shared by the generator
(``tests/data/gen_plan_goldens.py``) and ``tests/test_plan_goldens.py``.

Two grids pin planning decisions without running any iteration:

* **static cells** ``task|planner|<gb>GB`` — the plan each static planner
  (Sublinear, its segment-fallback variant, Checkmate, MONeT) builds at
  setup for every task and every budget in :data:`BUDGETS_GB`.  The
  digest covers the plan's label, the peak it carries, its actions and
  segments, and the exact-model peak of the plan at the batch the
  planner solved for.
* **solver cells** ``solver|case<i>`` — the assignment each coverage
  solver returns for :data:`N_CASES` seeded random
  :class:`~repro.solvers.SolverInput` s.  The cases include zero-byte
  units, non-positive excesses, excesses above the total, and inputs
  without time estimates.

Each cell stores a short digest of the plan's canonical JSON form, not
the plan, so a mismatch names the cell and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Iterator

from repro.experiments.runner import make_planner
from repro.experiments.tasks import GB, TASKS, load_task
from repro.planners.analysis import predict_peak_bytes
from repro.planners.base import ActionAssignment, ModelView
from repro.planners.segmented import SegmentedSublinearPlanner
from repro.solvers import SolverInput, make_solver

STATIC_PLANNERS = ("sublinear", "sublinear-seg", "checkmate", "monet")
BUDGETS_GB = (1, 2, 3, 4, 5, 6, 8, 12)
COVERAGE_SOLVERS = (
    "sublinear", "checkmate", "chen-sqrtn", "chen-greedy", "greedy", "knapsack",
)
N_CASES = 120

_MIB = 1 << 20


def digest(obj: object) -> str:
    """Short stable hash of a JSON-serialisable object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def assignment_form(assignment: ActionAssignment) -> list:
    """Canonical JSON form: sorted (unit, action) pairs, then segments."""
    return [
        [[unit, action.value] for unit, action in assignment.actions],
        [list(segment) for segment in assignment.segments],
    ]


def static_cells(task_name: str) -> Iterator[tuple[str, str]]:
    """``(cell, digest)`` for every static planner and budget of one task."""
    task = load_task(task_name, iterations=1, seed=0)
    model = task.fresh_model()
    for gb in BUDGETS_GB:
        budget = int(gb * GB)
        for name in STATIC_PLANNERS:
            if name == "sublinear-seg":
                planner = SegmentedSublinearPlanner(
                    budget, worst_case_batch=task.worst_case
                )
            else:
                planner = make_planner(name, budget, task)
            view = ModelView(model)
            planner.setup(view)
            batch = (
                task.assumed_static_batch()
                if name in ("checkmate", "monet")
                else task.worst_case
            )
            plan = planner.plan(batch).plan
            exact_peak = predict_peak_bytes(
                view.profiles(batch),
                plan.assignment,
                static_bytes=view.static_memory.total,
                input_nbytes=batch.nbytes,
                checkpointable=view.checkpointable,
            )
            form = [
                plan.label,
                plan.predicted_peak_bytes,
                exact_peak,
                assignment_form(plan.assignment),
            ]
            yield f"{task_name}|{name}|{gb}GB", digest(form)


def static_task_names() -> list[str]:
    return sorted(TASKS)


def solver_case(i: int) -> SolverInput:
    """The ``i``-th seeded random solver input."""
    rng = random.Random(1000 + i)
    n = rng.randint(0, 20) if i % 10 else rng.randint(0, 2)
    names = [f"u{j:02d}" for j in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    est_bytes: dict[str, int] = {}
    for name in names:
        kind = rng.random()
        if kind < 0.15:
            est_bytes[name] = 0
        elif kind < 0.3:
            est_bytes[name] = rng.randint(1, _MIB - 1)
        else:
            est_bytes[name] = rng.randint(_MIB, 256 * _MIB)
    total = sum(est_bytes.values())
    mode = i % 5
    if mode == 0:
        excess = -rng.randint(0, 64 * _MIB)
    elif mode == 1:
        excess = total + rng.randint(1, 64 * _MIB)
    else:
        excess = int(total * rng.uniform(0.05, 0.95))
    # Dyadic times (multiples of 2**-20 s) sum exactly in float64, so the
    # goldens do not depend on how an interpreter's sum() rounds.
    est_time = (
        None
        if i % 7 == 3
        else {name: rng.randint(1, 50_000) * 2**-20 for name in names}
    )
    return SolverInput(
        est_bytes=est_bytes,
        order=dict(zip(names, order)),
        excess_bytes=excess,
        est_time=est_time,
    )


def solver_cells() -> Iterator[tuple[str, str]]:
    """``(cell, digest)`` for every coverage solver on every case."""
    solvers = {name: make_solver(name) for name in COVERAGE_SOLVERS}
    for i in range(N_CASES):
        inp = solver_case(i)
        for name, solver in solvers.items():
            form = assignment_form(solver.assign(inp))
            yield f"{name}|case{i}", digest(form)
