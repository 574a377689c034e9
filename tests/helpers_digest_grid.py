"""The digest-parity grid shared by the golden generator and the test
suite (``tests/test_executor_pipeline.py``).

Each grid point is ``(task, planner, budget_gb, iterations, fault_spec)``
with ``fault_spec`` an empty string for fault-free runs.  The grid covers
every planner (hence NORMAL, COLLECT and REACTIVE execution), two tasks,
two budgets for the plan-based planners, and faulted runs for the
planners whose fault reaction differs (Mimose recovers, DTR evicts,
Sublinear dies or survives on margin).
"""

from __future__ import annotations

from repro.engine.stats import RunResult
from repro.experiments.runner import run_task
from repro.experiments.tasks import GB, load_task
from repro.tensorsim.faults import FaultPlan

GridPoint = tuple[str, str, float, int, str]

_FAULTS = "frag:start=8,iters=2,bytes=512M;alloc:start=14,count=1,min=1M"


def digest_grid() -> list[GridPoint]:
    points: list[GridPoint] = []
    for task in ("TC-Bert", "QA-Bert"):
        for planner in (
            "baseline", "sublinear", "checkmate", "monet",
            "dtr", "capuchin", "mimose",
        ):
            budgets = (4.0, 6.0) if task == "TC-Bert" else (5.0,)
            if planner == "baseline":
                budgets = budgets[:1]
            for budget in budgets:
                points.append((task, planner, budget, 25, ""))
    # Faulted runs: recovery ladder (mimose), reactive eviction under
    # injected failures (dtr), and a static planner hit mid-run.
    for planner in ("mimose", "dtr", "sublinear"):
        points.append(("TC-Bert", planner, 4.0, 25, _FAULTS))
    return points


def near_recurrence_grid() -> list[GridPoint]:
    """The compiled-template parity grid (docs/performance.md).

    Near-recurrence is the fig 10 sweep regime: the loader's natural
    size stream keeps producing *unseen* input sizes under a recurring
    plan signature, so after the first certification the compiled tier
    (not exact replay) serves the new sizes.  Longer runs than the
    replay grid so certification happens early enough to matter; every
    plan-based planner is covered (DTR, which is REACTIVE, is not), plus
    a faulted point to pin the fault-window bypass.
    """
    points: list[GridPoint] = []
    for planner in (
        "baseline", "sublinear", "checkmate", "monet", "capuchin", "mimose",
    ):
        points.append(("TC-Bert", planner, 4.0, 60, ""))
    points.append(("QA-Bert", "sublinear", 5.0, 60, ""))
    points.append(("TC-Bert", "mimose", 4.0, 60, _FAULTS))
    return points


def run_grid_point_result(
    point: GridPoint, *, seed: int = 0, compiled: bool = True
) -> RunResult:
    task_name, planner, budget_gb, iterations, fault_spec = point
    task = load_task(task_name, iterations=iterations, seed=seed)
    faults = (
        FaultPlan.parse(fault_spec, seed=3) if fault_spec else None
    )
    return run_task(
        task,
        planner,
        int(budget_gb * GB),
        max_iterations=iterations,
        faults=faults,
        compiled=compiled,
    )


def run_grid_point(point: GridPoint, *, seed: int = 0) -> str:
    return run_grid_point_result(point, seed=seed).digest()
