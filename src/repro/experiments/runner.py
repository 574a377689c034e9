"""Run one (task, planner, budget) combination and sweep grids of them.

Sweeps can execute their grid points in parallel worker processes
(``sweep(..., jobs=N)``, surfaced as ``repro sweep --jobs N``).  Every
grid point is an independent deterministic simulation — the loader
restarts from its own seed, the task's shared model is immutable and
everything it memoises is a pure function of the input shape (so a warm
memo a forked worker inherits cannot change a result), and the fault
plan's seed is *derived* from (base seed, task, planner, budget) with the
same :func:`derive_fault_seed` in both the serial and the parallel path —
so a parallel sweep returns byte-identical results to a serial one, in
the same order.
"""

from __future__ import annotations

import math
import multiprocessing
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace as _dc_replace
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.engine.stats import RunResult
from repro.experiments.tasks import TaskContext
from repro.planners.base import ModelView, Planner
from repro.planners.capuchin import CapuchinPlanner
from repro.planners.checkmate import CheckmatePlanner
from repro.planners.dtr import DTRPlanner
from repro.planners.monet import MonetPlanner
from repro.planners.none import NoCheckpointPlanner
from repro.planners.sublinear import SublinearPlanner
from repro.solvers import make_solver, solver_class, solver_names
from repro.tensorsim.device import DeviceModel, V100
from repro.tensorsim.faults import FaultInjector, FaultPlan

PLANNER_NAMES = (
    "baseline", "sublinear", "checkmate", "monet", "dtr", "capuchin", "mimose"
)

#: every registered solver Mimose's excess-covering step can run with
#: (``repro run --solver``).  "greedy" is the paper's Algorithm 1
#: (recompute-only) and the default; "knapsack" is the 0/1 alternative;
#: "hybrid" prices RECOMPUTE against SWAP per unit with the shared PCIe
#: cost model; the rest are the optimality-harness solvers (exact, lp,
#: chen-*) and the static planners' decision rules (sublinear, checkmate).
SOLVER_NAMES = solver_names()


def make_planner(
    name: str,
    budget_bytes: int,
    task: TaskContext,
    *,
    device: Optional[DeviceModel] = None,
    solver: Optional[str] = None,
    bwd_ratio: Optional[float] = None,
    drift_detection: bool = False,
    static_fit: bool = False,
) -> Planner:
    """Construct a planner by name, wired to the task's offline knowledge.

    Static planners receive the shapes their papers allow them to know
    offline; Mimose receives only the budget (plus, optionally, a
    registered solver name for its excess-covering step — the only
    planner whose solver is runtime-pluggable).  ``bwd_ratio`` forces
    ratio pricing in action-pricing solvers' cost models and is rejected
    for coverage-only solvers (``Solver.prices_actions`` is the gate).

    ``drift_detection`` arms Mimose's lifecycle drift monitors (online
    replanning); ``static_fit`` is the ablation comparator that never
    refits — its recollect margin is infinite, so the initial fit is
    trusted for every later input size.  Both are Mimose-only.

    This is the one home of the run-option checks: every option
    combination no planner accepts raises ``ValueError`` here (a
    non-positive ``bwd_ratio`` from the cost model that would use it),
    before any simulation — the CLI builds the planner once up front for
    exactly that reason.
    """
    if solver is not None and name != "mimose":
        raise ValueError(
            f"--solver applies to the mimose planner only, not {name!r}"
        )
    if bwd_ratio is not None and (
        solver is None or not solver_class(solver).prices_actions
    ):
        raise ValueError(
            "--bwd-ratio applies to action-pricing solvers only "
            "(hybrid, exact, lp); pass e.g. --solver hybrid"
        )
    if (drift_detection or static_fit) and name != "mimose":
        raise ValueError(
            "drift_detection/static_fit apply to the mimose planner only, "
            f"not {name!r}"
        )
    if drift_detection and static_fit:
        raise ValueError("drift_detection and static_fit are exclusive")
    if name == "baseline":
        return NoCheckpointPlanner(budget_bytes)
    if name == "sublinear":
        return SublinearPlanner(budget_bytes, worst_case_batch=task.worst_case)
    if name == "checkmate":
        return CheckmatePlanner(
            budget_bytes,
            assumed_batch=task.assumed_static_batch(),
            enforce_budget=task.spec.static_plan_for_worst_case,
        )
    if name == "monet":
        return MonetPlanner(
            budget_bytes,
            assumed_batch=task.assumed_static_batch(),
            enforce_budget=task.spec.static_plan_for_worst_case,
        )
    if name == "dtr":
        return DTRPlanner(budget_bytes)
    if name == "capuchin":
        return CapuchinPlanner(budget_bytes, device=device)
    if name == "mimose":
        kwargs: dict[str, object] = {}
        if solver is not None:
            kwargs["scheduler"] = make_solver(
                solver, device=device, bwd_ratio=bwd_ratio
            )
        if drift_detection:
            kwargs["drift_detection"] = True
        if static_fit:
            kwargs["recollect_margin"] = math.inf
        return MimosePlanner(budget_bytes, **kwargs)  # type: ignore[arg-type]
    raise KeyError(f"unknown planner {name!r}; available: {PLANNER_NAMES}")


def run_task(
    task: TaskContext,
    planner_name: str,
    budget_bytes: int,
    *,
    device: Optional[DeviceModel] = None,
    max_iterations: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    max_retries: int = 3,
    observers: Sequence[Callable[[TrainingExecutor], None]] = (),
    solver: Optional[str] = None,
    bwd_ratio: Optional[float] = None,
    drift_detection: bool = False,
    static_fit: bool = False,
    gap_sizes: int = 0,
) -> RunResult:
    """Execute the task's loader under one planner and budget.

    The executor capacity follows the planner contract: plan-based
    planners that promise to respect the budget get exactly the budget;
    reactive/static-overshooting ones get physical device memory so their
    overshoot is observable (Fig 5 / Fig 10 annotations).

    ``faults`` injects deterministic memory pressure (see
    :mod:`repro.tensorsim.faults`); each run builds its own injector so
    sweeps stay independent.  ``max_retries`` bounds the OOM recovery
    ladder for planners that support it (Mimose).

    ``observers`` are callables invoked with the freshly built executor
    before the first iteration — the hook for attaching event-bus
    subscribers (``lambda ex: ex.events.subscribe(handler, ...)``)
    without reaching into executor internals.  Observers must not change
    simulated behaviour (the bus is observe-only), so the digest contract
    is unaffected.

    ``solver`` names one of :data:`SOLVER_NAMES` for Mimose's
    excess-covering step (``--solver`` on the CLI); ``None`` keeps the
    planner's default.  Rejected for non-Mimose planners.  ``bwd_ratio``
    forces ratio pricing in action-pricing solvers (``--bwd-ratio``);
    it must be positive and is rejected for coverage-only solvers.

    ``drift_detection`` arms Mimose's lifecycle drift monitors;
    ``static_fit`` freezes the initial fit (infinite recollect margin) —
    the drift-benchmark comparator.  Both Mimose-only.

    ``gap_sizes > 0`` attaches per-input-size optimality gaps to the
    result after the run (``--gap-sizes`` on the CLI): the planner's
    solver is re-scored against the exact solver at that many of the
    run's input sizes (see :mod:`repro.experiments.optimality`).
    Post-run and digest-neutral — simulated behaviour is unchanged.
    """
    device = device or DeviceModel(V100)
    model = task.model
    planner = make_planner(
        planner_name,
        budget_bytes,
        task,
        device=device,
        solver=solver,
        bwd_ratio=bwd_ratio,
        drift_detection=drift_detection,
        static_fit=static_fit,
    )
    planner.setup(ModelView(model))
    capacity = (
        device.memory_capacity
        if planner.requires_physical_capacity
        else budget_bytes
    )
    executor = TrainingExecutor(
        model,
        planner,
        device=device,
        capacity_bytes=capacity,
        faults=FaultInjector(faults) if faults is not None else None,
        max_recovery_retries=max_retries,
    )
    for attach in observers:
        attach(executor)
    result = RunResult(task.spec.abbr, planner_name, budget_bytes)
    for i, batch in enumerate(task.loader):
        if max_iterations is not None and i >= max_iterations:
            break
        result.append(executor.step(batch))
    # Cache-effectiveness observability (Table III / bench_fastpath).
    plan_cache = getattr(planner, "cache", None)
    if plan_cache is not None:
        result.plan_cache_hits = plan_cache.hits
        result.plan_cache_misses = plan_cache.misses
    if executor.replay is not None:
        result.replay_hits = executor.replay.hits
        result.replay_misses = executor.replay.misses
    if executor.compiled is not None:
        result.compiled_hits = executor.compiled.hits
        result.compiled_misses = executor.compiled.misses
    lifecycle = getattr(planner, "lifecycle", None)
    if lifecycle is not None:
        result.refits = lifecycle.refit_count
        result.drift_events = lifecycle.drift_events
    if gap_sizes > 0:
        from repro.experiments.optimality import attach_gaps

        attach_gaps(planner, result, sizes_limit=gap_sizes, device=device)
    return result


# --------------------------------------------------------------------- sweeps


def derive_fault_seed(
    base_seed: int, task_name: str, planner_name: str, budget_bytes: int
) -> int:
    """Per-grid-point fault seed, stable across processes and runs.

    ``zlib.crc32`` rather than ``hash()`` because the latter is salted by
    ``PYTHONHASHSEED`` and would break serial/parallel equivalence across
    interpreter invocations.
    """
    tag = f"{base_seed}:{task_name}:{planner_name}:{budget_bytes}"
    return zlib.crc32(tag.encode("utf-8"))


def _point_faults(
    faults: Optional[FaultPlan],
    task_name: str,
    planner_name: str,
    budget_bytes: int,
) -> Optional[FaultPlan]:
    if faults is None:
        return None
    return _dc_replace(
        faults,
        seed=derive_fault_seed(
            faults.seed, task_name, planner_name, budget_bytes
        ),
    )


_T = TypeVar("_T")
_R = TypeVar("_R")

# Per-worker-process state installed by the pool initializer.  The heavy,
# not-necessarily-picklable objects (TaskContext, DeviceModel) travel to
# the workers through fork inheritance, not through the call queue.
_POOL_STATE: dict[str, object] = {}


def _pool_init(state: dict[str, object]) -> None:
    _POOL_STATE.update(state)


def _pool_run_point(
    point: tuple[str, int, Optional[FaultPlan], int, bool, bool],
) -> RunResult:
    planner_name, budget, faults, max_retries, drift, static = point
    return run_task(
        _POOL_STATE["task"],  # type: ignore[arg-type]
        planner_name,
        budget,
        device=_POOL_STATE["device"],  # type: ignore[arg-type]
        max_iterations=_POOL_STATE["max_iterations"],  # type: ignore[arg-type]
        faults=faults,
        max_retries=max_retries,
        drift_detection=drift,
        static_fit=static,
        gap_sizes=_POOL_STATE.get("gap_sizes", 0),  # type: ignore[arg-type]
    )


def parallel_map(
    worker: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    jobs: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
) -> list[_R]:
    """Order-preserving process-pool map with a serial fallback.

    ``worker`` must be a module-level callable and ``items`` picklable.
    Falls back to a plain serial map when ``jobs <= 1``, when there is at
    most one item, or when the platform has no ``fork`` start method (the
    only start method that lets workers inherit non-picklable state from
    an initializer).
    """
    if jobs <= 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [worker(item) for item in items]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        if initializer is not None:
            initializer(*initargs)
        return [worker(item) for item in items]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)),
        mp_context=ctx,
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        return list(pool.map(worker, items))


def sweep(
    task: TaskContext,
    planner_names: Iterable[str],
    budgets: Iterable[int],
    *,
    device: Optional[DeviceModel] = None,
    max_iterations: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    max_retries: int = 3,
    jobs: int = 1,
    drift_detection: bool = False,
    static_fit: bool = False,
    gap_sizes: int = 0,
) -> list[RunResult]:
    """Grid of runs; the baseline (budget-independent) runs once.

    Faults are injected into every non-baseline run with a per-grid-point
    seed (see :func:`derive_fault_seed`); the baseline stays fault-free so
    it remains a clean normalisation reference.

    ``jobs > 1`` executes the grid points in that many worker processes;
    results are byte-identical to a serial sweep and arrive in the same
    order (see module docstring).

    ``drift_detection``/``static_fit`` arm Mimose's lifecycle monitors /
    freeze its initial fit; they apply to the sweep's ``mimose`` points
    only, so mixed-planner sweeps under drift scenarios stay valid.

    ``gap_sizes > 0`` attaches optimality gaps to every grid point's
    result post-run (see :func:`run_task`); digests are unaffected, so
    serial/parallel equivalence holds with gaps on.
    """
    budgets = list(budgets)
    points: list[tuple[str, int, Optional[FaultPlan], int, bool, bool]] = []
    for name in planner_names:
        mimose = name == "mimose"
        drift = drift_detection and mimose
        static = static_fit and mimose
        if name == "baseline":
            points.append((name, budgets[0], None, max_retries, False, False))
            continue
        for budget in budgets:
            points.append(
                (
                    name,
                    budget,
                    _point_faults(faults, task.spec.abbr, name, budget),
                    max_retries,
                    drift,
                    static,
                )
            )
    state = {
        "task": task,
        "device": device,
        "max_iterations": max_iterations,
        "gap_sizes": gap_sizes,
    }
    return parallel_map(
        _pool_run_point,
        points,
        jobs=jobs,
        initializer=_pool_init,
        initargs=(state,),
    )
