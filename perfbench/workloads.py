"""The benchmark's workloads and the passes that run them.

Every workload trains TC-Bert on the GLUE-QQP input stream (collated
lengths 37–332 × 32 rows).  One *pass* is one complete workload as a user
would run it: load the task, derive the budgets, then call
:func:`repro.experiments.runner.run_task` for each run of the workload in
order, serially, in this process.  Pass ``k`` of a benchmark run draws its
inputs from loader seed ``sub_seed(seed, k)``, so a run covers several
independent input streams and its figures average over them.

The simulator's entry points are reached through their modules
(``runner.run_task``, ``tasks.load_task``) so that the tracer's runtime
wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.engine.stats import RunResult
from repro.experiments import runner, tasks

TASK = "TC-Bert"
MB = 1024**2

#: simulated time components; ``planning_time`` is left out because it is
#: host wall-clock the planner charges to the simulated clock
SIMULATED = (
    "fwd_time", "bwd_time", "recompute_time", "collect_time",
    "upkeep_time", "optimizer_time", "swap_stall_time",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name as given to ``--workload``; why each workload
            was chosen is in ``BENCHMARK.json`` and ``README.md``.
        iterations: loader length of every run (part of the definition:
            drift trajectories are stretched over it).
        min_passes: passes the timed phase runs at least; the modelled
            metrics cover exactly these, so they repeat exactly.
        check_prefix: iterations of every run of pass 0 compared against
            a full simulation with the fast paths off.
        drift_scenario: non-stationary input scenario, or None.
        sweep: run the Fig 10 grid (every planner at every default
            budget, the baseline once) instead of one Mimose run at the
            second default budget.
    """

    name: str
    iterations: int
    min_passes: int
    check_prefix: int
    drift_scenario: Optional[str] = None
    sweep: bool = False

    def points(self, budgets: Sequence[int]) -> list[tuple[str, int, dict]]:
        """The (planner, budget, run_task options) of each run, in order."""
        if self.sweep:
            # the grid repro.experiments.runner.sweep builds at CLI defaults
            return [
                (name, budget, {})
                for name in runner.PLANNER_NAMES
                for budget in (budgets[:1] if name == "baseline" else budgets)
            ]
        options = {"drift_detection": True} if self.drift_scenario else {}
        return [("mimose", budgets[1], options)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig10-sweep", iterations=60, min_passes=4, check_prefix=16,
            sweep=True,
        ),
        Workload(
            "drift-stream", iterations=2000, min_passes=5, check_prefix=120,
            drift_scenario="curriculum",
        ),
    )
}


def sub_seed(seed: int, k: int) -> int:
    """Loader seed of pass ``k`` of a benchmark run with ``--seed seed``."""
    return seed * 1000 + k


# ---------------------------------------------------------------------------
# Runs and passes
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """One ``run_task`` call's result plus the executor's public counters."""

    result: RunResult
    counters: dict[str, int]

    def fingerprint(self) -> tuple:
        """What two repetitions of this run must agree on exactly."""
        r = self.result
        return (
            r.digest(),
            r.replay_hits, r.replay_misses,
            r.compiled_hits, r.compiled_misses,
            r.plan_cache_hits, r.plan_cache_misses,
            r.refits, r.drift_events,
            tuple(sorted(self.counters.items())),
        )


def _counters(executor) -> dict[str, int]:
    counters = {}
    if executor.replay is not None:
        counters["replay_bypasses"] = executor.replay.bypasses
        counters["replay_invalidations"] = executor.replay.invalidations
    if executor.compiled is not None:
        compiled = executor.compiled
        counters["compiled_fallbacks"] = compiled.fallbacks
        counters["compiled_certifications"] = compiled.certifications
        counters["compiled_rejects"] = compiled.rejects
    return counters


def load(workload: Workload, loader_seed: int):
    """(task, budgets) for one pass: task load, calibration and bounds."""
    task = tasks.load_task(
        TASK,
        iterations=workload.iterations,
        seed=loader_seed,
        drift_scenario=workload.drift_scenario,
    )
    return task, task.default_budgets()


def run_point(
    task,
    planner: str,
    budget: int,
    options: dict,
    *,
    max_iterations: Optional[int] = None,
    observers: Sequence[Callable] = (),
) -> Run:
    executors: list = []
    result = runner.run_task(
        task,
        planner,
        budget,
        max_iterations=max_iterations,
        observers=(executors.append, *observers),
        **options,
    )
    return Run(result, _counters(executors[0]))


def run_pass(workload: Workload, loader_seed: int) -> list[Run]:
    """One complete workload: every run, in order, on one input stream."""
    task, budgets = load(workload, loader_seed)
    return [
        run_point(task, planner, budget, options)
        for planner, budget, options in workload.points(budgets)
    ]


def full_simulation(executor) -> None:
    """Observer that turns the replay and compiled tiers off.

    Leaves the executor exactly as ``TrainingExecutor(replay=False)``
    builds it, so every iteration runs the full tensor-level simulation.
    """
    executor.replay = None
    executor.compiled = None


# ---------------------------------------------------------------------------
# Modelled metrics
# ---------------------------------------------------------------------------


def modelled(runs: Sequence[Run]) -> dict[str, float]:
    """Workload-level simulated results, without host wall-clock.

    Simulated seconds sum the :data:`SIMULATED` components only, so every
    value here repeats exactly for a given seed.
    """
    iterations = [s for run in runs for s in run.result.iterations]
    attempted = len(iterations)
    oom = sum(1 for s in iterations if s.oom)
    sim_s = sum(getattr(s, field) for s in iterations for field in SIMULATED)
    elements = sum(s.input_size for s in iterations if not s.oom)
    ratios = [
        max(1.0, run.result.peak_reserved / run.result.budget_bytes)
        for run in runs
        if run.result.planner_name != "baseline"
    ]

    def share(field: str) -> float:
        return sum(getattr(s, field) for s in iterations) / sim_s

    return {
        "attempted": attempted,
        "oom_iterations": oom,
        "sim_elems_per_s": elements / sim_s,
        "completed_iter_frac": (attempted - oom) / attempted,
        "peak_over_budget": sum(ratios) / len(ratios),
        "sim.recompute_frac": share("recompute_time"),
        "sim.collect_frac": share("collect_time"),
        "sim.upkeep_frac": share("upkeep_time"),
        "sim.swap_stall_frac": share("swap_stall_time"),
        "sim.evictions": sum(s.evictions for s in iterations),
        "sim.retries": sum(s.retries for s in iterations),
        "sim.frag_mb_max": max(s.fragmentation_bytes for s in iterations) / MB,
        "core.lifecycle.collect_iters": sum(1 for s in iterations if s.is_collect),
        "core.lifecycle.refits": sum(run.result.refits for run in runs),
        "core.lifecycle.drift_events": sum(run.result.drift_events for run in runs),
    }
