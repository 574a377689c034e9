"""Command-line interface: ``python -m repro <command>``.

Commands:
    list                 show tasks, planners, solvers, models, datasets
    run                  run one (task, planner, budget) combination
    sweep                Fig 10-style sweep for one task
    table {1,3,4,5}      regenerate a paper table
    bounds               print per-task memory bounds and default budgets
    gaps                 per-solver optimality gaps vs the exact solver
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.stats import format_gaps
from repro.experiments.report import render_table
from repro.experiments.runner import (
    PLANNER_NAMES,
    SOLVER_NAMES,
    make_planner,
    run_task,
    sweep,
)
from repro.data.datasets import DRIFT_SCENARIOS
from repro.experiments.tasks import GB, TASKS, load_task
from repro.solvers import solver_class
from repro.tensorsim.faults import FaultPlan


def _parse_faults(args: argparse.Namespace) -> FaultPlan | None:
    if not args.faults:
        return None
    try:
        return FaultPlan.parse(args.faults, seed=args.fault_seed)
    except ValueError as exc:
        raise SystemExit(f"error: invalid --faults spec: {exc}") from exc


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default="",
        metavar="SPEC",
        help=(
            "fault-injection spec, ';'-separated clauses: "
            "'frag:start=20,iters=3,bytes=512M' (fragmentation spike), "
            "'alloc:start=30,count=2,min=1M' (transient alloc failures), "
            "'noise:sigma=0.05,bias=-0.1' (measurement noise)"
        ),
    )
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=3,
        help="OOM recovery retry budget per iteration (0 disables recovery)",
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.data.datasets import available_datasets
    from repro.models.registry import available_models

    print("tasks:    ", ", ".join(sorted(TASKS)))
    print("planners: ", ", ".join(PLANNER_NAMES))
    print("solvers:  ", ", ".join(SOLVER_NAMES))
    print("models:   ", ", ".join(available_models()))
    print("datasets: ", ", ".join(available_datasets()))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    rows = []
    for abbr in sorted(TASKS):
        task = load_task(abbr, iterations=2, calibration_samples=50)
        lb, ub = task.memory_bounds()
        rows.append(
            {
                "task": abbr,
                "model": task.spec.model,
                "batch": task.spec.batch_size,
                "lower_gb": lb / GB,
                "upper_gb": ub / GB,
                "default_budgets_gb": ", ".join(
                    f"{b / GB:.2f}" for b in task.default_budgets()
                ),
            }
        )
    print(render_table(rows, title="memory bounds (worst-case input)"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    task = load_task(
        args.task,
        iterations=args.iterations,
        seed=args.seed,
        drift_scenario=args.drift_scenario,
    )
    budget = int(args.budget_gb * GB)
    faults = _parse_faults(args)
    # A drift scenario arms mimose's lifecycle monitors unless the run is
    # the frozen-fit ablation comparator.
    drift_detection = (
        args.drift_scenario is not None
        and args.planner == "mimose"
        and not args.static_fit
    )
    # Both runs are capped at the same iteration count so normalized_time
    # compares runs of equal length; the baseline stays fault-free as the
    # normalisation reference.
    counter = None
    observers: list = []
    if args.trace:
        from repro.engine.events import EventCounter

        counter = EventCounter()
        observers.append(lambda ex: counter.attach(ex.events))
    solver = args.solver if args.solver != "greedy" else None
    try:
        # make_planner holds every run-option check; building the planner
        # up front rejects a bad flag before the baseline run.
        make_planner(
            args.planner,
            budget,
            task,
            solver=solver,
            bwd_ratio=args.bwd_ratio,
            drift_detection=drift_detection,
            static_fit=args.static_fit,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    # Capture the executor so the report can say which pricing branch the
    # solver's cost model actually used (observers never alter simulation).
    executor_box: list = []
    if solver is not None and solver_class(solver).prices_actions:
        observers.append(executor_box.append)
    is_baseline_run = args.planner == "baseline" and faults is None
    baseline = run_task(
        task,
        "baseline",
        budget,
        max_iterations=args.iterations,
        observers=observers if is_baseline_run else (),
    )
    result = (
        baseline
        if is_baseline_run
        else run_task(
            task,
            args.planner,
            budget,
            max_iterations=args.iterations,
            faults=faults,
            max_retries=args.max_retries,
            observers=observers,
            solver=solver,
            bwd_ratio=args.bwd_ratio,
            drift_detection=drift_detection,
            static_fit=args.static_fit,
            gap_sizes=args.gap_sizes,
        )
    )
    breakdown = result.time_breakdown()
    rows = [
        {
            "planner": args.planner,
            "iterations": result.num_iterations,
            "normalized_time": result.normalized_time(baseline),
            "mean_iter_ms": 1e3 * result.mean_iteration_time(),
            "peak_used_gb": result.peak_in_use / GB,
            "peak_reserved_gb": result.peak_reserved / GB,
            "recompute_s": breakdown["recompute_time"],
            "overhead_frac": result.overhead_fraction(),
            "oom_iterations": result.oom_count,
            "retries": result.total_retries,
            "recovered": result.recovered_count,
            "plan_cache": f"{result.plan_cache_hit_rate:.0%}",
            "replay": f"{result.replay_hit_rate:.0%}",
            "compiled": f"{result.compiled_hit_rate:.0%}",
            "refits": result.refits,
            "drift_events": result.drift_events,
        }
    ]
    if args.gap_sizes:
        rows[0]["optimality_gap"] = format_gaps(result.optimality_gaps)
    title = f"{args.task} @ {args.budget_gb:.2f} GB ({args.iterations} iterations)"
    if args.drift_scenario is not None:
        title += f" [drift: {args.drift_scenario}]"
    if faults is not None:
        title += f" [faults: {faults.describe()}]"
    print(render_table(rows, title=title))
    if result.recovered_count:
        modes = ", ".join(
            f"{mode} x{count}"
            for mode, count in sorted(result.recovery_modes().items())
        )
        print(f"recovery: {modes}")
    if executor_box:
        planner = executor_box[0].planner
        model = planner.scheduler.cost_model
        sizes = {s.input_size for s in result.iterations if not s.is_collect}
        modes = sorted(
            {
                model.pricing_mode(planner.scheduler_input(size))
                for size in sizes
            }
        )
        if modes:
            print(f"swap pricing: {', '.join(modes)}")
    if counter is not None:
        print("events:")
        for name, count in sorted(counter.counts.items()):
            print(f"  {name:<18} {count}")
    return 0 if result.succeeded else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    task = load_task(
        args.task,
        iterations=args.iterations,
        seed=args.seed,
        drift_scenario=args.drift_scenario,
    )
    budgets = task.default_budgets(args.points)
    planners = args.planners.split(",") if args.planners else list(PLANNER_NAMES)
    faults = _parse_faults(args)
    results = sweep(
        task,
        planners,
        budgets,
        faults=faults,
        max_retries=args.max_retries,
        jobs=args.jobs,
        drift_detection=args.drift_scenario is not None,
        gap_sizes=args.gap_sizes,
    )
    baseline = next(r for r in results if r.planner_name == "baseline")
    rows = []
    for r in results:
        row: dict[str, object] = {
            "planner": r.planner_name,
            "budget_gb": r.budget_bytes / GB,
            "normalized_time": r.normalized_time(baseline),
            "peak_reserved_gb": r.peak_reserved / GB,
            "oom": r.oom_count,
            "retries": r.total_retries,
            "recovered": r.recovered_count,
            "refits": r.refits,
            "drift_events": r.drift_events,
        }
        if args.gap_sizes:
            row["optimality_gap"] = format_gaps(r.optimality_gaps)
        rows.append(row)
    title = f"{args.task} sweep"
    if args.drift_scenario is not None:
        title += f" [drift: {args.drift_scenario}]"
    if faults is not None:
        title += f" [faults: {faults.describe()}]"
    print(render_table(rows, title=title))
    return 0


def _cmd_gaps(args: argparse.Namespace) -> int:
    """Optimality-gap table over every registered solver (CI smoke gate).

    Exit 1 if the exact solver reports a nonzero gap against itself —
    the invariant the optimality harness is built on.
    """
    from repro.experiments.optimality import fitted_inputs, gap_report

    inputs = fitted_inputs(args.task, num_sizes=args.sizes, seed=args.seed)
    try:
        report = gap_report(SOLVER_NAMES, inputs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sizes = [size for size, _ in inputs]
    rows = [
        {
            "solver": name,
            "optimality_gap": format_gaps(report[name]),
            "cells": len(report[name]),
        }
        for name in SOLVER_NAMES
    ]
    title = f"optimality gaps vs exact: {args.task} @ sizes {sizes}"
    print(render_table(rows, title=title))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import tables

    if args.number == 1:
        print(
            render_table(
                tables.table1_rows(with_gaps=args.gaps), title="Table I"
            )
        )
    elif args.number == 3:
        print(render_table(tables.table3_rows(iterations=args.iterations), title="Table III"))
    elif args.number == 4:
        print(render_table(tables.table4_rows(), title="Table IV"))
    elif args.number == 5:
        print(render_table(tables.table5_rows(), title="Table V"))
    else:
        print(f"no generator for table {args.number}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Mimose reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list tasks/planners/models").set_defaults(
        func=_cmd_list
    )
    sub.add_parser(
        "bounds", help="per-task memory bounds and default budgets"
    ).set_defaults(func=_cmd_bounds)

    run_p = sub.add_parser("run", help="run one task x planner x budget")
    run_p.add_argument("--task", choices=sorted(TASKS), required=True)
    run_p.add_argument("--planner", choices=PLANNER_NAMES, default="mimose")
    run_p.add_argument("--budget-gb", type=float, required=True)
    run_p.add_argument(
        "--solver",
        choices=SOLVER_NAMES,
        default="greedy",
        help=(
            "registered solver for mimose's excess-covering step "
            "('hybrid' mixes per-unit RECOMPUTE/SWAP via the PCIe cost "
            "model, 'exact' is the branch-and-bound optimum, 'lp' the "
            "relaxation-rounding sweep; mimose only)"
        ),
    )
    run_p.add_argument(
        "--bwd-ratio",
        type=float,
        default=None,
        metavar="R",
        help=(
            "force the solver's cost model to price the swap overlap "
            "window as R x mean forward time instead of measured backward "
            "times (explicit override; requires an action-pricing solver, "
            "e.g. --solver hybrid)"
        ),
    )
    run_p.add_argument(
        "--gap-sizes",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help=(
            "after the run, report the solver's optimality gap vs the "
            "exact solver at N of the run's input sizes (0 disables)"
        ),
    )
    run_p.add_argument("--iterations", type=int, default=60)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--trace",
        action="store_true",
        help="attach an event-bus counter and print per-event totals",
    )
    run_p.add_argument(
        "--drift-scenario",
        choices=DRIFT_SCENARIOS,
        default=None,
        help=(
            "make the task's input-size distribution non-stationary and "
            "arm mimose's lifecycle drift monitors (online replanning)"
        ),
    )
    run_p.add_argument(
        "--static-fit",
        action="store_true",
        help=(
            "freeze mimose's initial fit (no re-collection, no refits) — "
            "the drift-ablation comparator (mimose only)"
        ),
    )
    _add_fault_options(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="Fig 10-style budget sweep")
    sweep_p.add_argument("--task", choices=sorted(TASKS), required=True)
    sweep_p.add_argument("--planners", default="")
    sweep_p.add_argument("--points", type=int, default=4)
    sweep_p.add_argument("--iterations", type=int, default=60)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the grid (results are byte-identical "
            "to --jobs 1, in the same order)"
        ),
    )
    sweep_p.add_argument(
        "--drift-scenario",
        choices=DRIFT_SCENARIOS,
        default=None,
        help=(
            "make the task's input-size distribution non-stationary; "
            "arms drift monitors on the sweep's mimose points"
        ),
    )
    sweep_p.add_argument(
        "--gap-sizes",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help=(
            "attach per-grid-point optimality gaps vs the exact solver "
            "at N input sizes (0 disables)"
        ),
    )
    _add_fault_options(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    table_p = sub.add_parser("table", help="regenerate a paper table")
    table_p.add_argument("number", type=int, choices=(1, 3, 4, 5))
    table_p.add_argument("--iterations", type=int, default=120)
    table_p.add_argument(
        "--gaps",
        action="store_true",
        help=(
            "fill Table I's optimality_gap column from a fitted mini-run "
            "(table 1 only; costs a short TC-Bert fit)"
        ),
    )
    table_p.set_defaults(func=_cmd_table)

    gaps_p = sub.add_parser(
        "gaps",
        help="per-solver optimality gaps vs the exact solver (CI gate)",
    )
    gaps_p.add_argument("--task", choices=sorted(TASKS), default="TC-Bert")
    gaps_p.add_argument("--sizes", type=int, default=3)
    gaps_p.add_argument("--seed", type=int, default=0)
    gaps_p.set_defaults(func=_cmd_gaps)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
