#!/usr/bin/env python3
"""Online replanning under input-distribution drift.

The paper's premise is that input tensors are dynamic *within* a
workload; this example pushes one step further — the input
*distribution itself* shifts mid-run (a curriculum ramp, a regime
switch, rotating shape buckets).  A model fitted on the warm-up window
then extrapolates, and its plans under-reserve.

The lifecycle controller (`repro.core.lifecycle`) handles this
online: Page–Hinkley / CUSUM monitors watch the residual and
input-size streams, and on drift the controller evicts the stale half
of the collection window, re-collects, refits and clears the plan
cache.  This script subscribes to the lifecycle events on the
executor's bus and prints the resulting timeline: every state
transition, every monitor firing, every (re)fit.

Usage:
    python examples/drift_replanning.py [--scenario regime-switch]
"""

from __future__ import annotations

import argparse

from repro.core.planner import MimosePlanner
from repro.engine.events import (
    DriftDetected,
    EstimatorRefit,
    LifecycleTransition,
)
from repro.engine.executor import TrainingExecutor
from repro.experiments.tasks import GB, load_task
from repro.planners.base import ModelView


class LifecycleLog:
    """Event-bus observer: narrate the lifecycle as the run unfolds.

    The planner drives the controller directly, from ``observe``; the
    controller publishes its transitions, drift firings and refits on
    the executor's bus.  Listening to those outbound events is the
    supported way to track replanning without touching planner
    internals (see docs/architecture.md).
    """

    def __init__(self) -> None:
        self.transitions = 0
        self.drifts = 0
        self.refits = 0

    def attach(self, bus) -> "LifecycleLog":
        bus.subscribe(self, LifecycleTransition, DriftDetected, EstimatorRefit)
        return self

    def __call__(self, event) -> None:
        if isinstance(event, LifecycleTransition):
            self.transitions += 1
            print(
                f"  iter {event.iteration:>3}  {event.previous:>10} -> "
                f"{event.current:<10} ({event.reason})"
            )
        elif isinstance(event, DriftDetected):
            self.drifts += 1
            print(
                f"  iter {event.iteration:>3}  DRIFT via {event.monitor} "
                f"(statistic {event.statistic:.3f} > "
                f"threshold {event.threshold:.3f})"
            )
        else:
            self.refits += 1
            kind = "initial" if event.fit_count == 1 else "refit"
            print(
                f"  iter {event.iteration:>3}  fit #{event.fit_count} on "
                f"{event.window_iterations}-iteration window ({kind})"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        default="regime-switch",
        choices=("regime-switch", "curriculum", "bucket-rotation"),
    )
    parser.add_argument("--iterations", type=int, default=60)
    parser.add_argument("--budget-gb", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    budget = int(args.budget_gb * GB)
    task = load_task(
        "TC-Bert",
        iterations=args.iterations,
        seed=args.seed,
        drift_scenario=args.scenario,
    )
    model = task.model
    planner = MimosePlanner(budget, drift_detection=True)
    planner.setup(ModelView(model))
    executor = TrainingExecutor(model, planner, capacity_bytes=budget)
    log = LifecycleLog().attach(executor.events)

    print(
        f"TC-Bert @ {args.budget_gb} GB, scenario={args.scenario}, "
        f"{args.iterations} iterations\n"
    )
    peak = 0
    ooms = 0
    for batch in task.loader:
        stats = executor.step(batch)
        peak = max(peak, stats.peak_in_use)
        ooms += stats.oom

    print(
        f"\n{log.transitions} transitions, {log.drifts} drift detections, "
        f"{log.refits} fits ({log.refits - 1} online refits); "
        f"peak {peak / GB:.2f} GB, {ooms} OOM iterations."
    )
    print(
        "Each refit retrained the estimator on a re-collected window and\n"
        "cleared the plan cache — plans after the shift come from a model\n"
        "fitted on the *new* distribution, not extrapolated from the old\n"
        "one.  Compare `--static-fit` on the CLI, which freezes the\n"
        "warm-up fit and OOMs under the same shift."
    )
    assert log.refits >= 2, "expected at least one online refit under drift"


if __name__ == "__main__":
    main()
