#!/usr/bin/env python3
"""Extending Mimose: plug in a custom checkpoint scheduler.

§IV-D: "Mimose still reserves a flexible interface for users to
experiment with other scheduling algorithms".  This example implements a
deliberately naive latest-first scheduler (the opposite of Algorithm 1's
earliest-timestamp preference), runs it head-to-head against the paper's
greedy scheduler and the knapsack alternative, and shows why the paper
prefers early layers: checkpointing late layers barely lowers the peak
(Fig 9), so latest-first needs a larger reserve to stay OOM-free.

Usage:
    python examples/custom_scheduler.py [--iterations 80]
"""

from __future__ import annotations

import argparse

from repro.core.planner import MimosePlanner
from repro.engine.events import OomHit, TimeCharged
from repro.engine.executor import TrainingExecutor
from repro.experiments.report import render_table
from repro.experiments.tasks import GB, load_task
from repro.planners.base import ModelView
from repro.solvers import GreedyScheduler, KnapsackScheduler, Solver, SolverInput


class SchedulerScorecard:
    """Event-bus observer: recompute seconds and OOM hits per run.

    Subscribes to the typed event stream instead of re-deriving the
    numbers from per-iteration stats — the pattern any custom metric
    should follow (see docs/architecture.md).
    """

    def __init__(self) -> None:
        self.recompute_s = 0.0
        self.oom_hits = 0

    def attach(self, bus) -> "SchedulerScorecard":
        bus.subscribe(self, TimeCharged, OomHit)
        return self

    def __call__(self, event) -> None:
        if isinstance(event, OomHit):
            self.oom_hits += 1
        elif event.component == "recompute":
            self.recompute_s += event.seconds


class LatestFirstScheduler(Solver):
    """Checkpoint the *latest* (largest-timestamp) units first.

    A deliberately bad policy: late units' recomputes happen at the start
    of backward, while every earlier activation is still resident, so
    the realised peak stays high (Fig 9's pathology).
    """

    name = "latest-first"

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        if inp.excess_bytes <= 0:
            return frozenset()
        by_latest = sorted(inp.est_bytes, key=lambda u: -inp.order[u])
        chosen: list[str] = []
        remaining = inp.excess_bytes
        for unit in by_latest:
            if remaining <= 0:
                break
            chosen.append(unit)
            remaining -= inp.est_bytes[unit]
        return frozenset(chosen)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=80)
    parser.add_argument("--budget-gb", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    budget = int(args.budget_gb * GB)
    rows = []
    for scheduler in (GreedyScheduler(), KnapsackScheduler(), LatestFirstScheduler()):
        task = load_task("TC-Bert", iterations=args.iterations, seed=args.seed)
        model = task.model
        planner = MimosePlanner(budget, scheduler=scheduler)
        planner.setup(ModelView(model))
        # replay=False: execution events are emitted by *simulated*
        # iterations only, and this scorecard wants to see every one
        # (a replayed iteration emits just ReplayHit/IterationEnd).
        executor = TrainingExecutor(
            model, planner, capacity_bytes=budget, replay=False
        )
        card = SchedulerScorecard().attach(executor.events)
        total = 0.0
        peak = 0
        ooms = 0
        for batch in task.loader:
            stats = executor.step(batch)
            total += stats.total_time
            peak = max(peak, stats.peak_in_use)
            ooms += stats.oom
        rows.append(
            {
                "scheduler": scheduler.name,
                "total_time_s": total,
                "recompute_s": card.recompute_s,
                "peak_gb": peak / GB,
                "final_headroom_gb": planner.headroom_bytes / GB,
                "oom_iterations": ooms,
                "oom_hits": card.oom_hits,
            }
        )
    print(
        render_table(
            rows,
            title=f"TC-Bert @ {args.budget_gb} GB: pluggable schedulers "
            f"({args.iterations} iterations)",
        )
    )
    greedy_peak = rows[0]["peak_gb"]
    latest_peak = rows[-1]["peak_gb"]
    print(
        f"\nlatest-first realises a higher peak ({latest_peak:.2f} GB vs "
        f"{greedy_peak:.2f} GB for\nAlgorithm 1) for the same amount of "
        "recomputation: late units rematerialise\nwhile everything earlier "
        "is still resident (Fig 9), eating into the reserve —\nexactly why "
        "Algorithm 1 prefers the earliest timestamps within a bucket."
    )
    assert latest_peak > greedy_peak


if __name__ == "__main__":
    main()
