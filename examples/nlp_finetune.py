#!/usr/bin/env python3
"""Fine-tuning scenario: watch Mimose's two-phase lifecycle up close.

Simulates fine-tuning RoBERTa-base on a SWAG-like multiple-choice stream
(the paper's MC-Roberta task) and prints an iteration-by-iteration trace:

* the first ~10 iterations run in *sheltered* mode (shuttling collector),
* then the estimator is fitted and the planner turns *responsive* —
  cache misses generate plans in well under a millisecond, cache hits
  are effectively free,
* inputs far larger than anything measured trigger a one-off
  re-collection (the paper's O(n/N) amortised cost).

Usage:
    python examples/nlp_finetune.py [--budget-gb 3.5] [--iterations 60]
"""

from __future__ import annotations

import argparse

from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.experiments.tasks import GB, load_task
from repro.planners.base import ModelView


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-gb", type=float, default=3.5)
    parser.add_argument("--iterations", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    task = load_task("MC-Roberta", iterations=args.iterations, seed=args.seed)
    budget = int(args.budget_gb * GB)
    model = task.model
    planner = MimosePlanner(budget)
    planner.setup(ModelView(model))
    executor = TrainingExecutor(model, planner, capacity_bytes=budget)

    print(
        f"MC-Roberta under {args.budget_gb} GB "
        f"(RoBERTa-base, SWAG-like lengths, batch 16x4 choices)\n"
    )
    header = (
        f"{'iter':>4} {'seqlen':>6} {'mode':>10} {'ckpt':>4} "
        f"{'peak GB':>8} {'plan ms':>8} {'iter ms':>8} {'cache':>6}"
    )
    print(header)
    print("-" * len(header))
    for i, batch in enumerate(task.loader, 1):
        stats = executor.step(batch)
        cache = f"{planner.cache.hit_rate:.0%}" if planner.cache.hits else "-"
        print(
            f"{i:>4} {batch.shape[-1]:>6} {stats.mode:>10} "
            f"{stats.num_checkpointed:>4} {stats.peak_in_use / GB:>8.2f} "
            f"{1e3 * stats.planning_time:>8.3f} "
            f"{1e3 * stats.total_time:>8.1f} {cache:>6}"
        )
        assert not stats.oom, "Mimose must respect the budget"

    print(
        f"\ncollected {planner.collect_count} sheltered iterations, "
        f"fitted the estimator {planner.fit_count} time(s), "
        f"generated {planner.plan_count} plans, "
        f"cache hit rate {planner.cache.hit_rate:.0%}"
    )


if __name__ == "__main__":
    main()
