"""The simulator's deterministic work, pinned exactly.

Wall-clock on a shared host is too noisy to tell a small slowdown from a
slow phase of the machine, but the work a run does is not: how many
iterations each executor tier served, how many allocations and free-list
operations were made, how many compiled placements were computed, how
many events were emitted and how many unit traces were taken.
``tests/data/work_counters.json`` records these counters for two runs of
the benchmark's kind:

* the reduced Fig 10 grid of ``tests/test_task_scope.py`` — TC-Bert,
  loader seed 11, every planner at two default budgets, 12 iterations,
  serial (``jobs=1``);
* one 300-iteration curriculum-drift Mimose run with drift detection at
  the second default budget.

Each ``run_task`` call (and each task load) is one entry.  Counting
wraps functions and never subscribes to the event bus: a subscriber
would change what ``EventBus.wants`` answers, and with it the emits
being counted.

A change that alters the work regenerates the file with
``tests/data/gen_work_counters.py`` and states the delta and its reason.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from typing import Callable

import pytest

from repro.engine.compiled import CompiledTemplate
from repro.engine.events import EventBus
from repro.engine.strategies import StatsBuilder
from repro.experiments import runner, tasks
from repro.graph.module import ProfileContext
from repro.tensorsim.allocator import FreeList

GOLDEN = pathlib.Path(__file__).parent / "data" / "work_counters.json"

TASK = "TC-Bert"
SEED = 11
GRID_ITERATIONS = 12
DRIFT_ITERATIONS = 300
DRIFT_SCENARIO = "curriculum"


def _counting(counts: Counter, key: str, fn: Callable) -> Callable:
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _run_counters(result, executor) -> dict[str, int]:
    replay, compiled = executor.replay, executor.compiled
    alloc = executor.allocator.stats
    return {
        "iterations": len(result.iterations),
        "replay.hits": replay.hits,
        "replay.misses": replay.misses,
        "replay.bypasses": replay.bypasses,
        "compiled.hits": compiled.hits,
        "compiled.misses": compiled.misses,
        "compiled.certifications": compiled.certifications,
        "compiled.rejects": compiled.rejects,
        "compiled.fallbacks": compiled.fallbacks,
        "plan_cache.hits": result.plan_cache_hits,
        "plan_cache.misses": result.plan_cache_misses,
        "allocator.num_allocs": alloc.num_allocs,
        "allocator.num_frees": alloc.num_frees,
    }


def _load(budget_count: int, **kwargs):
    """A task load as the runs make it: the task and its default budgets."""
    task = tasks.load_task(TASK, seed=SEED, **kwargs)
    return task, task.default_budgets(budget_count)


def collect() -> dict[str, dict[str, int]]:
    """Run both workloads and return every entry's counters."""
    entries: dict[str, dict[str, int]] = {}
    counts: Counter = Counter()
    prefix = ""

    def measure(name: str, fn: Callable, *args, **kwargs):
        before = counts.copy()
        value = fn(*args, **kwargs)
        entry = entries.setdefault(f"{prefix}/{name}", {})
        entry.update(sorted((counts - before).items()))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FreeList, "take", _counting(counts, "freelist.take", FreeList.take))
        mp.setattr(FreeList, "give", _counting(counts, "freelist.give", FreeList.give))
        # calls of the placement core, memo hits not counted
        mp.setattr(
            CompiledTemplate, "_place",
            _counting(counts, "compiled.placements", CompiledTemplate._place),
        )
        mp.setattr(
            ProfileContext, "finish",
            _counting(counts, "unit_traces", ProfileContext.finish),
        )
        # one StatsBuilder.finalize per fully simulated iteration attempt
        mp.setattr(
            StatsBuilder, "finalize",
            _counting(counts, "full_sim_iters", StatsBuilder.finalize),
        )
        emit = EventBus.emit

        def counting_emit(self, event):
            counts[f"emit.{type(event).__name__}"] += 1
            return emit(self, event)

        mp.setattr(EventBus, "emit", counting_emit)

        run_task = runner.run_task

        def counting_run_task(task, planner_name, budget, **kwargs):
            executors: list = []
            kwargs["observers"] = (executors.append, *kwargs.get("observers", ()))
            result = measure(
                f"{planner_name}@{budget}", run_task,
                task, planner_name, budget, **kwargs,
            )
            entries[f"{prefix}/{planner_name}@{budget}"].update(
                _run_counters(result, executors[0])
            )
            return result

        mp.setattr(runner, "run_task", counting_run_task)

        prefix = "fig10"
        task, budgets = measure("load", _load, 2, iterations=GRID_ITERATIONS)
        runner.sweep(task, runner.PLANNER_NAMES, budgets, jobs=1)

        prefix = "drift"
        task, budgets = measure(
            "load", _load, 4, iterations=DRIFT_ITERATIONS,
            drift_scenario=DRIFT_SCENARIO,
        )
        runner.run_task(task, "mimose", budgets[1], drift_detection=True)
    return entries


def test_work_counters_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = collect()
    diffs = []
    for run in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(run), actual.get(run)
        if want is None or got is None:
            diffs.append(f"{run}: run expected={want is not None} got={got is not None}")
            continue
        for counter in sorted(want.keys() | got.keys()):
            a, b = want.get(counter, 0), got.get(counter, 0)
            if a != b:
                diffs.append(f"{run}: {counter}: expected {a}, got {b}")
    assert not diffs, "work counters differ:\n" + "\n".join(diffs)
