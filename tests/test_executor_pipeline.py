"""Pipeline-refactor parity and unit tests.

Three layers of protection for the phase-structured executor:

1. **Digest parity** — the full (task, planner, budget, faults) grid in
   ``helpers_digest_grid`` must reproduce the goldens captured from the
   pre-refactor executor (``tests/data/digest_parity.json``) bit for bit,
   serially and under the parallel sweep runner.
2. **Event bus** — subscription-order dispatch, typed filtering,
   unsubscribe semantics and the ``wants()`` hot-path guard.
3. **Strategy dispatch** — mode → strategy registry behaviour, per-call
   instance freshness, the per-pass verdict that keeps a pass out of the
   replay cache, and the replay veto the executor's bypass ladder reads.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.engine.events import (
    EventBus,
    EventCounter,
    IterationStart,
    OomHit,
    TimeCharged,
)
from repro.engine import executor as executor_mod
from repro.engine.executor import TrainingExecutor
from repro.engine.stats import RunResult
from repro.engine.strategies import (
    _STRATEGIES,
    CollectStrategy,
    ExecutionStrategy,
    NormalStrategy,
    ReactiveStrategy,
    register_strategy,
    strategy_for,
)
from repro.experiments.runner import run_task, sweep
from repro.experiments.tasks import GB, load_task
from repro.models.base import BatchInput
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ExecutionMode,
    ModelView,
    PlanDecision,
)
from repro.planners.dtr import DTRPlanner
from repro.tensorsim.dtypes import FLOAT32
from repro.tensorsim.faults import FaultPlan

from tests.helpers import MB, make_tiny_model
from tests.helpers_digest_grid import digest_grid, run_grid_point_result

_DATA = pathlib.Path(__file__).parent / "data"
GOLDENS = json.loads((_DATA / "digest_parity.json").read_text())
STREAM_GOLDENS = json.loads((_DATA / "digest_parity_stream.json").read_text())


# ---------------------------------------------------------------- digest grid


@pytest.mark.parametrize(
    "point", digest_grid(), ids=lambda p: "|".join(str(x) for x in p)
)
def test_digest_matches_seed_golden(point):
    key = "|".join(str(p) for p in point)
    assert key in GOLDENS, f"no golden for {key}; regenerate goldens"
    result = run_grid_point_result(point)
    if result.digest() == GOLDENS[key]:
        return
    # Diverged: use the rolling (per-iteration prefix) digests to name
    # the first iteration whose simulated behaviour changed.
    rolling = result.rolling_digests()
    golden_stream = STREAM_GOLDENS.get(key, [])
    first = next(
        (
            i
            for i, (got, want) in enumerate(zip(rolling, golden_stream))
            if got != want
        ),
        min(len(rolling), len(golden_stream)),
    )
    pytest.fail(
        f"digest mismatch for {key}: first divergent iteration is {first} "
        f"(ran {len(rolling)} iterations, golden has {len(golden_stream)})"
    )


def test_rolling_digests_prefix_run_digest():
    """The last rolling digest IS the run digest; entries are prefixes."""
    result = run_grid_point_result(("TC-Bert", "mimose", 4.0, 12, ""))
    rolling = result.rolling_digests()
    assert len(rolling) == result.num_iterations
    assert rolling[-1] == result.digest()
    truncated = RunResult(
        result.task_name, result.planner_name, result.budget_bytes,
        iterations=result.iterations[:5],
    )
    assert truncated.digest() == rolling[4]
    assert RunResult("t", "p", 1).rolling_digests() == ()


def test_digest_parity_serial_vs_parallel():
    """jobs=N must reproduce the serial digests, in the same order."""
    task = load_task("TC-Bert", iterations=12, seed=0)
    faults = FaultPlan.parse("frag:start=6,iters=2,bytes=512M", seed=3)
    kwargs = dict(
        planner_names=("baseline", "mimose", "dtr"),
        budgets=(int(4.0 * GB),),
        max_iterations=12,
        faults=faults,
    )
    serial = sweep(task, jobs=1, **kwargs)
    parallel = sweep(task, jobs=3, **kwargs)
    assert [r.digest() for r in serial] == [r.digest() for r in parallel]


def test_observers_do_not_perturb_digest():
    """The bus is observe-only: attaching subscribers changes nothing,
    and neither does a bus with none, even the engine's own."""
    task = load_task("TC-Bert", iterations=10, seed=0)
    plain = run_task(task, "mimose", int(4 * GB), max_iterations=10)
    task = load_task("TC-Bert", iterations=10, seed=0)
    counter = EventCounter()
    observed = run_task(
        task,
        "mimose",
        int(4 * GB),
        max_iterations=10,
        observers=[lambda ex: counter.attach(ex.events)],
    )
    assert plain.digest() == observed.digest()
    assert counter.counts["IterationStart"] == 10
    assert counter.counts["IterationEnd"] == 10

    # Fault windows, refits and drift: swapping the executor's bus for an
    # empty one must leave a faulted, drifting Mimose run as it was.
    def drifting_run(observers=()):
        return run_task(
            load_task("TC-Bert", iterations=40, seed=0,
                      drift_scenario="curriculum"),
            "mimose",
            int(3 * GB),
            max_iterations=40,
            faults=FaultPlan.parse("frag:start=12,iters=3,bytes=800M"),
            drift_detection=True,
            observers=observers,
        )

    def detach(executor):
        executor.events = EventBus()

    plain = drifting_run()
    assert plain.refits and plain.drift_events and plain.total_retries
    bare = drifting_run(observers=[detach])
    assert bare.digest() == plain.digest()
    assert (bare.refits, bare.drift_events) == (
        plain.refits, plain.drift_events
    )


# ------------------------------------------------------------------ event bus


def _start(i=0):
    return IterationStart(iteration=i, mode="normal", plan_label="p", input_size=1)


def test_subscribers_called_in_subscription_order():
    bus = EventBus()
    calls = []
    bus.subscribe(lambda e: calls.append("a"))
    bus.subscribe(lambda e: calls.append("b"), IterationStart)
    bus.subscribe(lambda e: calls.append("c"))
    bus.emit(_start())
    assert calls == ["a", "b", "c"]


def test_typed_subscription_filters_other_events():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append, IterationStart, OomHit)
    bus.emit(TimeCharged(component="fwd", seconds=1.0))
    bus.emit(_start(3))
    bus.emit(OomHit(iteration=3, time=0.5))
    assert [type(e).__name__ for e in seen] == ["IterationStart", "OomHit"]


def test_unsubscribe_mid_stream_and_stale_token():
    bus = EventBus()
    calls = []
    tok_a = bus.subscribe(lambda e: calls.append("a"))
    bus.subscribe(lambda e: calls.append("b"))
    bus.emit(_start())
    bus.unsubscribe(tok_a)
    bus.emit(_start())
    bus.unsubscribe(tok_a)  # stale token: no-op, no raise
    bus.emit(_start())
    assert calls == ["a", "b", "b", "b"]
    assert len(bus) == 1


def test_resubscription_moves_handler_to_tail():
    bus = EventBus()
    calls = []

    def a(e):
        calls.append("a")

    tok = bus.subscribe(a)
    bus.subscribe(lambda e: calls.append("b"))
    bus.unsubscribe(tok)
    bus.subscribe(a)  # re-subscribing appends, it does not restore rank
    bus.emit(_start())
    assert calls == ["b", "a"]


def test_wants_reflects_subscriptions():
    bus = EventBus()
    assert not bus.wants(IterationStart)
    tok = bus.subscribe(lambda e: None, IterationStart)
    assert bus.wants(IterationStart)
    assert not bus.wants(OomHit)
    bus.unsubscribe(tok)
    assert not bus.wants(IterationStart)
    # a wildcard subscriber wants everything
    bus.subscribe(lambda e: None)
    assert bus.wants(OomHit)


def test_dispatch_cache_invalidated_by_subscribe():
    bus = EventBus()
    calls = []
    bus.subscribe(lambda e: calls.append("a"), IterationStart)
    bus.emit(_start())  # primes the per-type handler cache
    bus.subscribe(lambda e: calls.append("b"), IterationStart)
    bus.emit(_start())
    assert calls == ["a", "a", "b"]


# ---------------------------------------------------------- strategy dispatch


def _decision(mode):
    return PlanDecision(CheckpointPlan(ActionAssignment(), "t"), mode=mode)


@pytest.mark.parametrize(
    "mode,cls",
    [
        (ExecutionMode.NORMAL, NormalStrategy),
        (ExecutionMode.COLLECT, CollectStrategy),
        (ExecutionMode.REACTIVE, ReactiveStrategy),
    ],
)
def test_strategy_for_maps_modes(mode, cls):
    strategy = strategy_for(_decision(mode))
    assert type(strategy) is cls
    assert strategy.mode is mode


def test_strategy_for_returns_fresh_instances():
    d = _decision(ExecutionMode.REACTIVE)
    assert strategy_for(d) is not strategy_for(d)


def test_history_dependent_is_a_per_pass_verdict(monkeypatch):
    """Every pass starts world-determined; a reactive pass turns
    history-dependent only when it asks the planner for a victim, and
    only such a pass is kept out of the replay cache."""
    for mode in ExecutionMode:
        assert not strategy_for(_decision(mode)).history_dependent
    passes: list[ExecutionStrategy] = []

    def recording_strategy_for(decision):
        passes.append(strategy_for(decision))
        return passes[-1]

    monkeypatch.setattr(executor_mod, "strategy_for", recording_strategy_for)
    model = make_tiny_model(num_units=8, features=512)
    budget = model.static_memory().total + 24 * MB
    planner = DTRPlanner(budget)
    planner.setup(ModelView(model))
    executor = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    large, small = (BatchInput((n, 512), FLOAT32) for n in (1024, 64))
    executor.step(large)  # reserves the segments every later pass reuses
    for batch, evicts in ((large, True), (small, False)):
        start = executor.allocator.state_signature()
        records = len(executor.replay)
        stats = executor.step(batch)
        assert executor.allocator.state_signature() == start  # steady
        assert (stats.evictions > 0) is evicts
        assert passes[-1].history_dependent is evicts
        assert len(executor.replay) == records + (not evicts)
    executor.step(small)
    assert executor.replay.hits == 1  # the recorded world replays
    assert passes[-1].peak_limit(executor) == budget
    assert NormalStrategy().peak_limit(executor) is None
    assert CollectStrategy().peak_limit(executor) is None


def test_register_strategy_extends_registry():
    class ShadowStrategy(NormalStrategy):
        pass

    original = _STRATEGIES[ExecutionMode.NORMAL]
    try:
        register_strategy(ShadowStrategy)
        assert type(strategy_for(_decision(ExecutionMode.NORMAL))) is ShadowStrategy
    finally:
        _STRATEGIES[ExecutionMode.NORMAL] = original
    assert type(strategy_for(_decision(ExecutionMode.NORMAL))) is NormalStrategy


def test_strategy_base_is_abstract_over_phases():
    ctx = object()
    base = ExecutionStrategy()
    with pytest.raises(NotImplementedError):
        base.run_forward(ctx)
    with pytest.raises(NotImplementedError):
        base.run_backward(ctx)
