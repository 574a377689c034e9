"""Tests for the hot-path machinery: iteration replay cache, vectorized
estimator, parallel sweeps, and their equivalence guarantees.

The contract under test everywhere: the fast paths are *pure*
optimisations.  Replayed iterations and parallel sweeps must be
bit-identical to full simulation (``RunResult.digest`` excludes only the
genuinely wall-clock ``planning_time``), and the never-replay rules
(evicting REACTIVE passes, fault windows) must hold unconditionally.
"""

import numpy as np
import pytest

from repro.core.estimator import LightningMemoryEstimator
from repro.core.estimators import DecisionTreeRegressor
from repro.engine.executor import TrainingExecutor
from repro.engine.stats import IterationStats, RunResult, summarize_runs
from repro.engine.trace import MemoryTimeline
from repro.experiments.runner import (
    derive_fault_seed,
    make_planner,
    parallel_map,
    run_task,
    sweep,
)
from repro.experiments.tasks import GB, load_task
from repro.tensorsim.faults import FaultPlan


def _run(task, planner_name, budget, *, replay, timeline=None, faults=None,
         max_retries=3):
    model = task.model
    planner = make_planner(planner_name, budget, task)
    executor = TrainingExecutor(
        model,
        planner,
        capacity_bytes=(
            budget
            if not planner.requires_physical_capacity
            else 32 * GB
        ),
        replay=replay,
        faults=faults,
        max_recovery_retries=max_retries,
    )
    if timeline is not None:
        timeline.attach(executor.events)
    result = RunResult(task.spec.abbr, planner_name, budget)
    for batch in task.loader:
        result.append(executor.step(batch))
    return result, executor


# ------------------------------------------------------------ replay cache


@pytest.mark.parametrize("task_abbr,planner_name,budget_gb", [
    ("TC-Bert", "mimose", 4.0),
    ("TC-Bert", "mimose", 6.0),
    ("QA-Bert", "mimose", 5.0),
    ("TC-Bert", "sublinear", 4.0),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_replay_equivalence(task_abbr, planner_name, budget_gb, seed):
    """Replay on/off produce identical stats (planning_time excluded)."""
    task = load_task(task_abbr, iterations=40, seed=seed)
    budget = int(budget_gb * GB)
    full, _ = _run(task, planner_name, budget, replay=False)
    replayed, executor = _run(task, planner_name, budget, replay=True)
    assert replayed.digest() == full.digest()
    assert executor.replay is not None
    # per-iteration spot checks beyond the digest
    for a, b in zip(full.iterations, replayed.iterations):
        assert a.peak_in_use == b.peak_in_use
        assert a.total_time - a.planning_time == pytest.approx(
            b.total_time - b.planning_time
        )


def test_timeline_samples_the_simulated_iterations():
    """A timeline is an ordinary observer: it samples the iterations the
    executor simulates, and those samples are full simulation's."""
    task = load_task("TC-Bert", iterations=40, seed=0)
    budget = 4 * GB
    tl_full, tl_served = MemoryTimeline(), MemoryTimeline()
    _run(task, "mimose", budget, replay=False, timeline=tl_full)
    _, executor = _run(task, "mimose", budget, replay=True, timeline=tl_served)
    served = executor.replay.hits + executor.compiled.hits
    assert executor.replay.hits > 0 and executor.compiled.hits > 0
    assert {p.iteration for p in tl_full.points} == set(range(1, 41))
    sampled = {p.iteration for p in tl_served.points}
    assert len(sampled) == 40 - served

    # absolute times accumulate wall-clock planning_time and are not
    # comparable between runs; everything else must match exactly
    def shape(tl, iterations):
        return [
            (p.iteration, p.phase, p.bytes_in_use, p.bytes_reserved)
            for p in tl.points
            if p.iteration in iterations
        ]

    assert shape(tl_served, sampled) == shape(tl_full, sampled)


def test_replay_gets_hits_on_recurring_shapes():
    """A cycled shape bucket converges to a high replay hit rate."""
    task = load_task("TC-Bert", iterations=6, seed=0)
    stream = [b for b in task.loader] * 20
    model = task.model
    planner = make_planner("mimose", 5 * GB, task)
    executor = TrainingExecutor(model, planner, capacity_bytes=5 * GB)
    for batch in stream:
        executor.step(batch)
    assert executor.replay.hit_rate > 0.5


def test_eviction_free_reactive_run_is_served():
    """A DTR run that never evicts depends only on its worlds: both fast
    paths serve it, and it equals a run with both tiers off."""
    task = load_task("TC-Bert", iterations=8, seed=0)
    stream = [b for b in task.loader] * 5

    def run(replay):
        model = task.model
        planner = make_planner("dtr", 5 * GB, task)
        executor = TrainingExecutor(
            model, planner, capacity_bytes=32 * GB, replay=replay
        )
        result = RunResult(task.spec.abbr, "dtr", 5 * GB)
        for batch in stream:
            result.append(executor.step(batch))
        return result, executor

    served, executor = run(replay=True)
    full, _ = run(replay=False)
    assert not any(s.evictions for s in served.iterations)
    assert executor.replay.hits > 0 and executor.compiled.hits > 0
    assert executor.replay.bypasses == 0
    assert served.digest() == full.digest()


@pytest.mark.parametrize("planner_name,budget_gb,fault_spec,event", [
    # a fragmentation spike that OOMs: the unwind releases the spike's
    # segment, and the pre-spike worlds recur
    ("sublinear", 3.0, "frag:start=40,iters=1,bytes=2G", 40),
    # a transient allocation failure, rescued by the recovery ladder
    ("mimose", 4.0, "alloc:start=20,count=1,min=1M", 20),
], ids=["spike-oom", "transient-failure"])
def test_records_outlive_fault_windows(planner_name, budget_gb, fault_spec, event):
    """A fault window is bypassed, not flushed: a record depends on its
    key alone, so a record stored before the window (or before the OOM
    it causes) serves its world once it recurs."""
    faults = FaultPlan.parse(fault_spec, seed=3)
    task = load_task("TC-Bert", iterations=8, seed=0)
    stream = [b for b in task.loader] * 8
    budget = int(budget_gb * GB)

    def run(replay):
        model = task.model
        planner = make_planner(planner_name, budget, task)
        executor = TrainingExecutor(
            model, planner, capacity_bytes=budget, replay=replay,
            faults=faults,
        )
        earlier: dict = {}  # the records held when the window opens
        served_after: list[int] = []
        if replay:
            lookup = executor.replay.lookup

            def tracking_lookup(key):
                record = lookup(key)
                if record is not None and record is earlier.get(key):
                    served_after.append(executor._iteration)
                return record

            executor.replay.lookup = tracking_lookup
        result = RunResult(task.spec.abbr, planner_name, budget)
        for i, batch in enumerate(stream, 1):
            if i == event and replay:
                earlier.update(executor.replay._records)
            result.append(executor.step(batch))
        return result, executor, served_after

    full, _, _ = run(False)
    replayed, executor, served_after = run(True)
    assert replayed.digest() == full.digest()
    assert any(s.oom or s.retries for s in replayed.iterations)
    assert executor.replay.bypasses > 0
    assert served_after


def test_replay_disabled():
    task = load_task("TC-Bert", iterations=6, seed=0)
    model = task.model
    planner = make_planner("mimose", 5 * GB, task)
    executor = TrainingExecutor(
        model, planner, capacity_bytes=5 * GB, replay=False
    )
    for batch in task.loader:
        executor.step(batch)
    assert executor.replay is None


# ------------------------------------------------------- recovery bugfix


def test_recovery_full_checkpoint_clears_plan_cache():
    """Rung 2 must drop the cached plan that just failed (regression).

    Before the fix, the failed rung-1 plan survived in the cache, so the
    next iteration of the same size was served the failing plan again.
    """
    task = load_task("TC-Bert", iterations=40, seed=0)
    budget = 6 * GB
    result, _ = _run(task, "mimose", budget, replay=False)
    assert result.succeeded

    # Rebuild a fitted planner with cached plans, then drive rung 2.
    model = task.model
    planner = make_planner("mimose", budget, task)
    executor = TrainingExecutor(model, planner, capacity_bytes=budget)
    for batch in task.loader:
        executor.step(batch)
    assert len(planner.cache) > 0
    failed = result.iterations[-1]
    batch = task.worst_case
    decision = planner.recover(batch, failed, 2)
    assert decision is not None
    assert decision.recovery_mode == "full-checkpoint"
    assert len(planner.cache) == 0


# -------------------------------------------------------- parallel sweeps


def test_parallel_sweep_matches_serial():
    task = load_task("TC-Bert", iterations=20, seed=0)
    grid = (["baseline", "sublinear", "mimose"], [4 * GB, 5 * GB])
    serial = sweep(task, *grid)
    parallel = sweep(task, *grid, jobs=2)
    assert [
        (r.planner_name, r.budget_bytes) for r in parallel
    ] == [(r.planner_name, r.budget_bytes) for r in serial]
    assert [r.digest() for r in parallel] == [r.digest() for r in serial]


def test_parallel_sweep_matches_serial_with_faults():
    faults = FaultPlan.parse(
        "frag:start=10,iters=2,bytes=512M;noise:bias=-0.02", seed=9
    )
    task = load_task("TC-Bert", iterations=20, seed=0)
    serial = sweep(task, ["mimose"], [4 * GB, 5 * GB], faults=faults)
    parallel = sweep(task, ["mimose"], [4 * GB, 5 * GB], faults=faults, jobs=2)
    assert [r.digest() for r in parallel] == [r.digest() for r in serial]


def test_derive_fault_seed_stable():
    a = derive_fault_seed(0, "TC-Bert", "mimose", 4 * GB)
    assert a == derive_fault_seed(0, "TC-Bert", "mimose", 4 * GB)
    # distinct grid points get distinct streams
    assert a != derive_fault_seed(0, "TC-Bert", "mimose", 5 * GB)
    assert a != derive_fault_seed(0, "TC-Bert", "sublinear", 4 * GB)
    assert a != derive_fault_seed(1, "TC-Bert", "mimose", 4 * GB)


def test_parallel_map_serial_fallback():
    assert parallel_map(abs, [-1, -2, -3], jobs=1) == [1, 2, 3]
    assert parallel_map(abs, [-5], jobs=8) == [5]


# ------------------------------------------------------------- estimator


class _FakeCollector:
    def __init__(self, data):
        self._data = data

    def training_data(self):
        return self._data


def _fake_data(num_units=20, seed=0):
    rng = np.random.default_rng(seed)
    data = {}
    for i in range(num_units):
        n = int(rng.integers(2, 12))
        sizes = sorted(int(s) for s in rng.integers(100, 50_000, size=n))
        bytes_ = [s * s * (i + 1) * 1e-3 + float(rng.normal()) for s in sizes]
        times = [s * (i + 1) * 1e-7 for s in sizes]
        bwd_times = [1.7 * t + 1e-6 for t in times]
        data[f"u{i}"] = (sizes, bytes_, times, bwd_times)
    return data


def test_vectorized_predictions_match_per_unit_models():
    est = LightningMemoryEstimator()
    est.fit(_FakeCollector(_fake_data()))
    assert est._units["bytes"].stack is not None  # fast path engaged
    for size in (7, 50, 1_234, 49_999, 80_000):
        expect_b = {
            n: max(0, int(m.predict(size)))
            for n, m in est._units["bytes"].models.items()
        }
        expect_t = {
            n: max(0.0, float(m.predict(size)))
            for n, m in est._units["times"].models.items()
        }
        assert est.predict_all_bytes(size) == expect_b
        assert est.predict_all_times(size) == expect_t
        # key order is part of the contract (scheduler tie-breaking)
        assert list(est.predict_all_bytes(size)) == list(expect_b)


def test_vectorized_fallback_for_non_polynomial_regressors():
    est = LightningMemoryEstimator(regressor_factory=DecisionTreeRegressor)
    est.fit(_FakeCollector(_fake_data(num_units=5)))
    assert est._units["bytes"].stack is None
    expect = {
        n: max(0, int(m.predict(1_234)))
        for n, m in est._units["bytes"].models.items()
    }
    assert est.predict_all_bytes(1_234) == expect


def test_prediction_memoization_isolated_and_cleared_on_refit():
    est = LightningMemoryEstimator()
    est.fit(_FakeCollector(_fake_data(seed=1)))
    first = est.predict_all_bytes(2_000)
    first["u0"] = -123  # caller mutation must not poison the memo
    assert est.predict_all_bytes(2_000)["u0"] != -123
    before = est.predict_all_bytes(3_000)
    est.fit(_FakeCollector(_fake_data(seed=2)))
    after = est.predict_all_bytes(3_000)
    assert after != before  # stale memo would have returned `before`


# ---------------------------------------------------------- observability


def test_run_result_exposes_cache_effectiveness():
    task = load_task("TC-Bert", iterations=40, seed=0)
    result = run_task(task, "mimose", 5 * GB)
    assert result.plan_cache_hits + result.plan_cache_misses > 0
    assert result.replay_hits + result.replay_misses > 0
    assert 0.0 <= result.plan_cache_hit_rate <= 1.0
    assert 0.0 <= result.replay_hit_rate <= 1.0
    rows = summarize_runs([result])
    assert "plan_cache_hit_rate" in rows[0]
    assert "replay_hit_rate" in rows[0]


def test_digest_ignores_planning_time_only():
    base = IterationStats(
        iteration=1, input_size=10, input_shape=(2, 5), mode="normal",
        plan_label="p", num_checkpointed=0, fwd_time=1.0, bwd_time=2.0,
        recompute_time=0.0, collect_time=0.0, planning_time=0.5,
        upkeep_time=0.0, optimizer_time=0.1, peak_in_use=100,
        peak_reserved=120, end_in_use=10, fragmentation_bytes=0,
    )
    from dataclasses import replace

    r1 = RunResult("t", "p", 1)
    r2 = RunResult("t", "p", 1)
    r3 = RunResult("t", "p", 1)
    r1.append(base)
    r2.append(replace(base, planning_time=9.9))
    r3.append(replace(base, fwd_time=9.9))
    assert r1.digest() == r2.digest()
    assert r1.digest() != r3.digest()
