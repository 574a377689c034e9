"""Micro-benchmarks of the Mimose critical-path components.

These are genuine wall-clock measurements (the same Python work the real
Mimose does on its critical path), so pytest-benchmark's statistics are
meaningful here: estimator fit, per-size prediction, Algorithm 1
scheduling, and cache lookup.
"""

import numpy as np

from repro.core.collector import ShuttlingCollector
from repro.core.estimator import LightningMemoryEstimator
from repro.core.plan_cache import PlanCache
from repro.solvers import (
    GreedyScheduler,
    HybridGreedyScheduler,
    PcieCostModel,
    SolverInput,
)
from repro.engine.stats import UnitMeasurement
from repro.planners.base import ActionAssignment, CheckpointPlan
from repro.tensorsim.allocator import CachingAllocator

MB = 1 << 20
GB = 1 << 30


def _collector(num_units=12, num_sizes=10):
    c = ShuttlingCollector(min_iterations=1)
    rng = np.random.default_rng(0)
    sizes = rng.integers(1_000, 20_000, num_sizes)
    for s in sizes:
        c.ingest(
            UnitMeasurement(
                f"enc.{u}", int(s), int(0.01 * s * s + 300 * s), 1e-4
            )
            for u in range(num_units)
        )
    return c


def bench_estimator_fit(benchmark):
    """Estimator training: ~1 ms per Table IV."""
    collector = _collector()
    est = LightningMemoryEstimator()
    benchmark(est.fit, collector)


def bench_estimator_predict_all(benchmark):
    """Per-iteration prediction of all 12 units: tens of microseconds."""
    est = LightningMemoryEstimator()
    est.fit(_collector())
    result = benchmark(est.predict_all_bytes, 12_345)
    assert len(result) == 12


def bench_scheduler_greedy(benchmark):
    """Algorithm 1 over 12 units: well under a millisecond."""
    est = {f"enc.{i}": (100 + 3 * i) * MB for i in range(12)}
    order = {u: i for i, u in enumerate(est)}
    inp = SolverInput(est_bytes=est, order=order, excess_bytes=500 * MB)
    chosen = benchmark(GreedyScheduler().schedule, inp)
    assert chosen


def bench_scheduler_hybrid_assign(benchmark):
    """Hybrid swap/recompute pricing over 400 units.

    The window/envelope are hoisted out of the selection loop, so the
    pass is O(n log n) (the size sort) — a few hundred microseconds at
    this unit count, not the quadratic re-pricing it once was.
    """
    n = 400
    est = {f"enc.{i}": (20 + (i * 37) % 300) * MB for i in range(n)}
    order = {u: i for i, u in enumerate(est)}
    est_time = {u: 1e-4 + 5e-7 * i for i, u in enumerate(est)}
    bwd_time = {u: 1.6 * t for u, t in est_time.items()}
    inp = SolverInput(
        est_bytes=est,
        order=order,
        excess_bytes=sum(est.values()) // 2,
        est_time=est_time,
        bwd_time=bwd_time,
    )
    scheduler = HybridGreedyScheduler(PcieCostModel())
    assignment = benchmark(scheduler.assign, inp)
    assert assignment.units


def bench_plan_cache_lookup(benchmark):
    """Cache hit path: microseconds (the common responsive-phase case)."""
    cache = PlanCache()
    for s in range(1_000, 65_000, 500):
        cache.put(
            s, CheckpointPlan(ActionAssignment.from_sets(recompute={"enc.0"}), str(s))
        )
    result = benchmark(cache.get, 32_000)
    assert result is not None


def bench_allocator_10k_live_blocks(benchmark):
    """malloc/free churn against a heap holding >10k live blocks.

    Long-context transformer iterations keep every per-token activation
    alive until backward, so the allocator's free-list scan runs against
    a densely populated heap.  The scenario pins the steady-state churn
    cost (allocate/free a mid-sized block, plus the fragmentation stats
    the executor reads every iteration) from staying flat as the
    live-block population grows — both the best-fit lookup and the
    largest-block maximum are served by the size-bucketed free index,
    never by a linear scan over >10k blocks.
    """
    rng = np.random.default_rng(0)
    alloc = CachingAllocator(64 * GB)
    live = []
    for i, nbytes in enumerate(rng.integers(16 * 1024, 4 * MB, 14_000)):
        block = alloc.malloc(int(nbytes), owner=f"act.{i}")
        if i % 7 == 6:
            alloc.free(block)
        else:
            live.append(block)
    assert len(live) > 10_000

    def churn():
        for _ in range(32):
            block = alloc.malloc(512 * 1024, owner="churn")
            alloc.free(block)
            alloc.fragmentation_bytes()
            alloc.largest_free_block()

    benchmark(churn)
    assert alloc.stats.num_allocs == alloc.stats.num_frees + len(live)


def bench_end_to_end_plan_generation(benchmark):
    """Estimator + scheduler together — the paper's 0.26-1.25 ms range."""
    est = LightningMemoryEstimator()
    est.fit(_collector())
    scheduler = GreedyScheduler()
    order = {f"enc.{i}": i for i in range(12)}

    def make_plan(size=15_000):
        bytes_ = est.predict_all_bytes(size)
        excess = sum(bytes_.values()) // 2
        return scheduler.schedule(
            SolverInput(est_bytes=bytes_, order=order, excess_bytes=excess)
        )

    plan = benchmark(make_plan)
    assert plan
