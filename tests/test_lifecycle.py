"""Lifecycle controller: state machine, drift detectors, windowed collector,
and the refit's plan-cache flush."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.adaptive import QuantileTracker, ResidualTracker
from repro.core.collector import ShuttlingCollector
from repro.core.drift import CusumMonitor, PageHinkleyDetector
from repro.core.estimator import LightningMemoryEstimator
from repro.core.lifecycle import LifecycleController, LifecycleState
from repro.core.plan_cache import PlanCache
from repro.engine.events import (
    DriftDetected,
    EstimatorRefit,
    EventBus,
    LifecycleTransition,
)
from repro.engine.stats import IterationStats, UnitMeasurement

UNITS = ("a", "b")


def collect_stats(iteration: int, size: int) -> IterationStats:
    batch = tuple(
        UnitMeasurement(u, size, size * 1000 + i * 64, 1e-3, 2e-3)
        for i, u in enumerate(UNITS)
    )
    return IterationStats(
        iteration=iteration,
        input_size=size,
        input_shape=(1, size),
        mode="collect",
        plan_label="collect",
        num_checkpointed=len(UNITS),
        fwd_time=1e-3,
        bwd_time=2e-3,
        recompute_time=0.0,
        collect_time=1e-3,
        planning_time=0.0,
        upkeep_time=0.0,
        optimizer_time=1e-4,
        peak_in_use=size * 3000,
        peak_reserved=size * 3200,
        end_in_use=size * 10,
        fragmentation_bytes=0,
        measurements=batch,
    )


def responsive_stats(
    iteration: int, size: int, *, predicted: int, actual: int
) -> IterationStats:
    return IterationStats(
        iteration=iteration,
        input_size=size,
        input_shape=(1, size),
        mode="normal",
        plan_label="plan",
        num_checkpointed=1,
        fwd_time=1e-3,
        bwd_time=2e-3,
        recompute_time=1e-4,
        collect_time=0.0,
        planning_time=0.0,
        upkeep_time=0.0,
        optimizer_time=1e-4,
        peak_in_use=actual,
        peak_reserved=actual + 64,
        end_in_use=size * 10,
        fragmentation_bytes=0,
        predicted_peak_bytes=predicted,
    )


def make_controller(**kwargs) -> LifecycleController:
    collector = ShuttlingCollector(min_iterations=4, min_distinct_sizes=3)
    return LifecycleController(
        collector=collector,
        estimator=LightningMemoryEstimator(),
        cache=PlanCache(),
        residuals=ResidualTracker(),
        frag_observed=QuantileTracker(),
        **kwargs,
    )


def fit_controller(controller: LifecycleController) -> int:
    """Feed the initial collection window and fit; returns next iteration."""
    for it, size in enumerate((10, 20, 30, 40)):
        controller.observe(collect_stats(it, size))
    controller.ensure_fitted()
    return 4


class Recorder:
    def __init__(self):
        self.events = []

    def attach(self, bus: EventBus, *event_types) -> "Recorder":
        for event_type in event_types:
            bus.subscribe(self, event_type)
        return self

    def __call__(self, event) -> None:
        self.events.append(event)

    def of(self, event_type) -> list:
        return [e for e in self.events if isinstance(e, event_type)]


# ---------------------------------------------------------------- detectors


def test_page_hinkley_quiet_on_stable_stream():
    d = PageHinkleyDetector(threshold=0.15, min_observations=4)
    for i in range(200):
        assert not d.update(0.01 if i % 2 else -0.01)


def test_page_hinkley_fires_on_sustained_shift():
    d = PageHinkleyDetector(threshold=0.15, min_observations=4)
    for _ in range(8):
        assert not d.update(0.0)
    fired = False
    for _ in range(10):
        fired = fired or d.update(0.5)
    assert fired
    assert d.statistic > d.threshold


def test_page_hinkley_respects_min_observations():
    d = PageHinkleyDetector(threshold=0.01, min_observations=10)
    for _ in range(5):
        assert not d.update(5.0)  # huge shift, too few observations


def test_page_hinkley_reset():
    d = PageHinkleyDetector(threshold=0.15, min_observations=2)
    for _ in range(4):
        d.update(0.0)
    for _ in range(10):
        d.update(0.5)
    d.reset()
    assert d.num_observations == 0
    assert d.statistic == 0.0
    assert not d.update(0.0)


def test_cusum_silent_until_calibrated():
    m = CusumMonitor(threshold=1.0, min_observations=1)
    for _ in range(50):
        assert not m.update(1e9)
    assert not m.calibrated


def test_cusum_fires_on_mean_shift_both_sides():
    for shifted in (400.0, -200.0):
        m = CusumMonitor(slack=0.5, threshold=3.0, min_observations=2)
        m.calibrate([90.0, 100.0, 110.0, 100.0])
        for _ in range(10):
            assert not m.update(100.0)
        fired = False
        for _ in range(20):
            fired = fired or m.update(shifted)
        assert fired, shifted


def test_cusum_reset_clears_calibration():
    m = CusumMonitor(threshold=1.0, min_observations=1)
    m.calibrate([1.0, 2.0, 3.0])
    assert m.calibrated
    m.reset()
    assert not m.calibrated
    assert not m.update(1e9)


def test_detector_validation():
    with pytest.raises(ValueError):
        PageHinkleyDetector(threshold=0.0)
    with pytest.raises(ValueError):
        PageHinkleyDetector(delta=-1.0)
    with pytest.raises(ValueError):
        CusumMonitor(threshold=-1.0)
    with pytest.raises(ValueError):
        CusumMonitor(slack=-0.1)
    m = CusumMonitor()
    with pytest.raises(ValueError):
        m.calibrate([])


# ------------------------------------------------- collector window/eviction


def ingest_iterations(collector: ShuttlingCollector, sizes) -> None:
    for size in sizes:
        collector.ingest(
            UnitMeasurement(u, size, size * 100, 1e-3) for u in UNITS
        )


def test_collector_clear_resets_all_derived_state():
    c = ShuttlingCollector(min_iterations=3, min_distinct_sizes=3)
    ingest_iterations(c, [10, 20, 30])
    assert c.is_ready()
    c.clear()
    assert not c.is_ready()
    assert c.iterations_collected == 0
    assert c.max_seen_size == 0
    assert c.distinct_sizes == 0
    assert c.unit_names() == []
    assert c.samples("a") == ()
    assert c.window_sizes() == []
    # the cleared collector re-earns readiness from scratch
    ingest_iterations(c, [10, 20, 30])
    assert c.is_ready()


def test_evict_oldest_drops_head_and_rebuilds_derived_state():
    c = ShuttlingCollector(min_iterations=3, min_distinct_sizes=3)
    ingest_iterations(c, [10, 20, 30, 40, 50])
    dropped = c.evict_oldest(keep=2)
    assert dropped == 3
    assert c.iterations_collected == 2
    assert c.window_sizes() == [40, 50]
    assert c.max_seen_size == 50
    assert c.distinct_sizes == 2
    for u in UNITS:
        assert c.distinct_sizes_for(u) == 2
    assert not c.is_ready()  # readiness must be re-earned after eviction
    ingest_iterations(c, [60])
    assert c.is_ready()


def test_evict_oldest_keep_zero_equals_clear():
    c = ShuttlingCollector(min_iterations=3, min_distinct_sizes=3)
    ingest_iterations(c, [10, 20, 30])
    assert c.evict_oldest(keep=0) == 3
    assert c.iterations_collected == 0
    assert c.max_seen_size == 0
    assert not c.is_ready()


def test_windowed_collector_auto_evicts():
    c = ShuttlingCollector(
        min_iterations=3, min_distinct_sizes=3, window_iterations=4
    )
    ingest_iterations(c, [10, 20, 30, 40, 50, 60])
    assert c.iterations_collected == 4
    assert c.window_sizes() == [30, 40, 50, 60]
    assert c.max_seen_size == 60


def test_window_smaller_than_min_iterations_rejected():
    with pytest.raises(ValueError):
        ShuttlingCollector(min_iterations=5, window_iterations=4)


# ----------------------------------------------------------- state machine


def test_initial_collection_to_fitted():
    c = make_controller()
    assert c.state is LifecycleState.COLLECTING
    assert c.needs_collection(10)
    next_it = fit_controller(c)
    assert c.state is LifecycleState.FITTED
    assert c.fit_count == 1
    assert c.refit_count == 0
    assert not c.needs_collection(30)
    c.observe(responsive_stats(next_it, 30, predicted=90_000, actual=90_000))
    assert c.state is LifecycleState.MONITORING


def test_observe_is_idempotent_per_stats_object():
    c = make_controller()
    stats = collect_stats(0, 10)
    c.observe(stats)
    c.observe(stats)  # bus delivery followed by a direct planner call
    assert c.collector.iterations_collected == 1


def test_out_of_range_input_triggers_recollection_and_refit():
    c = make_controller()
    next_it = fit_controller(c)
    assert c.should_recollect(100)  # far beyond max_trained_size * 1.1
    assert c.needs_collection(100)
    c.observe(collect_stats(next_it, 100))
    assert c.fit_count == 2
    assert c.refit_count == 1
    assert c.state is LifecycleState.FITTED


def test_static_fit_never_recollects():
    c = make_controller(recollect_margin=math.inf)
    fit_controller(c)
    assert not c.should_recollect(10**9)
    assert not c.needs_collection(10**9)


def test_residual_drift_walks_the_full_state_cycle():
    bus = EventBus()
    recorder = Recorder()
    c = make_controller(
        drift_detection=True,
        residual_detector=PageHinkleyDetector(
            threshold=0.1, min_observations=2
        ),
    )
    c.attach(bus)
    recorder.attach(bus, LifecycleTransition, DriftDetected, EstimatorRefit)
    it = fit_controller(c)
    # healthy monitoring: predictions match reality
    for _ in range(3):
        c.observe(responsive_stats(it, 25, predicted=75_000, actual=75_000))
        it += 1
    assert c.state is LifecycleState.MONITORING
    # the fitted relation breaks: sustained 50 % under-prediction
    while c.state is not LifecycleState.DRIFTED:
        c.observe(responsive_stats(it, 25, predicted=75_000, actual=112_500))
        it += 1
    assert c.drift_events == 1
    drift = recorder.of(DriftDetected)
    assert drift and drift[0].monitor == "residual-page-hinkley"
    # partial re-collection: the stale head is gone, readiness re-earned
    assert c.collector.iterations_collected < c.collector.min_iterations
    assert c.needs_collection(25)
    sizes = iter((50, 60, 70))
    while c.state is LifecycleState.DRIFTED:
        c.observe(collect_stats(it, next(sizes)))
        it += 1
    assert c.state is LifecycleState.FITTED
    assert c.refit_count == 1
    # the initial fit and the refit were both published
    assert [e.fit_count for e in recorder.of(EstimatorRefit)] == [1, 2]
    # and the machine passed through REFITTING on the way back
    visited = [t.current for t in recorder.of(LifecycleTransition)]
    assert "drifted" in visited and "refitting" in visited
    assert visited[-1] == "fitted"


def test_size_cusum_fires_at_plan_time_within_trained_range():
    c = make_controller(
        drift_detection=True,
        size_monitor=CusumMonitor(
            slack=0.5, threshold=2.0, min_observations=2
        ),
    )
    fit_controller(c)  # calibrates the monitor on window sizes 10..40
    # in-range but persistently at the top of the distribution: the range
    # check stays quiet (38 < 40 * 1.1), the CUSUM must catch the shift
    fired = False
    for _ in range(30):
        if c.needs_collection(38):
            fired = True
            break
    assert fired
    assert c.state is LifecycleState.DRIFTED
    assert c.drift_events == 1


def test_drift_detection_off_keeps_detectors_silent():
    c = make_controller()  # drift_detection=False
    it = fit_controller(c)
    for _ in range(50):
        c.observe(responsive_stats(it, 25, predicted=75_000, actual=150_000))
        it += 1
        assert not c.needs_collection(38)
    assert c.drift_events == 0
    assert c.state is LifecycleState.MONITORING


def test_refit_flushes_plan_cache():
    c = make_controller()
    next_it = fit_controller(c)
    c.cache.put(30, "fake-plan")
    c.observe(collect_stats(next_it, 100))  # out-of-range recollect + refit
    assert c.cache.get(30) is None


def test_oom_stats_do_not_feed_monitors():
    c = make_controller(
        drift_detection=True,
        residual_detector=PageHinkleyDetector(
            threshold=0.1, min_observations=1
        ),
    )
    it = fit_controller(c)
    bad = dataclasses.replace(
        responsive_stats(it, 25, predicted=75_000, actual=200_000), oom=True
    )
    c.observe(bad)
    assert c.residual_detector.num_observations == 0
    assert c.drift_events == 0
