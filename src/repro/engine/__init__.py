"""Simulated training engine.

:class:`~repro.engine.executor.TrainingExecutor` runs training iterations of
a :class:`~repro.models.base.SegmentedModel` against the tensorsim substrate
under the direction of a :class:`~repro.planners.base.Planner`, producing
:class:`~repro.engine.stats.IterationStats` with the timing/memory breakdown
every figure and table in the paper is computed from.

The executor is a thin pipeline driver: per-mode behaviour lives in
:mod:`repro.engine.strategies` and everything observable is published on
the executor's :class:`~repro.engine.events.EventBus` (attach observers
via ``executor.events.subscribe``).
"""

from repro.engine.events import (
    DriftDetected,
    EstimatorRefit,
    EventBus,
    EventCounter,
    IterationEnd,
    IterationObserved,
    IterationStart,
    LifecycleTransition,
    MeasurementTaken,
    OomHit,
    RecoveryRung,
    ReplayHit,
    Subscription,
    SwapIn,
    SwapOut,
    TensorAlloc,
    TensorEvicted,
    TimeCharged,
    UnitBackward,
    UnitForward,
)
from repro.engine.stats import IterationStats, RunResult, UnitMeasurement
from repro.engine.executor import TrainingExecutor
from repro.engine.strategies import (
    CollectStrategy,
    ExecutionStrategy,
    NormalStrategy,
    ReactiveStrategy,
    register_strategy,
    strategy_for,
)
from repro.engine.trace import MemoryTimeline, TimelinePoint
from repro.engine.ddp import DataParallelExecutor, DdpStepStats

__all__ = [
    "IterationStats",
    "RunResult",
    "UnitMeasurement",
    "TrainingExecutor",
    "MemoryTimeline",
    "TimelinePoint",
    "DataParallelExecutor",
    "DdpStepStats",
    # event bus
    "EventBus",
    "Subscription",
    "EventCounter",
    "IterationStart",
    "IterationEnd",
    "IterationObserved",
    "LifecycleTransition",
    "DriftDetected",
    "EstimatorRefit",
    "UnitForward",
    "UnitBackward",
    "TimeCharged",
    "MeasurementTaken",
    "TensorAlloc",
    "TensorEvicted",
    "SwapOut",
    "SwapIn",
    "OomHit",
    "RecoveryRung",
    "ReplayHit",
    # strategies
    "ExecutionStrategy",
    "NormalStrategy",
    "CollectStrategy",
    "ReactiveStrategy",
    "strategy_for",
    "register_strategy",
]
