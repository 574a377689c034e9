"""Explicit collect→fit→plan lifecycle controller with drift detection.

The Mimose planner's two-phase lifecycle used to be *implicit*: the
collector-readiness check lived in the planner's plan path, the one-shot
estimator fit hid behind a lazy ``if not fitted`` inside ``plan()``, and
the recollect-triggered refit sat in ``observe()`` — three call sites,
no single owner, and no notion of the fit ever going stale.  This module
makes the lifecycle an explicit state machine:

.. code-block:: text

    COLLECTING ──ready──▶ FITTED ──responsive obs──▶ MONITORING
        ▲                    ▲                            │
        │ partial            │                            │ detector
        │ re-collection      └────────── REFITTING ◀──────┘ fires
        │                                    ▲
        └────────────── DRIFTED ─────────────┘ (window refilled)

:class:`LifecycleController` is the *only* module that decides when to
fit or refit (enforced by the ``lifecycle-protocol`` replint rule): the
planner asks it ``needs_collection(size)`` before planning and
``ensure_fitted()`` before predicting, and hands it every iteration's
surviving stats through ``observe`` — either directly or via the typed
event bus (:class:`~repro.engine.events.IterationObserved`), to which
the executor attaches the controller automatically.

On top of the state machine sit the drift monitors
(:mod:`repro.core.drift`): a Page–Hinkley test over the signed residual
stream (systematic under-prediction ⇒ the fitted size→memory relation
moved) and a CUSUM over plan-time input sizes (the size *distribution*
moved).  Either firing sends the machine to ``DRIFTED``: the collector
evicts the stale head of its window (partial re-collection), the next
iterations run sheltered until readiness is re-earned, and the refit
that follows clears the plan cache, the one cache whose entries carry
predictions of the stale fit.  The executor's replay records and
compiled templates survive it: each is keyed by the plan's actions, the
batch shape and the allocator state, and reads no fit, reserve or
margin, so a refit changes which plan is picked, never what a plan does.

Everything here is deterministic: the detectors are pure functions of
the observation stream, no randomness, no host clocks (wall-clock stays
in the planner's allowlisted stopwatch sites).  With drift detection
off (the default) the controller reproduces the legacy implicit
lifecycle bit-for-bit — the digest-parity goldens pin this.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.adaptive import QuantileTracker, ResidualTracker
from repro.core.collector import ShuttlingCollector
from repro.core.drift import CusumMonitor, PageHinkleyDetector
from repro.core.estimator import LightningMemoryEstimator
from repro.core.plan_cache import PlanCache
from repro.engine.events import (
    DriftDetected,
    EstimatorRefit,
    EventBus,
    IterationObserved,
    LifecycleTransition,
)
from repro.engine.stats import IterationStats


class LifecycleState(enum.Enum):
    """States of the collect→fit→plan lifecycle machine."""

    COLLECTING = "collecting"
    FITTED = "fitted"
    MONITORING = "monitoring"
    DRIFTED = "drifted"
    REFITTING = "refitting"


class LifecycleController:
    """Owns every fit/refit/re-collection decision of one planner.

    Args:
        collector: the shuttling collector accumulating sheltered samples.
        estimator: the memory estimator being (re)fitted.
        cache: the plan cache flushed on every (re)fit.
        residuals: the adaptive-margin residual tracker fed per
            responsive iteration.
        frag_observed: the allocator-slack quantile tracker.
        recollect_margin: how far beyond the largest trained input size a
            new input may be before triggering a sheltered re-collection
            (the paper's O(n/N) occasional re-collection).
        drift_detection: enable the drift monitors and the DRIFTED path.
            Off by default — the stationary lifecycle is bit-identical to
            the legacy implicit one.
        residual_detector: Page–Hinkley test over signed prediction
            residuals (default-constructed when drift detection is on).
        size_monitor: CUSUM over plan-time input sizes (default-
            constructed when drift detection is on).
        recollect_iterations: fresh sheltered iterations required after a
            drift eviction before the estimator may be refitted.
    """

    def __init__(
        self,
        *,
        collector: ShuttlingCollector,
        estimator: LightningMemoryEstimator,
        cache: PlanCache,
        residuals: ResidualTracker,
        frag_observed: QuantileTracker,
        recollect_margin: float = 0.10,
        drift_detection: bool = False,
        residual_detector: Optional[PageHinkleyDetector] = None,
        size_monitor: Optional[CusumMonitor] = None,
        recollect_iterations: Optional[int] = None,
    ) -> None:
        self.collector = collector
        self.estimator = estimator
        self.cache = cache
        self.residuals = residuals
        self.frag_observed = frag_observed
        self.recollect_margin = recollect_margin
        self.drift_detection = drift_detection
        self.residual_detector = (
            residual_detector
            if residual_detector is not None
            else PageHinkleyDetector()
        )
        self.size_monitor = (
            size_monitor if size_monitor is not None else CusumMonitor()
        )
        if recollect_iterations is None:
            recollect_iterations = max(2, collector.min_iterations // 2)
        if recollect_iterations < 1:
            raise ValueError("recollect_iterations must be >= 1")
        self.recollect_iterations = recollect_iterations
        self.state = LifecycleState.COLLECTING
        # bookkeeping surfaced through RunResult / `repro run`
        self.fit_count = 0
        self.refit_count = 0
        self.drift_events = 0
        self._base_samples: list[tuple[int, int]] = []
        self._bus: Optional[EventBus] = None
        self._last_observed: Optional[IterationStats] = None
        self._iteration = 0

    # ---------------------------------------------------------------- wiring

    def attach(self, bus: EventBus) -> "LifecycleController":
        """Wire the controller to an executor's event bus.

        Subscribes to :class:`~repro.engine.events.IterationObserved`
        (the post-recovery observation stream) and keeps the bus for
        publishing lifecycle events.  The executor calls this
        automatically for any planner exposing a ``lifecycle`` attribute.
        """
        self._bus = bus
        bus.subscribe(self, IterationObserved)
        return self

    def __call__(self, event: IterationObserved) -> None:
        """Bus entry point: observe each surviving iteration's stats."""
        self.observe(event.stats)

    # ------------------------------------------------------------- decisions

    def needs_collection(self, size: int) -> bool:
        """Whether the next iteration must run sheltered (COLLECT mode).

        True while the collector window is unfilled (initial collection
        and post-drift re-collection), for inputs beyond the trusted
        extrapolation range, and — with drift detection on — when the
        input-size monitor sees the size distribution shift.  Consulted
        at plan time, *before* execution, so a drifted input is diverted
        to the sheltered footprint instead of an extrapolated plan.
        """
        if not self.collector.is_ready():
            return True
        if not self.estimator.is_fitted:
            return False  # enough data — this iteration fits and plans
        if self.should_recollect(size):
            return True
        if self.drift_detection and self.state in (
            LifecycleState.FITTED,
            LifecycleState.MONITORING,
        ):
            if self.size_monitor.update(float(size)):
                self._on_drift(
                    "input-size-cusum",
                    self.size_monitor.statistic,
                    self.size_monitor.threshold,
                )
                return True
        return False

    def should_recollect(self, size: int) -> bool:
        """Whether ``size`` lies beyond the trusted extrapolation range."""
        if not self.estimator.is_fitted:
            return True
        limit = self.estimator.max_trained_size * (1.0 + self.recollect_margin)
        return size > limit

    def ensure_fitted(self) -> None:
        """Fit the estimator if it never was (the first responsive plan)."""
        if not self.estimator.is_fitted:
            self._refit("initial fit", initial=True)

    # --------------------------------------------------------------- observe

    def observe(self, stats: IterationStats) -> None:
        """Feed one iteration's surviving stats into the lifecycle.

        Idempotent per stats object: when an executor drives the
        controller through the bus, the planner's own ``observe`` call
        with the same object is a no-op — so the controller behaves
        identically with or without a bus.
        """
        if stats is self._last_observed:
            return
        self._last_observed = stats
        self._iteration = stats.iteration
        if stats.is_collect:
            self.collector.ingest(stats.measurements)
            if not stats.oom:
                self._base_samples.append((stats.input_size, stats.peak_in_use))
            # A post-fit sheltered iteration (re-collection) refits as
            # soon as the window is full again; a drift eviction leaves
            # the window short, deferring the refit until it refills.
            if self.estimator.is_fitted and self.collector.is_ready():
                self._refit(
                    "re-collection window full"
                    if self.state is LifecycleState.DRIFTED
                    else "out-of-range input re-collected"
                )
            return
        if stats.oom:
            # Budget policy (reserve widening) is the planner's; the
            # lifecycle only reacts to what the estimator can fix.
            return
        if self.state is LifecycleState.FITTED:
            self._transition(
                LifecycleState.MONITORING, "first responsive observation"
            )
        predicted = stats.predicted_peak_bytes
        if predicted is not None:
            if predicted > 0:
                self.residuals.record(predicted, stats.peak_in_use)
                if (
                    self.drift_detection
                    and self.state is LifecycleState.MONITORING
                ):
                    signed = stats.peak_in_use / predicted - 1.0
                    if self.residual_detector.update(signed):
                        self._on_drift(
                            "residual-page-hinkley",
                            self.residual_detector.statistic,
                            self.residual_detector.threshold,
                        )
            self.frag_observed.record(
                max(0, stats.peak_reserved - stats.peak_in_use)
            )

    # ------------------------------------------------------------ internals

    def _on_drift(self, monitor: str, statistic: float, threshold: float) -> None:
        """Handle a firing drift monitor: evict and start re-collecting."""
        self.drift_events += 1
        if self._bus is not None:
            self._bus.emit(
                DriftDetected(self._iteration, monitor, statistic, threshold)
            )
        self._transition(LifecycleState.DRIFTED, f"{monitor} fired")
        # Partial re-collection: keep the recent tail of the window, drop
        # the stale head, and require `recollect_iterations` fresh
        # sheltered iterations before the refit.
        keep = max(
            0, self.collector.min_iterations - self.recollect_iterations
        )
        self.collector.evict_oldest(keep=keep)
        # The monitors restart from scratch; the size monitor stays
        # uncalibrated (silent) until the refit provides a new reference.
        self.residual_detector.reset()
        self.size_monitor.reset()

    def _refit(self, reason: str, *, initial: bool = False) -> None:
        """(Re)fit the estimator and drop the plans priced off the old fit."""
        if not initial:
            self._transition(LifecycleState.REFITTING, reason)
        self.estimator.fit(self.collector)
        if self._base_samples:
            sizes = [s for s, _ in self._base_samples]
            peaks = [p for _, p in self._base_samples]
            self.estimator.fit_base(sizes, peaks)
        # Cached plans carry predictions from the old fit.
        self.cache.clear()
        self.fit_count += 1
        if not initial:
            self.refit_count += 1
        if self.drift_detection:
            self.residual_detector.reset()
            self.size_monitor.calibrate(
                [float(s) for s in self.collector.window_sizes()]
            )
        if self._bus is not None:
            self._bus.emit(
                EstimatorRefit(
                    self._iteration,
                    self.fit_count,
                    self.collector.iterations_collected,
                )
            )
        self._transition(LifecycleState.FITTED, reason)

    def _transition(self, state: LifecycleState, reason: str) -> None:
        if state is self.state:
            return
        previous = self.state
        self.state = state
        if self._bus is not None:
            self._bus.emit(
                LifecycleTransition(
                    self._iteration, previous.value, state.value, reason
                )
            )
