"""Simulated training executor — the iteration-pipeline driver.

Runs training iterations of a :class:`~repro.models.base.SegmentedModel`
under a :class:`~repro.planners.base.Planner`, allocating every activation
from the simulated caching allocator and advancing a simulated clock per
the device roofline model.  The executor itself is deliberately thin:
per-mode behaviour lives in :mod:`repro.engine.strategies`, everything
observable is published on :attr:`TrainingExecutor.events`
(:mod:`repro.engine.events`), and the engine's own cross-cutting concerns
(stats assembly, timeline sampling, replay capture, fault arming) are bus
subscribers like any third-party observer.  One iteration runs as::

    plan → (replay-cache lookup) → strategy.begin
         → input alloc → strategy.run_forward → strategy.run_backward
         → optimizer → stats finalize → (replay-record store)

Modelling deviations from a real runtime are documented in
:mod:`repro.engine.strategies`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

import numpy as np

from repro.engine.compiled import CompiledCache
from repro.engine.events import (
    CompiledHit, EventBus, FaultArmObserver, IterationEnd, IterationObserved,
    IterationStart, OomHit, RecoveryRung, ReplayHit, ReplayPointRecorder,
    TimelineObserver,
)
from repro.engine.replay import ReplayCache, ReplayKey, ReplayRecord
from repro.engine.stats import IterationStats
from repro.engine.strategies import (
    ExecutionStrategy, IterationContext, StatsBuilder, SwapEngine,
    strategy_for,
)
from repro.engine.trace import MemoryTimeline
from repro.models.base import BatchInput, SegmentedModel
from repro.planners.base import PlanDecision, Planner
from repro.tensorsim.allocator import Block, CachingAllocator, OutOfMemoryError
from repro.tensorsim.clock import SimClock
from repro.tensorsim.device import DeviceModel
from repro.tensorsim.faults import FaultInjector, FaultPlan
from repro.tensorsim.tensor import SimTensor


class IterationOOM(RuntimeError):
    """Raised (optionally) when an iteration cannot fit in memory."""

    def __init__(self, stats: IterationStats) -> None:
        self.stats = stats
        super().__init__(
            f"iteration {stats.iteration} (input_size={stats.input_size}) "
            f"ran out of memory under plan {stats.plan_label!r}"
        )


class TrainingExecutor:
    """Drives a planner through simulated training iterations.

    Args:
        model: the segmented model to train.
        planner: decides checkpoint plans / evictions; supplies the budget.
        device: roofline timing model.
        capacity_bytes: hard allocator capacity.  Plan-based planners set
            it to their budget; reactive planners and the baseline use
            physical device memory with the budget enforced logically
            (how DTR's fragmentation overshoot becomes observable, Fig 5).
        timeline: optional memory timeline recorder (an event-bus
            subscriber, :class:`~repro.engine.events.TimelineObserver`).
        raise_on_oom: raise :class:`IterationOOM` instead of returning a
            failed :class:`IterationStats`.
        measurement_noise: relative stddev of multiplicative noise on
            COLLECT-mode measurements, deterministic given ``noise_seed``.
        faults: optional fault-injection plan (or a prebuilt injector),
            deterministic per seed — see :mod:`repro.tensorsim.faults`.
        max_recovery_retries: retry budget per iteration when the planner
            supports recovery (see :meth:`step`); 0 makes any OOM fatal.
        replay: enable the iteration replay cache
            (:mod:`repro.engine.replay`).
        compiled: enable the compiled-template tier
            (:mod:`repro.engine.compiled`); requires ``replay`` (the
            compiled tier shares replay's eligibility proof and key).

    Attach observers to :attr:`events`; the engine's own subscribers
    (fault arming, stats, timeline, replay capture) register first.
    """

    def __init__(
        self,
        model: SegmentedModel,
        planner: Planner,
        *,
        device: Optional[DeviceModel] = None,
        capacity_bytes: Optional[int] = None,
        timeline: Optional[MemoryTimeline] = None,
        raise_on_oom: bool = False,
        measurement_noise: float = 0.0,
        noise_seed: int = 0,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        max_recovery_retries: int = 3,
        replay: bool = True,
        compiled: bool = True,
    ) -> None:
        self.model = model
        self.planner = planner
        self.device = device or DeviceModel()
        capacity = capacity_bytes or self.device.memory_capacity
        self.allocator = CachingAllocator(capacity)
        self.clock = SimClock()
        self.timeline = timeline
        self.raise_on_oom = raise_on_oom
        if measurement_noise < 0:
            raise ValueError("measurement_noise must be non-negative")
        self.measurement_noise = measurement_noise
        self.noise_rng = (
            np.random.default_rng(noise_seed) if measurement_noise else None
        )
        if max_recovery_retries < 0:
            raise ValueError("max_recovery_retries must be non-negative")
        self.max_recovery_retries = max_recovery_retries
        self.faults: Optional[FaultInjector] = (
            faults.build() if isinstance(faults, FaultPlan) else faults
        )
        self.replay: Optional[ReplayCache] = ReplayCache() if replay else None
        self.compiled: Optional[CompiledCache] = (
            CompiledCache() if (replay and compiled) else None
        )
        self._sig_cache: Optional[tuple] = None
        self._sig_version: Optional[tuple] = None
        self._iteration = 0
        self._static_blocks = self._allocate_static()
        self.swap = SwapEngine()
        # The event bus and the engine's own subscribers.  Subscription
        # order is delivery order; user observers attach after these.
        self.events = EventBus()
        if self.faults is not None:
            FaultArmObserver(self.faults).attach(self.events)
        self._stats = StatsBuilder().attach(self.events)
        if self.timeline is not None:
            TimelineObserver(self.timeline).attach(self.events)
        self._replay_points = ReplayPointRecorder().attach(self.events)
        # A planner exposing a lifecycle controller (MimosePlanner) gets
        # it wired to this executor's bus: the controller consumes the
        # post-recovery observation stream (IterationObserved) and
        # publishes lifecycle/drift events.
        lifecycle = getattr(planner, "lifecycle", None)
        if lifecycle is not None:
            lifecycle.attach(self.events)

    def _allocate_static(self) -> list[Block]:
        static = self.model.static_memory()
        blocks = []
        try:
            for label, nbytes in (
                ("params", static.param_bytes),
                ("grads", static.grad_bytes),
                ("optimizer", static.optimizer_bytes),
                ("workspace", static.workspace_bytes),
            ):
                if nbytes > 0:
                    blocks.append(self.allocator.malloc(nbytes, owner=label))
        except OutOfMemoryError as exc:
            raise ValueError(
                f"memory capacity {self.allocator.capacity} B cannot hold the "
                f"static footprint of {self.model.name} ({static.total} B)"
            ) from exc
        return blocks

    @property
    def static_bytes(self) -> int:
        return sum(b.size for b in self._static_blocks)

    def _optimizer_time(self) -> float:
        n = self.model.param_count()
        # Adam: read params/grads/m/v, write params/m/v -> ~28 B/param traffic.
        return self.device.kernel_time(8.0 * n, 28.0 * n)

    def iteration_times(self, batch: BatchInput) -> tuple[float, float]:
        """(total forward, total backward) seconds for one batch shape."""
        fwd = bwd = 0.0
        for f, b in self.model.unit_times(self.device, batch):
            fwd += f
            bwd += b
        return fwd, bwd

    def step(self, batch: BatchInput) -> IterationStats:
        """Plan and execute one training iteration.

        An iteration that OOMs under a recovery-capable planner is rolled
        back and retried under the planner's escalation ladder
        (:meth:`Planner.recover`), up to ``max_recovery_retries`` times;
        the failed attempts' time is charged to the survivor's planning
        time and the retry count / rung recorded in its stats.
        """
        decision = self.planner.plan(batch)
        stats = self.run_iteration(batch, decision)
        if (
            stats.oom
            and self.planner.supports_recovery
            and self.max_recovery_retries > 0
        ):
            stats = self._recover(batch, stats)
        # The surviving stats (post-recovery) are the planner feedback
        # stream; the lifecycle controller consumes them from the bus and
        # the planner's observe call below is idempotent with it.
        self.events.emit(IterationObserved(stats))
        self.planner.observe(stats)
        return stats

    def _recover(self, batch: BatchInput, failed: IterationStats) -> IterationStats:
        """Retry a failed iteration under the planner's escalation ladder."""
        stats = failed
        wasted = 0.0  # simulated time burnt on attempts that OOM'd
        retries = 0
        mode = ""
        while stats.oom and retries < self.max_recovery_retries:
            decision = self.planner.recover(batch, stats, retries)
            if decision is None:
                break
            mode = decision.recovery_mode or "retry"
            self.events.emit(RecoveryRung(stats.iteration, retries, mode))
            wasted += stats.total_time
            retries += 1
            # The retry *replaces* the failed attempt: same iteration number.
            self._iteration -= 1
            stats = self.run_iteration(batch, decision)
        if retries:
            stats = replace(
                stats,
                retries=retries,
                recovery_mode=mode,
                planning_time=stats.planning_time + wasted,
            )
        return stats

    def run_iteration(self, batch: BatchInput, decision: PlanDecision) -> IterationStats:
        """Execute one iteration under an explicit plan decision.

        Three-tier lookup: a replay record proving this iteration's world
        (mode, plan, batch shape, allocator state) identical to one
        already simulated is served without touching the allocator; on a
        miss, a certified compiled template for the same world *class*
        (any batch size) is evaluated symbolically; otherwise simulate in
        full and — if the allocator round-trips — record, and certify a
        template from the recorded pass.
        """
        self._iteration += 1
        iteration = self._iteration
        # Arms the fault window (FaultArmObserver) before replay
        # eligibility reads ``faults.quiet()``.
        self.events.emit(
            IterationStart(
                iteration, decision.mode.value,
                decision.plan.label, batch.input_size,
            )
        )
        strategy = strategy_for(decision)
        replay_key = self._replay_key(batch, decision, strategy)
        if replay_key is not None:
            record = self.replay.lookup(replay_key)
            if record is not None:
                return self._replay_iteration(iteration, decision, record)
            if self.compiled is not None:
                served = self.compiled.serve(
                    self, batch, decision, replay_key, iteration
                )
                if served is not None:
                    return self._compiled_iteration(
                        iteration, decision, replay_key, served
                    )
        return self._simulate(batch, decision, iteration, strategy, replay_key)

    def _state_signature(self) -> tuple:
        """The allocator signature, cached until the allocator mutates.

        Serving an iteration from replay or a compiled template leaves
        the allocator untouched, so steady-state streams re-fingerprint
        an unchanged state every iteration; the version triple is bumped
        by every malloc, free and segment reserve/release.
        """
        alloc = self.allocator
        stats = alloc.stats
        version = (stats.num_allocs, stats.num_frees, stats.bytes_reserved)
        if version != self._sig_version:
            self._sig_cache = alloc.state_signature()
            self._sig_version = version
        return self._sig_cache

    def _replay_key(
        self,
        batch: BatchInput,
        decision: PlanDecision,
        strategy: ExecutionStrategy,
    ) -> Optional[ReplayKey]:
        """The replay fingerprint, or None if the iteration must be
        simulated because it reads a perturbation stream (a fault window
        that is not quiet, or COLLECT under measurement noise).  A bypass
        counts on both tiers; the counters are public contract (see
        :mod:`repro.engine.replay`)."""
        cache = self.replay
        if cache is None:
            return None
        # Every mode is keyed, recovery attempts included: a pass that
        # turns out history-dependent (a reactive eviction) is only kept
        # from being recorded.
        perturbed = self.faults is not None and not self.faults.quiet()
        if perturbed or not strategy.allows_replay(self):  # e.g. noisy COLLECT
            cache.bypasses += 1
            if self.compiled is not None:
                self.compiled.bypasses += 1
            return None
        return ReplayCache.key(
            decision,
            batch,
            self._state_signature(),
            timeline_active=self.timeline is not None and self.timeline.enabled,
        )

    def _replay_iteration(
        self, iteration: int, decision: PlanDecision, record: ReplayRecord
    ) -> IterationStats:
        """Serve one iteration from its replay record (allocator untouched)."""
        self.clock.advance(decision.planning_time)
        if self.events.wants(ReplayHit):
            # the TimelineObserver re-emits the recorded samples
            self.events.emit(
                ReplayHit(
                    iteration, self.clock.now, record.sim_time, record.points
                )
            )
        self.clock.advance(record.sim_time)
        stats = record.materialize(iteration, decision)
        self.events.emit(IterationEnd(stats))
        return stats

    def _compiled_iteration(
        self,
        iteration: int,
        decision: PlanDecision,
        replay_key: ReplayKey,
        served: tuple[IterationStats, float],
    ) -> IterationStats:
        """Apply one compiled-template evaluation (allocator untouched).

        The evaluated world round-tripped by construction (the template's
        steady-state conditions held), so the result is also promoted to
        the exact tier: the same world at the same size replays from now
        on without re-evaluating the template.
        """
        stats, sim_time = served
        self.clock.advance(decision.planning_time)
        if self.events.wants(CompiledHit):
            self.events.emit(CompiledHit(iteration, self.clock.now, sim_time))
        self.clock.advance(sim_time)
        self.replay.store(
            replay_key,
            ReplayRecord(
                stats=replace(stats, planning_time=0.0), sim_time=sim_time
            ),
        )
        self.events.emit(IterationEnd(stats))
        return stats

    def _simulate(
        self,
        batch: BatchInput,
        decision: PlanDecision,
        iteration: int,
        strategy: ExecutionStrategy,
        replay_key: Optional[ReplayKey],
    ) -> IterationStats:
        alloc = self.allocator
        alloc.reset_peaks()
        self._stats.begin(decision.planning_time)
        self.swap.reset()
        self.clock.advance(decision.planning_time)
        sim_start = self.clock.now
        record_points = (
            replay_key is not None
            and self.timeline is not None
            and self.timeline.enabled
        )
        if record_points:
            self._replay_points.arm(sim_start)
        ctx = IterationContext(
            executor=self,
            decision=decision,
            batch=batch,
            iteration=iteration,
            strategy=strategy,
            swap=self.swap,
            profiles=self.model.profiles(batch),
            unit_times=self.model.unit_times(self.device, batch),
        )
        strategy.begin(ctx)  # plan validation errors propagate, not OOM
        fault_block: Optional[Block] = None
        oom = False
        if self.compiled is not None and self.compiled.wants_trace(replay_key):
            # A certification candidate logs its own malloc/free trace and
            # charge stream: the compiled tier certifies from this pass.
            alloc.op_log = []
            self._stats.charges = []
        try:
            if self.faults is not None:
                phantom = self.faults.phantom_bytes()
                if phantom > 0:
                    # fragmentation spike: memory that exists but is not ours
                    fault_block = alloc.malloc(phantom, owner="fault:frag")
            ctx.input_tensor = SimTensor(batch.spec, "input")
            ctx.alloc_tensor(ctx.input_tensor)
            strategy.run_forward(ctx)
            strategy.run_backward(ctx)
            ctx.input_tensor.drop(alloc)
            ctx.input_tensor = None
            ctx.charge("optimizer", self._optimizer_time())
        except OutOfMemoryError:
            # Unwind everything allocated this iteration and report failure.
            ctx.unwind()
            oom = True
            self.events.emit(OomHit(iteration, self.clock.now))
        finally:
            ops, charges = alloc.op_log, self._stats.charges
            alloc.op_log = self._stats.charges = None
        if fault_block is not None:
            alloc.free(fault_block)
        points = self._replay_points.disarm() if record_points else ()
        stats = self._stats.finalize(ctx, oom)
        self.events.emit(IterationEnd(stats))
        if oom:
            if self.raise_on_oom:
                raise IterationOOM(stats)
            return stats
        if (
            replay_key is not None
            and not strategy.history_dependent
            and self._state_signature() == replay_key.signature
        ):
            # Steady state proven: the iteration depended on its world
            # alone and left the allocator exactly as it found it, so
            # replaying it later is indistinguishable from re-simulating it.
            record = ReplayRecord(
                stats=replace(stats, planning_time=0.0),
                sim_time=self.clock.now - sim_start,
                points=points,
            )
            self.replay.store(replay_key, record)
            if self.compiled is not None:
                # one-off certification attempt for this world class
                self.compiled.maybe_certify(
                    self, batch, decision, replay_key, record, ops, charges,
                    strategy.peak_limit(self),
                )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrainingExecutor({self.model.name}, planner={self.planner.name}, "
            f"capacity={self.allocator.capacity})"
        )
