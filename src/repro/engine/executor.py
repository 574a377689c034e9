"""Simulated training executor — the iteration-pipeline driver.

Runs training iterations of a :class:`~repro.models.base.SegmentedModel`
under a :class:`~repro.planners.base.Planner`, allocating every activation
from the simulated caching allocator and advancing a simulated clock per
the device roofline model.  The executor itself is deliberately thin:
per-mode behaviour lives in :mod:`repro.engine.strategies`, and what
happens is published on :attr:`TrainingExecutor.events`
(:mod:`repro.engine.events`) for observers.  The engine reads nothing
back from the bus: fault windows, stats and planner feedback are direct
calls.  One iteration runs as::

    plan → arm fault window → (record lookup: replay, then compiled)
         → strategy.begin → input alloc → strategy.run_forward
         → strategy.run_backward → optimizer → stats finalize
         → (replay-record store) → measurement noise → planner.observe

Modelling deviations from a real runtime are documented in
:mod:`repro.engine.strategies`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.engine.compiled import CompiledCache
from repro.engine.events import (
    CompiledHit, EventBus, IterationEnd, IterationObserved, IterationStart,
    OomHit, RecoveryRung, ReplayHit,
)
from repro.engine.replay import ReplayCache, ReplayKey, ReplayRecord
from repro.engine.stats import IterationStats
from repro.engine.strategies import (
    ExecutionStrategy, IterationContext, StatsBuilder, SwapEngine,
    strategy_for,
)
from repro.models.base import BatchInput, SegmentedModel
from repro.planners.base import PlanDecision, Planner
from repro.tensorsim.allocator import Block, CachingAllocator, OutOfMemoryError
from repro.tensorsim.clock import SimClock
from repro.tensorsim.device import DeviceModel
from repro.tensorsim.faults import FaultInjector, FaultPlan
from repro.tensorsim.tensor import SimTensor


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
        faults: optional fault-injection plan (or a prebuilt injector),
            deterministic per seed — see :mod:`repro.tensorsim.faults`.
            It is the run's only perturbation stream: fragmentation
            spikes, transient allocation failures and measurement noise.
        max_recovery_retries: retry budget per iteration when the planner
            supports recovery (see :meth:`step`); 0 makes any OOM fatal.
        replay: enable the iteration replay cache
            (:mod:`repro.engine.replay`).
        compiled: enable the compiled-template tier
            (:mod:`repro.engine.compiled`); requires ``replay`` (the
            compiled tier shares replay's eligibility proof and key).

    The tiers are fixed here, once, by ``replay`` and ``compiled``
    alone: what varies per iteration is only the world a tier is asked
    to serve.  Attach observers, a
    :class:`~repro.engine.trace.MemoryTimeline` included, to
    :attr:`events`; execution events come only from the iterations the
    executor simulates.
    """

    def __init__(
        self,
        model: SegmentedModel,
        planner: Planner,
        *,
        device: Optional[DeviceModel] = None,
        capacity_bytes: Optional[int] = None,
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
        if max_recovery_retries < 0:
            raise ValueError("max_recovery_retries must be non-negative")
        self.max_recovery_retries = max_recovery_retries
        self.faults: Optional[FaultInjector] = (
            faults.build() if isinstance(faults, FaultPlan) else faults
        )
        self.replay: Optional[ReplayCache] = ReplayCache() if replay else None
        self.compiled: Optional[CompiledCache] = (
            CompiledCache() if replay and compiled else None
        )
        self._sig_cache: Optional[tuple] = None
        self._sig_version: Optional[tuple] = None
        self._iteration = 0
        self._static_blocks = self._allocate_static()
        self.swap = SwapEngine()
        self._stats = StatsBuilder()
        self.events = EventBus()
        # A planner exposing a lifecycle controller (MimosePlanner)
        # publishes its lifecycle and drift events on this bus.
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
        # stream; observers see them after any lifecycle events the
        # observation caused.
        self.planner.observe(stats)
        self.events.emit(IterationObserved(stats))
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

        Three-tier lookup for the record of this iteration's world (plan,
        batch shape, allocator state): the replay cache's, if the world
        was seen; else the one the plan's certified compiled template
        evaluates (any batch size and allocator state), which the replay
        cache then stores.  Either record is served alike, without
        touching the allocator.  Otherwise simulate in full and — if the
        allocator round-trips — record, and certify a template from the
        recorded pass.  Measurement noise then corrupts the measurements
        the planner observes, served or simulated alike; records and
        templates keep the simulated ones.
        """
        self._iteration += 1
        iteration = self._iteration
        faults = self.faults
        if faults is not None:
            # before replay eligibility reads ``faults.quiet()``
            faults.begin_iteration(iteration)
        self.events.emit(
            IterationStart(
                iteration, decision.mode.value,
                decision.plan.label, batch.input_size,
            )
        )
        strategy = strategy_for(decision)
        replay_key = self._replay_key(batch, decision)
        record = None
        compiled = False
        if replay_key is not None:
            record = self.replay.lookup(replay_key)
            compiled = record is None and self.compiled is not None
            if compiled:
                record = self.compiled.serve(self, batch, replay_key)
                if record is not None:
                    # a served pass leaves the allocator as it found it
                    # (a balanced program placed without a new segment),
                    # so its world replays from now on
                    self.replay.store(replay_key, record)
        if record is not None:
            stats = self._serve(iteration, decision, record, compiled)
        else:
            stats = self._simulate(
                batch, decision, iteration, strategy, replay_key
            )
        if faults is not None and stats.measurements:
            # one draw per measurement, in unit order, from the
            # iteration's own noise stream
            stats = replace(stats, measurements=tuple(
                replace(m, saved_bytes=faults.perturb_measurement(m.saved_bytes))
                for m in stats.measurements
            ))
        self.events.emit(IterationEnd(stats))
        return stats

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
        self, batch: BatchInput, decision: PlanDecision
    ) -> Optional[ReplayKey]:
        """The replay fingerprint, or None if the iteration must be
        simulated because a fault perturbs its allocator (a fragmentation
        spike or a pending transient failure).  The bypass counter is
        public contract (see :mod:`repro.engine.replay`)."""
        cache = self.replay
        if cache is None:
            return None
        # Every mode is keyed, recovery attempts included: a pass that
        # turns out history-dependent (a reactive eviction) is only kept
        # from being recorded.
        if self.faults is not None and not self.faults.quiet():
            cache.bypasses += 1
            return None
        return ReplayCache.key(decision, batch, self._state_signature())

    def _serve(
        self,
        iteration: int,
        decision: PlanDecision,
        record: ReplayRecord,
        compiled: bool,
    ) -> IterationStats:
        """Serve one iteration from the record of its world (allocator
        untouched); ``compiled`` says a template evaluated it just now."""
        self.clock.advance(decision.planning_time)
        if compiled:
            if self.events.wants(CompiledHit):
                self.events.emit(
                    CompiledHit(iteration, self.clock.now, record.sim_time)
                )
        elif self.events.wants(ReplayHit):
            self.events.emit(
                ReplayHit(iteration, self.clock.now, record.sim_time)
            )
        self.clock.advance(record.sim_time)
        return record.materialize(iteration, decision)

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
        self.swap.reset()
        self.clock.advance(decision.planning_time)
        sim_start = self.clock.now
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
            # A certification candidate logs its own malloc/free trace:
            # the compiled tier certifies from it and the context's
            # charge stream.
            alloc.op_log = []
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
            ops, alloc.op_log = alloc.op_log, None
        if fault_block is not None:
            alloc.free(fault_block)
        stats = self._stats.finalize(ctx, oom)
        if oom:
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
            )
            self.replay.store(replay_key, record)
            if self.compiled is not None:
                # one-off certification attempt for this plan
                self.compiled.maybe_certify(
                    self, batch, replay_key, record, ops, ctx.charges,
                    strategy.peak_limit(self),
                )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrainingExecutor({self.model.name}, planner={self.planner.name}, "
            f"capacity={self.allocator.capacity})"
        )
