"""Per-mode execution strategies and the iteration pipeline stages.

The executor proper (:mod:`repro.engine.executor`) is a thin driver: it
resolves the planner's :class:`~repro.planners.base.PlanDecision` to an
:class:`ExecutionStrategy`, sets up an :class:`IterationContext`, and
runs ``begin → forward → backward``.  Everything that differs between
execution modes lives here, in one strategy class per mode:

* :class:`NormalStrategy` — apply the planner's checkpoint plan:
  checkpointed units drop internals after their forward and
  rematerialise during backward; segments replay whole groups (Chen et
  al.); swap units ride the PCIe copy engine (Capuchin-style hybrid).
* :class:`CollectStrategy` — Mimose's sheltered execution: every
  checkpointable unit is checkpointed (Sublinear footprint) and runs its
  forward twice (Fig 7), taking per-unit measurements; the sheltered
  backward additionally stamps each unit's backward duration onto its
  measurement (the series the swap cost model prices overlap from).
* :class:`ReactiveStrategy` — DTR semantics: nothing is dropped up
  front; allocations that would exceed the logical budget (or that
  physically fail) trigger the planner's ``on_oom`` eviction.

Cross-cutting concerns are pipeline stages composed around the
strategies:

* :class:`SwapEngine` — the PCIe copy engine (busy-until timestamp,
  in-flight swap-outs, lookahead-1 prefetch);
* :class:`IterationContext` — folds every time charge into its stats
  component and logs it, and counts checkpointed units, evictions,
  swaps and measurements, as the strategies call it;
* :class:`StatsBuilder` — assembles :class:`~repro.engine.stats
  .IterationStats` from the context.

Events on the bus (:mod:`repro.engine.events`) are published after the
context has recorded what they describe, and only when someone listens.

Modelling notes (deviations from a real runtime): intra-unit transients
are allocated before the unit's compute time is charged (a slightly
conservative peak at planner granularity), and activation-gradient
buffers are not modelled separately — both affect all planners
identically and cancel in every relative comparison the paper makes.

Determinism contract: these classes were extracted from the monolithic
executor under a bit-identical ``RunResult.digest`` constraint
(``tests/test_executor_pipeline.py``).  Float accumulation is **order
sensitive** (addition is not associative), so the sequence of
``IterationContext.charge`` calls, the noise-RNG draws in
:class:`CollectStrategy`, and the fault-injector consultations in
``alloc`` must not be reordered casually.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.engine.events import (
    BackwardMeasured,
    MeasurementTaken,
    SwapIn,
    SwapOut,
    TensorAlloc,
    TensorEvicted,
    TimeCharged,
    UnitBackward,
    UnitForward,
)
from repro.engine.stats import IterationStats, UnitMeasurement
from repro.graph.module import ModuleProfile
from repro.planners.base import (
    EvictableGroup,
    ExecutionMode,
    MemoryAction,
    PlanDecision,
)
from repro.tensorsim.allocator import OutOfMemoryError
from repro.tensorsim.tensor import SimTensor

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.executor import TrainingExecutor
    from repro.models.base import BatchInput

#: the components an :meth:`IterationContext.charge` may name
_COMPONENTS = (
    "fwd", "bwd", "recompute", "collect", "upkeep", "optimizer",
    "swap_stall", "eviction_search",
)


@dataclass(slots=True)
class UnitRuntime:
    """Execution-side state of one unit within the current iteration.

    ``internals`` always aligns element-wise with ``records`` — the unit's
    activation records minus the final one when that record *is* the output
    boundary (the boundary lives in ``boundary`` and has its own lifetime).
    """

    name: str
    profile: ModuleProfile
    #: the unit's index in ``model.units``
    index: int
    internals: list[SimTensor] = field(default_factory=list)
    records: tuple = ()
    boundary: Optional[SimTensor] = None
    boundary_is_internal: bool = False
    recompute_needed: bool = False
    fwd_time: float = 0.0
    bwd_time: float = 0.0
    last_access: float = 0.0
    # swap state (hybrid plans): offloaded means the saved internals live
    # in host memory and must be transferred back before backward
    offloaded: bool = False
    swapin_issued: bool = False
    swapin_done: float = 0.0


# ---------------------------------------------------------------------------
# Cross-cutting stage: the PCIe copy engine
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SwapEngine:
    """One PCIe copy engine: serialised transfers, busy-until timestamp.

    Swap-outs release device memory only when the transfer completes
    (:meth:`flush`); backward prefetches the next offloaded unit with a
    lookahead of one (:meth:`issue_swapin`) and stalls on the remainder.

    Transfers are timed on the iteration's own clock
    (:attr:`IterationContext.elapsed`), not the run's: a difference of
    two absolute readings rounds by where the run's clock happens to be
    (which side of a power of two, how much host planning time came
    before), and a swap iteration's stalls must be a function of its
    world alone for the replay tier to serve it.
    """

    copy_free: float = 0.0
    pending: list[tuple[float, UnitRuntime]] = field(default_factory=list)

    def reset(self) -> None:
        """Idle at the start of an iteration, nothing in flight."""
        self.copy_free = 0.0
        self.pending = []

    def flush(self, ctx: "IterationContext") -> None:
        """Release activations whose swap-out has completed by now."""
        if not self.pending:
            return
        now = ctx.elapsed
        remaining: list[tuple[float, UnitRuntime]] = []
        for done, rt in self.pending:
            if done <= now and rt.internals:
                for t in rt.internals:
                    t.drop(ctx.allocator)
                rt.internals = []
                rt.offloaded = True
            elif done > now:
                remaining.append((done, rt))
        self.pending = remaining

    def cancel(self, rt: UnitRuntime) -> None:
        """Abort in-flight swap-outs the backward pass caught up with."""
        self.pending = [(t, r) for t, r in self.pending if r is not rt]

    def schedule_out(self, ctx: "IterationContext", rt: UnitRuntime) -> None:
        """Queue the unit's saved activations onto the copy engine."""
        nbytes = sum(
            t.block.size for t in rt.internals if t.block is not None
        )
        start = max(self.copy_free, ctx.elapsed)
        done = start + ctx.device.transfer_time(nbytes)
        self.copy_free = done
        self.pending.append((done, rt))
        ctx.num_swapped += 1
        if ctx.bus.wants(SwapOut):
            ctx.bus.emit(SwapOut(ctx.iteration, rt.name, nbytes, done))

    def issue_swapin(self, ctx: "IterationContext", rt: UnitRuntime) -> None:
        """Start prefetching an offloaded unit's activations (idempotent)."""
        if not rt.offloaded or rt.swapin_issued:
            return
        rt.internals = []
        nbytes = 0
        for rec in rt.records:
            t = SimTensor(rec.spec, rec.name)
            ctx.alloc_tensor(t)
            rt.internals.append(t)
            if t.block is not None:
                nbytes += t.block.size
        start = max(self.copy_free, ctx.elapsed)
        rt.swapin_done = start + ctx.device.transfer_time(nbytes)
        self.copy_free = rt.swapin_done
        rt.swapin_issued = True
        if ctx.bus.wants(SwapIn):
            ctx.bus.emit(
                SwapIn(ctx.iteration, rt.name, nbytes, rt.swapin_done)
            )


# ---------------------------------------------------------------------------
# Iteration context: shared state + tensor-lifetime helpers
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class IterationContext:
    """Everything one iteration's pipeline stages share.

    Owns the per-iteration mutable state (unit runtimes, the input
    tensor, what the stats report) and the tensor-lifetime helpers the
    strategies compose.  Tensor allocation (:meth:`alloc_tensor`)
    dispatches through the strategy so reactive planners can interpose
    eviction.
    """

    executor: "TrainingExecutor"
    decision: PlanDecision
    batch: "BatchInput"
    iteration: int
    strategy: "ExecutionStrategy"
    swap: SwapEngine
    profiles: tuple[ModuleProfile, ...]
    #: per unit: (forward, backward) seconds at this batch
    unit_times: tuple[tuple[float, float], ...]
    runtimes: list[UnitRuntime] = field(default_factory=list)
    input_tensor: Optional[SimTensor] = None
    #: simulated seconds charged so far this iteration: the copy engine's
    #: clock (see :class:`SwapEngine`)
    elapsed: float = 0.0
    #: seconds per stats component, each summed in charge order
    times: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(_COMPONENTS, 0.0)
    )
    #: every charge as ``(component, seconds, unit)``, in call order: the
    #: charge stream the compiled tier certifies templates from
    charges: list[tuple[str, float, Optional[int]]] = field(
        default_factory=list
    )
    measurements: list[UnitMeasurement] = field(default_factory=list)
    num_checkpointed: int = 0
    evictions: int = 0
    num_swapped: int = 0

    # ----------------------------------------------------------- shortcuts

    @property
    def allocator(self):
        return self.executor.allocator

    @property
    def clock(self):
        return self.executor.clock

    @property
    def device(self):
        return self.executor.device

    @property
    def bus(self):
        return self.executor.events

    @property
    def faults(self):
        return self.executor.faults

    @property
    def planner(self):
        return self.executor.planner

    @property
    def model(self):
        return self.executor.model

    # ---------------------------------------------------------- time & alloc

    def charge(
        self, component: str, seconds: float, unit: Optional[int] = None
    ) -> None:
        """Advance the clock and charge one stats component, naming the
        unit (its index in ``model.units``) the time is spent on."""
        self.clock.advance(seconds)
        self.elapsed += seconds
        self.times[component] += seconds
        self.charges.append((component, seconds, unit))
        if self.bus.wants(TimeCharged):
            self.bus.emit(TimeCharged(component, seconds, unit))

    def alloc_tensor(self, tensor: SimTensor) -> None:
        self.strategy.alloc(self, tensor)

    # ------------------------------------------------------ tensor lifetimes

    def materialize_internals(self, rt: UnitRuntime) -> None:
        """(Re)allocate the unit's non-boundary activations, record-aligned.

        On the first forward call ``records`` is not yet trimmed, so this
        allocates all activation records; :meth:`ensure_boundary` then
        promotes the trailing record to the boundary if applicable.  On
        recompute calls ``records`` is already trimmed and the boundary is
        still live, so exactly the dropped internals come back.
        """
        assert not any(t.is_materialized for t in rt.internals), "already live"
        if not rt.records:
            rt.records = rt.profile.activations
        rt.internals = []
        # Transient (non-saved) tensors are freed as soon as their consumer
        # has run — modelled as "when the next record is allocated".  The
        # trailing transient survives until the unit's cleanup (it may be
        # the unit output awaiting boundary promotion).
        prev_transient: Optional[SimTensor] = None
        for rec in rt.records:
            t = SimTensor(rec.spec, rec.name)
            self.alloc_tensor(t)
            rt.internals.append(t)
            if prev_transient is not None:
                prev_transient.drop(self.allocator)
            prev_transient = None if rec.saved else t

    def ensure_boundary(self, rt: UnitRuntime) -> None:
        """Bind the unit's output tensor (reusing the last record if it is it)."""
        if rt.boundary is not None:
            return
        acts = rt.profile.activations
        if acts and acts[-1].spec == rt.profile.output and rt.internals:
            rt.boundary = rt.internals.pop()
            rt.records = rt.records[:-1]
            rt.boundary_is_internal = True
        else:
            rt.boundary = SimTensor(rt.profile.output, f"{rt.name}.out")
            self.alloc_tensor(rt.boundary)
            rt.boundary_is_internal = False

    def drop_internals(self, rt: UnitRuntime) -> None:
        """Checkpoint/evict: free every internal (the boundary stays).

        ``records`` is reset to the full non-boundary record list so a later
        recompute rematerialises the transient working tensors too.
        """
        for t in rt.internals:
            t.drop(self.allocator)
        rt.internals = []
        acts = rt.profile.activations
        rt.records = acts[:-1] if rt.boundary_is_internal else acts

    def free_transients(self, rt: UnitRuntime) -> None:
        """Free forward-only working tensors; keep the saved ones."""
        keep_tensors: list[SimTensor] = []
        keep_records = []
        for t, rec in zip(rt.internals, rt.records):
            if rec.saved:
                keep_tensors.append(t)
                keep_records.append(rec)
            else:
                t.drop(self.allocator)
        rt.internals = keep_tensors
        rt.records = tuple(keep_records)

    def release_unit(self, rt: UnitRuntime) -> None:
        for t in rt.internals:
            t.drop(self.allocator)
        rt.internals = []
        if rt.boundary is not None:
            rt.boundary.drop(self.allocator)
        rt.boundary = None

    def saved_block_bytes(self, rt: UnitRuntime) -> int:
        """Allocator-rounded bytes of the unit's saved activations."""
        total = 0
        for t, rec in zip(rt.internals, rt.records):
            if rec.saved and t.block is not None:
                total += t.block.size
        return total

    def unwind(self) -> None:
        """OOM: free everything this iteration allocated, in reverse-ish
        order (pending swap-outs, every unit runtime, the input)."""
        self.swap.pending = []
        for rt in self.runtimes:
            self.release_unit(rt)
        if self.input_tensor is not None:
            self.input_tensor.drop(self.allocator)
            self.input_tensor = None

    # -------------------------------------------------------------- events

    def emit_unit_forward(self, rt: UnitRuntime, checkpointed: bool) -> None:
        """Count a checkpointed (or segment member) unit's finished forward."""
        if checkpointed:
            self.num_checkpointed += 1
        if self.bus.wants(UnitForward):
            alloc = self.allocator
            self.bus.emit(
                UnitForward(
                    self.iteration,
                    rt.name,
                    self.clock.now,
                    alloc.bytes_in_use,
                    alloc.bytes_reserved,
                    rt.fwd_time,
                    checkpointed,
                )
            )

    def emit_unit_backward(self, rt: UnitRuntime) -> None:
        if self.bus.wants(UnitBackward):
            alloc = self.allocator
            self.bus.emit(
                UnitBackward(
                    self.iteration,
                    rt.name,
                    self.clock.now,
                    alloc.bytes_in_use,
                    alloc.bytes_reserved,
                )
            )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class ExecutionStrategy:
    """One execution mode's forward/backward/allocation behaviour.

    Instances are created fresh per iteration by :func:`strategy_for`, so
    subclasses may keep per-iteration state (segment groups, evictable
    pools) as plain attributes.  Unless a pass marks itself
    :attr:`history_dependent`, its order of allocations and charges must
    depend only on the plan and the record layout, because the compiled
    tier (:mod:`repro.engine.compiled`) lifts both from one recorded pass
    and serves them at other sizes.
    """

    #: the :class:`ExecutionMode` this strategy implements
    mode: ClassVar[ExecutionMode]
    #: this pass's verdict: set once it reads state outside its world
    #: (runtime history, the run's clock); such a pass is neither
    #: recorded for replay nor certified (see engine.replay)
    history_dependent: bool = False

    def allows_replay(self, executor: "TrainingExecutor") -> bool:
        """Per-executor replay veto (e.g. a stateful noise RNG stream)."""
        return True

    def peak_limit(self, executor: "TrainingExecutor") -> Optional[int]:
        """In-use bytes a pass served at another size must stay within,
        or None when any placed peak is fine."""
        return None

    def begin(self, ctx: IterationContext) -> None:
        """Validate/stage per-iteration structures before any allocation."""

    def run_forward(self, ctx: IterationContext) -> None:
        raise NotImplementedError

    def run_backward(self, ctx: IterationContext) -> None:
        raise NotImplementedError

    def alloc(self, ctx: IterationContext, tensor: SimTensor) -> None:
        """Plan-based allocation: fail fast on (injected) OOM."""
        faults = ctx.faults
        if faults is not None and faults.should_fail(tensor.nbytes):
            raise OutOfMemoryError(
                tensor.nbytes,
                ctx.allocator.bytes_free_cached,
                ctx.allocator.largest_free_block(),
            )
        tensor.materialize(ctx.allocator)
        if ctx.bus.wants(TensorAlloc):
            ctx.bus.emit(
                TensorAlloc(
                    ctx.iteration, tensor.nbytes, tensor.name, ctx.clock.now
                )
            )

    # --------------------------------------------------------- shared steps

    def open_unit(self, ctx: IterationContext, ui: int) -> UnitRuntime:
        """Per-unit forward prologue: upkeep charge + runtime registration."""
        prof = ctx.profiles[ui]
        fwd_t, bwd_t = ctx.unit_times[ui]
        upkeep_rate = ctx.planner.upkeep_time_per_tensor
        if upkeep_rate:
            ctx.charge("upkeep", upkeep_rate * len(prof.activations), ui)
        rt = UnitRuntime(
            prof.module_name, prof, ui, fwd_time=fwd_t, bwd_time=bwd_t
        )
        ctx.runtimes.append(rt)  # registered before allocs so OOM unwinds it
        return rt

    def forward_compute(self, ctx: IterationContext, rt: UnitRuntime) -> None:
        """Allocate activations, charge the forward, bind the boundary."""
        ctx.materialize_internals(rt)
        ctx.charge("fwd", rt.fwd_time, rt.index)
        ctx.ensure_boundary(rt)

    def recompute_if_needed(
        self, ctx: IterationContext, rt: UnitRuntime
    ) -> None:
        """Rematerialise a checkpointed/evicted unit before its backward."""
        if not rt.recompute_needed:
            return
        ctx.materialize_internals(rt)
        ctx.charge("recompute", rt.fwd_time, rt.index)
        upkeep_rate = ctx.planner.upkeep_time_per_tensor
        if upkeep_rate:
            ctx.charge(
                "upkeep", upkeep_rate * len(rt.profile.activations), rt.index
            )
        ctx.free_transients(rt)
        rt.recompute_needed = False


class NormalStrategy(ExecutionStrategy):
    """Apply the planner's checkpoint plan: drops, segments, and swap."""

    mode = ExecutionMode.NORMAL

    def __init__(self) -> None:
        self.seg_of: dict[str, int] = {}
        self.seg_first: set[str] = set()
        self.seg_last: set[str] = set()
        self.seg_runtimes: dict[int, list[UnitRuntime]] = {}

    def begin(self, ctx: IterationContext) -> None:
        self.seg_of, self.seg_first, self.seg_last = segment_info(
            ctx.model, ctx.decision
        )

    def run_forward(self, ctx: IterationContext) -> None:
        # One dispatch point: the plan's canonical assignment answers
        # "what happens to this unit" — no per-structure set-membership.
        # Non-checkpointable units always KEEP, whatever a plan claims
        # (plans may legitimately mention them; execution ignores that).
        assignment = ctx.decision.plan.assignment
        prev_rt: Optional[UnitRuntime] = None
        for ui, unit in enumerate(ctx.model.units):
            ctx.swap.flush(ctx)
            rt = self.open_unit(ctx, ui)
            action = (
                assignment.action_for(unit.name)
                if unit.checkpointable
                else MemoryAction.KEEP
            )
            self.forward_compute(ctx, rt)
            if action is MemoryAction.SEGMENT:
                # segment member: internals drop like a checkpoint, and
                # the *interior* boundary feeding this unit drops too —
                # the group recompute will rebuild both
                ctx.drop_internals(rt)
                self.seg_runtimes.setdefault(
                    self.seg_of[unit.name], []
                ).append(rt)
                if (
                    unit.name not in self.seg_first
                    and prev_rt is not None
                    and prev_rt.boundary is not None
                ):
                    prev_rt.boundary.drop(ctx.allocator)
            elif action is MemoryAction.RECOMPUTE:
                ctx.drop_internals(rt)
                rt.recompute_needed = True
            else:
                ctx.free_transients(rt)
                rt.last_access = ctx.clock.now
                if action is MemoryAction.SWAP and rt.internals:
                    # memory is released once the copy engine finishes
                    ctx.swap.schedule_out(ctx, rt)
            prev_rt = rt
            ctx.emit_unit_forward(
                rt,
                action is MemoryAction.RECOMPUTE
                or action is MemoryAction.SEGMENT,
            )

    def run_backward(self, ctx: IterationContext) -> None:
        bwd_order = list(reversed(ctx.runtimes))
        for j, rt in enumerate(bwd_order):
            ctx.swap.flush(ctx)
            # cancel swap-outs the backward reached before they finished
            ctx.swap.cancel(rt)
            # prefetch the next unit's swapped activations (lookahead 1)
            if j + 1 < len(bwd_order):
                ctx.swap.issue_swapin(ctx, bwd_order[j + 1])
            if rt.offloaded:
                ctx.swap.issue_swapin(ctx, rt)
                if ctx.elapsed < rt.swapin_done:
                    ctx.charge(
                        "swap_stall", rt.swapin_done - ctx.elapsed, rt.index
                    )
                rt.offloaded = False
            if rt.name in self.seg_last:
                # group recompute: replay the whole segment forward,
                # rebuilding internals and interior boundaries
                for urt in self.seg_runtimes[self.seg_of[rt.name]]:
                    ctx.materialize_internals(urt)
                    ctx.charge("recompute", urt.fwd_time, urt.index)
                    ctx.free_transients(urt)
                    if urt is not rt and urt.boundary is not None:
                        urt.boundary.materialize(ctx.allocator)
            self.recompute_if_needed(ctx, rt)
            ctx.charge("bwd", rt.bwd_time, rt.index)
            ctx.release_unit(rt)
            ctx.emit_unit_backward(rt)


class CollectStrategy(ExecutionStrategy):
    """Mimose's sheltered execution: measure everything, keep the
    Sublinear footprint, run every checkpointable forward twice (Fig 7).

    Segments and swap plans are NORMAL-mode concepts and are ignored
    here — sheltered decisions carry bare plans by construction.
    """

    mode = ExecutionMode.COLLECT

    def __init__(self) -> None:
        #: measured unit -> its index in ``ctx.measurements``
        self.measured: dict[str, int] = {}

    def allows_replay(self, executor: "TrainingExecutor") -> bool:
        # the measurement-noise stream is stateful and must advance
        return executor.noise_rng is None

    def run_forward(self, ctx: IterationContext) -> None:
        noise_rng = ctx.executor.noise_rng
        for ui, unit in enumerate(ctx.model.units):
            rt = self.open_unit(ctx, ui)
            self.forward_compute(ctx, rt)
            if unit.checkpointable:
                saved = ctx.saved_block_bytes(rt)
                meas_t = rt.fwd_time
                if noise_rng is not None:
                    jitter = 1.0 + noise_rng.normal(
                        0.0, ctx.executor.measurement_noise, 2
                    )
                    saved = max(0, int(saved * max(jitter[0], 0.0)))
                    meas_t = rt.fwd_time * max(jitter[1], 0.0)
                if ctx.faults is not None:
                    saved = ctx.faults.perturb_measurement(saved)
                measurement = UnitMeasurement(
                    unit.name, ctx.batch.input_size, saved, meas_t
                )
                self.measured[unit.name] = len(ctx.measurements)
                ctx.measurements.append(measurement)
                if ctx.bus.wants(MeasurementTaken):
                    ctx.bus.emit(MeasurementTaken(ctx.iteration, measurement))
                # the second, shuttling forward pass (Fig 7)
                ctx.charge("collect", rt.fwd_time, rt.index)
                # sheltered execution keeps the Sublinear footprint
                ctx.drop_internals(rt)
                rt.recompute_needed = True
            else:
                ctx.free_transients(rt)
                rt.last_access = ctx.clock.now
            ctx.emit_unit_forward(rt, unit.checkpointable)

    def run_backward(self, ctx: IterationContext) -> None:
        # The sheltered backward is also a measurement pass: each measured
        # unit's backward duration is stamped onto its forward
        # measurement, in place (the measurements keep forward order),
        # giving the collector the backward series the cost model prices
        # swap overlap windows from — measured execution, not a ratio.
        # The stopwatch is the *simulated* clock charge, never host time
        # (replint's wall-clock rule keeps it that way).
        noise_rng = ctx.executor.noise_rng
        for rt in reversed(ctx.runtimes):
            self.recompute_if_needed(ctx, rt)
            bwd_t = rt.bwd_time
            ctx.charge("bwd", bwd_t, rt.index)
            i = self.measured.get(rt.name)
            if i is not None:
                meas_t = bwd_t
                if noise_rng is not None:
                    # drawn after every forward-pass jitter of this
                    # iteration, so the forward noise stream (and every
                    # pre-extension measurement) is unchanged
                    meas_t = bwd_t * max(
                        1.0 + noise_rng.normal(
                            0.0, ctx.executor.measurement_noise
                        ),
                        0.0,
                    )
                ctx.measurements[i] = dc_replace(
                    ctx.measurements[i], bwd_time=meas_t
                )
                if ctx.bus.wants(BackwardMeasured):
                    ctx.bus.emit(
                        BackwardMeasured(ctx.iteration, rt.name, meas_t)
                    )
            ctx.release_unit(rt)
            ctx.emit_unit_backward(rt)


class ReactiveStrategy(ExecutionStrategy):
    """DTR semantics: keep everything, evict on demand via the planner.

    Eviction decisions depend on runtime history (tensor staleness, the
    run's clock), so a pass marks itself :attr:`history_dependent` just
    before it asks the planner for a victim.  A pass that never asks
    depends only on its world — the same world makes the same
    allocations, which meet the same budget checks — and is recorded and
    served like any other.  At another size it is served only while its
    peak stays within the logical budget (:meth:`peak_limit`).
    """

    mode = ExecutionMode.REACTIVE

    def __init__(self) -> None:
        self.evictable: dict[str, UnitRuntime] = {}

    def peak_limit(self, executor: "TrainingExecutor") -> Optional[int]:
        # A budget check adds an allocation's raw bytes to the in-use
        # bytes before it; in-use after the allocation is at least that
        # sum, so a placed peak within the budget meets no check.
        return executor.planner.budget_bytes

    def run_forward(self, ctx: IterationContext) -> None:
        for ui, unit in enumerate(ctx.model.units):
            rt = self.open_unit(ctx, ui)
            self.forward_compute(ctx, rt)
            ctx.free_transients(rt)
            rt.last_access = ctx.clock.now
            if unit.checkpointable and rt.internals:
                self.evictable[rt.name] = rt
            ctx.emit_unit_forward(rt, False)

    def run_backward(self, ctx: IterationContext) -> None:
        for rt in reversed(ctx.runtimes):
            self.recompute_if_needed(ctx, rt)
            ctx.charge("bwd", rt.bwd_time, rt.index)
            self.evictable.pop(rt.name, None)
            ctx.release_unit(rt)
            ctx.emit_unit_backward(rt)

    def alloc(self, ctx: IterationContext, tensor: SimTensor) -> None:
        faults = ctx.faults
        injected = faults is not None and faults.should_fail(tensor.nbytes)
        if injected:
            # Reactive planners react to a failed cudaMalloc by evicting;
            # give them the same chance against an injected failure.
            self._evict_one(ctx, tensor.nbytes)
        # Enforce the logical budget first, then let the planner evict on
        # genuine (fragmentation) failures too.
        budget = ctx.planner.budget_bytes
        needed = tensor.nbytes
        allocator = ctx.allocator
        while (
            allocator.bytes_in_use + needed > budget
            and self._evict_one(ctx, needed)
        ):
            pass
        while True:
            try:
                tensor.materialize(allocator)
                break
            except OutOfMemoryError:
                if not self._evict_one(ctx, needed):
                    raise
        if ctx.bus.wants(TensorAlloc):
            ctx.bus.emit(
                TensorAlloc(
                    ctx.iteration, tensor.nbytes, tensor.name, ctx.clock.now
                )
            )

    def _evict_one(self, ctx: IterationContext, requested: int) -> bool:
        pool = {
            name: EvictableGroup(
                unit_name=name,
                nbytes=sum(
                    t.block.size for t in rt.internals
                    if t.block is not None and t is not rt.boundary
                ),
                compute_time=rt.fwd_time,
                last_access=rt.last_access,
                num_tensors=len(rt.internals),
            )
            for name, rt in self.evictable.items()
        }
        pool = {k: g for k, g in pool.items() if g.nbytes > 0}
        if not pool:
            return False
        # the policy reads staleness and the run's clock
        self.history_dependent = True
        victim, search_t = ctx.planner.on_oom(requested, pool, ctx.clock.now)
        ctx.charge("eviction_search", search_t)
        if victim is None:
            return False
        rt = self.evictable.pop(victim)
        ctx.drop_internals(rt)
        rt.recompute_needed = True
        ctx.evictions += 1
        if ctx.bus.wants(TensorEvicted):
            ctx.bus.emit(
                TensorEvicted(
                    ctx.iteration, victim, pool[victim].nbytes, ctx.clock.now
                )
            )
        return True


# ---------------------------------------------------------------------------
# Strategy registry
# ---------------------------------------------------------------------------


_STRATEGIES: dict[ExecutionMode, type[ExecutionStrategy]] = {
    ExecutionMode.NORMAL: NormalStrategy,
    ExecutionMode.COLLECT: CollectStrategy,
    ExecutionMode.REACTIVE: ReactiveStrategy,
}


def register_strategy(cls: type[ExecutionStrategy]) -> type[ExecutionStrategy]:
    """Register (or override) the strategy class for ``cls.mode``.

    Usable as a decorator; this is the pluggable-backend hook.
    """
    _STRATEGIES[cls.mode] = cls
    return cls


def strategy_for(decision: PlanDecision) -> ExecutionStrategy:
    """A fresh strategy instance for the decision's execution mode."""
    try:
        cls = _STRATEGIES[decision.mode]
    except KeyError:
        raise ValueError(
            f"no execution strategy registered for {decision.mode!r}"
        ) from None
    return cls()


# ---------------------------------------------------------------------------
# Segment indexing (NORMAL-mode plans)
# ---------------------------------------------------------------------------


def segment_info(
    model, decision: PlanDecision
) -> tuple[dict[str, int], set[str], set[str]]:
    """Validate plan segments and index them.

    Returns ``(unit -> segment id, first-of-segment names,
    last-of-segment names)``.  Each segment must be a consecutive run
    of checkpointable units in model order.
    """
    segments = decision.plan.assignment.segments
    if not segments:
        return {}, set(), set()
    order = {u.name: i for i, u in enumerate(model.units)}
    checkpointable = {u.name for u in model.units if u.checkpointable}
    seg_of: dict[str, int] = {}
    first: set[str] = set()
    last: set[str] = set()
    for sid, segment in enumerate(segments):
        indices = []
        for name in segment:
            if name not in order:
                raise ValueError(f"unknown unit in segment: {name!r}")
            if name not in checkpointable:
                raise ValueError(
                    f"non-checkpointable unit in segment: {name!r}"
                )
            indices.append(order[name])
            seg_of[name] = sid
        if indices != list(range(indices[0], indices[0] + len(indices))):
            raise ValueError(
                f"segment units must be consecutive in model order: {segment}"
            )
        first.add(segment[0])
        last.add(segment[-1])
    return seg_of, first, last


# ---------------------------------------------------------------------------
# Cross-cutting stage: stats assembly
# ---------------------------------------------------------------------------


class StatsBuilder:
    """Assembles :class:`IterationStats` from an iteration's context.

    The time components were summed in charge order by
    :meth:`IterationContext.charge`, which matches the charge order of
    the pre-refactor executor exactly — float addition is not
    associative, and ``RunResult.digest`` is pinned bit-identical.
    Eviction-search time is kept in its own sum and folded into the
    planning component once, here (the planner's search *is* planning
    work, Table III).
    """

    def finalize(self, ctx: IterationContext, oom: bool) -> IterationStats:
        comp = ctx.times
        executor = ctx.executor
        alloc = executor.allocator
        decision = ctx.decision
        return IterationStats(
            iteration=ctx.iteration,
            input_size=ctx.batch.input_size,
            input_shape=ctx.batch.shape,
            mode=decision.mode.value,
            plan_label=decision.plan.label or executor.planner.name,
            num_checkpointed=ctx.num_checkpointed,
            fwd_time=comp["fwd"],
            bwd_time=comp["bwd"],
            recompute_time=comp["recompute"],
            collect_time=comp["collect"],
            planning_time=decision.planning_time + comp["eviction_search"],
            upkeep_time=comp["upkeep"],
            optimizer_time=comp["optimizer"],
            peak_in_use=alloc.stats.peak_in_use,
            peak_reserved=alloc.stats.peak_reserved,
            end_in_use=alloc.bytes_in_use,
            fragmentation_bytes=alloc.fragmentation_bytes(),
            evictions=ctx.evictions,
            oom=oom,
            measurements=tuple(ctx.measurements),
            swap_stall_time=comp["swap_stall"],
            num_swapped=ctx.num_swapped,
            predicted_peak_bytes=decision.plan.predicted_peak_bytes,
        )
