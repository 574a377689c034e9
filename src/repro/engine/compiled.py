"""Compiled iteration templates — near-recurrence fast path.

The replay cache (:mod:`repro.engine.replay`) serves an iteration only
when its *exact* world recurs: same plan, same batch shape, same
allocator state.  Multi-size input streams (the paper's Fig. 10 regime)
defeat it — every new sequence length is a new world — even though the
iteration that runs is structurally the *same program* at a different
input size.  This module generalises replay from exact recurrence to
**near-recurrence**: when an iteration completes in steady state,
certification lifts its recorded trace into a *symbolic iteration
template* for its world class ``(mode, assignment, label, dtype,
allocator signature)``; a later iteration in the same class with a new
input size is then served by one template evaluation instead of a full
tensor-level simulation.
The executor's lookup ladder becomes three tiers::

    exact replay hit  →  compiled-template hit  →  full simulation

**Eligibility** is exactly the replay proof: the compiled tier is only
consulted for iterations that produced a :class:`~repro.engine.replay
.ReplayKey` (so fault windows and noisy COLLECT passes never reach it),
and a template is only built from an iteration whose record was stored
— it round-tripped the allocator signature and never read state outside
its world (a REACTIVE pass that asked the planner for an eviction victim
is never recorded).  On top of that the
certifier rejects worlds it cannot prove size-generic: passes that moved
bytes over the copy engine (swap-out completion moves frees and stalls
as the input size changes), iterations that reserve or release segments
mid-flight, and iterations whose memory traffic or time charges are not
a pure function of the plan.  A strategy that checks allocations
against a budget (REACTIVE) supplies it as the template's peak limit:
evaluation serves a size only while the placed peak stays within it, so
the served pass meets no budget check, as its recorded pass met none
that asked for a victim.

**What a template is.**  In an eligible world the *event sequence* of an
iteration is a function of the plan alone — which tensor is allocated
or freed at each step, and which component is charged when, never
depend on the input size.  Only the *sizes* (and through them the
times) do, and each allocation's byte count is one entry of the model's
per-shape request vector (:meth:`~repro.models.base.SegmentedModel
.request_sizes`: the iteration input, every activation record, every
unit boundary).  Certification needs no second execution: the full
simulation that stored the replay record ran with the allocator's op log
(:attr:`~repro.tensorsim.allocator.CachingAllocator.op_log`) and the
stats builder's charge log armed, so the certifier lifts that pass's own
traces into the symbolic form — an alloc/free program over request-vector
slots, a charge program over the ``(component, unit)`` pairs of the
recorded :class:`~repro.engine.events.TimeCharged` stream (each charge
resolved once to the unit time or constant it stands for, and checked
against the recorded value), and the mapping from COLLECT measurements
(the record's own) to the saved-record allocations they sum.  The
starting free list and in-use bytes are decoded from the world's
allocator signature.

**Evaluation** gathers the request sizes from the model's request vector
at the new batch — built once per shape and shared by every template of
the task — and places the alloc/free program on a copy of the world
class's starting free list with the allocator's own placement core,
:class:`~repro.tensorsim.allocator.FreeList` — the same best fit, split
and coalescing decisions full simulation makes, at free-list cost
instead of tensor-simulation cost (no tensors, no events, no signature
hashing).  A placement is a pure function of the program, the starting
free list and the sizes, so it is memoised beside the request vector it
reads (:meth:`~repro.models.base.SegmentedModel.placements`), keyed by
the template's packed :attr:`CompiledTemplate.program`: every template
of the task with an equal program — another world class, another grid
point, a re-certification after LRU eviction — reuses it at that
shape.  The charge program then folds in emission order
(bit-identical float accumulation) and the measurement spec sums the
same block sizes the sheltered collector would have observed.  The
evaluation serves only if the placed free list round-trips to its
starting state — the same steady-state proof the replay tier stores
under — so a served iteration leaves the world exactly as full
simulation would have.  A size at which the program
does not fit or does not round-trip falls back to full simulation; any
*structural* drift (record layout, upkeep rate) deletes the template,
and full simulation may re-certify.

Why not serve stats from the fitted memory-estimator polynomials?  The
estimator is a *regression* — its predictions approximate, so they can
never reproduce ``RunResult.digest`` bit for bit.  Templates instead
evaluate the exact profile-derived sizes the simulation itself would
use; the estimator keeps its planning role (see
:mod:`repro.core.estimator`).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from repro.engine.events import TimeCharged
from repro.engine.replay import ReplayKey, ReplayRecord
from repro.engine.stats import IterationStats, UnitMeasurement
from repro.tensorsim.allocator import SEGMENT_SHIFT, FreeList, request_size

if TYPE_CHECKING:
    from repro.engine.executor import TrainingExecutor
    from repro.models.base import BatchInput, SegmentedModel
    from repro.planners.base import PlanDecision


#: LRU capacity of a :class:`CompiledCache`, in world classes.  Nothing
#: flushes the cache, so this bound alone retires templates.  32 serves
#: the same iterations as 256 on pass 0 of the drift-stream benchmark and
#: on stationary 2000-iteration TC-Bert streams, while a drifting run that
#: certifies ~190 world classes keeps at most 32 of them resident
MAX_TEMPLATES = 32

#: the column of a unit's (forward, backward) times each per-unit compute
#: charge stands for: the collector's second forward and a recompute
#: repeat the forward
_TIME_COLUMN = {"fwd": 0, "recompute": 0, "collect": 0, "bwd": 1}


class _Reject(Exception):
    """Internal: this world cannot be certified size-generic."""


class CompiledKey(NamedTuple):
    """World-*class* fingerprint: a :class:`ReplayKey` minus the size.

    Dropping ``shape`` is what turns exact recurrence into
    near-recurrence — it becomes the template's symbolic input.
    ``timeline_active`` is dropped because timeline
    worlds are never served compiled (per-allocation samples cannot be
    produced without running the allocator).
    """

    mode: object
    assignment: object
    label: str
    dtype: str
    signature: tuple

    @classmethod
    def of(cls, key: ReplayKey) -> "CompiledKey":
        return cls(key.mode, key.assignment, key.label, key.dtype,
                   key.signature)


@dataclass(slots=True, eq=False)
class CompiledTemplate:
    """One certified world class: symbolic programs + starting free list.

    Everything structural (alloc/free program, charge program,
    measurement spec, per-request vector slots) was verified against the
    recorded certification pass before the template was accepted;
    :meth:`evaluate` reads only what depends on the input size, from the
    model's per-shape memo.
    """

    #: per alloc op: its slot in the model's request vector
    req_index: tuple
    #: the event program, flat-encoded: request index ``k`` for an
    #: allocation, ``-k - 1`` for the free of request ``k``
    ops: tuple
    #: the world class's starting free list (never mutated)
    start_free: FreeList
    unit_names: tuple
    #: the certified record layout (:meth:`SegmentedModel.record_layout`)
    layout: tuple
    upkeep_rate: float
    #: per charge, in emission order: ``(component, unit, column,
    #: seconds)`` — the unit's time in ``column`` at the served shape, or
    #: the constant ``seconds`` when ``column`` is None (upkeep, optimizer)
    charge_prog: tuple
    #: per measured unit: (unit_idx, req indices of saved records)
    measure_spec: tuple
    start_in_use: int
    const_stats: IterationStats
    #: in-use bytes a served pass must stay within (the strategy's
    #: :meth:`~repro.engine.strategies.ExecutionStrategy.peak_limit`)
    peak_limit: Optional[int] = None
    #: everything :meth:`_place` reads apart from the sizes, packed: the
    #: placement memo's key (a ``bytes`` caches its hash)
    program: bytes = field(init=False)

    def __post_init__(self) -> None:
        words = [len(self.req_index), len(self.ops), *self.req_index, *self.ops]
        for addr, size in sorted(self.start_free.items()):
            words += (*divmod(addr, 1 << SEGMENT_SHIFT), size)
        self.program = array("q", words).tobytes()

    # ------------------------------------------------------------- evaluate

    def _fingerprint_ok(self, executor, layout: tuple) -> bool:
        """Structural drift check: is this still the certified program?"""
        return (
            layout == self.layout
            and executor.planner.upkeep_time_per_tensor == self.upkeep_rate
        )

    def _place(self, rsizes: list[int]):
        """Run the alloc/free program on a copy of the starting free list.

        Returns ``(block_sizes, peak_overshoot)``, or None when a request
        does not fit (the real allocator would reserve a segment: not
        this template's world) or the free list does not round-trip (not
        steady state at this size).
        """
        free = self.start_free.copy()
        take, give = free.take, free.give  # hoisted: this loop is the hot path
        b: list[int] = [0] * len(self.req_index)
        where: list[int] = [0] * len(self.req_index)
        cur = 0
        peak = 0
        for k in self.ops:
            if k >= 0:  # allocate request k
                placed = take(rsizes[k])
                if placed is None:
                    return None
                where[k], size = placed
                b[k] = size
                cur += size
                if cur > peak:
                    peak = cur
            else:  # free the block of request ~k
                k = -k - 1
                cur -= b[k]
                give(where[k], b[k])
        if free != self.start_free:
            return None
        return b, peak

    def _placement(
        self, model: "SegmentedModel", batch: "BatchInput"
    ) -> Optional[tuple[int, tuple]]:
        """:meth:`_place` at ``batch``, once per program and shape per task.

        Returns ``(peak_overshoot, resized)``, ``resized`` holding
        ``(k, block size)`` for each block larger than its request (a
        split the allocator declined), or None when :meth:`_place` is.
        """
        memo = model.placements(batch)
        try:
            return memo[self.program]
        except KeyError:
            pass
        vec = model.request_sizes(batch)
        rsizes = [vec[i] for i in self.req_index]
        run = self._place(rsizes)
        if run is not None:
            b, peak = run
            run = peak, tuple(
                (k, size) for k, (size, r) in enumerate(zip(b, rsizes))
                if size != r
            )
        memo[self.program] = run
        return run

    def _blocks(self, vec, resized: tuple) -> list[int]:
        """Every request's block size, from the request vector ``vec`` and
        a placement's ``resized`` blocks."""
        b = [vec[i] for i in self.req_index]
        for k, size in resized:
            b[k] = size
        return b

    def evaluate(
        self,
        executor: "TrainingExecutor",
        batch: "BatchInput",
        decision: "PlanDecision",
        iteration: int,
    ) -> Optional[tuple[IterationStats, float] | str]:
        """Serve this template at ``batch``.

        Returns ``(stats, sim_time)`` bit-identical to full simulation,
        the string ``"stale"`` when the template no longer describes the
        world (structural drift — the caller must delete it), or None
        when this particular size cannot be served (fall back to full
        simulation, template stays).
        """
        # The size-dependent inputs — record layout, request vector,
        # placement, unit times — are pure functions of the batch shape,
        # memoised on the model and shared by every template of the task.
        # The layout check guards the gather: equal layouts index the
        # vector alike.
        model = executor.model
        if not self._fingerprint_ok(executor, model.record_layout(batch)):
            return "stale"
        placed = self._placement(model, batch)
        if placed is None:
            return None
        peak_overshoot, resized = placed
        peak = self.start_in_use + peak_overshoot
        if self.peak_limit is not None and peak > self.peak_limit:
            return None  # may meet a budget check: simulate in full
        ut = model.unit_times(executor.device, batch)

        # Fold the charge program in emission order — the same dict-add
        # order full simulation uses, so every float matches bitwise.
        comp = {
            "fwd": 0.0, "bwd": 0.0, "recompute": 0.0, "collect": 0.0,
            "upkeep": 0.0, "optimizer": 0.0,
        }
        t = 0.0
        for name, ui, col, v in self.charge_prog:
            if col is not None:
                v = ut[ui][col]
            comp[name] += v
            t += v

        meas = []
        if self.measure_spec:  # COLLECT: sum each unit's saved blocks
            b = self._blocks(model.request_sizes(batch), resized)
            for ui, req_idx in self.measure_spec:
                saved = 0
                for k in req_idx:
                    saved += b[k]
                meas.append(
                    UnitMeasurement(
                        self.unit_names[ui], batch.input_size, saved,
                        ut[ui][0], ut[ui][1],
                    )
                )

        stats = replace(
            self.const_stats,
            iteration=iteration,
            input_size=batch.input_size,
            input_shape=batch.shape,
            fwd_time=comp["fwd"],
            bwd_time=comp["bwd"],
            recompute_time=comp["recompute"],
            collect_time=comp["collect"],
            planning_time=decision.planning_time,
            upkeep_time=comp["upkeep"],
            optimizer_time=comp["optimizer"],
            peak_in_use=peak,
            measurements=tuple(meas),
            predicted_peak_bytes=decision.plan.predicted_peak_bytes,
        )
        return stats, t


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _certify(
    executor: "TrainingExecutor",
    batch: "BatchInput",
    decision: "PlanDecision",
    replay_key: ReplayKey,
    record: ReplayRecord,
    ops: Sequence[tuple],
    charges: Sequence[TimeCharged],
    peak_limit: Optional[int],
) -> CompiledTemplate:
    """Build and self-test a template from one recorded steady-state pass.

    ``ops`` is the allocator's op log and ``charges`` the ``TimeCharged``
    stream of the full simulation that produced ``record``; ``peak_limit``
    is the strategy's.  Raises :class:`_Reject` when the world cannot be
    proven size-generic.
    """
    if record.stats.num_swapped:
        raise _Reject("the pass moved bytes over the copy engine")
    model = executor.model
    upkeep_rate = executor.planner.upkeep_time_per_tensor
    unit_names = tuple(u.name for u in model.units)
    layout = model.record_layout(batch)

    # ---- each tensor owner's slot in the model's request vector (input,
    # every activation record, every unit boundary), and the (unit,
    # record) of each record slot
    slots: dict[str, int] = {"input": 0}
    record_of: dict[int, tuple[int, int]] = {}
    for ui, (records, _promoted) in enumerate(layout):
        for ri, (name, _saved) in enumerate(records):
            if name in slots:
                raise _Reject(f"ambiguous tensor name {name!r}")
            slot = slots[name] = len(slots)
            record_of[slot] = (ui, ri)
    first_boundary = len(slots)
    for ui, name in enumerate(unit_names):
        bname = f"{name}.out"
        if bname in slots:
            raise _Reject(f"ambiguous tensor name {bname!r}")
        slots[bname] = first_boundary + ui

    # ---- lift the charge program from the recorded charge stream: each
    # charge resolves, once, to the time it stands for — a column of its
    # unit's times, or a constant of the world class — and must equal that
    # value exactly at the certification size
    ut = model.unit_times(executor.device, batch)
    prog = []
    for charge in charges:
        name, ui = charge.component, charge.unit
        col = _TIME_COLUMN.get(name)
        if name == "optimizer" and ui is None:
            v = executor._optimizer_time()
        elif name == "upkeep" and ui is not None:
            v = upkeep_rate * len(layout[ui][0])
        elif col is not None and ui is not None:
            v = ut[ui][col]
        else:  # swap_stall, eviction_search, or time no unit accounts for
            raise _Reject(f"{name!r} charge is not a function of (unit, shape)")
        if v != charge.seconds:
            raise _Reject("charge value is not a pure function of the plan")
        prog.append((name, ui, col, v))

    # ---- lift the op log into the symbolic alloc/free program
    req_index: list[int] = []
    req_sizes0: list[int] = []
    prog_ops: list[int] = []
    b0: list[int] = []
    live: dict[int, int] = {}  # block addr -> req idx, this iteration only
    for op in ops:
        if len(op) == 5:  # malloc
            owner, nbytes, addr, size, reserved_a_segment = op
            if reserved_a_segment:
                raise _Reject("segment reserve/release inside the iteration")
            slot = slots.get(owner)
            if slot is None:
                raise _Reject(f"allocation by unknown owner {owner!r}")
            k = len(req_index)
            req_index.append(slot)
            req_sizes0.append(request_size(nbytes))
            prog_ops.append(k)
            b0.append(size)
            live[addr] = k
        else:  # free
            addr, size = op
            k = live.pop(addr, None)
            if k is None:
                raise _Reject("free of a block from before the iteration")
            if size != b0[k]:
                raise _Reject("freed size diverged")
            prog_ops.append(-k - 1)
    if live:
        raise _Reject("iteration-allocated block outlived the iteration")

    # ---- measurement spec: saved bytes of each measured unit are the sum
    # of its first-materialisation saved-record allocations
    first_rec_ops: dict[int, list[int]] = {}
    for kk, slot in enumerate(req_index):
        if slot in record_of:
            ui, ri = record_of[slot]
            lst = first_rec_ops.setdefault(ui, [])
            if len(lst) < len(layout[ui][0]):
                if ri != len(lst):
                    raise _Reject("activation records allocated out of order")
                lst.append(kk)
    measure_units = [ui for name, ui, _col, _v in prog if name == "collect"]
    measurements = record.stats.measurements
    if len(measure_units) != len(measurements):
        raise _Reject("measurement count diverged")
    measure_spec = []
    for meas, ui in zip(measurements, measure_units):
        records, promoted = layout[ui]
        lst = first_rec_ops.get(ui, [])
        if len(lst) != len(records):
            raise _Reject("measured unit never fully materialised")
        keep = len(records) - 1 if promoted else len(records)
        req_idx = tuple(lst[ri] for ri in range(keep) if records[ri][1])
        saved0 = sum(b0[kk] for kk in req_idx)
        if meas.unit_name != unit_names[ui] or meas.saved_bytes != saved0:
            raise _Reject("measurement is not a sum of saved allocations")
        measure_spec.append((ui, req_idx))

    signature = replay_key.signature
    template = CompiledTemplate(
        req_index=tuple(req_index),
        ops=tuple(prog_ops),
        start_free=FreeList.from_signature(signature),
        unit_names=unit_names,
        layout=layout,
        upkeep_rate=upkeep_rate,
        charge_prog=tuple(prog),
        measure_spec=tuple(measure_spec),
        start_in_use=signature[0],
        const_stats=record.stats,
        peak_limit=peak_limit,
    )

    # ---- self-test: the template must reproduce the certification
    # iteration bit for bit before it is ever trusted elsewhere; it places
    # once, through the memo that the evaluation below then reads
    vec = model.request_sizes(batch)
    if [vec[i] for i in template.req_index] != req_sizes0:
        raise _Reject("vector slots mis-derive the certification requests")
    placed = template._placement(model, batch)
    if placed is None or template._blocks(vec, placed[1]) != b0:
        raise _Reject("placement diverges on the certification trace")
    result = template.evaluate(
        executor, batch, decision, record.stats.iteration
    )
    if not isinstance(result, tuple):
        raise _Reject("template rejects its own certification input")
    stats, t = result
    if replace(stats, planning_time=0.0) != record.stats:
        raise _Reject("template mis-evaluates its certification input")
    # Summed from 0.0 like the template's fold: ``record.sim_time`` is a
    # difference of two absolute clock readings and rounds differently.
    sim_time = 0.0
    for charge in charges:
        sim_time += charge.seconds
    if t != sim_time:
        raise _Reject("template mis-times its certification input")
    return template


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class CompiledCache:
    """Bounded LRU of :class:`CompiledTemplate` keyed by world class, at
    most :data:`MAX_TEMPLATES` of them.

    The middle tier of the executor's lookup ladder.  Consulted only
    after an exact replay miss, for iterations that carry a
    :class:`ReplayKey`; populated by :meth:`maybe_certify` whenever the
    full-simulation path stores a steady-state replay record for a world
    class not yet certified (or already proven uncertifiable).
    """

    def __init__(self) -> None:
        self._templates: OrderedDict[CompiledKey, CompiledTemplate] = (
            OrderedDict()
        )
        self._rejected: set[CompiledKey] = set()
        self.hits = 0
        self.misses = 0
        #: eligible iterations not consulted (timeline recording active)
        self.bypasses = 0
        #: templates successfully certified
        self.certifications = 0
        #: world classes proven uncertifiable (never re-tried: every
        #: reject seen so far is the copy-engine rule, a property of the
        #: plan, not of the size)
        self.rejects = 0
        #: evaluations that could not serve (infeasible size, structural
        #: drift) and fell back to full simulation
        self.fallbacks = 0

    def __len__(self) -> int:
        return len(self._templates)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def serve(
        self,
        executor: "TrainingExecutor",
        batch: "BatchInput",
        decision: "PlanDecision",
        replay_key: ReplayKey,
        iteration: int,
    ) -> Optional[tuple[IterationStats, float]]:
        """(stats, sim_time) for this iteration, or None → full simulation."""
        if replay_key.timeline_active:
            self.bypasses += 1
            return None
        key = CompiledKey.of(replay_key)
        template = self._templates.get(key)
        if template is None:
            self.misses += 1
            return None
        result = template.evaluate(executor, batch, decision, iteration)
        if isinstance(result, tuple):
            self._templates.move_to_end(key)
            self.hits += 1
            return result
        if result == "stale":
            # structural drift: the template no longer describes this
            # world — delete it and let full simulation re-certify
            del self._templates[key]
        self.fallbacks += 1
        self.misses += 1
        return None

    def wants_trace(self, replay_key: Optional[ReplayKey]) -> bool:
        """Whether a full simulation of this world is a certification
        candidate: eligible, no timeline recording, and a world class not
        yet templated or rejected.  The executor arms its op and charge
        logs for exactly these iterations."""
        if replay_key is None or replay_key.timeline_active:
            return False
        key = CompiledKey.of(replay_key)
        return key not in self._templates and key not in self._rejected

    def maybe_certify(
        self,
        executor: "TrainingExecutor",
        batch: "BatchInput",
        decision: "PlanDecision",
        replay_key: ReplayKey,
        record: ReplayRecord,
        ops: Optional[Sequence[tuple]],
        charges: Optional[Sequence[TimeCharged]],
        peak_limit: Optional[int],
    ) -> None:
        """Certify this just-recorded steady-state world class, once.

        ``ops``/``charges`` are the pass's op log and ``TimeCharged``
        stream, None when it was not a candidate (:meth:`wants_trace`);
        ``peak_limit`` is the strategy's
        (:meth:`~repro.engine.strategies.ExecutionStrategy.peak_limit`).
        """
        if ops is None or charges is None:
            return
        key = CompiledKey.of(replay_key)
        try:
            template = _certify(
                executor, batch, decision, replay_key, record, ops, charges,
                peak_limit,
            )
        except _Reject:
            self._rejected.add(key)
            self.rejects += 1
            return
        self._templates[key] = template
        self._templates.move_to_end(key)
        if len(self._templates) > MAX_TEMPLATES:
            self._templates.popitem(last=False)
        self.certifications += 1
