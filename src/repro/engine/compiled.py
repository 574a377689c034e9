"""Compiled iteration templates — near-recurrence fast path.

The replay cache (:mod:`repro.engine.replay`) serves an iteration only
when its *exact* world recurs: same plan, same batch shape, same
allocator state.  Multi-size input streams (the paper's Fig. 10 regime)
defeat it — every new sequence length is a new world, and the allocator
state drifts as segments are reserved for longer inputs — even though
the iteration that runs is structurally the *same program*.  This module
generalises replay to **near-recurrence**: certification lifts a
steady-state iteration's recorded trace into a *symbolic template* for
its :class:`~repro.engine.replay.PlanKey`, and a later iteration under
that plan, at another input size or allocator state, is served by one
template evaluation instead of a full tensor-level simulation::

    exact replay hit  →  compiled-template hit  →  full simulation

**Eligibility** is exactly the replay proof: the compiled tier is only
consulted for iterations that produced a :class:`~repro.engine.replay
.ReplayKey` (so fault windows and noisy COLLECT passes never reach it),
and a template is only built from an iteration whose record was stored
— it round-tripped the allocator signature and never read state outside
its world (a REACTIVE pass that asked the planner for an eviction victim
is never recorded).  Like a replay hit, an evaluation publishes no
execution events, so observers (a memory timeline included) see only
simulated iterations.  On top
of that the certifier rejects plans it cannot prove size-generic: passes
that moved bytes over the copy engine (swap-out completion moves frees
and stalls as the input size changes), iterations that reserve or
release segments mid-flight, and iterations whose memory traffic or
time charges are not a pure function of the plan.  A strategy that
checks allocations against a budget (REACTIVE) supplies it as the
template's peak limit: evaluation serves only while the placed peak
stays within it, so the served pass meets no budget check, as its
recorded pass met none that asked for a victim.

**What a template is.**  A pass that is not
:attr:`~repro.engine.strategies.ExecutionStrategy.history_dependent`
allocates, frees and charges in an order set by the plan and the record
layout alone.  The input size sets only the byte counts (and through
them the times), each one entry of the model's per-shape request vector
(:meth:`~repro.models.base.SegmentedModel.request_sizes`: the iteration
input, every activation record, every unit boundary); the allocator
state sets only where each block lands.  Certification needs no second
execution: the full simulation that stored the replay record ran with
the allocator's op log (:attr:`~repro.tensorsim.allocator
.CachingAllocator.op_log`) armed and logged its charges
(:attr:`~repro.engine.strategies.IterationContext.charges`), so the
certifier lifts that pass's own traces into the symbolic form — an
alloc/free program over request-vector slots, a charge program over the
``(component, unit)`` pairs of the recorded charge stream (each charge
resolved once to the unit time or constant it stands for, and checked
against the recorded value), and the mapping from COLLECT measurements
(the record's own) to the request-vector slots of the saved records
they sum.  A template holds no allocator state.

**Evaluation** takes the batch and the world's allocator signature as
inputs, and asks the allocator's own placement core,
:class:`~repro.tensorsim.allocator.FreeList`, one question: does the
alloc/free program, at the batch's request sizes, place on the free
list the signature encodes without a new segment?  It answers with the
same best fit, split and coalescing decisions full simulation makes, at
free-list cost (no tensors, no events, no signature hashing).  Nothing
else about the placement needs computing, because every block is
exactly its request (:mod:`repro.tensorsim.allocator`; the certifier
checks it on the recorded pass):

* the placed peak is the running maximum of the live request bytes
  along the program, a function of (program, shape) alone;
* the COLLECT measurements are sums of request-vector entries;
* a served pass round-trips by construction: the program is balanced
  (it frees every block it allocates), it reserves no segment, and a
  coalesced free list that gets back every byte it gave is the list it
  started as.  That is the steady-state proof the replay tier stores
  under, so a served iteration leaves the world exactly as full
  simulation would have.

The peak (per program and shape) and the verdict (per program, shape
and the signature's canonical free blocks) are memoised beside the
request vector they read
(:meth:`~repro.models.base.SegmentedModel.placements`), under the
template's packed :attr:`CompiledTemplate.program`; the free list is
decoded only when a verdict is missing.  The charge program then folds
in emission order (bit-identical float accumulation), and the signature
gives the memory stats.  The result is a
:class:`~repro.engine.replay.ReplayRecord`, the same object a full
simulation stores: the executor serves it like a replay hit and stores
it under the iteration's replay key.  A request that finds no block, a
peak over the limit, or a record layout other than the certified one
falls back to full simulation, and the template stays.  (Every
registered model has one record layout at every shape, so the layout
check only guards the gather.)  The planner's upkeep rate cannot drift:
a cache, like its planner, belongs to one executor, and the rate is
fixed when the planner is built.

Why not serve stats from the fitted memory-estimator polynomials?  The
estimator is a *regression* — its predictions approximate, so they can
never reproduce ``RunResult.digest`` bit for bit.  Templates instead
evaluate the exact profile-derived sizes the simulation itself would
use; the estimator keeps its planning role (see
:mod:`repro.core.estimator`).
"""

from __future__ import annotations

from array import array
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.engine.replay import PlanKey, ReplayKey, ReplayRecord
from repro.engine.stats import IterationStats, UnitMeasurement
from repro.tensorsim.allocator import FreeList, request_size

if TYPE_CHECKING:
    from repro.engine.executor import TrainingExecutor
    from repro.models.base import BatchInput, SegmentedModel


#: LRU capacity of a :class:`CompiledCache`, in plans.  Nothing flushes
#: the cache, so this bound alone retires templates; 2000-iteration Mimose
#: streams on TC-Bert, drifting or not, certify 12 plans and keep all 12
MAX_TEMPLATES = 32

#: the column of a unit's (forward, backward) times each per-unit compute
#: charge stands for: the collector's second forward and a recompute
#: repeat the forward
_TIME_COLUMN = {"fwd": 0, "recompute": 0, "collect": 0, "bwd": 1}


class _Reject(Exception):
    """Internal: this plan cannot be certified size-generic."""


@dataclass(slots=True, eq=False)
class CompiledTemplate:
    """One certified plan: its symbolic programs, and no allocator state.

    Everything structural (alloc/free program, charge program,
    measurement spec, per-request vector slots) was verified against the
    recorded certification pass before the template was accepted;
    :meth:`evaluate` reads what depends on the input size from the
    model's per-shape memo, and what depends on the allocator state from
    the world's signature.
    """

    #: per alloc op: its slot in the model's request vector
    req_index: tuple
    #: the event program, flat-encoded: request index ``k`` for an
    #: allocation, ``-k - 1`` for the free of request ``k``
    ops: tuple
    unit_names: tuple
    #: the certified record layout (:meth:`SegmentedModel.record_layout`)
    layout: tuple
    #: per charge, in emission order: ``(component, unit, column,
    #: seconds)`` — the unit's time in ``column`` at the served shape, or
    #: the constant ``seconds`` when ``column`` is None (upkeep, optimizer)
    charge_prog: tuple
    #: per measured unit: (unit_idx, vector slots of its saved records)
    measure_spec: tuple
    #: the certification pass's stats, as its record stores them
    const_stats: IterationStats
    #: in-use bytes a served pass must stay within (the strategy's
    #: :meth:`~repro.engine.strategies.ExecutionStrategy.peak_limit`)
    peak_limit: Optional[int] = None
    #: everything :meth:`_placement` reads of the template, packed: the
    #: placement memo's key (a ``bytes`` caches its hash)
    program: bytes = field(init=False)

    def __post_init__(self) -> None:
        self.program = array(
            "q", [len(self.req_index), *self.req_index, *self.ops]
        ).tobytes()

    # ------------------------------------------------------------- evaluate

    def _place(self, free: FreeList, rsizes: list[int]) -> bool:
        """Run the alloc/free program on the free list ``free``, consuming
        it: whether every request fits without a new segment.

        A placement that fits gives ``free`` back as it found it: the
        program is balanced and the list coalesced (:class:`FreeList`).
        """
        take, give = free.take, free.give  # hoisted: this loop is the hot path
        where: list[int] = [0] * len(self.req_index)
        for k in self.ops:
            if k >= 0:  # allocate request k
                addr = take(rsizes[k])
                if addr is None:
                    return False
                where[k] = addr
            else:  # free the block of request ~k
                k = -k - 1
                give(where[k], rsizes[k])
        return True

    def _placement(
        self, model: "SegmentedModel", batch: "BatchInput", signature: tuple
    ) -> Optional[int]:
        """The peak overshoot of this program at ``batch`` if it places
        from the allocator state ``signature``, else None.

        Blocks are their requests, so the overshoot is the running maximum
        of the live request bytes, once per (program, shape); the verdict
        of :meth:`_place` is once per (program, shape, free blocks).  Both
        are memoised per task.
        """
        memo = model.placements(batch)
        entry = memo.get(self.program)
        fits = None if entry is None else entry[1].get(signature[3])
        if fits is None:
            vec = model.request_sizes(batch)
            rsizes = [vec[i] for i in self.req_index]
            if entry is None:
                cur = peak = 0
                for k in self.ops:
                    if k >= 0:
                        cur += rsizes[k]
                        if cur > peak:
                            peak = cur
                    else:
                        cur -= rsizes[-k - 1]
                entry = memo[self.program] = peak, {}
            fits = entry[1][signature[3]] = self._place(
                FreeList.from_signature(signature), rsizes
            )
        return entry[0] if fits else None

    def evaluate(
        self,
        executor: "TrainingExecutor",
        batch: "BatchInput",
        signature: tuple,
    ) -> Optional[ReplayRecord]:
        """Serve this template at ``batch`` from the allocator state
        ``signature`` (:meth:`CachingAllocator.state_signature`).

        Returns the record full simulation would store for this world,
        bit for bit, or None when this size and state cannot be served
        (fall back to full simulation; the template stays).  Like every
        record, its stats carry the recording pass's iteration and
        predicted peak and no planning time
        (:meth:`ReplayRecord.materialize` patches them).
        """
        # The size-dependent inputs — record layout, request vector,
        # placement, unit times — are pure functions of the batch shape
        # (placement also of the starting free blocks), memoised on the
        # model and shared by every template of the task.  The layout
        # check guards the gather: equal layouts index the vector alike.
        model = executor.model
        if model.record_layout(batch) != self.layout:
            return None
        peak_overshoot = self._placement(model, batch, signature)
        if peak_overshoot is None:
            return None
        in_use, reserved, _segments, free_blocks = signature
        peak = in_use + peak_overshoot
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
            vec = model.request_sizes(batch)
            for ui, slots in self.measure_spec:
                meas.append(
                    UnitMeasurement(
                        self.unit_names[ui], batch.input_size,
                        sum(vec[i] for i in slots), ut[ui][0], ut[ui][1],
                    )
                )

        # placed without a new segment, so it ends as it started
        largest_free = max((size for _seg, _off, size in free_blocks), default=0)
        stats = replace(
            self.const_stats,
            input_size=batch.input_size,
            input_shape=batch.shape,
            fwd_time=comp["fwd"],
            bwd_time=comp["bwd"],
            recompute_time=comp["recompute"],
            collect_time=comp["collect"],
            upkeep_time=comp["upkeep"],
            optimizer_time=comp["optimizer"],
            peak_in_use=peak,
            peak_reserved=reserved,
            end_in_use=in_use,
            fragmentation_bytes=max(0, reserved - in_use - largest_free),
            measurements=tuple(meas),
        )
        return ReplayRecord(stats, t)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _certify(
    executor: "TrainingExecutor",
    batch: "BatchInput",
    replay_key: ReplayKey,
    record: ReplayRecord,
    ops: Sequence[tuple],
    charges: Sequence[tuple],
    peak_limit: Optional[int],
) -> CompiledTemplate:
    """Build and self-test a template from one recorded steady-state pass.

    ``ops`` is the allocator's op log and ``charges`` the ``(component,
    seconds, unit)`` charge stream of the full simulation that produced
    ``record``; ``peak_limit`` is the strategy's.  Raises
    :class:`_Reject` when the world cannot be proven size-generic.
    """
    if record.stats.num_swapped:
        raise _Reject("the pass moved bytes over the copy engine")
    model = executor.model
    upkeep_rate = executor.planner.upkeep_time_per_tensor
    unit_names = tuple(u.name for u in model.units)
    layout = model.record_layout(batch)

    # ---- each tensor's slot in the model's request vector: the input and
    # the unit boundaries by owner name, every activation record by (unit
    # index, name relative to the unit); and the (unit, record) of each
    # record slot
    slots: dict[object, int] = {"input": 0}
    record_of: dict[int, tuple[int, int]] = {}
    for ui, (records, _promoted) in enumerate(layout):
        for ri, (name, _saved) in enumerate(records):
            if (ui, name) in slots:
                raise _Reject(f"ambiguous tensor name {name!r}")
            slot = slots[ui, name] = len(slots)
            record_of[slot] = (ui, ri)
    first_boundary = len(slots)
    for ui, name in enumerate(unit_names):
        slots[f"{name}.out"] = first_boundary + ui
    # a record's owner is "<unit>/<relative name>"; unit names hold no "/"
    unit_index = {name: ui for ui, name in enumerate(unit_names)}

    def slot_of(owner: str) -> Optional[int]:
        unit, sep, name = owner.partition("/")
        return slots.get((unit_index.get(unit), name) if sep else owner)

    # ---- lift the charge program from the recorded charge stream: each
    # charge resolves, once, to the time it stands for — a column of its
    # unit's times, or a constant of the template — and must equal that
    # value exactly at the certification size
    ut = model.unit_times(executor.device, batch)
    prog = []
    for name, seconds, ui in charges:
        col = _TIME_COLUMN.get(name)
        if name == "optimizer" and ui is None:
            v = executor._optimizer_time()
        elif name == "upkeep" and ui is not None:
            v = upkeep_rate * len(layout[ui][0])
        elif col is not None and ui is not None:
            v = ut[ui][col]
        else:  # swap_stall, eviction_search, or time no unit accounts for
            raise _Reject(f"{name!r} charge is not a function of (unit, shape)")
        if v != seconds:
            raise _Reject("charge value is not a pure function of the plan")
        prog.append((name, ui, col, v))

    # ---- lift the op log into the symbolic alloc/free program
    req_index: list[int] = []
    req_sizes0: list[int] = []
    prog_ops: list[int] = []
    live: dict[int, int] = {}  # block addr -> req idx, this iteration only
    for op in ops:
        if len(op) == 5:  # malloc
            owner, nbytes, addr, size, reserved_a_segment = op
            if reserved_a_segment:
                raise _Reject("segment reserve/release inside the iteration")
            slot = slot_of(owner)
            if slot is None:
                raise _Reject(f"allocation by unknown owner {owner!r}")
            if size != request_size(nbytes):
                raise _Reject("block larger than its request")
            k = len(req_index)
            req_index.append(slot)
            req_sizes0.append(size)
            prog_ops.append(k)
            live[addr] = k
        else:  # free
            addr, size = op
            k = live.pop(addr, None)
            if k is None:
                raise _Reject("free of a block from before the iteration")
            if size != req_sizes0[k]:
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
        req_idx = [lst[ri] for ri in range(keep) if records[ri][1]]
        saved0 = sum(req_sizes0[kk] for kk in req_idx)
        if meas.unit_name != unit_names[ui] or meas.saved_bytes != saved0:
            raise _Reject("measurement is not a sum of saved allocations")
        measure_spec.append((ui, tuple(req_index[kk] for kk in req_idx)))

    template = CompiledTemplate(
        req_index=tuple(req_index),
        ops=tuple(prog_ops),
        unit_names=unit_names,
        layout=layout,
        charge_prog=tuple(prog),
        measure_spec=tuple(measure_spec),
        const_stats=record.stats,
        peak_limit=peak_limit,
    )

    # ---- self-test: the template must reproduce the certification
    # iteration bit for bit before it is ever trusted elsewhere
    vec = model.request_sizes(batch)
    if [vec[i] for i in template.req_index] != req_sizes0:
        raise _Reject("vector slots mis-derive the certification requests")
    served = template.evaluate(executor, batch, replay_key.signature)
    if served is None:
        raise _Reject("template rejects its own certification input")
    if served.stats != record.stats:
        raise _Reject("template mis-evaluates its certification input")
    # Summed from 0.0 like the template's fold: ``record.sim_time`` is a
    # difference of two absolute clock readings and rounds differently.
    sim_time = 0.0
    for _name, seconds, _ui in charges:
        sim_time += seconds
    if served.sim_time != sim_time:
        raise _Reject("template mis-times its certification input")
    return template


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class CompiledCache:
    """Bounded LRU of :class:`CompiledTemplate` keyed by
    :class:`PlanKey`, at most :data:`MAX_TEMPLATES` of them.

    The middle tier of the executor's lookup ladder.  Consulted only
    after an exact replay miss, for iterations that carry a
    :class:`ReplayKey`; populated by :meth:`maybe_certify` whenever the
    full-simulation path stores a steady-state replay record under a
    plan neither certified nor proven uncertifiable.
    """

    def __init__(self) -> None:
        self._templates: OrderedDict[PlanKey, CompiledTemplate] = OrderedDict()
        self._rejected: set[PlanKey] = set()
        self.hits = 0
        self.misses = 0
        #: templates successfully certified
        self.certifications = 0
        #: plans proven uncertifiable, counted by the reason certification
        #: gave (never re-tried: every reject seen so far is the
        #: copy-engine rule, a property of the plan, not of the size)
        self.reject_reasons: Counter[str] = Counter()
        #: evaluations that could not serve (no block, a peak over the
        #: limit, another record layout) and fell back to full simulation
        self.fallbacks = 0

    def __len__(self) -> int:
        return len(self._templates)

    @property
    def rejects(self) -> int:
        """Plans proven uncertifiable, over every reason."""
        return self.reject_reasons.total()

    def serve(
        self,
        executor: "TrainingExecutor",
        batch: "BatchInput",
        replay_key: ReplayKey,
    ) -> Optional[ReplayRecord]:
        """The record of this iteration's world, evaluated by its plan's
        template, or None → full simulation."""
        template = self._templates.get(replay_key.plan)
        if template is None:
            self.misses += 1
            return None
        record = template.evaluate(executor, batch, replay_key.signature)
        if record is None:
            self.fallbacks += 1
            self.misses += 1
            return None
        self._templates.move_to_end(replay_key.plan)
        self.hits += 1
        return record

    def wants_trace(self, replay_key: Optional[ReplayKey]) -> bool:
        """Whether a full simulation of this world is a certification
        candidate: eligible, and a plan not yet templated or rejected.
        The executor arms the allocator's op log for exactly these
        iterations."""
        if replay_key is None:
            return False
        plan = replay_key.plan
        return plan not in self._templates and plan not in self._rejected

    def maybe_certify(
        self,
        executor: "TrainingExecutor",
        batch: "BatchInput",
        replay_key: ReplayKey,
        record: ReplayRecord,
        ops: Optional[Sequence[tuple]],
        charges: Sequence[tuple],
        peak_limit: Optional[int],
    ) -> None:
        """Certify the plan of this just-recorded steady-state pass, once.

        ``ops`` is the pass's op log, None when it was not a candidate
        (:meth:`wants_trace`), and ``charges`` its charge stream;
        ``peak_limit`` is the strategy's
        (:meth:`~repro.engine.strategies.ExecutionStrategy.peak_limit`).
        """
        if ops is None:
            return
        key = replay_key.plan
        try:
            template = _certify(
                executor, batch, replay_key, record, ops, charges, peak_limit
            )
        except _Reject as reject:
            self._rejected.add(key)
            self.reject_reasons[str(reject)] += 1
            return
        self._templates[key] = template
        self._templates.move_to_end(key)
        if len(self._templates) > MAX_TEMPLATES:
            self._templates.popitem(last=False)
        self.certifications += 1
