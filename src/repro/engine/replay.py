"""Iteration replay cache — the executor's fast path.

Most iterations of a steady-state training run are *identical worlds*: the
same plan applied to the same batch shape starting from the same allocator
state must produce bit-identical results, because the simulation is
deterministic.  Re-running the tensor-level allocator/clock loop for such
an iteration only re-derives numbers that are already known.  This module
memoizes them.

An iteration is replayed only when its world is **provably** identical
to a recorded one.  The proof is the :class:`ReplayKey`:

* the plan decision's execution mode and the plan's *canonical*
  :class:`~repro.planners.base.ActionAssignment` (per-unit actions plus
  segment grouping) together with the plan label — two decisions whose
  plans assign the same actions key identically no matter which planner
  structures built them (the plan's predicted peak is not part of the
  key: no simulation reads it, and served stats take it from the
  current decision);
* the exact batch shape and dtype;
* the allocator's behavioural :meth:`~repro.tensorsim.allocator
  .CachingAllocator.state_signature` at iteration start (reserved
  segments, free-block cache in order, accounting totals).

Whether a memory timeline records is not part of the key: it is fixed
per executor, and each executor owns its cache.  A timeline executor
builds no compiled tier, so each of its records comes from a full
simulation and carries the samples its replays re-emit.

A record is stored only for iterations that (a) completed without OOM,
(b) left the allocator in exactly the state they found it (steady state)
and (c) read nothing outside their world — so serving the record and
skipping execution leaves the world in the same state full simulation
would have.  On a hit the executor replays the
recorded :class:`~repro.engine.stats.IterationStats` and (optionally) the
memory-timeline deltas, advancing the simulated clock by the recorded
iteration time.

Never replayed, by construction:

* **REACTIVE** iterations that **evict** — DTR's victim choice reads
  runtime history (tensor staleness, the run's clock), so such a pass
  marks itself history-dependent
  (:attr:`~repro.engine.strategies.ExecutionStrategy.history_dependent`)
  just before it asks the planner, and is not recorded.  A REACTIVE pass
  that never asks depends only on its world — the same world makes the
  same allocations, which meet the same budget checks, so it never asks
  on replay either — and is recorded and served like a NORMAL one;
* iterations inside a **fault window** (fragmentation spike, transient
  allocation failure, or measurement noise active) — the pass reads the
  injector, which its key does not cover;
* **COLLECT** iterations while measurement noise is configured — the
  noise RNG stream is stateful and must be consumed by real execution.

Nothing else makes a record stale, so nothing flushes the cache; only
the LRU bound retires records.  A record depends on its key alone: a
refit, a widened reserve or a recovery rung changes *which* plan the
planner picks, never what a plan does in a given world; an OOM unwind or
a fault window leaves the allocator in a state the next key's signature
records; and a recovery attempt is keyed like any other pass (the ladder
patches its retry count, rung and charged time in after the pass).

The only stats field that differs between a replayed iteration and a full
simulation is ``planning_time``: it is genuine wall-clock measured by the
planner (Table III) and is patched in from the current decision, exactly
as the full path charges it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.engine.stats import IterationStats
from repro.models.base import BatchInput
from repro.planners.base import PlanDecision

if TYPE_CHECKING:
    from repro.planners.base import ActionAssignment, ExecutionMode

#: LRU capacity of a :class:`ReplayCache`: distinct (plan, shape,
#: allocator-state) worlds worth remembering; steady-state runs need one
#: entry per recurring batch shape
MAX_RECORDS = 1024


class ReplayKey(NamedTuple):
    """Typed iteration-world fingerprint (see module docstring).

    Shared by the replay tier and the compiled tier: replay requires the
    *whole* key to recur; the compiled tier derives its coarser plan key
    from the same fields (dropping the shape and the signature, both
    inputs of a template's evaluation).
    """

    mode: "ExecutionMode"
    assignment: "ActionAssignment"
    label: str
    shape: tuple
    dtype: str
    signature: tuple


@dataclass(frozen=True, slots=True)
class ReplayRecord:
    """Everything needed to replay one recorded iteration.

    ``stats`` is stored with ``planning_time`` zeroed and a meaningless
    iteration number; both are patched at replay time.  ``points`` are
    memory-timeline samples relative to the post-planning clock.
    """

    stats: IterationStats
    sim_time: float  # simulated seconds excluding the decision's planning
    points: tuple[tuple[float, int, int, str], ...] = ()

    def materialize(
        self, iteration: int, decision: PlanDecision
    ) -> IterationStats:
        """The stats this record stands for at a new iteration number."""
        return replace(
            self.stats,
            iteration=iteration,
            planning_time=decision.planning_time,
            predicted_peak_bytes=decision.plan.predicted_peak_bytes,
        )


class ReplayCache:
    """Bounded LRU of :class:`ReplayRecord` keyed by iteration world, at
    most :data:`MAX_RECORDS` of them."""

    def __init__(self) -> None:
        self._records: OrderedDict[ReplayKey, ReplayRecord] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: iterations not keyed because they read a perturbation stream
        #: (a fault window, or the strategy's veto for noisy COLLECT)
        self.bypasses = 0
        #: always 0: records are never flushed (see the module
        #: docstring); kept because the benchmark harness in
        #: ``perfbench/`` reads it
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._records)

    @staticmethod
    def key(
        decision: PlanDecision,
        batch: BatchInput,
        allocator_signature: tuple,
    ) -> ReplayKey:
        """The iteration-world fingerprint (see module docstring)."""
        return ReplayKey(
            mode=decision.mode,
            assignment=decision.plan.assignment,
            label=decision.plan.label,
            shape=batch.shape,
            dtype=batch.dtype,
            signature=allocator_signature,
        )

    def lookup(self, key: ReplayKey) -> Optional[ReplayRecord]:
        record = self._records.get(key)
        if record is None:
            self.misses += 1
            return None
        self._records.move_to_end(key)
        self.hits += 1
        return record

    def store(self, key: ReplayKey, record: ReplayRecord) -> None:
        self._records[key] = record
        self._records.move_to_end(key)
        if len(self._records) > MAX_RECORDS:
            self._records.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
