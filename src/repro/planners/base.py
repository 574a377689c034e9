"""Planner protocol shared by Mimose and all baselines.

The executor drives a planner through three hooks:

* :meth:`Planner.setup` — once per run, with a :class:`ModelView`, when
  the executor is built.  Static planners may pre-analyse the model here
  (their papers allow it); Mimose, by design, only reads unit names and
  learns the rest online.
* :meth:`Planner.plan` — once per iteration, before the forward pass, with
  the incoming batch.  Returns a :class:`PlanDecision`.
* :meth:`Planner.observe` — once per iteration, after execution, with the
  measured :class:`~repro.engine.stats.IterationStats`.

Reactive planners (DTR) additionally implement :meth:`Planner.on_oom`,
invoked from inside the allocator when an allocation fails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.models.base import BatchInput, SegmentedModel, StaticMemory

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.stats import IterationStats
    from repro.graph.module import ModuleProfile
    from repro.tensorsim.device import DeviceModel


class MemoryAction(enum.Enum):
    """What happens to one unit's saved activations after its forward.

    The per-unit vocabulary every planner speaks and every execution
    strategy interprets (docs/architecture.md, "The action layer"):

    * ``KEEP`` — activations stay resident until their backward (the
      default; also everything a plan does not mention).
    * ``RECOMPUTE`` — dropped after forward, rematerialised by re-running
      the unit's forward just before its backward (checkpointing).
    * ``SWAP`` — offloaded to host memory over PCIe after forward and
      prefetched back before the backward (the hybrid planners of
      Table I); memory is released when the copy engine finishes.
    * ``SEGMENT`` — member of a Chen-et-al. segment: interior boundaries
      drop too and the backward replays the whole segment front-to-back.
      Membership is derived from :attr:`ActionAssignment.segments`, never
      assigned directly, because the *grouping* (which units recompute
      together) is part of the action.
    """

    KEEP = "keep"
    RECOMPUTE = "recompute"
    SWAP = "swap"
    SEGMENT = "segment"


@dataclass(frozen=True, slots=True)
class ActionAssignment:
    """Immutable, canonical mapping of unit name → :class:`MemoryAction`.

    The per-unit decisions a :class:`CheckpointPlan` carries.
    ``actions`` holds only the non-KEEP, non-SEGMENT entries as a tuple of
    ``(unit, action)`` pairs sorted by unit name — the *canonical form*,
    so two assignments describing the same per-unit decisions are equal
    and hash equal no matter how they were built.  ``segments`` keeps its
    given group order (the grouping and intra-segment order are semantic:
    the backward replays each group front-to-back).

    The constructor canonicalises: KEEP entries are dropped, duplicate
    pairs collapse, and conflicting assignments raise ``ValueError`` with
    the same messages the legacy three-set plan validation used.  Lookup
    is O(1) via a private index built once at construction.
    """

    actions: tuple[tuple[str, MemoryAction], ...] = ()
    segments: tuple[tuple[str, ...], ...] = ()
    _index: dict[str, MemoryAction] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        by_unit: dict[str, MemoryAction] = {}
        both: set[str] = set()
        for name, action in self.actions:
            if action is MemoryAction.KEEP:
                continue
            if action is MemoryAction.SEGMENT:
                raise ValueError(
                    "SEGMENT membership is derived from `segments`; "
                    f"unit {name!r} cannot be assigned it directly"
                )
            prev = by_unit.get(name)
            if prev is not None and prev is not action:
                both.add(name)
            by_unit[name] = action
        if both:
            raise ValueError(
                f"units cannot be both dropped and swapped: {sorted(both)}"
            )
        segments = tuple(tuple(seg) for seg in self.segments)
        for segment in segments:
            if not segment:
                raise ValueError("segments must be non-empty")
            for name in segment:
                if name in by_unit:
                    raise ValueError(
                        f"unit {name!r} has conflicting plan assignments"
                    )
                by_unit[name] = MemoryAction.SEGMENT
        object.__setattr__(
            self,
            "actions",
            tuple(
                sorted(
                    (n, a)
                    for n, a in by_unit.items()
                    if a is not MemoryAction.SEGMENT
                )
            ),
        )
        object.__setattr__(self, "segments", segments)
        self._index.update(by_unit)

    # ------------------------------------------------------------- factories

    @classmethod
    def from_sets(
        cls,
        *,
        recompute: Iterable[str] = (),
        swap: Iterable[str] = (),
        segments: tuple[tuple[str, ...], ...] = (),
    ) -> "ActionAssignment":
        """Build from the set vocabulary: recompute set, swap set, segments."""
        pairs = [(n, MemoryAction.RECOMPUTE) for n in recompute]
        pairs += [(n, MemoryAction.SWAP) for n in swap]
        return cls(tuple(pairs), segments)

    # --------------------------------------------------------------- lookups

    def action_for(self, unit_name: str) -> MemoryAction:
        """The action assigned to a unit (KEEP when unmentioned)."""
        return self._index.get(unit_name, MemoryAction.KEEP)

    def units_with(self, action: MemoryAction) -> frozenset[str]:
        if action is MemoryAction.SEGMENT:
            return frozenset(n for seg in self.segments for n in seg)
        return frozenset(n for n, a in self.actions if a is action)

    @property
    def units(self) -> frozenset[str]:
        """Every unit with a non-KEEP action."""
        return frozenset(self._index)

    @property
    def checkpoint_units(self) -> frozenset[str]:
        return self.units_with(MemoryAction.RECOMPUTE)

    @property
    def swap_units(self) -> frozenset[str]:
        return self.units_with(MemoryAction.SWAP)

    @property
    def segment_units(self) -> frozenset[str]:
        return self.units_with(MemoryAction.SEGMENT)

    @property
    def is_empty(self) -> bool:
        return not self._index


@dataclass(frozen=True, slots=True)
class CheckpointPlan:
    """Per-unit memory actions for one iteration, plus their provenance.

    ``assignment`` is the plan's identity — the canonical per-unit
    actions the plan cache and the replay key hash on.  ``label`` names
    the decision that produced it (reported as
    ``IterationStats.plan_label``).

    ``predicted_peak_bytes`` is the peak memory the issuing planner
    predicted for this plan (None when the planner made no prediction).
    It travels *with* the plan — through the plan cache and into the
    iteration stats — so post-hoc residual tracking always compares an
    observation against the prediction that actually produced the plan,
    including on cache-served iterations.
    """

    assignment: ActionAssignment
    label: str = ""
    predicted_peak_bytes: Optional[int] = None

    @classmethod
    def none(cls) -> "CheckpointPlan":
        return cls(ActionAssignment(), "none")


class ExecutionMode(enum.Enum):
    """How the executor should run the iteration.

    The mode selects an :class:`~repro.engine.strategies.ExecutionStrategy`
    via the strategy registry (``strategy_for(decision)``) — the executor
    itself never branches on it.  New modes are added by registering a
    strategy class (``@register_strategy``), not by editing the executor.
    """

    NORMAL = "normal"
    #: Mimose sheltered execution: shuttling double-forward on every
    #: checkpointable unit, per-unit measurements returned in the stats.
    COLLECT = "collect"
    #: DTR-style: start with everything resident, evict via on_oom.
    REACTIVE = "reactive"


@dataclass(frozen=True, slots=True)
class PlanDecision:
    """A planner's answer for one iteration.

    ``planning_time`` is the time the planner itself spent (or would spend
    on the real system) producing this decision; the executor charges it to
    the iteration, which is how planner overhead shows up in Fig 5 and
    Table III.

    ``recovery_mode`` is non-empty only for decisions produced by
    :meth:`Planner.recover` and names the escalation rung taken
    (e.g. ``"replan"``, ``"widen-reserve"``, ``"full-checkpoint"``).

    The decision is the whole interface between planner and executor:
    ``mode`` picks the execution strategy and ``plan`` parameterises it.
    A recovery rung changes planner state, and with it which plan the
    planner picks, never what a plan does: a recovery attempt is keyed
    for replay like any other pass.
    """

    plan: CheckpointPlan
    mode: ExecutionMode = ExecutionMode.NORMAL
    planning_time: float = 0.0
    recovery_mode: str = ""


class ModelView:
    """What a planner may know about the model.

    ``unit_names``/``checkpointable`` describe the structure (visible to
    everyone — it is in the user's training script).  ``profiles`` is the
    offline analysis oracle: static planners call it with their assumed
    worst-case batch; Mimose never calls it.
    """

    def __init__(self, model: SegmentedModel) -> None:
        self._model = model
        self.unit_names: tuple[str, ...] = tuple(model.unit_names())
        self.checkpointable: frozenset[str] = frozenset(
            u.name for u in model.checkpointable_units()
        )
        self.static_memory: StaticMemory = model.static_memory()

    def profiles(self, batch: BatchInput) -> tuple["ModuleProfile", ...]:
        """Offline model analysis (static planners only)."""
        return self._model.profiles(batch)

    def unit_times(
        self, device: "DeviceModel", batch: BatchInput
    ) -> tuple[tuple[float, float], ...]:
        """Per-unit (forward, backward) seconds on ``device`` (measured
        execution, for planners that price actions by time)."""
        return self._model.unit_times(device, batch)


@dataclass(frozen=True, slots=True)
class PlannerCapabilities:
    """Table I feature matrix row for a planner."""

    swapping: bool = False
    checkpointing: bool = True
    dynamic_input: bool = False
    dynamic_graph: bool = False
    #: survives a *shifting* input-size distribution (drift monitors +
    #: online replanning) — beyond per-iteration dynamic_input handling
    nonstationary_input: bool = False
    fragmentation_avoidance: str = "none"
    granularity: str = "layer"
    plan_timing: str = "offline"
    search_space: str = "holistic"
    search_algorithm: str = "greedy"


class Planner:
    """Base class; subclasses override the hooks they need."""

    name: str = "planner"
    capabilities: PlannerCapabilities = PlannerCapabilities()
    #: Per-tracked-tensor bookkeeping time charged on every unit execution
    #: (non-zero only for DTR, which maintains per-tensor cost metadata).
    upkeep_time_per_tensor: float = 0.0
    #: Whether the executor should be given physical device capacity rather
    #: than the budget as a hard cap.  True for planners that only enforce
    #: the budget logically (baseline, DTR) or that can overshoot it on
    #: inputs larger than their static assumption (Checkmate, MONeT).
    requires_physical_capacity: bool = False
    #: One-off offline solve time in seconds (reported, never charged to
    #: iterations) — hours for the MILP planners, ~0 otherwise.
    solve_time_s: float = 0.0
    #: Whether :meth:`recover` can produce retry decisions after an OOM
    #: iteration.  When False the executor treats an OOM as final, exactly
    #: as before the recovery subsystem existed.
    supports_recovery: bool = False

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("memory budget must be positive")
        self.budget_bytes = int(budget_bytes)
        self.view: Optional[ModelView] = None

    # ------------------------------------------------------------- lifecycle

    def setup(self, view: ModelView) -> None:
        """Called once before training starts: by the executor when it is
        built, or by a caller that plans without one."""
        self.view = view

    def plan(self, batch: BatchInput) -> PlanDecision:
        raise NotImplementedError

    def observe(self, stats: "IterationStats") -> None:
        """Called after each iteration with the measured stats."""

    # -------------------------------------------------------------- recovery

    def recover(
        self, batch: BatchInput, failed: "IterationStats", attempt: int
    ) -> Optional[PlanDecision]:
        """Propose a retry decision after an OOM iteration.

        Called by the executor with the failed attempt's stats and a
        0-based attempt counter; returning ``None`` gives up (the OOM
        becomes final).  Only consulted when :attr:`supports_recovery`
        is True.
        """
        return None

    # -------------------------------------------------------------- reactive

    def on_oom(
        self,
        requested_bytes: int,
        evictable: Mapping[str, "EvictableGroup"],
        now: float,
    ) -> tuple[Optional[str], float]:
        """Pick a victim unit to evict (reactive planners only).

        Returns ``(unit_name, search_time_seconds)``; ``(None, t)`` means
        give up (the iteration will fail with OOM).
        """
        raise NotImplementedError(f"{self.name} is not a reactive planner")

    def _require_view(self) -> ModelView:
        if self.view is None:
            raise RuntimeError(f"{self.name}.setup() was never called")
        return self.view


class StaticPlanner(Planner):
    """A planner that solves once, offline, for one assumed input batch.

    Sublinear, its segment-fallback variant, Checkmate and MONeT decide
    at :meth:`setup` against the batch their papers allow them to know
    offline (the worst case, or a calibration shape) and serve that one
    plan to every iteration — the conservatism §III-B criticises.
    Subclasses implement :meth:`_solve`.

    Args:
        budget_bytes: GPU memory budget.
        assumed_batch: the batch shape the plan is solved for.
    """

    #: headroom below the budget for allocator segment-pooling slack
    FRAG_RESERVE = 256 * 1024**2

    def __init__(self, budget_bytes: int, assumed_batch: BatchInput) -> None:
        super().__init__(budget_bytes)
        self.assumed_batch = assumed_batch
        self._plan: Optional[CheckpointPlan] = None

    def setup(self, view: ModelView) -> None:
        super().setup(view)
        self._plan = self._solve(view)

    def _solve(self, view: ModelView) -> CheckpointPlan:
        """The plan for :attr:`assumed_batch` (called once, at setup)."""
        raise NotImplementedError

    def plan(self, batch: BatchInput) -> PlanDecision:
        if self._plan is None:
            raise RuntimeError("setup() must run before plan()")
        # Applying a precomputed static plan costs essentially nothing.
        return PlanDecision(self._plan, planning_time=1e-6)


@dataclass(slots=True)
class EvictableGroup:
    """A materialised unit's activations, as seen by a reactive planner."""

    unit_name: str
    nbytes: int
    compute_time: float  # cost to rematerialise (the unit's forward time)
    last_access: float  # simulated timestamp of last use
    num_tensors: int = 1

    def h_value(self, now: float) -> float:
        """DTR's eviction heuristic: cost / (size * staleness) — small is good."""
        staleness = max(now - self.last_access, 1e-9)
        return self.compute_time / (max(self.nbytes, 1) * staleness)
