"""Solver family over :class:`~repro.planners.base.ActionAssignment`.

One decision layer for every planning idea in the repo: a *solver* maps a
:class:`SolverInput` (per-unit byte/time estimates for one input size) to
an :class:`~repro.planners.base.ActionAssignment` — a memory action per
unit.  The paper's Algorithm 1 greedy pass, the knapsack alternative, the
Capuchin-style hybrid, the optimality harness (exact branch-and-bound, LP
rounding) and the Chen et al. baselines are all solvers behind the same
registry, so ``MimosePlanner``, the runner, and the CLI construct them by
name with no per-family branching.

Registration mirrors :func:`repro.engine.strategies.register_strategy`
and :func:`repro.analysis.core.register_rule`: decorate the class, the
registry key is its ``name`` attribute, and :func:`make_solver` is the
single construction point (``repro run --solver <name>``).

The cost vocabulary is shared too: :func:`plan_cost` prices any
assignment — recompute seconds for dropped units, residual stall seconds
for swapped ones — with the same :class:`CostModel` the hybrid and exact
solvers optimise against, which is what makes per-cell optimality gaps
(:mod:`repro.experiments.optimality`) comparable across solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Protocol

from repro.tensorsim.clock import left_sum
from repro.tensorsim.device import DeviceModel


@dataclass(frozen=True, slots=True)
class SolverInput:
    """Everything a solver may consider for one input size.

    Attributes:
        est_bytes: estimated activation bytes per checkpointable unit.
        order: forward timestamp (index) per unit.
        excess_bytes: estimated bytes beyond the usable budget that the
            plan must release.
        est_time: optional estimated forward (recompute) seconds per unit.
        bwd_time: optional estimated backward seconds per unit (cost
            models derive the swap overlap window from it; filled from
            sheltered backward measurements by both the Capuchin planner
            and ``MimosePlanner`` once the estimator has backward data).
    """

    est_bytes: Mapping[str, int]
    order: Mapping[str, int]
    excess_bytes: int
    est_time: Mapping[str, float] | None = None
    bwd_time: Mapping[str, float] | None = None


class CostModel(Protocol):
    """Prices each :class:`~repro.planners.base.MemoryAction` per unit.

    Implementations read the estimates carried by a
    :class:`SolverInput` and a device model; they never touch planner
    state, so one instance can be shared between planners (Capuchin and
    hybrid Mimose price actions through the same object).
    """

    def recompute_cost(self, unit: str, inp: SolverInput) -> float:
        """Seconds to rematerialise the unit (its forward time)."""
        ...

    def transfer_time(self, nbytes: int) -> float:
        """Raw PCIe transfer seconds for one unit's activations."""
        ...

    def overlap_window(self, inp: SolverInput) -> float:
        """Backward compute a transfer can hide under, seconds."""
        ...

    def transfer_envelope(self, inp: SolverInput) -> float:
        """Aggregate transfer budget for the whole plan, seconds."""
        ...


class PcieCostModel:
    """Capuchin's swap/recompute pricing rule (Peng et al., ASPLOS 2020).

    ``swap_cost(u) = max(0, transfer_time(bytes_u) - overlap_window)``
    against ``recompute_cost(u) = forward_time(u)``, plus an aggregate
    envelope — swap-outs serialise on one copy engine and must complete
    roughly within the forward pass, so transfers beyond
    ``envelope_fraction`` of the total forward time never finish before
    their backward (the paper's §II observation that PCIe cannot keep up
    with activation production).

    The overlap window is the mean per-unit backward time when the input
    carries measured backwards (Capuchin's measured-execution
    discipline).  Without measured backwards it falls back to
    ``bwd_ratio`` × the mean estimated forward time — the backward ≈ 2×
    forward *folk* rule, a rough average that is wrong per architecture
    (attention-heavy vs. conv-heavy units differ substantially), which
    is exactly why measured backwards exist.  The fallback ratio is
    :data:`DEFAULT_BWD_RATIO` unless the caller forces one.

    Args:
        device: device model used to price PCIe transfers.
        pcie_bandwidth: host link bandwidth (bytes/s); ``None`` prices
            transfers at the device preset's own link speed.
        bwd_ratio: ``None`` (the default) prefers measured ``bwd_time``
            and uses :data:`DEFAULT_BWD_RATIO` only as the fallback when
            backwards were never measured.  An explicit float *forces*
            ratio pricing even when measured backwards are available —
            the ``--bwd-ratio`` CLI override, useful for A/B-ing the
            constant against measured pricing.  Must be positive.
        envelope_fraction: fraction of total forward time available to
            the copy engine.
    """

    #: Fallback backward/forward ratio when no backwards were measured.
    #: A folk constant, not a law — see the class docstring.
    DEFAULT_BWD_RATIO = 2.0

    def __init__(
        self,
        device: Optional[DeviceModel] = None,
        *,
        pcie_bandwidth: Optional[float] = None,
        bwd_ratio: Optional[float] = None,
        envelope_fraction: float = 0.8,
    ) -> None:
        if bwd_ratio is not None and bwd_ratio <= 0:
            raise ValueError(f"bwd_ratio must be positive, got {bwd_ratio}")
        self.device = device if device is not None else DeviceModel()
        self.pcie_bandwidth = pcie_bandwidth
        self.bwd_ratio = bwd_ratio
        self.envelope_fraction = envelope_fraction

    def transfer_time(self, nbytes: int) -> float:
        return self.device.transfer_time(
            nbytes, pcie_bandwidth=self.pcie_bandwidth
        )

    def recompute_cost(self, unit: str, inp: SolverInput) -> float:
        if inp.est_time is None:
            # No time information: recompute is assumed free, so swapping
            # (whose stall is never negative) is never preferred.
            return 0.0
        return inp.est_time[unit]

    def pricing_mode(self, inp: SolverInput) -> str:
        """Which branch :meth:`overlap_window` takes for this input.

        One of ``"measured-bwd"`` (per-unit measured backwards),
        ``"ratio-override"`` (caller forced an explicit ratio),
        ``"ratio-fallback"`` (no backwards measured; the
        :data:`DEFAULT_BWD_RATIO` constant), or ``"untimed"`` (no time
        estimates at all — swapping never wins).
        """
        if self.bwd_ratio is not None:
            return "ratio-override" if inp.est_time is not None else "untimed"
        if inp.bwd_time is not None:
            return "measured-bwd"
        if inp.est_time is not None:
            return "ratio-fallback"
        return "untimed"

    def overlap_window(self, inp: SolverInput) -> float:
        if self.bwd_ratio is None and inp.bwd_time is not None:
            bwd = list(inp.bwd_time.values())
            return left_sum(bwd) / max(len(bwd), 1)
        if inp.est_time is None:
            return 0.0
        ratio = (
            self.DEFAULT_BWD_RATIO if self.bwd_ratio is None
            else self.bwd_ratio
        )
        fwd = list(inp.est_time.values())
        return ratio * (left_sum(fwd) / max(len(fwd), 1))

    def transfer_envelope(self, inp: SolverInput) -> float:
        if inp.est_time is None:
            return 0.0
        return self.envelope_fraction * left_sum(inp.est_time.values())


class Solver:
    """Strategy interface: assign a memory action per unit.

    ``schedule`` is the classic recompute-only entry point (Algorithm 1's
    vocabulary); ``assign`` is the general one.  Recompute-only
    solvers implement ``schedule`` and inherit the default ``assign``
    wrapper; action-aware solvers override ``assign`` directly.

    ``cost_model`` is ``None`` for solvers that never price actions
    (pure coverage algorithms); action-pricing solvers set it, which is
    how callers discover swap pricing without branching on solver names.
    """

    name = "solver"

    #: Set by action-pricing solvers (hybrid, exact, lp); ``None`` means
    #: the solver only covers bytes and never consults a price.
    cost_model: Optional[CostModel] = None

    #: Class-level capability flag: ``True`` for solvers whose
    #: :meth:`create` builds a cost model from the pricing knobs.  The
    #: declarative gate for pricing-only CLI flags (``--bwd-ratio``) —
    #: callers check this instead of matching solver names.
    prices_actions = False

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        raise NotImplementedError

    def assign(self, inp: SolverInput) -> ActionAssignment:
        """Default: every scheduled unit is dropped and recomputed."""
        return ActionAssignment.from_sets(recompute=self.schedule(inp))

    @classmethod
    def create(
        cls,
        *,
        device: Optional[DeviceModel] = None,
        pcie_bandwidth: Optional[float] = None,
        bwd_ratio: Optional[float] = None,
    ) -> "Solver":
        """Registry constructor: build the solver from CLI-level knobs.

        The base implementation ignores the pricing knobs (coverage-only
        solvers have no cost model); pricing solvers override this to
        build a :class:`PcieCostModel` from them.
        """
        del device, pcie_bandwidth, bwd_ratio
        return cls()


_SOLVERS: dict[str, type[Solver]] = {}


def register_solver(cls: type[Solver]) -> type[Solver]:
    """Class decorator: make ``cls`` constructible by :func:`make_solver`.

    The registry key is ``cls.name``; duplicate names are a programming
    error and raise immediately (mirrors ``register_strategy``).
    """
    if cls.name in _SOLVERS:
        raise ValueError(f"duplicate solver name {cls.name!r}")
    _SOLVERS[cls.name] = cls
    return cls


def solver_names() -> tuple[str, ...]:
    """All registered solver names, sorted (CLI ``--solver`` choices)."""
    return tuple(sorted(_SOLVERS))


def solver_class(name: str) -> type[Solver]:
    """Look up a registered solver class by name."""
    try:
        return _SOLVERS[name]
    except KeyError:
        raise KeyError(
            f"unknown solver {name!r}; available: {solver_names()}"
        ) from None


def make_solver(
    name: str,
    *,
    device: Optional[DeviceModel] = None,
    pcie_bandwidth: Optional[float] = None,
    bwd_ratio: Optional[float] = None,
) -> Solver:
    """Construct a registered solver by name.

    The single construction point for every consumer (runner, CLI,
    ``MimosePlanner``, the gap harness): pricing knobs are forwarded to
    the class's :meth:`Solver.create`, which decides whether a cost
    model is needed — no per-solver branching here.
    """
    return solver_class(name).create(
        device=device, pcie_bandwidth=pcie_bandwidth, bwd_ratio=bwd_ratio
    )


def predicted_swap_stall(
    model: CostModel, assignment: ActionAssignment, inp: SolverInput
) -> float:
    """Total backward stall the cost model predicts for a plan's swaps.

    Sums ``max(0, transfer_time(bytes_u) - overlap_window)`` over the
    assignment's swapped units — the same residual the selection loop
    priced, aggregated so it can be compared against the simulated
    ``swap_stall_time`` a run actually reports (the calibration check
    ``benchmarks/bench_hybrid.py`` performs).  Units are summed in name
    order: a frozenset's order follows ``PYTHONHASHSEED``.
    """
    window = model.overlap_window(inp)
    return left_sum(
        max(0.0, model.transfer_time(inp.est_bytes[u]) - window)
        for u in sorted(assignment.swap_units)
    )


def required_coverage(inp: SolverInput) -> int:
    """Bytes a feasible plan must release: the excess, capped at what
    exists — when even dropping everything falls short, exhausting the
    unit set is the best any solver can do and counts as feasible."""
    total = sum(inp.est_bytes.values())
    return max(0, min(inp.excess_bytes, total))


def covered_bytes(assignment: ActionAssignment, inp: SolverInput) -> int:
    """Estimated bytes the assignment releases (all non-KEEP actions)."""
    return sum(inp.est_bytes.get(u, 0) for u in assignment.units)


def plan_cost(
    model: CostModel, assignment: ActionAssignment, inp: SolverInput
) -> float:
    """Predicted seconds of overhead one iteration pays for this plan.

    Recomputed (and segmented) units charge their forward time; swapped
    units charge the residual stall beyond the overlap window — exactly
    the per-unit prices the hybrid loop and the exact solver optimise,
    so costs (and therefore optimality gaps) are comparable across every
    solver in the registry.  Units are summed in name order, as in
    :func:`predicted_swap_stall`.
    """
    window = model.overlap_window(inp)
    cost = 0.0
    for unit in sorted(assignment.checkpoint_units | assignment.segment_units):
        cost += model.recompute_cost(unit, inp)
    for unit in sorted(assignment.swap_units):
        cost += max(0.0, model.transfer_time(inp.est_bytes[unit]) - window)
    return cost


def plan_feasible(
    model: CostModel, assignment: ActionAssignment, inp: SolverInput
) -> bool:
    """Whether the assignment releases enough bytes under the envelope.

    Coverage: released bytes reach :func:`required_coverage`.  Envelope:
    the summed transfer time of swapped units fits the copy engine's
    aggregate budget (recompute-only plans satisfy it trivially).
    """
    if covered_bytes(assignment, inp) < required_coverage(inp):
        return False
    transfer = math.fsum(
        model.transfer_time(inp.est_bytes[u]) for u in assignment.swap_units
    )
    return transfer <= model.transfer_envelope(inp) + 1e-12


# Imported last, breaking the package cycle: repro.planners.capuchin (in
# the middle of repro.planners' own init) imports the solver family, and
# by this point every name above is defined.  ActionAssignment is only
# touched from method bodies, never at class-definition time, so the
# late binding is safe.
from repro.planners.base import ActionAssignment  # noqa: E402
