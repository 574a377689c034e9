"""The paper's responsive schedulers (§IV-D, Algorithm 1) as solvers.

Given per-unit estimated activation sizes and the forward execution order,
pick the units to checkpoint so the estimated excess over the budget is
covered, preferring:

1. the layer whose activation size is *nearest above* the remaining excess
   (avoid over-dropping), falling back to the largest layer when none
   covers it alone;
2. within a ±10 % size bucket, the layer with the *earliest* forward
   timestamp — checkpointing late layers barely lowers the peak because
   their recompute happens while everything else is still resident
   (Fig 9).

:class:`KnapsackScheduler` is the Knapsack-style alternative the paper
mentions, and :class:`HybridGreedyScheduler` prices RECOMPUTE against
SWAP per unit through a pluggable :class:`~repro.solvers.base.CostModel`
(Capuchin's rule, shared with :mod:`repro.planners.capuchin`), which is
what lets ``MimosePlanner`` emit input-aware hybrid plans
(``repro run --solver hybrid``).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.planners.base import ActionAssignment
from repro.solvers.base import (
    CostModel,
    PcieCostModel,
    Solver,
    SolverInput,
    register_solver,
)
from repro.tensorsim.device import DeviceModel


@register_solver
class GreedyScheduler(Solver):
    """Algorithm 1: bucketed greedy selection.

    Args:
        bucket_tolerance: relative width of a similarity bucket; 0.10 is
            the paper's ±10 %.
    """

    name = "greedy"

    def __init__(self, bucket_tolerance: float = 0.10) -> None:
        if not 0.0 <= bucket_tolerance < 1.0:
            raise ValueError("bucket_tolerance must be in [0, 1)")
        self.bucket_tolerance = bucket_tolerance

    def build_buckets(self, inp: SolverInput) -> list[list[str]]:
        """Group units of similar estimated size (Algorithm 1 lines 2-12).

        Buckets are ordered by descending size; units inside a bucket by
        ascending forward timestamp.
        """
        remaining = sorted(
            inp.est_bytes, key=lambda u: inp.est_bytes[u], reverse=True
        )
        buckets: list[list[str]] = []
        i = 0
        while i < len(remaining):
            head = remaining[i]
            head_size = inp.est_bytes[head]
            floor = head_size * (1.0 - self.bucket_tolerance)
            j = i + 1
            while j < len(remaining) and inp.est_bytes[remaining[j]] > floor:
                j += 1
            bucket = sorted(remaining[i:j], key=lambda u: inp.order[u])
            buckets.append(bucket)
            i = j
        return buckets

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        if inp.excess_bytes <= 0:
            return frozenset()
        buckets = self.build_buckets(inp)
        chosen: list[str] = []
        excess = inp.excess_bytes
        while excess > 0 and buckets:
            # Buckets whose largest member alone covers the excess
            # (Algorithm 1 line 15); choose the tightest one.
            candidates = [
                b for b in buckets
                if max(inp.est_bytes[u] for u in b) >= excess
            ]
            if candidates:
                bucket = min(
                    candidates, key=lambda b: max(inp.est_bytes[u] for u in b)
                )
                # "Nearest above": only members that cover the excess alone
                # qualify — the earliest-timestamp member of the bucket may
                # be up to bucket_tolerance smaller than the excess, and
                # picking it would force one extra (over-dropping) pick.
                unit = min(
                    (u for u in bucket if inp.est_bytes[u] >= excess),
                    key=lambda u: inp.order[u],
                )
                bucket.remove(unit)
            else:
                bucket = buckets[0]  # largest activations first
                unit = bucket.pop(0)  # earliest timestamp inside the bucket
            if not bucket:
                buckets.remove(bucket)
            chosen.append(unit)
            excess -= inp.est_bytes[unit]
        return frozenset(chosen)


@register_solver
class KnapsackScheduler(Solver):
    """Exact alternative: minimise recompute time subject to coverage.

    Solves min sum(time_u) over subsets with sum(bytes_u) >= excess via DP
    on quantised bytes.  Useful as an ablation upper bound on plan quality;
    slower than the greedy pass but still sub-millisecond at unit counts.
    """

    name = "knapsack"
    _QUANTUM = 1 << 20  # 1 MiB

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        if inp.excess_bytes <= 0:
            return frozenset()
        need = math.ceil(inp.excess_bytes / self._QUANTUM)
        # Round *down*: each counted quantum under-states the unit's real
        # bytes, so DP coverage (sum(sizes) >= need) guarantees the real
        # bytes freed reach excess_bytes.  A max(1, ...) floor here would
        # let a sub-quantum unit masquerade as a full MiB and leave the
        # excess uncovered.  Zero-quantum units can never help cover, so
        # they are excluded from the DP outright.
        sizes = {
            u: b // self._QUANTUM
            for u, b in inp.est_bytes.items()
            if b >= self._QUANTUM
        }
        units = list(sizes)
        times = {
            u: (inp.est_time[u] if inp.est_time else float(inp.order[u] + 1))
            for u in units
        }
        total = sum(sizes.values())
        if total < need:
            # Even every DP-eligible unit falls short of guaranteed
            # coverage; drop everything, sub-quantum units included.
            return frozenset(inp.est_bytes)
        # rows[i][c] = min time to cover >= c quanta using the first i units
        inf = float("inf")
        rows: list[list[float]] = [[0.0, *([inf] * need)]]
        for u in units:
            w, t = sizes[u], times[u]
            prev = rows[-1]
            cur = prev[:]
            for c in range(1, need + 1):
                src = prev[max(0, c - w)] + t
                if src < cur[c]:
                    cur[c] = src
            rows.append(cur)
        if rows[-1][need] == inf:
            return frozenset(inp.est_bytes)
        chosen: list[str] = []
        c = need
        for i in range(len(units), 0, -1):
            if rows[i][c] != rows[i - 1][c]:
                u = units[i - 1]
                chosen.append(u)
                c = max(0, c - sizes[u])
        return frozenset(chosen)


@register_solver
class HybridGreedyScheduler(Solver):
    """Per-unit swap-vs-recompute greedy over a :class:`CostModel`.

    Capuchin's selection loop, lifted out of the planner so any caller
    with per-unit byte/time estimates can use it: walk the units largest
    activations first until the excess is covered, and for each pick the
    cheaper action — SWAP when its residual stall undercuts the unit's
    recompute time *and* the cumulative transfer still fits the copy
    engine's envelope, RECOMPUTE otherwise.  Zero-byte units free
    nothing and are skipped.

    With :class:`~repro.core.planner.MimosePlanner` driving it
    (``repro run --solver hybrid``), the estimates come from the
    Lightning estimator per input size, making the swap/recompute split
    input-aware — the ROADMAP "choose per tensor" item.
    """

    name = "hybrid"
    prices_actions = True

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = (
            cost_model if cost_model is not None else PcieCostModel()
        )

    @classmethod
    def create(
        cls,
        *,
        device: Optional[DeviceModel] = None,
        bwd_ratio: Optional[float] = None,
    ) -> "HybridGreedyScheduler":
        return cls(PcieCostModel(device, bwd_ratio=bwd_ratio))

    def assign(self, inp: SolverInput) -> ActionAssignment:
        if inp.excess_bytes <= 0:
            return ActionAssignment()
        model = self.cost_model
        # One O(n) envelope + window per call, not per unit: the per-unit
        # swap price is max(0, transfer - window), as in plan_cost, with
        # the window (itself an O(n) mean) derived once outside the
        # selection loop.
        envelope = model.transfer_envelope(inp)
        window = model.overlap_window(inp)
        drop: set[str] = set()
        swap: set[str] = set()
        freed = 0
        cum_transfer = 0.0
        for name in sorted(inp.est_bytes, key=lambda n: -inp.est_bytes[n]):
            if freed >= inp.excess_bytes:
                break
            nbytes = inp.est_bytes[name]
            if nbytes == 0:
                continue
            transfer = model.transfer_time(nbytes)
            fits_bandwidth = cum_transfer + transfer <= envelope
            stall = max(0.0, transfer - window)
            if stall < model.recompute_cost(name, inp) and fits_bandwidth:
                swap.add(name)
                cum_transfer += transfer
            else:
                drop.add(name)
            freed += nbytes
        return ActionAssignment.from_sets(
            recompute=frozenset(drop), swap=frozenset(swap)
        )
