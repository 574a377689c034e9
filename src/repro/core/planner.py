"""The Mimose planner (§IV-A): sheltered → responsive execution.

The collect→fit→plan lifecycle itself — when to collect, when to (re)fit,
when to declare the fit stale — is owned by the explicit state machine in
:mod:`repro.core.lifecycle`; the planner consults it and turns its
decisions into plans.  Iteration lifecycle:

1. **Sheltered execution** — the first ``collect_iterations`` iterations
   (and any later iteration whose input size exceeds everything collected
   so far by more than ``recollect_margin``) run in COLLECT mode: all
   checkpointable units are checkpointed (Sublinear-like footprint) and
   executed with the shuttling double forward, producing per-unit
   measurements plus the iteration's full-checkpoint peak.
2. When the collector is ready, the memory estimator is fitted — per-unit
   quadratic models plus a base model of the full-checkpoint peak; the
   wall-clock fit time is charged to that iteration's planning time.
3. **Responsive execution** — each iteration looks up the plan cache by
   input size; on a miss the estimator predicts per-unit bytes, the
   scheduler covers the predicted excess over the usable budget, and the
   new plan is cached.  All of this is real Python work, timed with
   ``perf_counter`` and charged as planning time — the quantity Table III
   reports at 0.26–1.25 ms.

Safety: Mimose reserves ``headroom_bytes`` below the budget (the paper's
0.5–1 GB fragmentation reserve, Fig 11); if an iteration still OOMs, the
headroom is doubled-up by ``headroom_step`` and the cache invalidated.

Recovery: when the executor allows retries, an OOM iteration is rolled
back and replayed under an escalation ladder (:meth:`MimosePlanner
.recover`): drop all cached plans and replan → widen the reserve and
replan → fall back to a full-checkpoint (Sublinear-like) plan.  This is
the runtime reaction DTR (Kirisame et al.) argues for, applied to
Mimose's own safety knobs, and it is what lets a run "train
successfully" through a transient pressure event instead of dying.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.adaptive import QuantileTracker, ResidualTracker
from repro.core.collector import ShuttlingCollector
from repro.core.estimator import LightningMemoryEstimator
from repro.core.lifecycle import LifecycleController
from repro.core.plan_cache import PlanCache
from repro.solvers import GreedyScheduler, Solver, SolverInput
from repro.engine.stats import IterationStats
from repro.models.base import BatchInput
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ExecutionMode,
    ModelView,
    PlanDecision,
    Planner,
    PlannerCapabilities,
)

_MB = 1024**2


class MimosePlanner(Planner):
    """Input-aware checkpointing planner respecting a memory budget.

    Args:
        budget_bytes: GPU memory budget to respect.
        collect_iterations: sheltered iterations before fitting (paper: 10).
        headroom_bytes: reserve kept below the budget for fragmentation and
            working memory the per-unit estimator cannot itemise.
        headroom_step: added to the reserve after an unexpected OOM.
        estimator: memory estimator (default: quadratic polynomials).
        scheduler: checkpoint-selection strategy (default: Algorithm 1).
        cache: plan cache (default: 5 % similarity window).
        recollect_margin: how far beyond the largest collected input size a
            new input may be before triggering another sheltered iteration.
        adaptive_margin: learn the safety margin from observed residuals
            (see :mod:`repro.core.adaptive`) instead of the fixed reserve.
        drift_detection: arm the lifecycle controller's drift monitors
            (:mod:`repro.core.drift`) — residual Page–Hinkley plus
            input-size CUSUM — enabling the DRIFTED → partial
            re-collection → refit path under non-stationary inputs.
        collector_window: rolling-window cap on retained sheltered
            iterations (None keeps everything; see
            :class:`~repro.core.collector.ShuttlingCollector`).
    """

    name = "mimose"
    supports_recovery = True
    capabilities = PlannerCapabilities(
        dynamic_input=True,
        fragmentation_avoidance="side-effect",
        granularity="block",
        plan_timing="runtime",
        search_space="holistic",
        search_algorithm="greedy",
    )
    requires_physical_capacity = False

    def __init__(
        self,
        budget_bytes: int,
        *,
        collect_iterations: int = 10,
        headroom_bytes: int | None = None,
        headroom_step: int = 256 * _MB,
        estimator: Optional[LightningMemoryEstimator] = None,
        scheduler: Optional[Solver] = None,
        cache: Optional[PlanCache] = None,
        recollect_margin: float = 0.10,
        adaptive_margin: bool = False,
        drift_detection: bool = False,
        collector_window: Optional[int] = None,
    ) -> None:
        super().__init__(budget_bytes)
        if headroom_bytes is None:
            # the paper's 0.5-1 GB reserve, scaled to the budget: larger
            # budgets mean larger absolute estimation/fragmentation slack
            headroom_bytes = max(512 * _MB, int(0.10 * budget_bytes))
        if headroom_bytes < 0 or headroom_step < 0:
            raise ValueError("headroom must be non-negative")
        self.collector = ShuttlingCollector(
            min_iterations=collect_iterations,
            window_iterations=collector_window,
        )
        self.estimator = estimator if estimator is not None else LightningMemoryEstimator()
        self.scheduler = scheduler if scheduler is not None else GreedyScheduler()
        # NB: `cache or PlanCache()` would discard a user-supplied cache —
        # an *empty* PlanCache is falsy through __len__.
        self.cache = cache if cache is not None else PlanCache()
        self.headroom_bytes = int(headroom_bytes)
        self.headroom_step = int(headroom_step)
        self._order: dict[str, int] = {}
        self._static_bytes = 0
        # Adaptive residual margin (the paper's future-work estimator
        # extension for content-dependent structures, see core.adaptive).
        # During a warmup window the conservative default reserve applies;
        # once enough residuals are observed, the learned margin takes
        # over and the configured (smaller) reserve becomes the floor.
        self.adaptive_margin = adaptive_margin
        self.adaptive_warmup = 16
        self.residuals = ResidualTracker()  # relative estimator error
        self.frag_observed = QuantileTracker()  # absolute allocator slack
        self._warmup_reserve = max(
            self.headroom_bytes, int(0.10 * budget_bytes)
        )
        # Every fit/refit/re-collection decision belongs to the lifecycle
        # controller (core.lifecycle); the planner consults it at the two
        # decision points (plan, observe) and never fits directly.
        self.lifecycle = LifecycleController(
            collector=self.collector,
            estimator=self.estimator,
            cache=self.cache,
            residuals=self.residuals,
            frag_observed=self.frag_observed,
            recollect_margin=recollect_margin,
            drift_detection=drift_detection,
        )
        # bookkeeping for Table III / recovery reporting
        self.collect_count = 0
        self.plan_count = 0
        self.recovery_attempts = 0

    # ------------------------------------------------------------- lifecycle

    def setup(self, view: ModelView) -> None:
        super().setup(view)
        self._order = {
            name: i
            for i, name in enumerate(view.unit_names)
            if name in view.checkpointable
        }
        # The static footprint is observable at runtime (allocator state
        # before the first forward) — no model pre-analysis involved.
        self._static_bytes = view.static_memory.total

    # ------------------------------------------------------------------ plan

    def plan(self, batch: BatchInput) -> PlanDecision:
        size = batch.input_size
        if self.lifecycle.needs_collection(size):
            self.collect_count += 1
            return PlanDecision(
                CheckpointPlan(ActionAssignment(), "mimose-collect"),
                mode=ExecutionMode.COLLECT,
                planning_time=1e-5,
            )

        start = time.perf_counter()
        self.lifecycle.ensure_fitted()
        cached = self.cache.get(size)
        if cached is not None:
            return PlanDecision(cached, planning_time=time.perf_counter() - start)
        plan = self._make_plan(size)
        self.cache.put(size, plan)
        self.plan_count += 1
        return PlanDecision(plan, planning_time=time.perf_counter() - start)

    @property
    def fit_count(self) -> int:
        """Estimator fits performed (delegated to the lifecycle)."""
        return self.lifecycle.fit_count

    @property
    def recollect_margin(self) -> float:
        return self.lifecycle.recollect_margin

    def _usable_budget(self) -> int:
        if not self.adaptive_margin:
            return self.budget_bytes - self.headroom_bytes
        if self.residuals.num_observations < self.adaptive_warmup:
            return self.budget_bytes - self._warmup_reserve
        # learned regime: floor reserve + observed fragmentation quantile
        reserve = self.headroom_bytes + int(self.frag_observed.value())
        return self.budget_bytes - min(reserve, self._warmup_reserve * 2)

    def scheduler_input(self, size: int) -> SolverInput:
        """The scheduler's view of one input size, from current estimates.

        Carries measured backward times whenever the estimator holds any
        (the sheltered backward pass stamps them), so cost-model pricing
        takes its measured branch instead of the ratio fallback.  Public
        because calibration checks (``benchmarks/bench_hybrid.py``)
        re-price a finished run's plans through the same view.
        """
        est = self.estimator.predict_all_bytes(size)
        base = (
            self.estimator.predict_base(size)
            if self.estimator.has_base
            else self._static_bytes
        )
        total = base + sum(est.values())
        if self.adaptive_margin:
            total = int(total * (1.0 + self.residuals.margin()))
        excess = total - self._usable_budget()
        if excess <= 0:
            return SolverInput(
                est_bytes=est, order=self._order, excess_bytes=excess
            )
        bwd_time = (
            self.estimator.predict_all_bwd_times(size)
            if self.estimator.has_bwd_data
            else None
        )
        return SolverInput(
            est_bytes=est,
            order=self._order,
            excess_bytes=excess,
            est_time=self.estimator.predict_all_times(size),
            bwd_time=bwd_time,
        )

    def _make_plan(self, size: int) -> CheckpointPlan:
        inp = self.scheduler_input(size)
        est = inp.est_bytes
        # excess = total - usable (exact int arithmetic), inverted here so
        # the plan's predicted peak matches scheduler_input's view.
        total = inp.excess_bytes + self._usable_budget()
        if inp.excess_bytes <= 0:
            return CheckpointPlan(ActionAssignment(), "mimose", total)
        assignment = self.scheduler.assign(inp)
        # The prediction travels with the plan (through the cache and into
        # the iteration stats) so residual tracking attributes every
        # observation to the plan that produced it — cache hits included.
        # Every non-KEEP unit releases its estimated bytes (recomputed
        # units immediately, swapped units once the copy engine drains).
        return CheckpointPlan(
            assignment,
            "mimose",
            predicted_peak_bytes=total - sum(est[u] for u in assignment.units),
        )

    # --------------------------------------------------------------- observe

    def observe(self, stats: IterationStats) -> None:
        # The lifecycle controller owns collection ingest, refits and the
        # residual/fragmentation feedback (it may already have processed
        # this stats object through the event bus; the call is idempotent
        # per object).  The prediction rides on the stats (copied from
        # the issuing plan by the executor), so cache-served iterations
        # feed the trackers too.
        self.lifecycle.observe(stats)
        if stats.oom and not stats.is_collect:
            # Misprediction: widen the reserve and drop stale plans (the
            # cached plans carry their predictions, so clearing the cache
            # also discards every stale prediction in one stroke).  This
            # is budget policy, not lifecycle: the estimator is not what
            # the widened reserve corrects for.
            self.headroom_bytes += self.headroom_step
            self.cache.clear()

    # -------------------------------------------------------------- recovery

    def recover(
        self, batch: BatchInput, failed: IterationStats, attempt: int
    ) -> Optional[PlanDecision]:
        """Escalation ladder after an OOM iteration.

        Rung 0 — *replan*: drop every cached plan (the failing plan may be
        a similar-size share or a survivor from before a reserve change)
        and replan this size from current estimator state.
        Rung 1 — *widen-reserve*: grow the fragmentation reserve by
        ``headroom_step`` (the same reaction :meth:`observe` applies to a
        fatal OOM) and replan under the tighter usable budget.
        Rung 2 — *full-checkpoint*: give up on estimation and fall back to
        the Sublinear-like floor, checkpointing every checkpointable unit.
        Beyond rung 2 there is nothing left to concede: return ``None``.
        """
        start = time.perf_counter()
        self.recovery_attempts += 1
        if attempt >= 3:
            return None
        if attempt == 2 or not self.estimator.is_fitted:
            # Last rung (or nothing to replan from): the memory floor.
            # The cache still holds the plan the previous rung produced —
            # which just OOM'd — so it must be dropped here too, or the
            # next iteration of this size would be served the failed plan
            # straight from the cache and re-OOM.
            self.cache.clear()
            plan = CheckpointPlan(
                ActionAssignment.from_sets(recompute=self._order),
                "mimose-recover-full",
            )
            return PlanDecision(
                plan,
                planning_time=time.perf_counter() - start,
                recovery_mode="full-checkpoint",
            )
        if attempt == 0:
            mode = "replan"
        else:
            self.headroom_bytes += self.headroom_step
            mode = "widen-reserve"
        self.cache.clear()
        plan = self._make_plan(batch.input_size)
        self.cache.put(batch.input_size, plan)
        self.plan_count += 1
        return PlanDecision(
            plan,
            planning_time=time.perf_counter() - start,
            recovery_mode=mode,
        )

    # ------------------------------------------------------------ recollect

    def should_recollect(self, size: int) -> bool:
        """Whether ``size`` lies beyond the trusted extrapolation range."""
        return self.lifecycle.should_recollect(size)
