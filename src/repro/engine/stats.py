"""Per-iteration and per-run measurement records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.tensorsim.clock import left_sum


@dataclass(frozen=True, slots=True)
class UnitMeasurement:
    """What the shuttling collector measures for one unit (Fig 7).

    Attributes:
        unit_name: the measured unit.
        input_size: element count of the *iteration* input tensor.
        saved_bytes: activation bytes the unit pins until backward,
            as observed from allocator deltas (includes alignment rounding).
        fwd_time: one forward execution of the unit, seconds.
        bwd_time: the unit's backward execution, seconds, stamped by the
            sheltered backward pass (0.0 when the backward was never
            observed — e.g. an iteration that OOM'd before reaching it).
    """

    unit_name: str
    input_size: int
    saved_bytes: int
    fwd_time: float
    bwd_time: float = 0.0

    def __repr__(self) -> str:  # noqa: D105 — digest-format contract below
        # ``RunResult.digest`` hashes measurement tuples through repr().
        # The digest-parity goldens predate backward measurement, so the
        # repr deliberately renders the original four fields only:
        # ``bwd_time`` reaches digests indirectly, through every hybrid
        # plan it re-prices (cf. ``planning_time``, excluded for being
        # wall-clock; this field is excluded for golden stability).
        return (
            f"{type(self).__qualname__}(unit_name={self.unit_name!r}, "
            f"input_size={self.input_size!r}, "
            f"saved_bytes={self.saved_bytes!r}, "
            f"fwd_time={self.fwd_time!r})"
        )


@dataclass(frozen=True, slots=True)
class IterationStats:
    """Complete timing/memory breakdown of one training iteration."""

    iteration: int
    input_size: int
    input_shape: tuple[int, ...]
    mode: str
    plan_label: str
    num_checkpointed: int
    # --- time components (simulated seconds) ---
    fwd_time: float
    bwd_time: float
    recompute_time: float
    collect_time: float  # the extra shuttling forward in COLLECT mode
    planning_time: float  # plan generation / estimator / eviction search
    upkeep_time: float  # per-tensor metadata maintenance (DTR)
    optimizer_time: float
    # --- memory ---
    peak_in_use: int
    peak_reserved: int
    end_in_use: int
    fragmentation_bytes: int
    # --- events ---
    evictions: int = 0
    oom: bool = False
    measurements: tuple[UnitMeasurement, ...] = ()
    # --- swapping (hybrid planners only) ---
    swap_stall_time: float = 0.0  # backward stalls waiting for PCIe swap-in
    num_swapped: int = 0
    # --- OOM recovery ---
    #: number of retry attempts executed after an OOM (0 = first try ok)
    retries: int = 0
    #: escalation rung that produced the final attempt ("" = no recovery)
    recovery_mode: str = ""
    #: the issuing plan's predicted peak (None when the planner made no
    #: prediction, e.g. static plans or sheltered COLLECT iterations)
    predicted_peak_bytes: int | None = None

    @property
    def recovered(self) -> bool:
        """Whether this iteration survived only via the recovery ladder."""
        return self.retries > 0 and not self.oom

    @property
    def is_collect(self) -> bool:
        """Whether this was a sheltered (COLLECT-mode) iteration.

        String comparison against :class:`~repro.planners.base
        .ExecutionMode.COLLECT`'s value, kept here so stats consumers
        (planners, tables) need no mode-enum branching of their own.
        """
        return self.mode == "collect"

    @property
    def total_time(self) -> float:
        return (
            self.fwd_time
            + self.bwd_time
            + self.recompute_time
            + self.collect_time
            + self.planning_time
            + self.upkeep_time
            + self.optimizer_time
            + self.swap_stall_time
        )

    @property
    def compute_time(self) -> float:
        """Productive compute only (what a zero-overhead planner would cost)."""
        return self.fwd_time + self.bwd_time + self.optimizer_time

    @property
    def overhead_time(self) -> float:
        return self.total_time - self.compute_time


@dataclass(slots=True)
class RunResult:
    """Aggregation over a full training run (one task × planner × budget).

    The ``*_hits``/``*_misses`` counters expose the effectiveness of the
    two execution caches (the planner's :class:`~repro.core.plan_cache
    .PlanCache` and the executor's iteration replay cache) so overhead
    reports can attribute fast-path savings; the runner fills them in
    after the loop completes.
    """

    task_name: str
    planner_name: str
    budget_bytes: int
    iterations: list[IterationStats] = field(default_factory=list)
    # --- cache effectiveness (filled in by the runner post-run) ---
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    replay_hits: int = 0
    replay_misses: int = 0
    compiled_hits: int = 0
    compiled_misses: int = 0
    # --- lifecycle activity (filled in by the runner post-run) ---
    #: estimator refits after the initial fit (re-collection or drift)
    refits: int = 0
    #: drift-monitor firings (Page–Hinkley residual or input-size CUSUM)
    drift_events: int = 0
    # --- optimality harness (filled in post-run, opt-in) ---
    #: relative optimality gap of the run's plans versus the exact solver,
    #: keyed by input size (see :mod:`repro.experiments.optimality`).
    #: Empty unless gap reporting was requested; never hashed by
    #: :meth:`digest` (which reads iterations only), so attaching gaps
    #: cannot perturb digest parity.
    optimality_gaps: dict[int, float] = field(default_factory=dict)

    def append(self, stats: IterationStats) -> None:
        self.iterations.append(stats)

    # ------------------------------------------------------------- summaries

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    # Float sums over iterations are left folds (``left_sum``): from
    # Python 3.12 the builtin ``sum()`` compensates and rounds differently.

    @property
    def total_time(self) -> float:
        return left_sum(s.total_time for s in self.iterations)

    @property
    def peak_in_use(self) -> int:
        return max((s.peak_in_use for s in self.iterations), default=0)

    @property
    def peak_reserved(self) -> int:
        return max((s.peak_reserved for s in self.iterations), default=0)

    @property
    def oom_count(self) -> int:
        return sum(1 for s in self.iterations if s.oom)

    @property
    def succeeded(self) -> bool:
        """A run 'trains successfully' iff no iteration hit a fatal OOM.

        An iteration rescued by the recovery ladder reports ``oom=False``
        (only the final attempt counts), so recovered runs still succeed.
        """
        return self.num_iterations > 0 and self.oom_count == 0

    @property
    def total_retries(self) -> int:
        """Retry attempts summed over the run (recovery ladder activity)."""
        return sum(s.retries for s in self.iterations)

    @property
    def recovered_count(self) -> int:
        """Iterations that OOM'd at least once but completed after retries."""
        return sum(1 for s in self.iterations if s.recovered)

    def recovery_modes(self) -> dict[str, int]:
        """Histogram of the escalation rungs that rescued iterations."""
        modes: dict[str, int] = {}
        for s in self.iterations:
            if s.recovered:
                modes[s.recovery_mode] = modes.get(s.recovery_mode, 0) + 1
        return modes

    def mean_iteration_time(self) -> float:
        if not self.iterations:
            return 0.0
        return self.total_time / len(self.iterations)

    def time_breakdown(self) -> dict[str, float]:
        """Summed per-component times (Fig 5 / Table III source)."""
        keys = (
            "fwd_time",
            "bwd_time",
            "recompute_time",
            "collect_time",
            "planning_time",
            "upkeep_time",
            "optimizer_time",
        )
        return {
            k: left_sum(getattr(s, k) for s in self.iterations) for k in keys
        }

    def overhead_fraction(self) -> float:
        """Fraction of total time not spent on productive compute."""
        total = self.total_time
        if total == 0:
            return 0.0
        return left_sum(s.overhead_time for s in self.iterations) / total

    def normalized_time(self, baseline: "RunResult") -> float:
        """This run's total time relative to a baseline run (Fig 10 y-axis)."""
        if baseline.total_time == 0:
            raise ValueError("baseline has no recorded time")
        return self.total_time / baseline.total_time

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0

    @property
    def replay_hit_rate(self) -> float:
        total = self.replay_hits + self.replay_misses
        return self.replay_hits / total if total else 0.0

    @property
    def compiled_hit_rate(self) -> float:
        """Fraction of compiled-tier lookups served by a template.

        A lookup reaches the compiled tier only after an exact replay
        miss, so this rate is conditional on the tier being consulted
        (mirroring :attr:`replay_hit_rate`'s own convention).
        """
        total = self.compiled_hits + self.compiled_misses
        return self.compiled_hits / total if total else 0.0

    def _digest_hasher(self):
        """The incremental hasher behind :meth:`digest`.

        Yields the hasher after the run header and again after each
        iteration's record has been fed in.  ``hexdigest()`` does not
        finalize, so one pass serves both the run-level digest (last
        yield) and the per-iteration rolling digests (every yield).
        """
        import hashlib
        from dataclasses import fields as dc_fields

        h = hashlib.sha256()
        h.update(
            f"{self.task_name}|{self.planner_name}|{self.budget_bytes}".encode()
        )
        names = [
            f.name
            for f in dc_fields(IterationStats)
            if f.name != "planning_time"
        ]
        for s in self.iterations:
            h.update(repr([getattr(s, n) for n in names]).encode())
            yield h
        if not self.iterations:
            yield h

    def digest(self) -> str:
        """Deterministic fingerprint of the run's observable results.

        Hashes every :class:`IterationStats` field *except*
        ``planning_time``, which is genuine wall-clock measured by the
        planner and therefore differs between otherwise identical runs.
        Two runs with equal digests produced bit-identical simulated
        behaviour — the equality the replay cache and the parallel sweep
        runner are required to preserve.
        """
        for h in self._digest_hasher():
            pass
        return h.hexdigest()

    def rolling_digests(self) -> tuple[str, ...]:
        """Per-iteration prefix digests of the run.

        Entry *i* is the digest of the run truncated after iteration
        *i* — the last entry equals :meth:`digest` (for a non-empty
        run).  When two runs diverge, comparing the rolling sequences
        pinpoints the *first* iteration whose simulated behaviour
        differed, instead of only reporting that the runs differ.
        """
        if not self.iterations:
            return ()
        return tuple(h.hexdigest() for h in self._digest_hasher())


def summarize_runs(runs: Sequence[RunResult]) -> list[dict[str, object]]:
    """Flat summary rows for reporting (one per run)."""
    rows: list[dict[str, object]] = []
    for r in runs:
        rows.append(
            {
                "task": r.task_name,
                "planner": r.planner_name,
                "budget_gb": r.budget_bytes / 1024**3,
                "iterations": r.num_iterations,
                "total_time_s": r.total_time,
                "mean_iter_ms": 1e3 * r.mean_iteration_time(),
                "peak_in_use_gb": r.peak_in_use / 1024**3,
                "peak_reserved_gb": r.peak_reserved / 1024**3,
                "overhead_frac": r.overhead_fraction(),
                "succeeded": r.succeeded,
                "retries": r.total_retries,
                "recovered": r.recovered_count,
                "plan_cache_hit_rate": r.plan_cache_hit_rate,
                "replay_hit_rate": r.replay_hit_rate,
                "compiled_hit_rate": r.compiled_hit_rate,
                "refits": r.refits,
                "drift_events": r.drift_events,
                "optimality_gap": _format_gaps(r.optimality_gaps),
            }
        )
    return rows


def _format_gaps(gaps: dict[int, float]) -> str:
    """Render per-size gaps compactly: ``"12.5%/0.0%/3.1%"`` by size.

    ``"—"`` when no gaps were attached (the default: gap reporting is
    opt-in because it requires extra solver runs per input size).
    """
    if not gaps:
        return "—"
    parts = []
    for size in sorted(gaps):
        gap = gaps[size]
        parts.append("inf" if math.isinf(gap) else f"{100.0 * gap:.1f}%")
    return "/".join(parts)
