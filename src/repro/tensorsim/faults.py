"""Deterministic fault injection for the simulated GPU substrate.

The paper's headline claim is that Mimose "trains successfully" under
budgets where static planners OOM (Fig 10/11); exercising that claim
requires *provoking* memory pressure on demand.  This module injects
three fault families the real system suffers from, each deterministic
given a seed so recovery behaviour is testable and benchmarkable:

* **Fragmentation spikes** — a phantom reservation held for a window of
  iterations, modelling external fragmentation or a co-tenant process
  suddenly shrinking the usable pool (the situation the paper's 0.5–1 GB
  fragmentation reserve, Fig 11, is sized against);
* **Transient allocation failures** — individual ``cudaMalloc``-level
  failures that do not repeat on retry (allocator races, driver hiccups);
* **Estimator misprediction noise** — multiplicative corruption of the
  shuttling collector's measurements, so the fitted estimator genuinely
  mispredicts and the planner's safety margins are what keeps the run
  alive.

A :class:`FaultPlan` is an immutable description (parseable from a CLI
spec string); a :class:`FaultInjector` is the per-run mutable runtime the
executor consults.  All randomness is derived from ``(seed, iteration)``
so a *retried* iteration sees exactly the same world — except transient
failures, which by definition fire only on the first attempt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

_SIZE_SUFFIX = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_size(text: str) -> int:
    """Parse ``"1.5G"``/``"256M"``/``"4096"`` into bytes."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*([kKmMgG]?)[bB]?\s*", text)
    if m is None:
        raise ValueError(f"cannot parse size {text!r}")
    value = float(m.group(1)) * _SIZE_SUFFIX.get(m.group(2).lower(), 1)
    return int(value)


@dataclass(frozen=True, slots=True)
class FragmentationSpike:
    """Phantom memory reservation held during ``[start, start + iterations)``."""

    start_iteration: int
    num_iterations: int = 1
    reserve_bytes: int = 0

    def __post_init__(self) -> None:
        if self.start_iteration < 1:
            raise ValueError("start_iteration is 1-based and must be >= 1")
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        if self.reserve_bytes < 0:
            raise ValueError("reserve_bytes must be non-negative")

    def active(self, iteration: int) -> bool:
        return (
            self.start_iteration
            <= iteration
            < self.start_iteration + self.num_iterations
        )


@dataclass(frozen=True, slots=True)
class TransientAllocFailures:
    """Allocation failures injected on the *first attempt* of each covered
    iteration; a retried iteration does not see them again (transience)."""

    start_iteration: int
    num_iterations: int = 1
    failures_per_iteration: int = 1
    min_request_bytes: int = 0

    def __post_init__(self) -> None:
        if self.start_iteration < 1:
            raise ValueError("start_iteration is 1-based and must be >= 1")
        if self.num_iterations < 1 or self.failures_per_iteration < 1:
            raise ValueError("iteration and failure counts must be >= 1")
        if self.min_request_bytes < 0:
            raise ValueError("min_request_bytes must be non-negative")

    def active(self, iteration: int) -> bool:
        return (
            self.start_iteration
            <= iteration
            < self.start_iteration + self.num_iterations
        )


@dataclass(frozen=True, slots=True)
class MispredictionNoise:
    """Multiplicative corruption of COLLECT-mode memory measurements.

    ``factor = max(0, 1 + bias + sigma * N(0, 1))`` drawn per measurement
    from a per-iteration stream.  A negative ``bias`` makes the estimator
    systematically *under*-predict — the dangerous direction.
    """

    sigma: float = 0.05
    bias: float = 0.0
    start_iteration: int = 1
    num_iterations: Optional[int] = None  # None = for the whole run

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.start_iteration < 1:
            raise ValueError("start_iteration is 1-based and must be >= 1")
        if self.num_iterations is not None and self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1 when given")

    def active(self, iteration: int) -> bool:
        if iteration < self.start_iteration:
            return False
        if self.num_iterations is None:
            return True
        return iteration < self.start_iteration + self.num_iterations


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Immutable, seedable description of the faults to inject into a run.

    Build one programmatically or from a CLI spec string (see
    :meth:`parse`), then hand it to the executor/runner, which constructs
    a fresh :class:`FaultInjector` per run.
    """

    seed: int = 0
    spikes: tuple[FragmentationSpike, ...] = ()
    failures: tuple[TransientAllocFailures, ...] = ()
    noise: Optional[MispredictionNoise] = None

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Parse a ``;``-separated spec string into a plan.

        Clauses (keys are optional unless noted)::

            frag:start=20,iters=5,bytes=1G     fragmentation spike
            alloc:start=30,iters=1,count=2,min=1M
                                               transient allocation failures
            noise:sigma=0.05,bias=-0.1,start=1,iters=10
                                               measurement misprediction noise

        Example: ``"frag:start=20,iters=3,bytes=512M;noise:bias=-0.05"``.
        """
        spikes: list[FragmentationSpike] = []
        failures: list[TransientAllocFailures] = []
        noise: Optional[MispredictionNoise] = None
        for clause in filter(None, (c.strip() for c in spec.split(";"))):
            kind, _, body = clause.partition(":")
            kv: dict[str, str] = {}
            for item in filter(None, (i.strip() for i in body.split(","))):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(f"malformed fault option {item!r}")
                kv[key.strip()] = value.strip()
            kind = kind.strip().lower()
            if kind == "frag":
                spikes.append(
                    FragmentationSpike(
                        start_iteration=int(kv.pop("start", 1)),
                        num_iterations=int(kv.pop("iters", 1)),
                        reserve_bytes=parse_size(kv.pop("bytes", "0")),
                    )
                )
            elif kind == "alloc":
                failures.append(
                    TransientAllocFailures(
                        start_iteration=int(kv.pop("start", 1)),
                        num_iterations=int(kv.pop("iters", 1)),
                        failures_per_iteration=int(kv.pop("count", 1)),
                        min_request_bytes=parse_size(kv.pop("min", "0")),
                    )
                )
            elif kind == "noise":
                if noise is not None:
                    raise ValueError("at most one noise clause is allowed")
                iters = kv.pop("iters", None)
                noise = MispredictionNoise(
                    sigma=float(kv.pop("sigma", "0.05")),
                    bias=float(kv.pop("bias", "0.0")),
                    start_iteration=int(kv.pop("start", 1)),
                    num_iterations=int(iters) if iters is not None else None,
                )
            else:
                raise ValueError(
                    f"unknown fault kind {kind!r} (expected frag/alloc/noise)"
                )
            if kv:
                raise ValueError(
                    f"unknown options for {kind!r} clause: {sorted(kv)}"
                )
        return cls(
            seed=seed,
            spikes=tuple(spikes),
            failures=tuple(failures),
            noise=noise,
        )

    def describe(self) -> str:
        """One-line human summary (CLI/benchmark headers)."""
        parts = []
        for s in self.spikes:
            parts.append(
                f"frag {s.reserve_bytes / 1024**2:.0f}MB @ "
                f"{s.start_iteration}+{s.num_iterations}"
            )
        for f in self.failures:
            parts.append(
                f"alloc-fail x{f.failures_per_iteration} @ "
                f"{f.start_iteration}+{f.num_iterations}"
            )
        if self.noise is not None:
            parts.append(
                f"noise sigma={self.noise.sigma} bias={self.noise.bias:+}"
            )
        return "; ".join(parts) if parts else "no faults"

    @property
    def empty(self) -> bool:
        return not self.spikes and not self.failures and self.noise is None


@dataclass(slots=True)
class FaultInjectorStats:
    """Counters the injector maintains for reporting."""

    injected_failures: int = 0
    spiked_iterations: int = 0
    perturbed_measurements: int = 0


class FaultInjector:
    """Per-run mutable runtime consulted by the executor.

    The executor calls :meth:`begin_iteration` at the top of every
    iteration *attempt* (retries included, with the same iteration
    number); :meth:`phantom_bytes`, :meth:`should_fail` and
    :meth:`perturb_measurement` then answer for the current attempt.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultInjectorStats()
        self._iteration = 0
        self._first_attempt_done: set[int] = set()
        self._spiked_seen: set[int] = set()
        self._fail_remaining = 0
        self._fail_min_request = 0
        self._phantom = 0
        self._noise_rng: Optional[np.random.Generator] = None

    def begin_iteration(self, iteration: int) -> None:
        plan = self.plan
        self._iteration = iteration
        self._phantom = sum(
            s.reserve_bytes for s in plan.spikes if s.active(iteration)
        )
        if self._phantom and iteration not in self._spiked_seen:
            self._spiked_seen.add(iteration)
            self.stats.spiked_iterations += 1
        # Transient failures fire only on the first attempt of an iteration.
        if iteration in self._first_attempt_done:
            self._fail_remaining = 0
        else:
            self._first_attempt_done.add(iteration)
            active = [f for f in plan.failures if f.active(iteration)]
            self._fail_remaining = sum(
                f.failures_per_iteration for f in active
            )
            self._fail_min_request = min(
                (f.min_request_bytes for f in active), default=0
            )
        # Per-(seed, iteration) stream: a retried iteration that re-collects
        # sees identical measurement noise — determinism across retries.
        if plan.noise is not None and plan.noise.active(iteration):
            self._noise_rng = np.random.default_rng((plan.seed, iteration))
        else:
            self._noise_rng = None

    # ------------------------------------------------------------- queries

    def phantom_bytes(self) -> int:
        """Fragmentation-spike reservation to hold for this iteration."""
        return self._phantom

    def quiet(self) -> bool:
        """Whether the current iteration attempt's allocator is unperturbed.

        True means no fragmentation spike and no pending transient
        failure — the pass meets exactly the allocator a fault-free run
        would, so the executor's replay cache may serve or record it.
        Measurement noise never touches the pass: the executor applies it
        to the measurements the planner observes, after the pass.
        """
        return self._phantom == 0 and self._fail_remaining <= 0

    def should_fail(self, request_bytes: int) -> bool:
        """Whether this allocation suffers an injected transient failure."""
        if self._fail_remaining <= 0:
            return False
        if request_bytes < self._fail_min_request:
            return False
        self._fail_remaining -= 1
        self.stats.injected_failures += 1
        return True

    def perturb_measurement(self, value: int) -> int:
        """Corrupt one COLLECT-mode memory measurement (bytes) the planner
        observes; the executor calls it once per measurement, in order."""
        if self._noise_rng is None:
            return value
        noise = self.plan.noise
        assert noise is not None
        factor = 1.0 + noise.bias + noise.sigma * self._noise_rng.normal()
        self.stats.perturbed_measurements += 1
        return max(0, int(value * max(factor, 0.0)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.plan.describe()!r}, it={self._iteration})"


__all__ = [
    "FaultInjector",
    "FaultInjectorStats",
    "FaultPlan",
    "FragmentationSpike",
    "MispredictionNoise",
    "TransientAllocFailures",
    "parse_size",
]
