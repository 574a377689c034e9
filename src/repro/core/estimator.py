"""Lightning memory estimator (§IV-C).

One regression model per unit maps the iteration input size to the unit's
activation bytes (and a second maps it to the unit's forward time, used
for diagnostics and pluggable cost-aware schedulers).  §IV-C's operator
analysis shows activation memory is at most quadratic in the input size,
so the default family is the quadratic polynomial — Table IV's winner.

Fit and predict wall times are measured with ``time.perf_counter`` because
they are *genuine* planner costs on the critical path (the same Python
work the real Mimose does), unlike model compute, which is simulated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Literal, Mapping, Optional

import numpy as np

from repro.core.collector import ShuttlingCollector
from repro.core.estimators import PolynomialRegressor, Regressor


@dataclass(frozen=True, slots=True)
class _StackedPolynomials:
    """All per-unit polynomial models stacked into one coefficient matrix.

    ``predict_all_bytes``/``predict_all_times`` are on the planner's
    critical path (every plan-cache miss evaluates every unit), so instead
    of one ``np.polyval`` call per unit the coefficients are stacked at
    fit time — highest power first, padded with *leading* zeros to a
    common width — and one vectorised Horner pass evaluates every unit at
    once.  Leading-zero padding is exact: the extra Horner steps compute
    ``0 * x + 0`` and ``0 * x + c`` in IEEE double, so the stacked result
    is bitwise identical to per-unit ``np.polyval``.
    """

    names: tuple[str, ...]
    coeffs: np.ndarray  # (units, width), highest power first
    scales: np.ndarray  # (units,) per-unit input normalisation

    @classmethod
    def build(
        cls, models: Mapping[str, Regressor]
    ) -> "Optional[_StackedPolynomials]":
        """Stack ``models`` if they are all fitted polynomials, else None."""
        if not models or not all(
            isinstance(m, PolynomialRegressor) for m in models.values()
        ):
            return None
        names = tuple(models)
        coeff_list = [models[n].coefficients for n in names]  # type: ignore[attr-defined]
        width = max(c.size for c in coeff_list)
        mat = np.zeros((len(names), width))
        for i, c in enumerate(coeff_list):
            mat[i, width - c.size :] = c
        scales = np.array(
            [models[n].scale for n in names]  # type: ignore[attr-defined]
        )
        return cls(names=names, coeffs=mat, scales=scales)

    def evaluate(self, input_size: float) -> np.ndarray:
        """Every unit's polynomial at ``input_size`` (one Horner pass)."""
        xs = input_size / self.scales
        acc = self.coeffs[:, 0].copy()
        for j in range(1, self.coeffs.shape[1]):
            acc = acc * xs + self.coeffs[:, j]
        return acc


#: what one set of per-unit models predicts: activation bytes, forward
#: seconds or backward seconds
_Kind = Literal["bytes", "times", "bwd_times"]
_KINDS: tuple[_Kind, ...] = ("bytes", "times", "bwd_times")


@dataclass(frozen=True, slots=True)
class _UnitModels:
    """One kind's per-unit models, rebuilt on every fit: the regressors,
    their stacked form when all are polynomials (the vectorised fast
    path), and the per-size memo of :meth:`LightningMemoryEstimator
    ._predict_all`."""

    models: dict[str, Regressor] = field(default_factory=dict)
    stack: Optional[_StackedPolynomials] = None
    memo: dict[int, dict[str, Any]] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class EstimatorReport:
    """Fit-quality and latency summary (Tables IV/V source)."""

    regressor_name: str
    num_units: int
    num_samples: int
    train_time_s: float
    predict_latency_s: float
    relative_error: float


class LightningMemoryEstimator:
    """Per-unit regression of activation memory (and time) vs input size.

    Args:
        regressor_factory: builds a fresh :class:`Regressor` per unit
            (default: quadratic polynomial).
    """

    def __init__(
        self,
        regressor_factory: Callable[[], Regressor] | None = None,
    ) -> None:
        self._factory = regressor_factory or (lambda: PolynomialRegressor(2))
        self._units: dict[_Kind, _UnitModels] = {
            kind: _UnitModels() for kind in _KINDS
        }
        self._base_model: Regressor | None = None
        self._last_fit_time = 0.0
        self._max_trained_size = 0

    # ------------------------------------------------------------------- fit

    def fit(self, collector: ShuttlingCollector) -> float:
        """Train one memory, forward-time, and backward-time model per unit.

        Backward models are only fitted when the collector actually
        observed backward times (any positive sample): hand-built
        collectors that predate backward measurement — or sheltered runs
        aborted before a backward — leave :attr:`has_bwd_data` False, so
        downstream pricing falls back to the labelled ratio instead of
        trusting an all-zero regression.

        Returns the wall-clock fit time in seconds.
        """
        data = collector.training_data()
        if not data:
            raise ValueError("collector holds no samples")
        start = time.perf_counter()
        models: dict[_Kind, dict[str, Regressor]] = {k: {} for k in _KINDS}
        have_bwd = any(
            any(b > 0.0 for b in bwds) for (_, _, _, bwds) in data.values()
        )
        max_size = 0
        for unit, (sizes, bytes_, times, bwd_times) in data.items():
            models["bytes"][unit] = self._factory().fit(sizes, bytes_)
            models["times"][unit] = self._factory().fit(sizes, times)
            if have_bwd:
                models["bwd_times"][unit] = self._factory().fit(sizes, bwd_times)
            max_size = max(max_size, max(sizes))
        units = {
            kind: _UnitModels(m, _StackedPolynomials.build(m))
            for kind, m in models.items()
        }
        elapsed = time.perf_counter() - start
        self._units = units
        self._last_fit_time = elapsed
        self._max_trained_size = max_size
        return elapsed

    def fit_base(self, sizes: list[int], peak_bytes: list[int]) -> None:
        """Fit the sheltered-peak model: the full-checkpoint iteration peak
        as a function of input size (measured during sheltered execution).

        This is the floor on top of which each *kept* unit adds its
        activation bytes, so Mimose can predict the peak of any plan.
        """
        self._base_model = self._factory().fit(sizes, peak_bytes)

    def predict_base(self, input_size: int) -> int:
        """Predicted full-checkpoint peak for one input size."""
        if self._base_model is None:
            raise RuntimeError("base model is not fitted")
        return max(0, int(self._base_model.predict(input_size)))

    @property
    def has_base(self) -> bool:
        return self._base_model is not None

    @property
    def is_fitted(self) -> bool:
        return bool(self._units["bytes"].models)

    @property
    def max_trained_size(self) -> int:
        """Largest input size seen during training (extrapolation guard)."""
        return self._max_trained_size

    def unit_names(self) -> list[str]:
        return sorted(self._units["bytes"].models)

    # --------------------------------------------------------------- predict

    def predict_bytes(self, unit_name: str, input_size: int) -> int:
        """Predicted activation bytes of one unit (clamped non-negative)."""
        model = self._units["bytes"].models.get(unit_name)
        if model is None:
            raise KeyError(f"no memory model for unit {unit_name!r}")
        return max(0, int(model.predict(input_size)))

    def predict_time(self, unit_name: str, input_size: int) -> float:
        model = self._units["times"].models.get(unit_name)
        if model is None:
            raise KeyError(f"no time model for unit {unit_name!r}")
        return max(0.0, float(model.predict(input_size)))

    def predict_bwd_time(self, unit_name: str, input_size: int) -> float:
        """Predicted backward seconds of one unit (clamped non-negative)."""
        model = self._units["bwd_times"].models.get(unit_name)
        if model is None:
            raise KeyError(f"no backward-time model for unit {unit_name!r}")
        return max(0.0, float(model.predict(input_size)))

    @property
    def has_bwd_data(self) -> bool:
        """Whether backward-time models were fitted from measured data."""
        return bool(self._units["bwd_times"].models)

    _PREDICT_CACHE_LIMIT = 4096

    def _predict_all(self, kind: _Kind, input_size: int) -> dict[str, Any]:
        """Every unit's ``kind`` prediction at one input size, clamped
        non-negative: bytes as ``int``, seconds as ``float``.

        Vectorised (one Horner pass over the stacked coefficient matrix)
        when every unit model is polynomial, and memoised per integer
        input size; results are identical to the per-unit ``predict_*``
        methods, in fit order.  Returns a fresh dict each call.
        """
        units = self._units[kind]
        key = int(input_size)
        cached = units.memo.get(key)
        if cached is None:
            values: Iterable[tuple[str, Any]]
            if units.stack is not None:
                values = zip(units.stack.names, units.stack.evaluate(key))
            else:
                values = ((n, m.predict(key)) for n, m in units.models.items())
            if kind == "bytes":
                cached = {name: max(0, int(v)) for name, v in values}
            else:
                cached = {name: max(0.0, float(v)) for name, v in values}
            if len(units.memo) >= self._PREDICT_CACHE_LIMIT:
                units.memo.clear()
            units.memo[key] = cached
        return dict(cached)

    def predict_all_bytes(self, input_size: int) -> dict[str, int]:
        """Per-unit predicted activation bytes for one input size."""
        return self._predict_all("bytes", input_size)

    def predict_all_times(self, input_size: int) -> dict[str, float]:
        """Per-unit predicted forward seconds for one input size."""
        return self._predict_all("times", input_size)

    def predict_all_bwd_times(self, input_size: int) -> dict[str, float]:
        """Per-unit predicted backward seconds for one input size; raises
        when no backward data was measured (check :attr:`has_bwd_data`
        first)."""
        if not self.has_bwd_data:
            raise RuntimeError("no backward-time models were fitted")
        return self._predict_all("bwd_times", input_size)

    def total_bytes(self, input_size: int) -> int:
        return sum(self.predict_all_bytes(input_size).values())

    # ------------------------------------------------------------ evaluation

    def evaluate(
        self,
        truth: Mapping[int, Mapping[str, int]],
    ) -> EstimatorReport:
        """Compare summed per-unit predictions against ground truth.

        Args:
            truth: ``{input_size: {unit_name: actual_bytes}}`` — e.g. from
                held-out collector runs.

        The relative error is the paper's metric: |sum(pred) - sum(actual)|
        / sum(actual), averaged over the evaluated input sizes.
        """
        if not self.is_fitted:
            raise RuntimeError("estimator is not fitted")
        if not truth:
            raise ValueError("no ground truth provided")
        errors = []
        latencies = []
        num_samples = 0
        for size, per_unit in truth.items():
            actual = sum(per_unit.values())
            start = time.perf_counter()
            predicted = sum(
                self.predict_bytes(u, size) for u in per_unit
            )
            latencies.append(time.perf_counter() - start)
            num_samples += 1
            if actual > 0:
                errors.append(abs(predicted - actual) / actual)
        return EstimatorReport(
            regressor_name=self._factory().name,
            num_units=len(self._units["bytes"].models),
            num_samples=num_samples,
            train_time_s=self._last_fit_time,
            predict_latency_s=sum(latencies) / max(len(latencies), 1),
            relative_error=sum(errors) / max(len(errors), 1),
        )
