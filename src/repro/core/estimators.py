"""Regression model zoo for the memory estimator (Table IV candidates).

All models map a scalar input size to predicted bytes and share the tiny
:class:`Regressor` interface.  They are implemented from scratch on NumPy
— this reproduction has no sklearn/xgboost — but preserve the properties
Table IV compares:

* polynomial least squares (n = 1, 2, 3): microsecond predictions; the
  quadratic recovers the true memory law exactly;
* a kernel (RBF ridge) regressor standing in for SVR: same kernel-method
  family, an order of magnitude slower to predict, poor extrapolation;
* a CART decision tree: piecewise-constant, overfits 10 samples and
  cannot extrapolate;
* gradient-boosted stumps standing in for XGBoost: by far the slowest to
  train and predict, same extrapolation failure as any tree ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.tensorsim.clock import left_sum


class NotFittedError(RuntimeError):
    """Raised when predicting before fitting."""


class Regressor:
    """1-D regression interface: bytes = f(input_size)."""

    name: str = "regressor"

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "Regressor":
        raise NotImplementedError

    def predict(self, x: float) -> float:
        raise NotImplementedError

    def predict_many(self, xs: Sequence[float]) -> np.ndarray:
        return np.asarray([self.predict(x) for x in xs], dtype=float)

    def _validate(self, x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
            raise ValueError("x and y must be equal-length 1-D sequences")
        if xa.size == 0:
            raise ValueError("cannot fit on zero samples")
        return xa, ya


class PolynomialRegressor(Regressor):
    """Least-squares polynomial fit of the given degree.

    Inputs are scaled to [0, 1] before constructing the Vandermonde matrix
    so the normal equations stay well conditioned for input sizes in the
    tens of thousands.
    """

    def __init__(self, degree: int = 2) -> None:
        if not 1 <= degree <= 8:
            raise ValueError("degree must be in [1, 8]")
        self.degree = degree
        self.name = f"poly{degree}"
        self._coeffs: np.ndarray | None = None
        self._scale = 1.0

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "PolynomialRegressor":
        import warnings

        xa, ya = self._validate(x, y)
        self._scale = float(xa.max()) or 1.0
        xs = xa / self._scale
        degree = min(self.degree, max(1, xa.size - 1))
        with warnings.catch_warnings():
            # near-duplicate sample sizes make the Vandermonde system
            # rank-deficient; least squares still returns the best fit
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            self._coeffs = np.polyfit(xs, ya, degree)
        return self

    def predict(self, x: float) -> float:
        if self._coeffs is None:
            raise NotFittedError(f"{self.name} has not been fitted")
        return float(np.polyval(self._coeffs, x / self._scale))

    @property
    def coefficients(self) -> np.ndarray:
        if self._coeffs is None:
            raise NotFittedError(f"{self.name} has not been fitted")
        return self._coeffs.copy()

    @property
    def scale(self) -> float:
        """Input normalisation divisor chosen at fit time."""
        return self._scale


class SupportVectorRegressor(Regressor):
    """RBF kernel ridge regressor (SVR-family stand-in).

    Solves ``(K + lambda I) a = y`` in closed form; prediction evaluates the
    kernel against every training point, which is what makes real SVR an
    order of magnitude slower than the polynomial models in Table IV.
    """

    name = "svr"

    def __init__(self, gamma: float = 8.0, ridge: float = 1e-3) -> None:
        if gamma <= 0 or ridge <= 0:
            raise ValueError("gamma and ridge must be positive")
        self.gamma = gamma
        self.ridge = ridge
        self._x: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._scale = 1.0
        self._y_mean = 0.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = a[:, None] - b[None, :]
        return np.exp(-self.gamma * d * d)

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "SupportVectorRegressor":
        xa, ya = self._validate(x, y)
        self._scale = float(xa.max()) or 1.0
        xs = xa / self._scale
        self._y_mean = float(ya.mean())
        k = self._kernel(xs, xs)
        k[np.diag_indices_from(k)] += self.ridge
        self._alpha = np.linalg.solve(k, ya - self._y_mean)
        self._x = xs
        return self

    def predict(self, x: float) -> float:
        if self._alpha is None or self._x is None:
            raise NotFittedError("svr has not been fitted")
        xs = np.asarray([x / self._scale])
        k = self._kernel(xs, self._x)[0]
        return float(k @ self._alpha + self._y_mean)


@dataclass(slots=True)
class _TreeNode:
    threshold: float = 0.0
    value: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor(Regressor):
    """CART regression tree on a single feature.

    Piecewise-constant: with 10 training samples it memorises them, and it
    can never extrapolate beyond the training range — the failure mode
    that gives trees their 5.67 % error in Table IV.
    """

    name = "tree"

    def __init__(self, max_depth: int = 6, min_samples_leaf: int = 1) -> None:
        if max_depth < 1 or min_samples_leaf < 1:
            raise ValueError("invalid tree hyper-parameters")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._root: _TreeNode | None = None

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "DecisionTreeRegressor":
        xa, ya = self._validate(x, y)
        order = np.argsort(xa)
        self._root = self._grow(xa[order], ya[order], 0)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(value=float(y.mean()))
        if depth >= self.max_depth or x.size < 2 * self.min_samples_leaf:
            return node
        best_sse = float("inf")
        best_split = -1
        # x is sorted; candidate splits lie between distinct neighbours
        csum = np.cumsum(y)
        total = csum[-1]
        for i in range(self.min_samples_leaf, x.size - self.min_samples_leaf + 1):
            if i < x.size and x[i] == x[i - 1]:
                continue
            left_mean = csum[i - 1] / i
            right_mean = (total - csum[i - 1]) / (x.size - i)
            sse = -(i * left_mean**2 + (x.size - i) * right_mean**2)
            if sse < best_sse:
                best_sse = sse
                best_split = i
        if best_split < 0:
            return node
        i = best_split
        node.threshold = float((x[i - 1] + x[i]) / 2) if i < x.size else float(x[-1])
        node.left = self._grow(x[:i], y[:i], depth + 1)
        node.right = self._grow(x[i:], y[i:], depth + 1)
        return node

    def predict(self, x: float) -> float:
        if self._root is None:
            raise NotFittedError("tree has not been fitted")
        node = self._root
        while not node.is_leaf:
            node = node.left if x <= node.threshold else node.right  # type: ignore[assignment]
        return node.value


class GradientBoostedTrees(Regressor):
    """Gradient-boosted regression stumps (XGBoost stand-in).

    Hundreds of sequential weak learners make both fitting and prediction
    orders of magnitude slower than the closed-form models, reproducing
    XGBoost's Table IV profile (428 ms train / 1.3 ms predict).
    """

    name = "gbt"

    def __init__(
        self,
        n_estimators: int = 300,
        learning_rate: float = 0.1,
        max_depth: int = 3,
    ) -> None:
        if n_estimators < 1 or not 0 < learning_rate <= 1:
            raise ValueError("invalid boosting hyper-parameters")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self._trees: list[DecisionTreeRegressor] = []
        self._base = 0.0

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "GradientBoostedTrees":
        xa, ya = self._validate(x, y)
        self._base = float(ya.mean())
        residual = ya - self._base
        self._trees = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(max_depth=self.max_depth)
            tree.fit(xa, residual)
            pred = tree.predict_many(xa)
            residual = residual - self.learning_rate * pred
            self._trees.append(tree)
            if float(np.abs(residual).max()) < 1e-9:
                break
        return self

    def predict(self, x: float) -> float:
        if not self._trees:
            raise NotFittedError("gbt has not been fitted")
        return self._base + self.learning_rate * left_sum(
            t.predict(x) for t in self._trees
        )


_FACTORIES: dict[str, Callable[[], Regressor]] = {
    "poly1": lambda: PolynomialRegressor(1),
    "poly2": lambda: PolynomialRegressor(2),
    "poly3": lambda: PolynomialRegressor(3),
    "svr": SupportVectorRegressor,
    "tree": DecisionTreeRegressor,
    "gbt": GradientBoostedTrees,
}


def available_regressors() -> list[str]:
    return sorted(_FACTORIES)


def make_regressor(name: str) -> Regressor:
    """Construct a fresh regressor by Table IV family name."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown regressor {name!r}; available: {available_regressors()}"
        ) from None
