"""Tests for the shuttling collector and the lightning memory estimator."""

import builtins
import math
from types import SimpleNamespace

import pytest

from repro.core import estimator as estimator_module
from repro.core.collector import ShuttlingCollector
from repro.core.estimator import LightningMemoryEstimator
from repro.core.estimators import PolynomialRegressor
from repro.engine.stats import UnitMeasurement


def measure(unit, size, mem=None, t=None):
    return UnitMeasurement(unit, size, mem if mem is not None else size * 100, t or 1e-3)


def fill(collector, sizes, units=("a", "b")):
    for s in sizes:
        collector.ingest([measure(u, s) for u in units])


# ------------------------------------------------------------------ collector

def test_collector_readiness_requires_iterations_and_sizes():
    c = ShuttlingCollector(min_iterations=3, min_distinct_sizes=3)
    fill(c, [100, 100])
    assert not c.is_ready()  # 2 iterations, 1 distinct size
    fill(c, [200])
    assert not c.is_ready()  # 3 iterations, only 2 distinct sizes
    fill(c, [300])
    assert c.is_ready()


def test_collector_accumulates_per_unit():
    c = ShuttlingCollector(min_iterations=1)
    fill(c, [10, 20, 30])
    assert c.unit_names() == ["a", "b"]
    assert len(c.samples("a")) == 3
    assert c.samples("missing") == ()
    assert c.max_seen_size == 30
    assert c.distinct_sizes == 3
    assert c.iterations_collected == 3


def test_collector_training_data_layout():
    c = ShuttlingCollector(min_iterations=1)
    fill(c, [10, 20], units=("u",))
    sizes, mems, times, bwd_times = c.training_data()["u"]
    assert sizes == [10, 20]
    assert mems == [1000, 2000]
    assert all(t > 0 for t in times)
    # fill() stamps no backward measurement, so the series is all-zero
    assert bwd_times == [0.0, 0.0]


def test_collector_readiness_is_per_unit():
    # unit "b" appears at a single input size; the union of sizes across
    # units satisfies min_distinct_sizes but "b"'s own fit would be
    # degenerate, so the collector must not report ready.
    c = ShuttlingCollector(min_iterations=1, min_distinct_sizes=3)
    for s in (100, 200, 300, 400):
        c.ingest([measure("a", s)])
    c.ingest([measure("b", 100)])
    assert c.distinct_sizes >= 3  # global union looks healthy
    assert c.distinct_sizes_for("b") == 1
    assert not c.is_ready()
    for s in (200, 300):
        c.ingest([measure("b", s)])
    assert c.is_ready()


def test_collector_empty_ingest_does_not_count():
    c = ShuttlingCollector(min_iterations=1)
    c.ingest([])
    assert c.iterations_collected == 0


def test_collector_clear():
    c = ShuttlingCollector(min_iterations=1)
    fill(c, [10])
    c.clear()
    assert c.iterations_collected == 0
    assert c.unit_names() == []


def test_collector_validation():
    with pytest.raises(ValueError):
        ShuttlingCollector(min_iterations=0)
    with pytest.raises(ValueError):
        ShuttlingCollector(min_distinct_sizes=2)


# ------------------------------------------------------------------ estimator

def quad_mem(size):
    return int(0.002 * size * size + 150 * size + 1_000_000)


def quadratic_collector(sizes=(100, 400, 800, 1500, 2500, 4000, 6000)):
    c = ShuttlingCollector(min_iterations=1)
    for s in sizes:
        c.ingest(
            [
                UnitMeasurement("enc.0", s, quad_mem(s), 1e-4 * s),
                UnitMeasurement("enc.1", s, 2 * quad_mem(s), 2e-4 * s),
            ]
        )
    return c


def test_estimator_fit_and_predict_per_unit():
    est = LightningMemoryEstimator()
    fit_time = est.fit(quadratic_collector())
    assert fit_time > 0
    assert est.is_fitted
    assert est.unit_names() == ["enc.0", "enc.1"]
    for s in (300, 2000, 7000):  # includes extrapolation
        assert est.predict_bytes("enc.0", s) == pytest.approx(quad_mem(s), rel=0.01)
        assert est.predict_bytes("enc.1", s) == pytest.approx(2 * quad_mem(s), rel=0.01)


def test_estimator_predict_all_and_total():
    est = LightningMemoryEstimator()
    est.fit(quadratic_collector())
    per_unit = est.predict_all_bytes(1000)
    assert set(per_unit) == {"enc.0", "enc.1"}
    assert est.total_bytes(1000) == sum(per_unit.values())


def test_estimator_time_model():
    est = LightningMemoryEstimator()
    est.fit(quadratic_collector())
    assert est.predict_time("enc.0", 2000) == pytest.approx(0.2, rel=0.05)


def test_estimator_unknown_unit_raises():
    est = LightningMemoryEstimator()
    est.fit(quadratic_collector())
    with pytest.raises(KeyError):
        est.predict_bytes("enc.99", 100)
    with pytest.raises(KeyError):
        est.predict_time("enc.99", 100)


def test_estimator_requires_samples():
    est = LightningMemoryEstimator()
    with pytest.raises(ValueError):
        est.fit(ShuttlingCollector(min_iterations=1))


def test_estimator_max_trained_size():
    est = LightningMemoryEstimator()
    est.fit(quadratic_collector((100, 500, 900, 4000)))
    assert est.max_trained_size == 4000


def test_estimator_base_model():
    est = LightningMemoryEstimator()
    est.fit(quadratic_collector())
    assert not est.has_base
    with pytest.raises(RuntimeError):
        est.predict_base(100)
    sizes = [100, 1000, 3000, 6000]
    est.fit_base(sizes, [quad_mem(s) * 3 for s in sizes])
    assert est.has_base
    assert est.predict_base(2000) == pytest.approx(3 * quad_mem(2000), rel=0.01)


def test_estimator_predictions_clamped_nonnegative():
    c = ShuttlingCollector(min_iterations=1)
    for s, m in [(10, 1000), (20, 500), (30, 100), (40, 10)]:
        c.ingest([UnitMeasurement("u", s, m, 1e-3)])
    est = LightningMemoryEstimator()
    est.fit(c)
    assert est.predict_bytes("u", 500) >= 0


def test_estimator_evaluate_report():
    est = LightningMemoryEstimator()
    est.fit(quadratic_collector())
    truth = {
        s: {"enc.0": quad_mem(s), "enc.1": 2 * quad_mem(s)}
        for s in (700, 1800, 5000)
    }
    report = est.evaluate(truth)
    assert report.regressor_name == "poly2"
    assert report.num_units == 2
    assert report.num_samples == 3
    assert report.relative_error < 0.01
    assert report.predict_latency_s > 0
    with pytest.raises(ValueError):
        est.evaluate({})


def test_estimator_report_means_are_left_folds(monkeypatch):
    """The report's mean error and latency add left to right from 0.0,
    as the builtin ``sum()`` does up to Python 3.11.  Since 3.12 it
    compensates, which ``math.fsum`` emulates here: on these values it
    rounds differently."""
    est = LightningMemoryEstimator()
    est.fit(quadratic_collector())
    monkeypatch.setattr(
        builtins, "sum", lambda values, start=0: math.fsum([start, *values])
    )
    # one unit of 1 actual byte per size: relative errors 1e16, 1.0, 1.0,
    # and a clock that times the predictions alike
    predicted = {1: 10**16 + 1, 2: 2, 3: 2}
    monkeypatch.setattr(est, "predict_bytes", lambda unit, size: predicted[size])
    clock = iter([0.0, 1e16, 0.0, 1.0, 0.0, 1.0])
    monkeypatch.setattr(
        estimator_module, "time", SimpleNamespace(perf_counter=clock.__next__)
    )
    report = est.evaluate({size: {"enc.0": 1} for size in predicted})
    mean = (1e16 + 1.0 + 1.0) / 3
    assert sum([1e16, 1.0, 1.0]) / 3 != mean  # compensated
    assert report.relative_error == mean
    assert report.predict_latency_s == mean


def bwd_collector(sizes=(100, 400, 800, 1500, 2500, 4000, 6000)):
    """Collector whose backward times are NOT 2x the forwards."""
    c = ShuttlingCollector(min_iterations=1)
    for s in sizes:
        c.ingest(
            [
                UnitMeasurement("enc.0", s, quad_mem(s), 1e-4 * s, 1.3e-4 * s),
                UnitMeasurement("enc.1", s, 2 * quad_mem(s), 2e-4 * s, 5.4e-4 * s),
            ]
        )
    return c


def test_estimator_fits_backward_times_when_measured():
    est = LightningMemoryEstimator()
    est.fit(bwd_collector())
    assert est.has_bwd_data
    assert est.predict_bwd_time("enc.0", 2000) == pytest.approx(0.26, rel=0.05)
    assert est.predict_bwd_time("enc.1", 2000) == pytest.approx(1.08, rel=0.05)
    per_unit = est.predict_all_bwd_times(2000)
    assert per_unit == {
        u: est.predict_bwd_time(u, 2000) for u in ("enc.0", "enc.1")
    }


def test_estimator_no_backward_data_means_no_bwd_models():
    # quadratic_collector never stamps bwd_time, so the series is all-zero
    # and fitting a backward model would silently predict 0 -> never swap.
    est = LightningMemoryEstimator()
    est.fit(quadratic_collector())
    assert not est.has_bwd_data
    with pytest.raises(KeyError):
        est.predict_bwd_time("enc.0", 100)
    with pytest.raises(RuntimeError):
        est.predict_all_bwd_times(100)


def test_estimator_bwd_cache_cleared_on_refit():
    est = LightningMemoryEstimator()
    est.fit(bwd_collector())
    before = est.predict_all_bwd_times(2000)
    # refit with scaled backwards; memoised results must not survive
    c = ShuttlingCollector(min_iterations=1)
    for s in (100, 400, 800, 1500):
        c.ingest([UnitMeasurement("enc.0", s, quad_mem(s), 1e-4 * s, 2.6e-4 * s)])
    est.fit(c)
    after = est.predict_all_bwd_times(2000)
    assert after["enc.0"] == pytest.approx(2 * before["enc.0"], rel=0.05)


def test_estimator_custom_factory():
    est = LightningMemoryEstimator(lambda: PolynomialRegressor(1))
    est.fit(quadratic_collector())
    # a linear model on quadratic data misses extrapolation badly
    err = abs(est.predict_bytes("enc.0", 9000) - quad_mem(9000)) / quad_mem(9000)
    assert err > 0.02
