"""Tests for Algorithm 1 (greedy bucketed scheduler) and the knapsack alternative."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import (
    GreedyScheduler,
    HybridGreedyScheduler,
    KnapsackScheduler,
    PcieCostModel,
    SolverInput,
    predicted_swap_stall,
)
from repro.solvers.chen import _recompute_cost

MB = 1 << 20


def inp(est, excess, order=None, est_time=None, bwd_time=None):
    order = order or {u: i for i, u in enumerate(est)}
    return SolverInput(
        est_bytes=est,
        order=order,
        excess_bytes=excess,
        est_time=est_time,
        bwd_time=bwd_time,
    )


def test_no_excess_returns_empty():
    s = GreedyScheduler()
    assert s.schedule(inp({"a": 10 * MB}, 0)) == frozenset()
    assert s.schedule(inp({"a": 10 * MB}, -5)) == frozenset()


def test_selection_covers_excess():
    s = GreedyScheduler()
    est = {f"u{i}": 100 * MB for i in range(12)}
    chosen = s.schedule(inp(est, 350 * MB))
    assert sum(est[u] for u in chosen) >= 350 * MB
    assert len(chosen) == 4  # minimal count for equal sizes


def test_prefers_earliest_timestamp_within_bucket():
    s = GreedyScheduler()
    est = {f"u{i}": 100 * MB for i in range(12)}
    chosen = s.schedule(inp(est, 250 * MB))
    # equal sizes = one bucket; earliest units picked first
    assert chosen == frozenset({"u0", "u1", "u2"})


def test_nearest_size_above_excess_is_selected():
    """Algorithm 1 line 19: pick the layer closest above the excess."""
    s = GreedyScheduler()
    est = {"big": 400 * MB, "mid": 150 * MB, "small": 60 * MB}
    chosen = s.schedule(inp(est, 100 * MB))
    assert chosen == frozenset({"mid"})  # not 'big': mid is nearest above


def test_nearest_above_not_fooled_by_earlier_smaller_bucket_member():
    """Regression: inside the tightest covering bucket, the earliest
    member may be up to bucket_tolerance *smaller* than the excess;
    picking it would violate "nearest above" and force an extra drop."""
    s = GreedyScheduler(bucket_tolerance=0.10)
    est = {"early": 91 * MB, "late": 100 * MB}  # one bucket (within 10 %)
    order = {"early": 0, "late": 1}
    chosen = s.schedule(inp(est, 95 * MB, order=order))
    assert chosen == frozenset({"late"})  # early (91 MB) cannot cover 95 MB


def test_nearest_above_still_prefers_earliest_among_covering_members():
    s = GreedyScheduler(bucket_tolerance=0.10)
    est = {"a": 100 * MB, "b": 97 * MB, "c": 93 * MB}
    order = {"a": 2, "b": 0, "c": 1}
    chosen = s.schedule(inp(est, 95 * MB, order=order))
    # b and a both cover; b is earlier. c (93 MB) does not qualify.
    assert chosen == frozenset({"b"})


def test_largest_first_when_nothing_covers_alone():
    """Algorithm 1 line 17: fall back to the largest activation."""
    s = GreedyScheduler()
    est = {"a": 80 * MB, "b": 60 * MB, "c": 50 * MB}
    chosen = s.schedule(inp(est, 120 * MB))
    assert "a" in chosen
    assert sum(est[u] for u in chosen) >= 120 * MB


def test_excess_beyond_everything_drops_all():
    s = GreedyScheduler()
    est = {"a": 10 * MB, "b": 10 * MB}
    chosen = s.schedule(inp(est, 500 * MB))
    assert chosen == frozenset(est)


def test_buckets_group_within_tolerance():
    s = GreedyScheduler(bucket_tolerance=0.10)
    est = {
        "a": 100 * MB, "b": 95 * MB, "c": 91 * MB,  # one bucket (within 10%)
        "d": 50 * MB, "e": 47 * MB,  # second bucket
        "f": 10 * MB,  # third
    }
    buckets = s.build_buckets(inp(est, 1))
    assert [sorted(b) for b in buckets] == [["a", "b", "c"], ["d", "e"], ["f"]]


def test_buckets_sorted_desc_and_by_timestamp_inside():
    s = GreedyScheduler()
    est = {"late": 100 * MB, "early": 98 * MB}
    order = {"late": 5, "early": 1}
    buckets = s.build_buckets(inp(est, 1, order=order))
    assert buckets == [["early", "late"]]


def test_zero_tolerance_gives_singleton_buckets():
    s = GreedyScheduler(bucket_tolerance=0.0)
    est = {"a": 100 * MB, "b": 100 * MB - 1, "c": 50 * MB}
    buckets = s.build_buckets(inp(est, 1))
    assert len(buckets) == 3


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        GreedyScheduler(bucket_tolerance=1.0)
    with pytest.raises(ValueError):
        GreedyScheduler(bucket_tolerance=-0.1)


# ------------------------------------------------------------------ knapsack

def test_knapsack_covers_excess_minimising_time():
    s = KnapsackScheduler()
    est = {"a": 100 * MB, "b": 100 * MB, "c": 200 * MB}
    times = {"a": 1.0, "b": 1.0, "c": 0.5}
    chosen = s.schedule(inp(est, 150 * MB, est_time=times))
    assert chosen == frozenset({"c"})  # covers 150MB at half the time


def test_knapsack_no_excess():
    assert KnapsackScheduler().schedule(inp({"a": MB}, 0)) == frozenset()


def test_knapsack_insufficient_capacity_drops_all():
    s = KnapsackScheduler()
    est = {"a": 2 * MB, "b": 2 * MB}
    assert s.schedule(inp(est, 100 * MB)) == frozenset(est)


def test_knapsack_sub_quantum_unit_cannot_cover_excess():
    """Regression: with ``max(1, bytes // QUANTUM)`` a 10-byte unit counted
    as a full MiB, so the DP declared a 1 MiB excess covered by dropping
    only ``tiny`` — freeing 10 real bytes.  Rounding down (and excluding
    zero-quantum units) forces a selection whose real bytes reach the
    excess."""
    s = KnapsackScheduler()
    est = {"tiny": 10, "big": 2 * MB}
    times = {"tiny": 0.001, "big": 1.0}  # the DP would love to pick tiny
    chosen = s.schedule(inp(est, 1 * MB, est_time=times))
    assert sum(est[u] for u in chosen) >= 1 * MB
    assert "big" in chosen


def test_knapsack_all_sub_quantum_falls_back_to_drop_all():
    s = KnapsackScheduler()
    est = {"a": 10, "b": 300_000, "c": 500_000}
    chosen = s.schedule(inp(est, 600_000))
    # nothing reaches a quantum, so coverage cannot be guaranteed; the
    # falls-short fallback drops everything (sub-quantum units included)
    assert chosen == frozenset(est)


# ------------------------------------------------------------- cost model

GBPS = 10**9


def timed_inp(excess=100 * MB, bwd_time=None):
    est = {"a": 120 * MB, "b": 80 * MB}
    est_time = {"a": 0.1, "b": 0.3}
    return inp(est, excess, est_time=est_time, bwd_time=bwd_time)


def test_overlap_window_prefers_measured_backwards():
    model = PcieCostModel(pcie_bandwidth=GBPS)
    measured = timed_inp(bwd_time={"a": 0.3, "b": 0.5})
    assert model.overlap_window(measured) == pytest.approx(0.4)
    assert model.pricing_mode(measured) == "measured-bwd"


def test_overlap_window_ratio_fallback_without_backwards():
    model = PcieCostModel(pcie_bandwidth=GBPS)
    unmeasured = timed_inp()
    # DEFAULT_BWD_RATIO x mean forward = 2.0 x 0.2
    assert model.overlap_window(unmeasured) == pytest.approx(0.4)
    assert model.pricing_mode(unmeasured) == "ratio-fallback"


def test_overlap_window_explicit_ratio_overrides_measured():
    model = PcieCostModel(pcie_bandwidth=GBPS, bwd_ratio=3.0)
    measured = timed_inp(bwd_time={"a": 9.0, "b": 9.0})
    # the override wins even though measured backwards are present
    assert model.overlap_window(measured) == pytest.approx(3.0 * 0.2)
    assert model.pricing_mode(measured) == "ratio-override"


def test_untimed_input_never_swaps():
    model = PcieCostModel(pcie_bandwidth=GBPS)
    untimed = inp({"a": 120 * MB, "b": 80 * MB}, 100 * MB)
    assert model.recompute_cost("a", untimed) == 0.0
    assert model.overlap_window(untimed) == 0.0
    assert model.pricing_mode(untimed) == "untimed"
    assignment = HybridGreedyScheduler(model).assign(untimed)
    assert assignment.swap_units == frozenset()
    assert assignment.checkpoint_units  # excess still covered by recompute


def test_hybrid_assignment_differs_between_pricing_modes():
    """The folk 2x constant claims a wide overlap window, so transfers
    look free and the hybrid swaps; the measured backwards here are much
    shorter, so the same units are recomputed instead."""
    measured = timed_inp(bwd_time={"a": 0.001, "b": 0.001})
    by_measured = HybridGreedyScheduler(
        PcieCostModel(pcie_bandwidth=GBPS)
    ).assign(measured)
    by_ratio = HybridGreedyScheduler(
        PcieCostModel(pcie_bandwidth=GBPS, bwd_ratio=2.0)
    ).assign(measured)
    assert by_ratio.swap_units  # window 0.4 s hides the ~0.13 s transfers
    assert not by_measured.swap_units  # window 1 ms hides nothing
    assert by_measured != by_ratio
    # either way the excess is covered
    est = measured.est_bytes
    for assignment in (by_measured, by_ratio):
        assert sum(est[u] for u in assignment.units) >= measured.excess_bytes


def test_hybrid_and_greedy_agree_when_swapping_never_pays():
    measured = timed_inp(bwd_time={"a": 0.0, "b": 0.0})
    hybrid = HybridGreedyScheduler(PcieCostModel(pcie_bandwidth=GBPS))
    assignment = hybrid.assign(measured)
    assert not assignment.swap_units
    # recompute-only view covers like the greedy contract requires
    covered = sum(measured.est_bytes[u] for u in assignment.checkpoint_units)
    assert covered >= measured.excess_bytes


def test_predicted_swap_stall_matches_loop_pricing():
    model = PcieCostModel(pcie_bandwidth=GBPS, bwd_ratio=2.0)
    measured = timed_inp()
    assignment = HybridGreedyScheduler(model).assign(measured)
    window = model.overlap_window(measured)
    expect = sum(
        max(0.0, model.transfer_time(measured.est_bytes[u]) - window)
        for u in assignment.swap_units
    )
    assert predicted_swap_stall(model, assignment, measured) == expect
    # empty assignment -> no stall
    empty = HybridGreedyScheduler(model).assign(timed_inp(excess=0))
    assert predicted_swap_stall(model, empty, measured) == 0.0


def test_time_sums_are_left_folds():
    """Time sums on the plan path add left to right from 0.0, as the
    builtin ``sum()`` does up to Python 3.11.  Since 3.12 it compensates,
    which on these times rounds to a different result."""
    times = {"a": 1e16, "b": 1.0, "c": -1e16}
    assert math.fsum(times.values()) == 1.0  # what a compensated sum gives
    timed = inp(dict.fromkeys(times, MB), MB, est_time=times, bwd_time=times)
    model = PcieCostModel(pcie_bandwidth=GBPS)
    assert model.overlap_window(timed) == 0.0  # mean measured backward
    ratio = PcieCostModel(pcie_bandwidth=GBPS, bwd_ratio=2.0)
    assert ratio.overlap_window(timed) == 0.0  # ratio x mean forward
    assert model.transfer_envelope(timed) == 0.0
    assert _recompute_cost(list(times), set(), timed) == 0.0

    class Stalls:
        """Swaps that stall 1e16 s, 1 s and 1 s, in the plan's order."""

        def overlap_window(self, inp):
            return 0.0

        def transfer_time(self, nbytes):
            return (1e16, 1.0, 1.0)[nbytes]

    plan = SimpleNamespace(swap_units=("a", "b", "c"))
    swaps = inp({"a": 0, "b": 1, "c": 2}, 0)
    assert predicted_swap_stall(Stalls(), plan, swaps) == 1e16  # fsum: 1e16 + 2


# --------------------------------------------------------------- properties

@st.composite
def scheduler_cases(draw):
    n = draw(st.integers(2, 16))
    est = {
        f"u{i}": draw(st.integers(1, 512)) * MB for i in range(n)
    }
    total = sum(est.values())
    excess = draw(st.integers(1, max(total, 2)))
    return est, excess


@settings(max_examples=80, deadline=None)
@given(case=scheduler_cases())
def test_property_greedy_always_covers_or_exhausts(case):
    est, excess = case
    chosen = GreedyScheduler().schedule(inp(est, excess))
    dropped = sum(est[u] for u in chosen)
    if dropped < excess:
        assert chosen == frozenset(est)  # exhausted everything
    else:
        assert dropped >= excess


@settings(max_examples=60, deadline=None)
@given(case=scheduler_cases())
def test_property_greedy_selection_is_not_wasteful(case):
    """Removing the last-picked unit must leave the excess uncovered
    (the greedy loop stops as soon as coverage is reached)."""
    est, excess = case
    chosen = GreedyScheduler().schedule(inp(est, excess))
    dropped = sum(est[u] for u in chosen)
    if dropped >= excess and chosen:
        # Every pick was needed when it was made, so the selection minus
        # its largest member cannot cover the excess.
        largest = max(chosen, key=lambda u: est[u])
        assert dropped - est[largest] < excess


@settings(max_examples=60, deadline=None)
@given(case=scheduler_cases())
def test_property_knapsack_coverage(case):
    est, excess = case
    chosen = KnapsackScheduler().schedule(inp(est, excess))
    dropped = sum(est[u] for u in chosen)
    assert dropped >= min(excess, sum(est.values()))


@st.composite
def tie_heavy_cases(draw):
    """Many units sharing a handful of sizes: buckets full of exact ties,
    the regime where bucket ordering and DP backtracking are easiest to
    get wrong."""
    sizes = draw(
        st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True)
    )
    n = draw(st.integers(3, 20))
    est = {
        f"u{i}": draw(st.sampled_from(sizes)) * 64 * MB for i in range(n)
    }
    total = sum(est.values())
    excess = draw(st.integers(1, total + 64 * MB))
    return est, excess


@settings(max_examples=80, deadline=None)
@given(case=tie_heavy_cases())
@pytest.mark.parametrize(
    "scheduler", [GreedyScheduler(), KnapsackScheduler()], ids=lambda s: s.name
)
def test_property_coverage_on_tie_heavy_inputs(scheduler, case):
    """Both schedulers: the chosen set covers the excess, or — when even
    everything falls short — is the whole unit set."""
    est, excess = case
    chosen = scheduler.schedule(inp(est, excess))
    dropped = sum(est[u] for u in chosen)
    if dropped < excess:
        assert chosen == frozenset(est)
    assert dropped >= min(excess, sum(est.values()))
