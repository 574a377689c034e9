"""Solver-registry contract and optimality-harness property suite.

Every registered solver shares one contract (:class:`SolverInput` in,
``ActionAssignment`` out) and one objective (:func:`plan_cost` under a
shared :class:`PcieCostModel`).  The properties here are the ones the
Table I gap column rests on: every solver's plan is budget-feasible,
no solver beats the exact branch-and-bound optimum (gap >= 0), the
exact solver's own gap is identically zero, and the LP relaxation
never exceeds the integral optimum.
"""

import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planners.base import ActionAssignment, MemoryAction
from repro.planners.checkmate import solve_keep_knapsack
from repro.solvers import (
    ExactSolver,
    PcieCostModel,
    Solver,
    SolverInput,
    fractional_lower_bound,
    make_solver,
    plan_cost,
    plan_feasible,
    register_solver,
    solver_class,
    solver_names,
)
from repro.experiments.optimality import relative_gap

MB = 1 << 20
GBPS = 10**9


def make_input(est, excess, est_time=None, bwd_time=None):
    return SolverInput(
        est_bytes=est,
        order={u: i for i, u in enumerate(est)},
        excess_bytes=excess,
        est_time=est_time,
        bwd_time=bwd_time,
    )


# ------------------------------------------------------------------ registry


def test_registry_lists_all_builtin_solvers():
    names = solver_names()
    assert names == tuple(sorted(names))
    for expected in (
        "greedy",
        "knapsack",
        "hybrid",
        "exact",
        "lp",
        "chen-greedy",
        "chen-sqrtn",
        "sublinear",
        "checkmate",
    ):
        assert expected in names


def test_unknown_solver_name_is_a_keyerror_listing_alternatives():
    with pytest.raises(KeyError, match="unknown solver 'nope'"):
        solver_class("nope")
    with pytest.raises(KeyError, match="greedy"):
        make_solver("nope")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="duplicate solver name"):

        @register_solver
        class Duplicate(Solver):  # noqa: F811 - registration is the point
            name = "greedy"


def test_make_solver_builds_each_registered_solver():
    for name in solver_names():
        solver = make_solver(name)
        assert solver.name == name
        assert isinstance(solver, solver_class(name))


def test_prices_actions_flags_the_cost_model_solvers():
    pricing = {n for n in solver_names() if solver_class(n).prices_actions}
    assert pricing == {"hybrid", "exact", "lp"}
    # the flag is what gates --bwd-ratio: pricing solvers accept it
    for name in pricing:
        solver = make_solver(name, bwd_ratio=3.0)
        assert solver.cost_model is not None


# ----------------------------------------------------------------- properties


@st.composite
def solver_cases(draw):
    """Small instances every solver (incl. exact B&B) must handle."""
    n = draw(st.integers(1, 10))
    est = {f"u{i}": draw(st.integers(1, 256)) * MB for i in range(n)}
    total = sum(est.values())
    excess = draw(st.integers(-MB, total + 64 * MB))
    timed = draw(st.booleans())
    est_time = bwd_time = None
    if timed:
        est_time = {
            u: draw(st.floats(1e-5, 1e-2, allow_nan=False)) for u in est
        }
        bwd_time = {u: 1.5 * t for u, t in est_time.items()}
    return make_input(est, excess, est_time=est_time, bwd_time=bwd_time)


@settings(max_examples=60, deadline=None)
@given(inp=solver_cases())
def test_property_every_solver_is_budget_feasible(inp):
    """Each registered solver's plan covers the excess (or exhausts the
    units) without overflowing the swap envelope."""
    model = PcieCostModel()
    for name in solver_names():
        solver = make_solver(name)
        assignment = solver.assign(inp)
        own_model = solver.cost_model or model
        assert plan_feasible(own_model, assignment, inp), (
            f"{name} produced an infeasible plan"
        )


@settings(max_examples=60, deadline=None)
@given(inp=solver_cases())
def test_property_no_solver_beats_the_exact_optimum(inp):
    """Gap >= 0 for every solver, identically 0 for exact itself —
    priced under one shared cost model, exactly like ``gap_report``.
    The shared model must match the one ``make_solver`` gives the
    pricing solvers (the default), else they optimise a different
    objective than they are scored under."""
    model = PcieCostModel()
    exact_cost = plan_cost(model, ExactSolver(model).assign(inp), inp)
    for name in solver_names():
        assignment = make_solver(name).assign(inp)
        if not plan_feasible(model, assignment, inp):
            continue  # scored inf by the harness, trivially >= 0
        gap = relative_gap(plan_cost(model, assignment, inp), exact_cost)
        assert gap >= 0.0, f"{name} beat the exact optimum (gap {gap})"
        if name == "exact":
            assert gap == 0.0


@settings(max_examples=60, deadline=None)
@given(inp=solver_cases())
def test_property_lp_relaxation_lower_bounds_the_exact_optimum(inp):
    model = PcieCostModel(pcie_bandwidth=GBPS)
    exact_cost = plan_cost(model, ExactSolver(model).assign(inp), inp)
    assert fractional_lower_bound(model, inp) <= exact_cost + 1e-9


def test_relative_gap_convention():
    assert relative_gap(3.0, 2.0) == pytest.approx(0.5)
    assert relative_gap(0.0, 0.0) == 0.0
    assert relative_gap(-1e-15, 0.0) == 0.0
    assert math.isinf(relative_gap(1.0, 0.0))


_PRICE_ALL_RECOMPUTE = """
from repro.planners.base import ActionAssignment
from repro.solvers import PcieCostModel, SolverInput, plan_cost
times = {f"encoder.{i}": 0.001 * 1.1**i + 1e-7 * i for i in range(12)}
inp = SolverInput(dict.fromkeys(times, 1), dict.fromkeys(times, 0), 1, times)
assignment = ActionAssignment.from_sets(recompute=times)
print(repr(plan_cost(PcieCostModel(), assignment, inp)))
"""


def test_plan_cost_does_not_depend_on_the_hash_seed():
    """A plan's cost folds its units in one order whatever the hash seed.

    A frozenset iterates in an order that follows ``PYTHONHASHSEED``;
    folding these twelve recompute times in set order priced four
    different values under the seeds below."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    prices = {
        subprocess.run(
            [sys.executable, "-c", _PRICE_ALL_RECOMPUTE],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.strip()
        for seed in ("0", "1", "3", "5")
    }
    assert len(prices) == 1, prices


def test_exact_solver_refuses_oversized_instances():
    solver = ExactSolver(PcieCostModel())
    est = {f"u{i}": MB for i in range(solver.max_units + 1)}
    with pytest.raises(ValueError, match="unit"):
        solver.assign(make_input(est, 10 * MB))


# ------------------------------------------------- brute-force exact oracle


def _brute_force_optimum(model, inp):
    """The least :func:`plan_cost` over all 3**n KEEP/RECOMPUTE/SWAP
    assignments that :func:`plan_feasible` accepts, and one that attains
    it; an oracle independent of the exact solver's search and bounds."""
    units = list(inp.est_bytes)
    best, best_assignment = math.inf, None
    actions = (MemoryAction.KEEP, MemoryAction.RECOMPUTE, MemoryAction.SWAP)
    for choice in itertools.product(actions, repeat=len(units)):
        assignment = ActionAssignment(tuple(zip(units, choice)))
        if plan_feasible(model, assignment, inp):
            cost = plan_cost(model, assignment, inp)
            if cost < best:
                best, best_assignment = cost, assignment
    return best, best_assignment


def _oracle_case(rng):
    """A small input where swapping can beat recomputing: at most 96 MiB
    per unit, 1-8 ms forwards, measured backwards half of the time."""
    n = rng.randint(1, 8)
    est = {f"u{i}": rng.randint(1, 96 * MB) for i in range(n)}
    est_time = {u: rng.uniform(1e-3, 8e-3) for u in est}
    bwd_time = (
        {u: t * rng.uniform(1.0, 3.0) for u, t in est_time.items()}
        if rng.random() < 0.5
        else None
    )
    excess = rng.randint(1, sum(est.values()) + 32 * MB)
    return make_input(est, excess, est_time=est_time, bwd_time=bwd_time)


def test_exact_solver_matches_a_brute_force_oracle():
    """On every drawn input the exact solver's plan is feasible and
    costs the brute-force minimum, to 1e-12 relative (two optimal plans
    may round their sums differently); some optima swap, so the SWAP
    branch of the search is exercised, not only RECOMPUTE."""
    model = PcieCostModel()
    rng = random.Random(20_231)
    swapping = 0
    for case in range(60):
        inp = _oracle_case(rng)
        best, optimum = _brute_force_optimum(model, inp)
        assignment = ExactSolver(model).assign(inp)
        assert plan_feasible(model, assignment, inp), case
        cost = plan_cost(model, assignment, inp)
        assert abs(cost - best) <= 1e-12 * best, (case, cost, best)
        swapping += bool(optimum.swap_units)
    assert swapping >= 10


# ----------------------------------------------- checkmate keep-knapsack fix


def test_keep_knapsack_zero_weight_units_are_free_keeps():
    """Sub-quantum regression (mirror of ``KnapsackScheduler``'s): a
    zero-byte unit quantises to weight 0 and must always be kept — the
    old ``max(1, ...)`` floor charged it a phantom MiB, evicting either
    it or a real unit under a tight budget."""
    values = [5.0, 1.0]
    weights = [0, 1 * MB]  # item 0 saves nothing: keeping it is free
    chosen = solve_keep_knapsack(values, weights, capacity=1 * MB)
    assert 0 in chosen  # free keep always taken
    assert 1 in chosen  # the real MiB still fits: nothing was evicted


def test_keep_knapsack_still_rounds_real_weights_up():
    # 1.5 MiB quantises to 2 MiB: both items no longer fit in 3 MiB
    chosen = solve_keep_knapsack(
        [1.0, 1.0], [int(1.5 * MB), int(1.5 * MB)], capacity=3 * MB
    )
    assert len(chosen) == 1


def test_keep_knapsack_empty_and_zero_capacity():
    assert solve_keep_knapsack([], [], 10 * MB) == []
    assert solve_keep_knapsack([1.0], [MB], 0) == []


@pytest.mark.parametrize("name", ["chen-sqrtn", "chen-greedy"])
def test_chen_boundaries_are_interior_units(name):
    """Segment boundaries are the chain's articulation points — every
    unit but the two ends — so a covering plan always drops both ends."""
    est = {f"u{i}": 10 * MB for i in range(9)}
    times = {u: 1e-3 for u in est}
    assignment = make_solver(name).assign(make_input(est, 10 * MB, times))
    assert {"u0", "u8"} <= assignment.checkpoint_units
    assert assignment.checkpoint_units != frozenset(est)
