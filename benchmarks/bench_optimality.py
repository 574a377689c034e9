"""Optimality-harness benchmarks: exact-solver tractability and gaps.

``bench_exact_solver_64_units`` pins the branch-and-bound wall time on a
deliberately hard 64-unit instance (tight PCIe link, deep excess, tied
unit sizes) — the tractability claim behind using the exact solver as
the per-cell gap reference.  ``bench_gap_report_registry`` regenerates
the Table I gap column end-to-end (fitted mini-run + every registered
solver) and asserts the harness invariants: the exact solver's own gap
is identically zero, and no solver beats the optimum.
"""

import math
from dataclasses import replace

from conftest import run_once, save_result

from repro.solvers import (
    ExactSolver,
    PcieCostModel,
    SolverInput,
    fractional_lower_bound,
    plan_cost,
    plan_feasible,
    solver_names,
)
from repro.tensorsim.device import V100, DeviceModel

MB = 1 << 20
SLOW_LINK = DeviceModel(replace(V100, pcie_bandwidth=2e9))


def _hard_instance(n: int = 64) -> SolverInput:
    """Tie-heavy pricing instance where swap/recompute genuinely compete."""
    est = {f"enc.{i}": (40 + (i * 29) % 240) * MB for i in range(n)}
    order = {u: i for i, u in enumerate(est)}
    est_time = {u: 2e-4 + 1e-6 * (i % 9) for i, u in enumerate(est)}
    bwd_time = {u: 1.4 * t for u, t in est_time.items()}
    return SolverInput(
        est_bytes=est,
        order=order,
        excess_bytes=int(0.7 * sum(est.values())),
        est_time=est_time,
        bwd_time=bwd_time,
    )


def bench_exact_solver_64_units(benchmark):
    """Exact branch-and-bound at 64 units: tens of milliseconds, pinned.

    The symmetry break over interchangeable units plus the fractional
    completion bound keep the search far from its exponential worst
    case; this pin is what entitles the gap harness to run the exact
    solver per (planner, input-size) cell.
    """
    model = PcieCostModel(SLOW_LINK)
    solver = ExactSolver(model)
    inp = _hard_instance(64)
    assignment = benchmark(solver.assign, inp)
    assert plan_feasible(model, assignment, inp)
    exact_cost = plan_cost(model, assignment, inp)
    # The optimum must land between the LP lower bound and any heuristic.
    assert fractional_lower_bound(model, inp) <= exact_cost + 1e-12


def bench_gap_report_registry(benchmark, results_dir):
    """Every registered solver scored against the exact optimum (Table I).

    Asserts the two harness invariants end-to-end: the exact solver's
    own gap is identically zero on every cell, and no solver's gap is
    negative (nothing beats the optimum it is measured against).
    """
    from repro.experiments.optimality import fitted_inputs, gap_report

    def generate():
        inputs = fitted_inputs("TC-Bert", num_sizes=3)
        return inputs, gap_report(solver_names(), inputs)

    inputs, report = run_once(benchmark, generate)
    assert all(g == 0.0 for g in report["exact"].values())
    assert len(report["exact"]) >= 3
    for name, cells in report.items():
        for gap in cells.values():
            assert gap >= 0.0, f"{name} beat the exact optimum"
    lines = [f"sizes: {[s for s, _ in inputs]}"]
    for name in sorted(report):
        cells = ", ".join(
            ("inf" if math.isinf(g) else f"{100 * g:.1f}%")
            for _, g in sorted(report[name].items())
        )
        lines.append(f"{name:12s} {cells}")
    save_result(results_dir, "optimality_gaps", "\n".join(lines))
