"""Action-layer tests: the per-unit assignment is the plan's identity.

Covers the refactor contract from three sides:

* **round-trip** (property-based) — the set vocabulary
  (``checkpoint_units``/``swap_units``/``segments``, built with
  :meth:`ActionAssignment.from_sets`) and the canonical action pairs
  describe the same plan, whichever one a plan is built from;
* **planner parity** — every registered planner's emitted plans
  reconstruct bit-equal from their own derived sets;
* **CLI** — ``repro run --solver hybrid`` produces a mixed-action,
  budget-respecting run, and bad run options are rejected before any
  simulation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.__main__ as cli
from repro.__main__ import main as repro_main
from repro.experiments.runner import PLANNER_NAMES, SOLVER_NAMES, run_task
from repro.experiments.tasks import GB, load_task
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    MemoryAction,
    ModelView,
)
from repro.planners.segmented import segment_plan
from repro.solvers import PcieCostModel, make_solver

from tests.helpers import make_tiny_model


# ---------------------------------------------------------------- round-trip


@st.composite
def legacy_plan_parts(draw):
    num_units = draw(st.integers(1, 8))
    names = [f"unit.{i}" for i in range(num_units)]
    drop_mask = draw(st.integers(0, (1 << num_units) - 1))
    swap_mask = draw(st.integers(0, (1 << num_units) - 1)) & ~drop_mask
    seg_mask = (
        draw(st.integers(0, (1 << num_units) - 1)) & ~drop_mask & ~swap_mask
    )
    drop = frozenset(n for i, n in enumerate(names) if drop_mask & (1 << i))
    swap = frozenset(n for i, n in enumerate(names) if swap_mask & (1 << i))
    seg_members = [n for i, n in enumerate(names) if seg_mask & (1 << i)]
    cut = draw(st.integers(0, len(seg_members)))
    segments = tuple(
        tuple(part)
        for part in (seg_members[:cut], seg_members[cut:])
        if part
    )
    return drop, swap, segments


@settings(max_examples=100, deadline=None)
@given(parts=legacy_plan_parts())
def test_property_legacy_sets_round_trip_through_assignment(parts):
    drop, swap, segments = parts
    plan = CheckpointPlan(
        ActionAssignment.from_sets(recompute=drop, swap=swap, segments=segments),
        "prop",
    )
    assignment = plan.assignment
    # the derived views reproduce the constructor inputs
    assert assignment.checkpoint_units == drop
    assert assignment.swap_units == swap
    assert assignment.segments == segments
    # rebuilding from the canonical action pairs is the identical plan
    rebuilt = CheckpointPlan(
        ActionAssignment(assignment.actions, assignment.segments), "prop"
    )
    assert rebuilt == plan
    assert hash(rebuilt) == hash(plan)
    # ... and so is rebuilding from the derived sets
    resets = ActionAssignment.from_sets(
        recompute=rebuilt.assignment.checkpoint_units,
        swap=rebuilt.assignment.swap_units,
        segments=rebuilt.assignment.segments,
    )
    assert resets == assignment
    # per-unit dispatch agrees with the set vocabulary everywhere
    seg_units = {u for seg in segments for u in seg}
    for i in range(10):
        name = f"unit.{i}"
        action = assignment.action_for(name)
        if name in drop:
            assert action is MemoryAction.RECOMPUTE
        elif name in swap:
            assert action is MemoryAction.SWAP
        elif name in seg_units:
            assert action is MemoryAction.SEGMENT
        else:
            assert action is MemoryAction.KEEP


@settings(max_examples=100, deadline=None)
@given(parts=legacy_plan_parts())
def test_property_from_sets_round_trips(parts):
    drop, swap, segments = parts
    a = ActionAssignment.from_sets(
        recompute=drop, swap=swap, segments=segments
    )
    assert a.checkpoint_units == drop
    assert a.swap_units == swap
    assert a.segments == segments
    seg_units = {u for seg in segments for u in seg}
    assert a.units == drop | swap | seg_units
    assert a.segment_units == seg_units
    assert ActionAssignment.from_sets(
        recompute=a.checkpoint_units,
        swap=a.swap_units,
        segments=a.segments,
    ) == a


# ------------------------------------------------------------ planner parity


@pytest.mark.parametrize("planner_name", PLANNER_NAMES)
def test_planner_plans_reconstruct_from_derived_sets(planner_name):
    captured: list[CheckpointPlan] = []

    def capture(ex):
        orig = ex.planner.plan

        def wrapped(batch):
            decision = orig(batch)
            captured.append(decision.plan)
            return decision

        ex.planner.plan = wrapped

    task = load_task("TC-Bert", iterations=15, seed=0)
    run_task(
        task,
        planner_name,
        int(4 * GB),
        max_iterations=15,
        observers=[capture],
    )
    assert captured
    for plan in captured:
        rebuilt = CheckpointPlan(
            ActionAssignment.from_sets(
                recompute=plan.assignment.checkpoint_units,
                swap=plan.assignment.swap_units,
                segments=plan.assignment.segments,
            ),
            plan.label,
            plan.predicted_peak_bytes,
        )
        assert rebuilt == plan
        assert rebuilt.assignment == plan.assignment


def test_segment_plan_round_trips_and_dispatches():
    view = ModelView(make_tiny_model(num_units=6))
    plan = segment_plan(view, 3)
    segments = plan.assignment.segments
    assert segments
    for seg in segments:
        for unit in seg:
            assert plan.assignment.action_for(unit) is MemoryAction.SEGMENT
    rebuilt = CheckpointPlan(ActionAssignment(segments=segments), plan.label)
    assert rebuilt == plan
    assert rebuilt.assignment.segments == segments


# -------------------------------------------------------------- hybrid CLI


def test_cli_run_scheduler_hybrid_mixes_actions(capsys):
    code = repro_main(
        [
            "run", "--task", "TC-Bert", "--planner", "mimose",
            "--solver", "hybrid", "--budget-gb", "2.5",
            "--iterations", "30",
        ]
    )
    assert code == 0
    assert "mimose" in capsys.readouterr().out
    # the same configuration through the API: the plan stream must mix
    # both non-KEEP actions and honour the budget
    task = load_task("TC-Bert", iterations=30, seed=0)
    result = run_task(
        task, "mimose", int(2.5 * GB), max_iterations=30, solver="hybrid"
    )
    assert result.succeeded
    assert result.peak_reserved <= int(2.5 * GB)
    assert any(s.num_swapped > 0 for s in result.iterations)
    assert any(s.num_checkpointed > 0 for s in result.iterations)
    assert any(
        s.num_swapped > 0 and s.num_checkpointed > 0
        for s in result.iterations
    )


def test_cli_run_reports_measured_pricing_and_ratio_override(capsys):
    base = [
        "run", "--task", "TC-Bert", "--planner", "mimose",
        "--solver", "hybrid", "--budget-gb", "2.5",
        "--iterations", "30",
    ]
    assert repro_main(base) == 0
    assert "swap pricing: measured-bwd" in capsys.readouterr().out
    assert repro_main(base + ["--bwd-ratio", "2.0"]) == 0
    assert "swap pricing: ratio-override" in capsys.readouterr().out


def test_hybrid_pricing_modes_both_run_on_grid_model():
    """Measured vs forced-ratio pricing on a digest-grid model: both runs
    must succeed within budget; the greedy (recompute-only) run from the
    same grid point never swaps."""
    task = load_task("TC-Bert", iterations=30, seed=0)
    measured = run_task(
        task, "mimose", int(2.5 * GB), max_iterations=30, solver="hybrid"
    )
    task = load_task("TC-Bert", iterations=30, seed=0)
    ratio = run_task(
        task,
        "mimose",
        int(2.5 * GB),
        max_iterations=30,
        solver="hybrid",
        bwd_ratio=2.0,
    )
    task = load_task("TC-Bert", iterations=30, seed=0)
    greedy = run_task(task, "mimose", int(2.5 * GB), max_iterations=30)
    for result in (measured, ratio, greedy):
        assert result.succeeded
        assert result.peak_reserved <= int(2.5 * GB)
    assert all(s.num_swapped == 0 for s in greedy.iterations)
    assert any(s.num_swapped > 0 for s in measured.iterations)
    assert any(s.num_swapped > 0 for s in ratio.iterations)


def test_cli_rejects_bwd_ratio_without_hybrid_scheduler():
    with pytest.raises(SystemExit, match="hybrid"):
        repro_main(
            [
                "run", "--task", "TC-Bert", "--planner", "mimose",
                "--budget-gb", "2.5", "--iterations", "5",
                "--bwd-ratio", "2.0",
            ]
        )
    with pytest.raises(ValueError, match="hybrid"):
        run_task(
            load_task("TC-Bert", iterations=2, seed=0),
            "mimose",
            int(2.5 * GB),
            max_iterations=2,
            bwd_ratio=2.0,
        )


def test_cli_rejects_scheduler_for_non_mimose_planner():
    with pytest.raises(SystemExit, match="mimose"):
        repro_main(
            [
                "run", "--task", "TC-Bert", "--planner", "capuchin",
                "--solver", "hybrid", "--budget-gb", "4",
                "--iterations", "5",
            ]
        )


def test_make_solver_names():
    for name in SOLVER_NAMES:
        assert make_solver(name).name == name
    with pytest.raises(KeyError):
        make_solver("simulated-annealing")
    with pytest.raises(ValueError, match="mimose"):
        run_task(
            load_task("TC-Bert", iterations=2, seed=0),
            "capuchin",
            int(4 * GB),
            max_iterations=2,
            solver="hybrid",
        )


@pytest.mark.parametrize("ratio", [0.0, -1.0])
def test_non_positive_bwd_ratio_is_rejected(ratio):
    with pytest.raises(ValueError, match="positive"):
        PcieCostModel(bwd_ratio=ratio)
    with pytest.raises(ValueError, match="positive"):
        run_task(
            load_task("TC-Bert", iterations=2, seed=0),
            "mimose",
            int(2.5 * GB),
            max_iterations=2,
            solver="hybrid",
            bwd_ratio=ratio,
        )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--solver", "hybrid", "--bwd-ratio", "0"], "error: bwd_ratio must be positive"),
        (["--bwd-ratio", "2.0"], "error: --bwd-ratio applies"),
        (["--planner", "dtr", "--solver", "knapsack"], "error: --solver applies"),
        (["--planner", "dtr", "--static-fit"], "error: drift_detection/static_fit"),
    ],
)
def test_cli_rejects_bad_options_before_any_run(monkeypatch, flags, message):
    def no_run(*args, **kwargs):
        pytest.fail("a run started before the options were checked")

    monkeypatch.setattr(cli, "run_task", no_run)
    with pytest.raises(SystemExit, match=message):
        repro_main(["run", "--task", "TC-Bert", "--budget-gb", "2.5", *flags])
