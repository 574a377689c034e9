"""Tests for the Swin model, the adaptive residual margin, and the CLI."""

import pytest

from repro.core.adaptive import ResidualTracker
from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.models.registry import build_model
from repro.planners.analysis import unit_saved_bytes
from repro.tensorsim.dtypes import FLOAT32

from tests.helpers import GB, MB, make_tiny_model


# ---------------------------------------------------------------------- swin

@pytest.fixture(scope="module")
def swin():
    return build_model("swin-tiny")


def test_swin_parameter_count(swin):
    # the real swin-tiny has 28.3 M parameters
    assert abs(swin.param_count() / 1e6 - 28.3) < 1.5


def test_swin_stage_memory_staircase(swin):
    """§IV-D: patch merging halves the memory of each successive stage."""
    profiles = swin.profiles(BatchInput((8, 3, 224, 224), FLOAT32))
    by_name = {p.module_name: p for p in profiles}
    stage_mem = [
        unit_saved_bytes(by_name[f"stage{s}.block0"]) for s in (1, 2, 3, 4)
    ]
    for bigger, smaller in zip(stage_mem, stage_mem[1:]):
        assert smaller == pytest.approx(bigger / 2, rel=0.05)


def test_swin_blocks_are_checkpointable(swin):
    names = [u.name for u in swin.checkpointable_units()]
    assert len(names) == sum((2, 2, 6, 2))
    assert all(".block" in n for n in names)


def test_swin_window_attention_is_linear_not_quadratic(swin):
    """Window attention memory grows ~linearly with image pixels."""
    m1 = sum(
        unit_saved_bytes(p)
        for p in swin.profiles(BatchInput((2, 3, 224, 224), FLOAT32))
    )
    m2 = sum(
        unit_saved_bytes(p)
        for p in swin.profiles(BatchInput((2, 3, 448, 448), FLOAT32))
    )
    ratio = m2 / m1  # 4x the pixels
    assert 3.0 < ratio < 5.0  # linear-ish, not the 16x a quadratic law gives


def test_swin_trains_under_budget(swin):
    planner = MimosePlanner(3 * GB, collect_iterations=4)
    ex = TrainingExecutor(swin, planner, capacity_bytes=3 * GB)
    for hw in (192, 224, 256, 288, 256, 224):
        stats = ex.step(BatchInput((8, 3, hw, hw), FLOAT32))
        assert not stats.oom


# ------------------------------------------------------------- adaptive margin

def test_tracker_initial_margin():
    t = ResidualTracker(initial_margin=0.05)
    assert t.margin() == 0.05
    assert t.num_observations == 0


def test_tracker_quantile_of_overshoots():
    t = ResidualTracker(quantile=0.95)
    for _ in range(19):
        t.record(100, 100)  # no overshoot
    t.record(100, 110)  # one 10% overshoot
    assert t.margin() == pytest.approx(0.10)


def test_tracker_ignores_underprediction_of_observation():
    t = ResidualTracker()
    t.record(100, 50)  # actual far below prediction
    assert t.margin() == 0.0


def test_tracker_sliding_window():
    t = ResidualTracker(window=4)
    t.record(100, 200)  # huge overshoot
    for _ in range(4):
        t.record(100, 100)
    assert t.margin() == 0.0  # the outlier aged out


def test_tracker_validation():
    with pytest.raises(ValueError):
        ResidualTracker(window=0)
    with pytest.raises(ValueError):
        ResidualTracker(quantile=0.0)
    with pytest.raises(ValueError):
        ResidualTracker(initial_margin=-1.0)
    t = ResidualTracker()
    with pytest.raises(ValueError):
        t.record(0, 10)


def test_tracker_clear():
    t = ResidualTracker()
    t.record(100, 150)
    t.clear()
    assert t.num_observations == 0


def test_adaptive_planner_records_residuals():
    model = make_tiny_model(num_units=6, features=512)
    planner = MimosePlanner(
        2 * GB, collect_iterations=4, adaptive_margin=True, headroom_bytes=4 * MB
    )
    ex = TrainingExecutor(model, planner, capacity_bytes=2 * GB)
    for rows in (64, 128, 256, 192, 200, 210, 220):
        ex.step(BatchInput((rows, 512), FLOAT32))
    assert planner.residuals.num_observations >= 2


def test_adaptive_margin_inflates_predictions():
    model = make_tiny_model(num_units=6, features=512)
    static = model.static_memory().total
    budget = static + 40 * MB
    plain = MimosePlanner(
        budget, collect_iterations=4, headroom_bytes=4 * MB
    )
    adaptive = MimosePlanner(
        budget, collect_iterations=4, headroom_bytes=4 * MB, adaptive_margin=True
    )
    for planner in (plain, adaptive):
        ex = TrainingExecutor(model, planner, capacity_bytes=budget)
        for rows in (512, 1024, 1536, 768):
            ex.step(BatchInput((rows, 512), FLOAT32))
    # with the initial 2% safety margin the adaptive planner predicts a
    # larger footprint and therefore checkpoints at least as much
    p_plain = plain._make_plan(1400 * 512)
    p_adaptive = adaptive._make_plan(1400 * 512)
    assert len(p_adaptive.assignment.checkpoint_units) >= len(
        p_plain.assignment.checkpoint_units
    )


# ----------------------------------------------------------------------- cli

def test_cli_list(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "TC-Bert" in out and "mimose" in out and "swin-tiny" in out


def test_cli_run_small(capsys):
    from repro.__main__ import main

    code = main(
        [
            "run", "--task", "TC-Bert", "--planner", "sublinear",
            "--budget-gb", "4", "--iterations", "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sublinear" in out


def test_cli_table1(capsys):
    from repro.__main__ import main

    assert main(["table", "1"]) == 0
    assert "capuchin" in capsys.readouterr().out


def test_cli_rejects_unknown_command():
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_bounds(capsys):
    from repro.__main__ import main

    assert main(["bounds"]) == 0
    out = capsys.readouterr().out
    assert "lower_gb" in out and "OD-R101" in out


def test_cli_sweep_small(capsys):
    from repro.__main__ import main

    code = main(
        [
            "sweep", "--task", "TC-Bert", "--planners", "baseline,sublinear",
            "--points", "2", "--iterations", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sublinear" in out and "budget_gb" in out


def test_cli_run_respects_iteration_cap(capsys):
    """Regression: the planner run ignored --iterations (only the baseline
    was capped), so normalized_time compared runs of different lengths."""
    from repro.__main__ import main

    assert main(
        [
            "run", "--task", "TC-Bert", "--planner", "mimose",
            "--budget-gb", "4", "--iterations", "5",
        ]
    ) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if "mimose" in line)
    assert "| 5 " in row or "| 5" in row.replace("  ", " ")


def test_cli_run_with_faults_reports_recovery(capsys):
    from repro.__main__ import main

    code = main(
        [
            "run", "--task", "TC-Bert", "--planner", "mimose",
            "--budget-gb", "3", "--iterations", "20",
            "--faults", "frag:start=15,iters=2,bytes=800M",
        ]
    )
    assert code == 0  # survived via the recovery ladder
    out = capsys.readouterr().out
    assert "faults:" in out and "frag 800MB" in out
    assert "retries" in out and "recovered" in out


def test_cli_run_rejects_bad_fault_spec():
    from repro.__main__ import main

    with pytest.raises(SystemExit, match="unknown fault kind"):
        main(
            [
                "run", "--task", "TC-Bert", "--planner", "mimose",
                "--budget-gb", "4", "--iterations", "2",
                "--faults", "quake:start=1",
            ]
        )


def test_cli_run_rejects_negative_max_retries(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(
            [
                "run", "--task", "TC-Bert", "--planner", "mimose",
                "--budget-gb", "4", "--iterations", "2",
                "--max-retries", "-1",
            ]
        )
    assert "non-negative" in capsys.readouterr().err
