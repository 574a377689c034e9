"""Plan goldens: static planners and coverage solvers decide as before.

The digest grid runs only three static-planner cells end to end; these
goldens pin the planning decisions themselves, cell by cell (see
``tests/helpers_plan_grid.py``), against ``tests/data/plan_goldens.json``
captured before the planners and their solver adapters were moved onto
shared decision cores.  A failure names every cell whose plan changed.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from tests.helpers_plan_grid import (
    COVERAGE_SOLVERS,
    N_CASES,
    solver_cells,
    static_cells,
    static_task_names,
)

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "plan_goldens.json").read_text()
)


def _mismatches(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return sorted(
        cell for cell in got.keys() | want.keys() if got.get(cell) != want.get(cell)
    )


@pytest.mark.parametrize("task_name", static_task_names())
def test_static_plans_match_goldens(task_name):
    got = dict(static_cells(task_name))
    want = {
        cell: value
        for cell, value in GOLDENS["static"].items()
        if cell.startswith(f"{task_name}|")
    }
    assert want, f"no static goldens for {task_name}; regenerate goldens"
    bad = _mismatches(got, want)
    assert not bad, f"static plans changed in {len(bad)} cells: {bad}"


def test_solver_assignments_match_goldens():
    got = dict(solver_cells())
    assert len(got) == len(COVERAGE_SOLVERS) * N_CASES
    bad = _mismatches(got, GOLDENS["solvers"])
    assert not bad, f"solver assignments changed in {len(bad)} cells: {bad}"
