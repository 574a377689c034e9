#!/usr/bin/env python3
"""Regenerate the plan goldens (``tests/data/plan_goldens.json``).

The goldens pin the plans of the static planners and the assignments of
the coverage solvers (see ``tests/helpers_plan_grid.py`` for the
grids).  They were captured before the static planners and their solver
adapters were moved onto shared decision cores, and must stay identical
across any behaviour-preserving refactor of the planning layer.  Only
regenerate them for an *intentional* planning change, and say so in the
commit message.

Usage::

    PYTHONPATH=src python tests/data/gen_plan_goldens.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from helpers_plan_grid import solver_cells, static_cells, static_task_names  # covered by per-file E402 ignore

OUT = pathlib.Path(__file__).parent / "plan_goldens.json"


def main() -> None:
    static: dict[str, str] = {}
    for task_name in static_task_names():
        static.update(static_cells(task_name))
        print(f"{task_name}: {len(static)} static cells")
    solvers = dict(solver_cells())
    goldens = {"static": static, "solvers": solvers}
    OUT.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(static)} static + {len(solvers)} solver cells to {OUT}")


if __name__ == "__main__":
    main()
