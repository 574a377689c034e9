#!/usr/bin/env python3
"""Regenerate the work counters (``tests/data/work_counters.json``).

The file pins the deterministic work of two reduced runs (see
``tests/test_work_counters.py``): tier splits, cache counters, allocator
and free-list operations, compiled placements, bus emits per event type
and unit traces.  A behaviour-preserving refactor must leave it
unchanged.  Only regenerate it for a change that alters the work on
purpose, and state the delta and the reason with the change.

Usage::

    PYTHONPATH=src python tests/data/gen_work_counters.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.test_work_counters import GOLDEN, collect  # covered by per-file E402 ignore


def main() -> None:
    entries = collect()
    GOLDEN.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
