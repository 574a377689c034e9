"""Tests for text rendering and the memory timeline recorder."""

import pytest

from repro.engine.trace import MemoryTimeline, TimelinePoint
from repro.experiments.report import render_series, render_table


# -------------------------------------------------------------------- report

def test_render_table_alignment_and_values():
    rows = [
        {"name": "alpha", "value": 1.23456, "flag": True},
        {"name": "b", "value": 1000000.0, "flag": False},
    ]
    text = render_table(rows, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert "alpha" in text and "yes" in text and "no" in text
    assert "1e+06" in text  # large floats go scientific
    # all rows align to the same width
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1


def test_render_table_column_selection_and_missing_keys():
    rows = [{"a": 1, "b": 2}]
    text = render_table(rows, columns=["b", "c"])
    assert "b" in text and "c" in text
    assert "1" not in text.splitlines()[-1]


def test_render_table_empty():
    assert "(no rows)" in render_table([], title="x")
    assert render_table([]) == "(no rows)"


def test_render_table_float_formatting():
    text = render_table([{"v": 0.25}])
    assert "0.25" in text
    text = render_table([{"v": 0.0001}])
    assert "0.0001" in text
    text = render_table([{"v": 0.0}])
    assert text.splitlines()[-1].strip() == "0"


def test_render_series():
    text = render_series(
        {"mimose": [(1, 1.1), (2, 1.0)]},
        x_label="budget",
        y_label="time",
        title="S",
    )
    assert text.startswith("S")
    assert "[mimose]" in text
    assert "-> 1.1" in text


# --------------------------------------------------------------------- trace

def test_timeline_record_and_peaks():
    tl = MemoryTimeline()
    tl.record(0.0, 100, 200, "fwd:a", 1)
    tl.record(0.1, 300, 400, "fwd:b", 1)
    tl.record(0.2, 50, 400, "bwd:a", 2)
    assert tl.peak_by_iteration() == {1: 300, 2: 50}
    assert [p.phase for p in tl.phases(1)] == ["fwd:a", "fwd:b"]
    assert tl.phases(3) == []


def test_timeline_clear():
    tl = MemoryTimeline()
    tl.record(0.0, 1, 1, "x", 1)
    tl.clear()
    assert tl.points == []


def test_timeline_point_is_frozen():
    p = TimelinePoint(0.0, 1, 2, "x", 1)
    with pytest.raises(AttributeError):
        p.time = 5.0
