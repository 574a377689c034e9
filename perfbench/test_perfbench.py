"""Tests of the benchmark itself, on reduced-size versions of each workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
from dataclasses import replace

import pytest

import run

SPEC = run._bootstrap()
workloads = importlib.import_module("workloads")
tracer_module = importlib.import_module("tracer")

SMALL = {
    "fig10-sweep": replace(
        workloads.WORKLOADS["fig10-sweep"], iterations=12, min_passes=1,
        check_prefix=12,
    ),
    "drift-stream": replace(
        workloads.WORKLOADS["drift-stream"], iterations=60, min_passes=2,
        check_prefix=40,
    ),
}


def test_reduced_workloads_cover_the_catalogue():
    assert set(SMALL) == {w["name"] for w in SPEC["workloads"]}


_outputs: dict[tuple[str, int], list[dict]] = {}


def _result(name: str, trace: int, repetition: int, capsys) -> dict:
    """The JSON result line of a reduced run (cached per repetition)."""
    runs = _outputs.setdefault((name, trace), [])
    while len(runs) <= repetition:
        status = run.main(
            ["--workload", name, "--seed", "7", "--seconds", "0.01",
             "--trace", str(trace)],
            workloads=SMALL,
        )
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert status == (0 if result["correct"] else 1)
        runs.append(result)
    return runs[repetition]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    result = _result(name, trace, 0, capsys)
    catalogue = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {
        name: (metric["unit"], type(metric["value"]))
        for name, metric in result["metrics"].items()
    } == {m["name"]: (m["unit"], float) for m in catalogue}


def _exact(catalogue: list[dict]) -> list[str]:
    """Metrics that come from simulated results or counters, not host time."""
    return [
        m["name"]
        for m in catalogue
        if m["unit"] in ("count", "ratio", "MB", "elem/s")
        and m["name"] not in ("trace.overhead_frac", "peak_rss_mb")
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_modelled_metrics_and_counts_repeat_exactly(name, trace, capsys):
    first = _result(name, trace, 0, capsys)
    second = _result(name, trace, 1, capsys)
    exact = _exact(SPEC["per_layer" if trace else "end_to_end"])
    assert exact
    assert {k: first["metrics"][k] for k in exact} == {
        k: second["metrics"][k] for k in exact
    }
    assert (first["attempted"], first["failed"]) == (
        second["attempted"], second["failed"]
    )


def _wrapped_functions() -> tuple:
    from repro.data.datasets import DataLoader
    from repro.engine.events import EventBus
    from repro.engine.replay import ReplayCache

    return (
        workloads.runner.run_task,
        workloads.runner.TrainingExecutor.__dict__["step"],
        EventBus.__dict__["emit"],
        DataLoader.__dict__["__iter__"],
        ReplayCache.__dict__["key"],
    )


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracer_leaves_digests_unchanged(name):
    workload = SMALL[name]
    untraced = workloads.run_pass(workload, 11)
    originals = _wrapped_functions()
    with tracer_module.Tracer() as tracer:
        traced = workloads.run_pass(workload, 11)
    assert len(tracer.kind) > 0
    assert [r.fingerprint() for r in traced] == [r.fingerprint() for r in untraced]
    assert [r.result.rolling_digests() for r in traced] == [
        r.result.rolling_digests() for r in untraced
    ]
    # leaving the block restores every wrapped function
    assert _wrapped_functions() == originals


def test_ledger_self_times_partition_the_traced_time():
    with tracer_module.Tracer() as tracer:
        with tracer.span("pass"):
            workloads.run_pass(SMALL["drift-stream"], 5)
    ledger = tracer.ledger()
    layers = sum(ledger.self_s(layer) for layer in ledger.layer_names)
    assert layers == pytest.approx(ledger.total_s, rel=1e-9)
    attempts = sum(
        len(ledger.attempt_durations(t)) for t in ("full", "compiled", "replay")
    )
    assert attempts == ledger.calls("TrainingExecutor.run_iteration") == 60
    assert ledger.calls("DataLoader.__iter__", flag=tracer_module.FLAG_VALUE) == 60


def test_sweep_workload_is_the_runner_sweep():
    workload = SMALL["fig10-sweep"]
    task, budgets = workloads.load(workload, 3)
    expected = workloads.runner.sweep(task, workloads.runner.PLANNER_NAMES, budgets)
    got = workloads.run_pass(workload, 3)
    assert [r.result.digest() for r in got] == [r.digest() for r in expected]


def test_checks_report_divergence():
    workload = SMALL["drift-stream"]
    pass0 = workloads.run_pass(workload, workloads.sub_seed(2, 0))
    assert run.check_fast_paths(workload, 2, pass0) == []
    assert run.check_determinism(workload, 2, pass0) == []
    # a perturbed iteration in the timed run must be caught by both
    stats = pass0[0].result.iterations
    stats[15] = replace(stats[15], recompute_time=stats[15].recompute_time + 1.0)
    failures = run.check_fast_paths(workload, 2, pass0)
    assert failures and "iteration 16" in failures[0]
    assert run.check_determinism(workload, 2, pass0)
