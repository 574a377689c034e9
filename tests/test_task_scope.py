"""Shape-derived work is done once per task.

A :class:`~repro.experiments.tasks.TaskContext` owns one model, and the
model memoises everything that is a pure function of an input shape: the
unit traces, the allocator request sizes, the roofline unit times and
the compiled tier's placements.  Every run, executor and compiled
template of the task shares them, so a sweep traces each (unit
structure, input spec) pair once, prices each (device preset, unit
structure, input spec) once and places each (compiled program, batch,
allocator state) once, however many grid points and units built alike
meet it.
"""

from __future__ import annotations

import pytest

from repro.engine.compiled import CompiledTemplate
from repro.experiments.runner import PLANNER_NAMES, sweep
from repro.experiments.tasks import load_task
from repro.graph.module import ProfileContext
from repro.models.base import BatchInput
from repro.models.registry import build_model
from repro.tensorsim.device import DeviceModel

TASK = "TC-Bert"
ITERATIONS = 12
SEED = 11


@pytest.fixture
def counted(monkeypatch):
    """Every unit trace and every unit-time computation, in call order."""
    traces: list[tuple] = []
    times: list[tuple] = []
    finish = ProfileContext.finish
    unit_times = DeviceModel.unit_times

    def counting_finish(self, module_name, x, out):
        traces.append((module_name, x))
        return finish(self, module_name, x, out)

    def counting_unit_times(self, profile):
        times.append((self.preset, profile.module_name, profile.input))
        return unit_times(self, profile)

    monkeypatch.setattr(ProfileContext, "finish", counting_finish)
    monkeypatch.setattr(DeviceModel, "unit_times", counting_unit_times)
    return traces, times


def _by_structure(model, traces, times):
    """The counted traces as (structure, spec) and the unit-time
    computations as (preset, structure, spec)."""
    structure = {u.name: u.structure() for u in model.units}
    return (
        [(structure[name], spec) for name, spec in traces],
        [(preset, structure[name], spec) for preset, name, spec in times],
    )


def test_sweep_derives_each_shape_once_per_task(counted):
    traces, times = counted
    task = load_task(TASK, iterations=ITERATIONS, seed=SEED)
    results = sweep(task, PLANNER_NAMES, task.default_budgets(2))
    assert len(results) == 1 + 2 * (len(PLANNER_NAMES) - 1)
    assert all(len(r.iterations) == ITERATIONS for r in results)
    traced, priced = _by_structure(task.model, traces, times)
    # one trace per distinct (unit structure, input spec) the task met:
    # the first of the twelve encoder blocks traces for all of them ...
    assert len(traced) == len(set(traced)) > 0
    assert {name for name, _ in traces} == {"embeddings", "encoder.0", "head"}
    # ... and one roofline computation per (preset, structure, input spec)
    assert len(priced) == len(set(priced)) > 0
    assert {(s, spec) for _, s, spec in priced} <= set(traced)


def test_sweep_places_each_program_once_per_batch(monkeypatch):
    """Templates of different grid points (and a template's self-test and
    first evaluation) with equal programs share one placement per batch
    and allocator state: the placement core runs once per distinct
    input."""
    placed: list[tuple] = []
    place = CompiledTemplate._place

    def counting_place(self, start, rsizes):
        blocks = tuple(sorted(start.items()))
        placed.append((self.req_index, self.ops, blocks, tuple(rsizes)))
        return place(self, start, rsizes)

    monkeypatch.setattr(CompiledTemplate, "_place", counting_place)
    task = load_task(TASK, iterations=ITERATIONS, seed=SEED)
    sweep(task, PLANNER_NAMES, task.default_budgets(2))
    assert len(placed) == len(set(placed)) > 0


def test_parallel_sweep_on_a_cold_task_matches_serial_on_a_warm_one():
    grid = (PLANNER_NAMES, [4 * 1024**3, 5 * 1024**3])
    cold = load_task(TASK, iterations=ITERATIONS, seed=SEED)
    parallel = sweep(cold, *grid, jobs=2)
    warm = load_task(TASK, iterations=ITERATIONS, seed=SEED)
    first = sweep(warm, *grid)
    again = sweep(warm, *grid)
    digests = [r.digest() for r in first]
    assert [r.digest() for r in again] == digests
    assert [r.digest() for r in parallel] == digests


def test_units_sharing_an_input_spec_are_priced_once(counted):
    """Image heights a few pixels apart reach ResNet's deeper stages with
    one input spec: those units are traced and priced once, not once per
    batch shape."""
    traces, times = counted
    model = build_model("resnet50-det")
    shapes = [
        BatchInput((1, 3, height, 256), model.input_dtype)
        for height in (256, 260, 264, 272)
    ]
    device = DeviceModel()
    for batch in shapes:
        model.unit_times(device, batch)
    traced, priced = _by_structure(model, traces, times)
    structures = {u.structure() for u in model.units}
    assert len(traced) == len(set(traced)) < len(shapes) * len(structures)
    assert len(priced) == len(set(priced)) == len(traced)
