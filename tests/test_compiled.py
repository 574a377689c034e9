"""Tests for the compiled-template tier (``engine/compiled.py``).

The contract under test: the compiled tier is a *pure* optimisation for
near-recurrent iterations (same certified world class, unseen input
size).  Every served iteration must be bit-identical to full simulation
(``RunResult.digest`` excludes only the wall-clock ``planning_time``),
and every situation the eligibility proof does not cover — fault
windows, recovery, timeline recording, structural drift — must fall
back to full simulation.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import TrainingExecutor
from repro.engine.stats import RunResult, summarize_runs
from repro.engine.strategies import CollectStrategy, NormalStrategy
from repro.experiments.runner import make_planner, run_task
from repro.experiments.tasks import GB, load_task
from repro.planners.base import ModelView
from repro.tensorsim.faults import FaultPlan

from tests.helpers_digest_grid import near_recurrence_grid, run_grid_point_result


def _run(task, planner_name, budget, *, compiled, stream=None, faults=None,
         max_retries=3):
    model = task.fresh_model()
    planner = make_planner(planner_name, budget, task)
    planner.setup(ModelView(model))
    executor = TrainingExecutor(
        model,
        planner,
        capacity_bytes=(
            budget if not planner.requires_physical_capacity else 32 * GB
        ),
        replay=True,
        compiled=compiled,
        faults=faults.build() if faults is not None else None,
        max_recovery_retries=max_retries,
    )
    result = RunResult(task.spec.abbr, planner_name, budget)
    for batch in (stream if stream is not None else task.loader):
        result.append(executor.step(batch))
    if executor.compiled is not None:  # run_task does this fill post-run
        result.compiled_hits = executor.compiled.hits
        result.compiled_misses = executor.compiled.misses
    return result, executor


# ------------------------------------------------------- digest parity grid


@pytest.mark.parametrize(
    "point", near_recurrence_grid(),
    ids=lambda p: "|".join(str(x) for x in p),
)
def test_near_recurrence_digest_parity(point):
    """Compiled on/off produce identical digests on the sweep-style grid."""
    with_compiled = run_grid_point_result(point, compiled=True)
    without = run_grid_point_result(point, compiled=False)
    assert with_compiled.digest() == without.digest()


def test_compiled_tier_actually_serves_unseen_sizes():
    """On a long natural size stream the compiled tier gets real hits."""
    task = load_task("TC-Bert", iterations=120, seed=0)
    result, executor = _run(task, "sublinear", 4 * GB, compiled=True)
    cache = executor.compiled
    assert cache.certifications > 0
    assert cache.hits > 0
    # a compiled hit happens only after an exact-replay miss, i.e. at an
    # input size whose exact world was never simulated before
    assert result.compiled_hits == cache.hits
    assert result.compiled_misses == cache.misses
    assert 0.0 < result.compiled_hit_rate <= 1.0
    assert summarize_runs([result])[0]["compiled_hit_rate"] == (
        result.compiled_hit_rate
    )


def test_certified_iteration_is_simulated_once(monkeypatch):
    """Certification reads the recorded pass: every strategy forward pass
    belongs to an iteration the full-simulation tier served."""
    forwards = []
    for cls in (NormalStrategy, CollectStrategy):
        def counted(self, ctx, _run=cls.run_forward):
            forwards.append(ctx.iteration)
            _run(self, ctx)

        monkeypatch.setattr(cls, "run_forward", counted)
    task = load_task("TC-Bert", iterations=120, seed=0)
    result, executor = _run(task, "mimose", 4 * GB, compiled=True)
    assert executor.compiled.certifications > 0
    full_simulations = (
        len(result.iterations) - executor.replay.hits - executor.compiled.hits
    )
    assert len(forwards) == full_simulations
    assert len(set(forwards)) == len(forwards)


# ------------------------------------------------- property: stats equality


_PLANNER_SOLVERS = [
    ("baseline", None), ("sublinear", None), ("checkmate", None),
    ("monet", None), ("dtr", None), ("capuchin", None),
    ("mimose", None), ("mimose", "hybrid"),
]


@settings(max_examples=10, deadline=None)
@given(
    combo=st.sampled_from(_PLANNER_SOLVERS),
    seed=st.integers(min_value=0, max_value=50),
)
def test_compiled_stats_equal_simulated_property(combo, seed):
    """Per-iteration stats match full simulation for every planner and
    solver at whatever (unseen) sizes the drawn seed's loader emits.
    """
    planner, solver = combo
    task = load_task("TC-Bert", iterations=30, seed=seed)
    budget = 4 * GB
    kwargs = dict(max_iterations=30, solver=solver)
    with_compiled = run_task(task, planner, budget, compiled=True, **kwargs)
    without = run_task(task, planner, budget, compiled=False, **kwargs)
    assert len(with_compiled.iterations) == len(without.iterations)
    for a, b in zip(with_compiled.iterations, without.iterations):
        assert replace(a, planning_time=0.0) == replace(b, planning_time=0.0)


# ---------------------------------------------------- never-serve fallbacks


def test_fault_window_bypasses_compiled_tier():
    """Iterations inside a fault window bypass + invalidate the compiled
    cache exactly as they do the replay cache, and stay bit-identical."""
    faults = FaultPlan.parse("frag:start=20,iters=3,bytes=1G", seed=3)
    task = load_task("TC-Bert", iterations=8, seed=0)
    stream = [b for b in task.loader] * 10
    with_compiled, executor = _run(
        task, "mimose", 4 * GB, compiled=True, stream=stream, faults=faults
    )
    without, _ = _run(
        task, "mimose", 4 * GB, compiled=False, stream=stream, faults=faults
    )
    assert with_compiled.digest() == without.digest()
    assert executor.compiled.bypasses > 0
    assert executor.compiled.invalidations > 0


def test_recovery_rung_invalidates_compiled_cache():
    """An iteration rescued by the recovery ladder must not be served
    from (and must invalidate) the compiled cache."""
    faults = FaultPlan.parse("alloc:start=14,count=1,min=1M", seed=3)
    task = load_task("TC-Bert", iterations=8, seed=0)
    stream = [b for b in task.loader] * 6
    with_compiled, executor = _run(
        task, "mimose", 4 * GB, compiled=True, stream=stream, faults=faults
    )
    without, _ = _run(
        task, "mimose", 4 * GB, compiled=False, stream=stream, faults=faults
    )
    assert with_compiled.total_retries > 0  # the ladder actually ran
    assert with_compiled.digest() == without.digest()
    assert executor.compiled.invalidations > 0


def test_structural_drift_falls_back_and_deletes_template():
    """A template whose fingerprint no longer matches the world is
    dropped ("stale"), the iteration falls back to full simulation, and
    results stay identical to a never-compiled run."""
    task = load_task("TC-Bert", iterations=120, seed=0)
    stream = [b for b in task.loader]
    model = task.fresh_model()
    planner = make_planner("sublinear", 4 * GB, task)
    planner.setup(ModelView(model))
    executor = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    cache = executor.compiled
    result = RunResult(task.spec.abbr, "sublinear", 4 * GB)
    tampered = False
    fallbacks_before = None
    for batch in stream:
        result.append(executor.step(batch))
        if not tampered and cache.certifications > 0:
            # Simulate structural drift: the stored record structure no
            # longer describes what the strategy would save.
            key, template = next(iter(cache._templates.items()))
            template.record_struct = ((),) * len(template.record_struct)
            template._size_ctx.clear()
            fallbacks_before = cache.fallbacks
            tampered = True
    assert tampered, "no template was ever certified"
    assert cache.fallbacks > fallbacks_before
    # the drifted template was deleted (possibly re-certified afresh
    # later, which is fine — the tampered object must be gone)
    assert all(
        t.record_struct != ((),) * len(t.record_struct) or not t.record_struct
        for t in cache._templates.values()
    )
    without, _ = _run(task, "sublinear", 4 * GB, compiled=False, stream=stream)
    assert result.digest() == without.digest()


def test_reactive_mode_never_compiled():
    """REACTIVE (DTR) iterations carry no ReplayKey: both tiers bypass."""
    task = load_task("TC-Bert", iterations=8, seed=0)
    stream = [b for b in task.loader] * 5
    _, executor = _run(task, "dtr", 5 * GB, compiled=True, stream=stream)
    assert executor.compiled.hits == 0
    assert executor.compiled.certifications == 0
    assert executor.compiled.bypasses == len(stream)


def test_compiled_disabled_flag():
    """``compiled=False`` (the CLI's --no-compiled) removes the tier."""
    task = load_task("TC-Bert", iterations=6, seed=0)
    model = task.fresh_model()
    planner = make_planner("sublinear", 4 * GB, task)
    planner.setup(ModelView(model))
    executor = TrainingExecutor(
        model, planner, capacity_bytes=4 * GB, compiled=False
    )
    assert executor.compiled is None
    assert executor.replay is not None  # exact replay is independent
    # and without replay there is nothing to promote into, so the
    # compiled tier is off too
    executor2 = TrainingExecutor(
        model, planner, capacity_bytes=4 * GB, replay=False
    )
    assert executor2.compiled is None
