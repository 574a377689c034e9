"""Executor-level lifecycle behaviour under drift scenarios.

Pins the two determinism contracts the online-replanning path must keep:

* a refit mid-run clears the plan cache and keeps the replay/compiled
  tiers, whose entries read no fit, and the run stays bit-identical to
  full simulation;
* parallel sweeps stay byte-identical to serial ones under every
  non-stationary input scenario, exactly as on stationary workloads.

Digest mismatches are reported at the *first divergent iteration* via
``RunResult.rolling_digests`` so a failure names the iteration where
simulated behaviour split, not just that it did.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifecycle import LifecycleController
from repro.data.datasets import DRIFT_SCENARIOS
from repro.engine import compiled as compiled_mod
from repro.engine.replay import PlanKey
from repro.engine.stats import RunResult
from repro.experiments.runner import run_task, sweep
from repro.experiments.tasks import GB, load_task

from tests.helpers_digest_grid import compiled_off

TASK = "TC-Bert"
ITERATIONS = 30
BUDGET = int(5.0 * GB)


def assert_same_run(a: RunResult, b: RunResult, context: str) -> None:
    ra, rb = a.rolling_digests(), b.rolling_digests()
    for i, (da, db) in enumerate(zip(ra, rb)):
        assert da == db, (
            f"{context}: first divergent iteration {i} "
            f"({a.iterations[i]} != {b.iterations[i]})"
        )
    assert len(ra) == len(rb), (
        f"{context}: run lengths differ ({len(ra)} != {len(rb)})"
    )


def drift_run(scenario: str, seed: int = 0, **kwargs) -> RunResult:
    task = load_task(
        TASK, iterations=ITERATIONS, seed=seed, drift_scenario=scenario
    )
    return run_task(
        task,
        "mimose",
        BUDGET,
        max_iterations=ITERATIONS,
        drift_detection=True,
        **kwargs,
    )


def _fast_path_state(executor) -> tuple[list, list, list]:
    """Every replay record, compiled template and placement held."""
    return (
        list(executor.replay._records.values()),
        list(executor.compiled._templates.values()),
        [
            placement
            for memo in executor.model._shapes.values()
            for placement in memo.placements.values()
        ],
    )


def _same_objects(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _full_simulation(executor) -> None:
    """Observer: both fast-path tiers off, every iteration simulated."""
    executor.replay = executor.compiled = None


def test_refit_mid_run_keeps_fastpath_tiers(monkeypatch):
    """A refit clears the plan cache and nothing else: a replay record or
    compiled template depends only on its key, which reads no fit.  Run
    on the drift entry of ``tests/test_work_counters.py``: every refit
    leaves each record, template and placement in place, no plan is
    certified twice, and the run equals full simulation."""
    executors: list = []
    kept: list[bool] = []
    certified: list[PlanKey] = []
    refit = LifecycleController._refit
    certify = compiled_mod._certify

    def watched_refit(self, reason, *, initial=False):
        before = _fast_path_state(executors[0])
        refit(self, reason, initial=initial)
        if not initial:
            after = _fast_path_state(executors[0])
            kept.append(all(map(_same_objects, before, after)))

    def recording_certify(executor, batch, key, *args):
        template = certify(executor, batch, key, *args)
        certified.append(key.plan)
        return template

    monkeypatch.setattr(LifecycleController, "_refit", watched_refit)
    monkeypatch.setattr(compiled_mod, "_certify", recording_certify)
    task = load_task(
        TASK, iterations=300, seed=11, drift_scenario="curriculum"
    )
    budget = task.default_budgets(4)[1]
    result = run_task(
        task, "mimose", budget, drift_detection=True,
        observers=(executors.append,),
    )
    assert result.refits >= 1 and len(kept) == result.refits
    assert all(kept)
    assert len(executors[0].replay) and len(executors[0].compiled)
    assert certified and len(set(certified)) == len(certified)
    monkeypatch.undo()
    full = run_task(
        task, "mimose", budget, drift_detection=True,
        observers=(_full_simulation,),
    )
    assert_same_run(result, full, "curriculum: fast paths on vs off")


def test_refit_invalidation_is_digest_neutral_and_deterministic():
    for scenario in DRIFT_SCENARIOS:
        with_compiled = drift_run(scenario)
        without = drift_run(scenario, observers=(compiled_off,))
        assert_same_run(
            with_compiled, without, f"{scenario}: compiled on vs off"
        )
        again = drift_run(scenario)
        assert_same_run(with_compiled, again, f"{scenario}: repeat run")
        # determinism extends to the fast-path counters themselves
        assert with_compiled.replay_hits == again.replay_hits
        assert with_compiled.compiled_hits == again.compiled_hits
        assert with_compiled.refits == again.refits


@settings(max_examples=4, deadline=None)
@given(
    scenario=st.sampled_from(DRIFT_SCENARIOS),
    seed=st.integers(min_value=0, max_value=3),
)
def test_parallel_sweep_matches_serial_under_drift(scenario, seed):
    task = load_task(
        TASK, iterations=ITERATIONS, seed=seed, drift_scenario=scenario
    )
    budgets = [int(4.5 * GB), int(5.5 * GB)]
    serial = sweep(
        task,
        ("mimose",),
        budgets,
        max_iterations=ITERATIONS,
        drift_detection=True,
        jobs=1,
    )
    parallel = sweep(
        task,
        ("mimose",),
        budgets,
        max_iterations=ITERATIONS,
        drift_detection=True,
        jobs=2,
    )
    assert len(serial) == len(parallel) == len(budgets)
    for s, p in zip(serial, parallel):
        assert_same_run(
            s, p, f"{scenario} seed={seed} budget={s.budget_bytes}"
        )
        assert s.refits == p.refits
        assert s.drift_events == p.drift_events
