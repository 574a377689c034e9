"""Tests for the compiled-template tier (``engine/compiled.py``).

The contract under test: the compiled tier is a *pure* optimisation for
near-recurrent iterations (same certified plan, unseen input size or
allocator state).  Every served iteration must be bit-identical to full
simulation (``RunResult.digest`` excludes only the wall-clock
``planning_time``), every situation the eligibility proof does not
cover — fault windows, structural drift — must fall back to full
simulation, and an attached observer, a memory timeline included,
leaves the tiers as they were.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import DRIFT_SCENARIOS
from repro.engine import compiled as compiled_mod
from repro.engine import replay as replay_mod
from repro.engine.events import CompiledHit, TimeCharged
from repro.engine.executor import TrainingExecutor
from repro.engine.replay import ReplayCache
from repro.engine.stats import RunResult, summarize_runs
from repro.engine.strategies import CollectStrategy, NormalStrategy, StatsBuilder
from repro.engine.trace import MemoryTimeline
from repro.experiments.runner import make_planner, run_task
from repro.experiments.tasks import GB, TASKS, load_task
from repro.models.base import BatchInput
from repro.planners.dtr import DTRPlanner
from repro.planners.none import NoCheckpointPlanner
from repro.tensorsim.allocator import ALIGNMENT, FreeList
from repro.tensorsim.dtypes import FLOAT32
from repro.tensorsim.faults import FaultPlan

from tests.helpers import MB, make_tiny_model
from tests.helpers_digest_grid import (
    compiled_off, near_recurrence_grid, run_grid_point_result,
)


def _run(task, planner_name, budget, *, compiled=True, replay=True,
         stream=None, faults=None, max_retries=3, observer=None):
    model = task.model
    planner = make_planner(planner_name, budget, task)
    executor = TrainingExecutor(
        model,
        planner,
        capacity_bytes=(
            budget if not planner.requires_physical_capacity else 32 * GB
        ),
        replay=replay,
        compiled=compiled,
        faults=faults,
        max_recovery_retries=max_retries,
    )
    if observer is not None:
        observer.attach(executor.events)
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
    with_compiled = run_grid_point_result(point)
    without = run_grid_point_result(point, observers=(compiled_off,))
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


def test_certified_plan_serves_a_new_allocator_state():
    """A template takes the allocator state as an input, like the batch
    shape: after a longer batch reserves a segment, a short batch of a
    new size at the new state is a compiled hit, the plan is certified
    once, and the run equals one with both tiers off."""
    model = make_tiny_model(num_units=8, features=512)
    short, long, other = (
        BatchInput((n, 512), FLOAT32) for n in (64, 1024, 96)
    )

    def run(replay):
        planner = NoCheckpointPlanner(4 * GB)
        executor = TrainingExecutor(
            model, planner, capacity_bytes=4 * GB, replay=replay
        )
        result = RunResult(model.name, "baseline", 4 * GB)
        states = []
        for batch in (short, long, other):
            states.append(executor.allocator.state_signature())
            result.append(executor.step(batch))
        return result, executor, states

    result, executor, states = run(replay=True)
    cache = executor.compiled
    # certified from the short pass; the long one needs a new segment
    # (a fallback) and leaves more reserved for the next batch to meet
    assert states[2][1] > states[1][1] == states[0][1]
    assert (cache.certifications, cache.fallbacks, cache.hits) == (1, 1, 1)
    without, _, _ = run(replay=False)
    assert result.digest() == without.digest()


# ------------------------------------------------- property: stats equality


_PLANNER_SOLVERS = [
    ("baseline", None), ("sublinear", None), ("checkmate", None),
    ("monet", None), ("dtr", None), ("capuchin", None),
    ("mimose", None), ("mimose", "hybrid"),
]

#: one fault plan per kind the injector has, each opening its window
#: inside a 30-iteration run
_FAULTS = {
    "none": None,
    "frag": "frag:start=8,iters=3,bytes=512M",
    "alloc": "alloc:start=10,count=1,min=1M",
    "noise": "noise:sigma=0.05,start=1,iters=10",
}


def _full_simulation(executor):
    """Observer: both fast-path tiers off, every iteration simulated."""
    executor.replay = executor.compiled = None


@settings(max_examples=25, deadline=None)
@given(
    task_name=st.sampled_from(sorted(TASKS)),
    combo=st.sampled_from(_PLANNER_SOLVERS),
    budget_index=st.integers(min_value=0, max_value=3),
    fault=st.sampled_from(sorted(_FAULTS)),
    drift=st.sampled_from((None, *DRIFT_SCENARIOS)),
    seed=st.integers(min_value=0, max_value=50),
)
def test_compiled_stats_equal_simulated_property(
    task_name, combo, budget_index, fault, drift, seed
):
    """The fast paths (replay and compiled) reproduce full simulation on
    every task, default budget, fault kind and drift scenario, at whatever
    sizes the drawn seed's loader emits — swap worlds included."""
    planner, solver = combo
    drift_detection = drift is not None
    if drift_detection and planner != "mimose":  # a drifting stream runs Mimose
        planner, solver = "mimose", None
    task = load_task(task_name, iterations=30, seed=seed, drift_scenario=drift)
    budget = task.default_budgets()[budget_index]
    spec = _FAULTS[fault]
    options = dict(
        solver=solver,
        drift_detection=drift_detection,
        faults=FaultPlan.parse(spec, seed=seed) if spec else None,
    )
    fast = run_task(task, planner, budget, **options)
    full = run_task(
        task, planner, budget, observers=(_full_simulation,), **options
    )
    assert fast.digest() == full.digest()


def test_swapping_pass_is_rejected_and_matches_full_simulation():
    """A pass that moved bytes over the copy engine is never templated:
    Capuchin at TC-Bert's lowest default budget swaps, every one of its
    rejects comes from that rule, and results equal full simulation."""
    task = load_task("TC-Bert", iterations=30, seed=1)
    budget = task.default_budgets()[0]
    executors: list = []
    fast = run_task(task, "capuchin", budget, observers=(executors.append,))
    full = run_task(task, "capuchin", budget, observers=(_full_simulation,))
    assert any(s.num_swapped for s in fast.iterations)
    cache = executors[0].compiled
    assert cache.rejects > 0
    assert cache.reject_reasons == {
        "the pass moved bytes over the copy engine": cache.rejects
    }
    assert fast.digest() == full.digest()


def test_every_charge_names_its_unit():
    """In a full NORMAL iteration the forward charges name units 0..n-1
    in order, the backward charges n-1..0, and the optimizer step names
    no unit."""
    charges: list[TimeCharged] = []

    def attach(executor):
        executor.events.subscribe(charges.append, TimeCharged)
        _full_simulation(executor)

    task = load_task("TC-Bert", iterations=1, seed=0)
    result = run_task(task, "sublinear", 4 * GB, observers=(attach,))
    assert result.iterations[0].mode == "normal"
    n = len(task.model.units)

    def units(component):
        return [c.unit for c in charges if c.component == component]

    assert units("fwd") == list(range(n))
    assert units("bwd") == list(range(n - 1, -1, -1))
    assert units("optimizer") == [None]
    assert all(
        c.unit is not None for c in charges if c.component != "optimizer"
    )


# ---------------------------------------------------- never-serve fallbacks


def _templates_held_through(task, stream, faults, event):
    """Mimose at 4 GB over ``stream``: the run, its executor and the
    templates held when iteration ``event`` starts."""
    model = task.model
    planner = make_planner("mimose", 4 * GB, task)
    executor = TrainingExecutor(
        model, planner, capacity_bytes=4 * GB, faults=faults
    )
    result = RunResult(task.spec.abbr, "mimose", 4 * GB)
    held = {}
    for i, batch in enumerate(stream, 1):
        if i == event:
            held = dict(executor.compiled._templates)
        result.append(executor.step(batch))
    return result, executor, held


def test_fault_window_bypasses_compiled_tier():
    """Iterations inside a fault window that perturbs the allocator (a
    fragmentation spike) bypass the compiled tier as they do the replay
    tier, flush nothing, and stay bit-identical."""
    task = load_task("TC-Bert", iterations=8, seed=0)
    stream = [b for b in task.loader] * 10
    faults = FaultPlan.parse("frag:start=20,iters=3,bytes=1G", seed=3)
    with_compiled, executor, held = _templates_held_through(
        task, stream, faults, 20
    )
    without, _ = _run(
        task, "mimose", 4 * GB, compiled=False, stream=stream, faults=faults
    )
    full, _ = _run(
        task, "mimose", 4 * GB, replay=False, stream=stream, faults=faults
    )
    assert with_compiled.digest() == without.digest() == full.digest()
    assert executor.replay.bypasses == 3
    collects = [s.iteration for s in with_compiled.iterations if s.is_collect]
    assert collects == list(range(1, 11))
    assert held
    assert all(
        executor.compiled._templates.get(k) is t for k, t in held.items()
    )


class _CompiledHitLog:
    """Observer: the iterations the compiled tier served, in order."""

    def __init__(self):
        self.iterations = []

    def attach(self, bus):
        bus.subscribe(
            lambda event: self.iterations.append(event.iteration), CompiledHit
        )


def test_noise_window_is_served():
    """Measurement noise perturbs no allocator: the executor corrupts the
    measurements the planner observes after the pass, so iterations in a
    noise window are keyed and served like any other, with the same draws
    as full simulation.  The window covers every sheltered pass."""
    task = load_task("TC-Bert", iterations=8, seed=0)
    stream = [b for b in task.loader] * 10
    faults = FaultPlan.parse("noise:sigma=0.05,start=1,iters=12", seed=3)
    hits = _CompiledHitLog()
    served, executor = _run(
        task, "mimose", 4 * GB, stream=stream, faults=faults, observer=hits
    )
    without, without_executor = _run(
        task, "mimose", 4 * GB, compiled=False, stream=stream, faults=faults
    )
    full, full_executor = _run(
        task, "mimose", 4 * GB, replay=False, stream=stream, faults=faults
    )
    assert served.digest() == without.digest() == full.digest()
    assert executor.replay.bypasses == 0
    collects = [s.iteration for s in served.iterations if s.is_collect]
    assert collects == list(range(1, 11))
    assert any(i <= 12 for i in hits.iterations)
    perturbed = {
        ex.faults.stats.perturbed_measurements
        for ex in (executor, without_executor, full_executor)
    }
    assert len(perturbed) == 1 and perturbed.pop() > 0


def test_recovery_retry_is_keyed():
    """The retry of a transient-failure recovery reads no fault stream:
    it is keyed like any other pass, so only the failing first attempt
    bypasses, and the templates held before the OOM stay."""
    faults = FaultPlan.parse("alloc:start=14,count=1,min=1M", seed=3)
    task = load_task("TC-Bert", iterations=8, seed=0)
    stream = [b for b in task.loader] * 6
    with_compiled, executor, held = _templates_held_through(
        task, stream, faults, 14
    )
    without, _ = _run(
        task, "mimose", 4 * GB, compiled=False, stream=stream, faults=faults
    )
    full, _ = _run(
        task, "mimose", 4 * GB, replay=False, stream=stream, faults=faults
    )
    assert with_compiled.total_retries > 0  # the ladder actually ran
    assert with_compiled.digest() == without.digest() == full.digest()
    assert executor.replay.bypasses == 1
    assert held
    assert all(executor.compiled._templates.get(k) is t for k, t in held.items())


def test_structural_drift_falls_back(monkeypatch):
    """A template whose record layout no longer matches the world serves
    nothing: its plan's iterations fall back to full simulation, and
    results stay identical to a never-compiled run."""
    task = load_task("TC-Bert", iterations=120, seed=0)
    stream = [b for b in task.loader]
    model = task.model
    planner = make_planner("sublinear", 4 * GB, task)
    executor = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    cache = executor.compiled
    tampered = None
    served: list = []  # records the tampered template evaluated
    evaluate = compiled_mod.CompiledTemplate.evaluate

    def watched_evaluate(self, *args):
        record = evaluate(self, *args)
        if self is tampered and record is not None:
            served.append(record)
        return record

    monkeypatch.setattr(
        compiled_mod.CompiledTemplate, "evaluate", watched_evaluate
    )
    result = RunResult(task.spec.abbr, "sublinear", 4 * GB)
    fallbacks_before = None
    for batch in stream:
        result.append(executor.step(batch))
        if tampered is None and cache.certifications > 0:
            # Simulate structural drift: the stored record structure no
            # longer describes what the strategy would save.
            tampered = next(iter(cache._templates.values()))
            tampered.layout = (((), False),) * len(tampered.layout)
            fallbacks_before = cache.fallbacks
    assert tampered is not None, "no template was ever certified"
    assert cache.fallbacks > fallbacks_before
    assert not served
    without, _ = _run(task, "sublinear", 4 * GB, compiled=False, stream=stream)
    assert result.digest() == without.digest()


def test_evicting_reactive_passes_are_simulated_and_never_recorded(
    monkeypatch,
):
    """In a DTR run that evicts, every evicting iteration is a full
    simulation, no replay record or template comes from such a pass, and
    the run equals full simulation."""
    simulated: list[int] = []
    stored: list[int] = []
    certified: list[int] = []
    finalize = StatsBuilder.finalize
    store = ReplayCache.store
    certify = compiled_mod._certify

    def counting_finalize(self, ctx, oom):
        simulated.append(ctx.iteration)
        return finalize(self, ctx, oom)

    def counting_store(self, key, record):
        stored.append(record.stats.evictions)
        return store(self, key, record)

    def counting_certify(executor, batch, key, record, *args):
        certified.append(record.stats.evictions)
        return certify(executor, batch, key, record, *args)

    monkeypatch.setattr(StatsBuilder, "finalize", counting_finalize)
    monkeypatch.setattr(ReplayCache, "store", counting_store)
    monkeypatch.setattr(compiled_mod, "_certify", counting_certify)
    task = load_task("TC-Bert", iterations=60, seed=2)
    budget = task.default_budgets()[0]
    executors: list = []
    fast = run_task(task, "dtr", budget, observers=(executors.append,))
    executor = executors[0]
    evicting = {s.iteration for s in fast.iterations if s.evictions}
    assert evicting and evicting <= set(simulated)
    assert executor.replay.hits > 0 and executor.compiled.hits > 0
    assert executor.replay.bypasses == 0
    assert stored and certified and not any(stored) and not any(certified)
    monkeypatch.undo()
    full = run_task(task, "dtr", budget, observers=(_full_simulation,))
    assert fast.digest() == full.digest()


def test_reactive_template_falls_back_over_the_budget():
    """A REACTIVE template asked for a size whose placed peak crosses the
    logical budget does not serve it: the iteration is simulated (and
    evicts), the template stays, and a size within the budget is still
    served from it."""
    model = make_tiny_model(num_units=8, features=512)
    budget = model.static_memory().total + 16 * MB
    large, small, within, over = (
        BatchInput((n, 512), FLOAT32) for n in (1024, 64, 256, 512)
    )

    def run(compiled):
        planner = DTRPlanner(budget)
        executor = TrainingExecutor(
            model, planner, capacity_bytes=4 * GB, compiled=compiled
        )
        result = RunResult(model.name, "dtr", budget)
        states = []
        for batch in (large, small, small, within, over):
            states.append(executor.allocator.state_signature())
            result.append(executor.step(batch))
        return result, executor, states

    result, executor, states = run(compiled=True)
    cache = executor.compiled
    # certified from the second eviction-free small pass
    (template,) = cache._templates.values()
    assert template.peak_limit == budget
    state = states[-1]  # the allocator state ``over`` met
    peak_overshoot = template._placement(model, over, state)
    assert peak_overshoot is not None  # fits ...
    assert state[0] + peak_overshoot > budget  # ... but over
    assert (cache.hits, cache.fallbacks) == (1, 1)
    assert [s.evictions > 0 for s in result.iterations] == [
        True, False, False, False, True,
    ]
    assert list(cache._templates.values()) == [template]
    without, _, _ = run(compiled=False)
    assert result.digest() == without.digest()


def test_placements_survive_template_eviction(monkeypatch):
    """Nothing flushes the fast tiers, so only the LRU bounds drop a
    template or record.  Under bounds of one each, short and long batches
    alternate between plans that evict each other at every step: the
    templates re-certified after an eviction place nothing anew, and the
    run equals one with both tiers off."""
    monkeypatch.setattr(compiled_mod, "MAX_TEMPLATES", 1)
    monkeypatch.setattr(replay_mod, "MAX_RECORDS", 1)
    task = load_task("TC-Bert", iterations=8, seed=0)
    warm = list(task.loader)
    rows, dtype = warm[0].shape[0], warm[0].dtype
    short, long = (
        [BatchInput((rows, n), dtype) for n in lengths]
        for lengths in ((64, 72, 80), (400, 440, 480))
    )
    stream = warm + [b for pair in zip(short, long) for b in pair] * 4
    certified: list = []
    placed: list[tuple] = []
    certify = compiled_mod._certify
    place = compiled_mod.CompiledTemplate._place

    def recording_certify(executor, batch, key, *args):
        template = certify(executor, batch, key, *args)
        certified.append(key.plan)
        return template

    def counting_place(self, start, rsizes):
        blocks = tuple(sorted(start.items()))
        placed.append((self.req_index, self.ops, blocks, tuple(rsizes)))
        return place(self, start, rsizes)

    monkeypatch.setattr(compiled_mod, "_certify", recording_certify)
    monkeypatch.setattr(compiled_mod.CompiledTemplate, "_place", counting_place)
    result, executor = _run(task, "mimose", 4 * GB, stream=stream)
    assert len(executor.compiled) == len(executor.replay) == 1
    assert len(set(certified)) > 1  # short and long batches: two plans
    assert len(certified) > len(set(certified))  # re-certified after eviction
    assert executor.compiled.hits > 0
    assert placed and len(placed) == len(set(placed))
    without, _ = _run(
        task, "mimose", 4 * GB, stream=stream, compiled=False, replay=False
    )
    assert result.digest() == without.digest()


def test_placement_memo_keys_the_starting_free_list():
    """One op program placed from two allocator states gets a verdict per
    state, and templates with equal programs share the memo entry: one
    peak per shape and one verdict per state."""
    model = make_tiny_model()
    batch = BatchInput((64, 64), FLOAT32)
    vec = model.request_sizes(batch)
    n = len(vec)
    template, twin = (
        compiled_mod.CompiledTemplate(
            req_index=tuple(range(n)),
            ops=(*range(n), *(-k - 1 for k in reversed(range(n)))),
            unit_names=(), layout=(), charge_prog=(),
            measure_spec=(), const_stats=None,
        )
        for _ in range(2)
    )
    # one free segment, empty: (in use, reserved, segments, free blocks);
    # whole quanta, like every segment the allocator reserves
    roomy, tight = (
        (0, size, (size,), ((0, 0, size),))
        for size in (64 * MB, sum(vec) // 2 // ALIGNMENT * ALIGNMENT)
    )
    # every request is live at once before the first free
    assert template._placement(model, batch, roomy) == sum(vec)
    free = FreeList.from_signature(roomy)
    assert template._place(free, list(vec))
    assert list(free.items()) == [(0, 64 * MB)]  # given back as it was
    assert template._placement(model, batch, tight) is None  # all n do not fit
    memo = model.placements(batch)
    entry = {template.program: (sum(vec), {roomy[3]: True, tight[3]: False})}
    assert memo == entry
    assert twin.program == template.program
    assert twin._placement(model, batch, roomy) == sum(vec)
    assert twin._placement(model, batch, tight) is None
    assert memo == entry


def test_compiled_disabled_flag():
    """``compiled=False`` removes the tier."""
    task = load_task("TC-Bert", iterations=6, seed=0)
    model = task.model
    planner = make_planner("sublinear", 4 * GB, task)
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


def test_timeline_run_takes_the_tiers_of_an_unobserved_run():
    """A memory timeline is an ordinary observer: on a Mimose stream a
    traced executor serves exactly the iterations an unobserved one
    serves, from the same tiers, with the same digest."""
    task = load_task("TC-Bert", iterations=40, seed=0)
    stream = list(task.loader)
    plain, unobserved = _run(task, "mimose", 4 * GB, stream=stream)
    timeline = MemoryTimeline()
    traced, executor = _run(
        task, "mimose", 4 * GB, stream=stream, observer=timeline
    )
    assert traced.digest() == plain.digest()
    replay_tiers = ("hits", "misses", "bypasses")
    assert [getattr(executor.replay, t) for t in replay_tiers] == [
        getattr(unobserved.replay, t) for t in replay_tiers
    ]
    compiled_tiers = ("hits", "misses", "fallbacks", "certifications")
    assert [getattr(executor.compiled, t) for t in compiled_tiers] == [
        getattr(unobserved.compiled, t) for t in compiled_tiers
    ]
    assert executor.compiled.hits > 0  # the compiled tier serves
    assert timeline.points  # and the simulated iterations were sampled
