"""Tests for the deterministic fault-injection layer (tensorsim.faults)."""

import pytest

from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.planners.none import NoCheckpointPlanner
from repro.tensorsim.dtypes import FLOAT32
from repro.tensorsim.faults import (
    FaultInjector,
    FaultPlan,
    FragmentationSpike,
    MispredictionNoise,
    TransientAllocFailures,
    parse_size,
)

from tests.helpers import GB, MB, make_tiny_model


# --------------------------------------------------------------- spec parsing

def test_parse_size_suffixes():
    assert parse_size("4096") == 4096
    assert parse_size("2K") == 2048
    assert parse_size("1.5M") == int(1.5 * MB)
    assert parse_size("1G") == GB
    assert parse_size("512MB") == 512 * MB
    with pytest.raises(ValueError):
        parse_size("banana")


def test_parse_full_spec():
    plan = FaultPlan.parse(
        "frag:start=20,iters=3,bytes=512M;"
        "alloc:start=30,count=2,min=1M;"
        "noise:sigma=0.1,bias=-0.05,start=2,iters=8",
        seed=11,
    )
    assert plan.seed == 11
    assert plan.spikes == (
        FragmentationSpike(start_iteration=20, num_iterations=3,
                           reserve_bytes=512 * MB),
    )
    assert plan.failures == (
        TransientAllocFailures(start_iteration=30, failures_per_iteration=2,
                               min_request_bytes=MB),
    )
    assert plan.noise == MispredictionNoise(
        sigma=0.1, bias=-0.05, start_iteration=2, num_iterations=8
    )
    assert not plan.empty
    assert "512MB" in plan.describe()


def test_parse_empty_spec_is_empty_plan():
    plan = FaultPlan.parse("")
    assert plan.empty
    assert plan.describe() == "no faults"


@pytest.mark.parametrize(
    "spec",
    [
        "quake:start=1",              # unknown kind
        "frag:start=1,wat=2",         # unknown option
        "frag:start",                 # malformed key=value
        "noise:sigma=0.1;noise:bias=0.2",  # duplicate noise clause
        "frag:start=0",               # 1-based iterations
    ],
)
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        FaultPlan.parse(spec)


# ------------------------------------------------------------------- injector

def test_spike_active_window():
    spike = FragmentationSpike(start_iteration=5, num_iterations=3,
                               reserve_bytes=MB)
    assert [spike.active(i) for i in (4, 5, 6, 7, 8)] == [
        False, True, True, True, False
    ]


def test_injector_phantom_follows_spike_window():
    plan = FaultPlan(spikes=(
        FragmentationSpike(start_iteration=2, num_iterations=2,
                           reserve_bytes=10 * MB),
        FragmentationSpike(start_iteration=3, num_iterations=1,
                           reserve_bytes=5 * MB),
    ))
    inj = FaultInjector(plan)
    phantoms = []
    for it in (1, 2, 3, 4):
        inj.begin_iteration(it)
        phantoms.append(inj.phantom_bytes())
    assert phantoms == [0, 10 * MB, 15 * MB, 0]  # overlapping spikes add up
    assert inj.stats.spiked_iterations == 2


def test_transient_failures_fire_only_on_first_attempt():
    plan = FaultPlan(failures=(
        TransientAllocFailures(start_iteration=3, failures_per_iteration=2,
                               min_request_bytes=MB),
    ))
    inj = FaultInjector(plan)
    inj.begin_iteration(3)
    assert not inj.should_fail(1024)        # below min_request_bytes
    assert inj.should_fail(2 * MB)
    assert inj.should_fail(2 * MB)
    assert not inj.should_fail(2 * MB)      # budget exhausted
    inj.begin_iteration(3)                  # retry of the same iteration
    assert not inj.should_fail(2 * MB)      # transient: gone on retry
    assert inj.stats.injected_failures == 2


def test_noise_perturbation_deterministic_per_iteration():
    plan = FaultPlan(seed=5, noise=MispredictionNoise(sigma=0.2, bias=-0.1))
    a, b = FaultInjector(plan), FaultInjector(plan)
    a.begin_iteration(4)
    b.begin_iteration(4)
    values = [10 * MB, 20 * MB, 30 * MB]
    assert [a.perturb_measurement(v) for v in values] == [
        b.perturb_measurement(v) for v in values
    ]
    # a different iteration draws from a different stream
    a.begin_iteration(5)
    b.begin_iteration(4)
    assert [a.perturb_measurement(v) for v in values] != [
        b.perturb_measurement(v) for v in values
    ]


def test_noise_bias_shifts_measurements():
    plan = FaultPlan(seed=1, noise=MispredictionNoise(sigma=0.0, bias=-0.25))
    inj = FaultInjector(plan)
    inj.begin_iteration(1)
    assert inj.perturb_measurement(100 * MB) == 75 * MB
    assert inj.stats.perturbed_measurements == 1


def test_noise_outside_window_passes_through():
    plan = FaultPlan(noise=MispredictionNoise(sigma=0.5, start_iteration=10,
                                              num_iterations=2))
    inj = FaultInjector(plan)
    inj.begin_iteration(9)
    assert inj.perturb_measurement(MB) == MB
    inj.begin_iteration(12)
    assert inj.perturb_measurement(MB) == MB


# ------------------------------------------------------- executor integration

def _no_ckpt_executor(budget, faults):
    model = make_tiny_model(num_units=4, features=64)
    planner = NoCheckpointPlanner(budget)
    return TrainingExecutor(
        model, planner, capacity_bytes=budget, faults=faults
    )


def test_spike_reserves_memory_and_can_cause_oom():
    model = make_tiny_model(num_units=4, features=64)
    budget = model.static_memory().total + 60 * MB
    batch = BatchInput((1024, 64), FLOAT32)

    clean = _no_ckpt_executor(budget, None).step(batch)
    assert not clean.oom
    headroom = budget - clean.peak_reserved

    spiky = FaultPlan(spikes=(
        FragmentationSpike(start_iteration=1, num_iterations=1,
                           reserve_bytes=headroom + 10 * MB),
    ))
    faulted = _no_ckpt_executor(budget, spiky).step(batch)
    assert faulted.oom


def test_spike_block_is_released_after_the_iteration():
    model = make_tiny_model(num_units=4, features=64)
    budget = model.static_memory().total + 120 * MB
    plan = FaultPlan(spikes=(
        FragmentationSpike(start_iteration=1, num_iterations=1,
                           reserve_bytes=5 * MB),
    ))
    ex = _no_ckpt_executor(budget, plan)
    first = ex.step(BatchInput((256, 64), FLOAT32))
    assert not first.oom
    assert first.end_in_use == ex.static_bytes  # phantom block freed
    ex.allocator.check_consistency()


def test_noise_corrupts_collect_measurements():
    budget = int(2 * GB)

    def collected(faults):
        m = make_tiny_model(num_units=4, features=64)
        p = MimosePlanner(budget, collect_iterations=2,
                          headroom_bytes=4 * MB)
        ex = TrainingExecutor(m, p, capacity_bytes=budget, faults=faults)
        for rows in (256, 512):
            ex.step(BatchInput((rows, 64), FLOAT32))
        return p

    clean = collected(None)
    noisy = collected(
        FaultPlan(seed=2, noise=MispredictionNoise(sigma=0.0, bias=-0.5))
    )
    unit = next(iter(clean.collector.unit_names()))
    clean_bytes = [s.saved_bytes for s in clean.collector.samples(unit)]
    noisy_bytes = [s.saved_bytes for s in noisy.collector.samples(unit)]
    assert len(clean_bytes) == len(noisy_bytes)
    assert all(n < c for n, c in zip(noisy_bytes, clean_bytes))
