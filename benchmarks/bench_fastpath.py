"""Hot-path benchmarks: replay cache, compiled templates, parallel sweeps.

Three fast paths were added to the execution engine
(docs/performance.md):

* the **iteration replay cache** — provably-identical steady-state
  iterations are served from recorded stats instead of re-running the
  tensor-level allocator loop;
* the **compiled-template tier** — near-recurrent iterations (same plan,
  *new* input size) are served by evaluating a certified symbolic
  template instead of full simulation;
* the **parallel sweep runner** — grid points run in worker processes,
  byte-identical to the serial sweep.

Both are *pure* optimisations: every benchmark here asserts result
equivalence (via :meth:`RunResult.digest`, which excludes only the
genuinely wall-clock ``planning_time``) alongside the speedup, and that
the never-replay guarantees (evicting REACTIVE passes, fault windows)
hold.
"""

import os
import time

from repro.engine.events import IterationStart
from repro.engine.executor import TrainingExecutor
from repro.engine.stats import RunResult
from repro.experiments.report import render_table
from repro.experiments.runner import make_planner, sweep
from repro.experiments.tasks import GB, load_task
from repro.tensorsim.device import DeviceModel
from repro.tensorsim.faults import FaultPlan

from conftest import run_once, save_result

BUDGET = 4 * GB
TASK = "TC-Bert"
#: distinct shapes in the steady-state stream (bucketed-batching regime)
STEADY_SHAPES = 8
#: repetitions of the shape cycle
STEADY_CYCLES = 30


def _steady_stream(task):
    """A cache-hot input stream: a small shape bucket cycled many times.

    This is the steady-state regime of bucketed/sorted NLP batching —
    after warmup every iteration's world recurs, which is exactly the
    case the replay cache exists for.
    """
    bucket = [b for _, b in zip(range(STEADY_SHAPES), task.loader)]
    return bucket * STEADY_CYCLES


def _warm(task, stream):
    """Trace and time every shape of ``stream`` on the task's model.

    Runs of one task share its model, so whichever timed run came first
    would pay for the tracing the second reuses; warming both up front
    keeps a speedup a measure of the fast path alone.
    """
    device = DeviceModel()  # the executor's default
    for batch in dict.fromkeys(stream):
        task.model.unit_times(device, batch)


def _run_stream(
    task, stream, *, replay, compiled=True, planner_name="mimose", faults=None,
    observers=(),
):
    model = task.model
    planner = make_planner(planner_name, BUDGET, task)
    executor = TrainingExecutor(
        model,
        planner,
        capacity_bytes=BUDGET,
        replay=replay,
        compiled=compiled,
        faults=faults,
    )
    for attach in observers:
        attach(executor)
    result = RunResult(task.spec.abbr, planner_name, BUDGET)
    start = time.perf_counter()
    for batch in stream:
        result.append(executor.step(batch))
    elapsed = time.perf_counter() - start
    return elapsed, result, executor


def bench_fastpath_replay_speedup(benchmark, results_dir):
    """Steady-state cache-hot run: >= 2x faster, bit-identical results."""

    def scenario():
        task = load_task(TASK, iterations=STEADY_SHAPES, seed=0)
        stream = _steady_stream(task)
        _warm(task, stream)
        # compiled=False on the replay run keeps this a measurement of
        # the exact-replay tier alone (bench_compiled_sweep_speedup
        # covers the compiled tier).
        t_full, full, _ = _run_stream(task, stream, replay=False)
        t_replay, replayed, executor = _run_stream(
            task, stream, replay=True, compiled=False
        )
        cache = executor.replay
        return {
            "iterations": len(stream),
            "full_s": t_full,
            "replay_s": t_replay,
            "speedup": t_full / t_replay,
            "replay_hits": cache.hits,
            "replay_hit_rate": cache.hit_rate,
            "digest_full": full.digest(),
            "digest_replay": replayed.digest(),
        }

    row = run_once(benchmark, scenario)
    text = render_table(
        [{k: v for k, v in row.items() if not k.startswith("digest")}],
        title="Fast path: iteration replay (steady-state Mimose run)",
    )
    save_result(results_dir, "fastpath_replay", text)
    # equivalence first: replay must change nothing observable
    assert row["digest_replay"] == row["digest_full"]
    assert row["replay_hit_rate"] >= 0.5, row
    assert row["speedup"] >= 2.0, row


#: length of the fig 10-style multi-size stream for the compiled bench
COMPILED_STREAM_N = 8000
#: full-simulation reference window (same stream prefix, no caches)
COMPILED_REF_N = 300


def bench_compiled_sweep_speedup(benchmark, results_dir):
    """Multi-size stream: compiled tier >= 10x full sim, bit-identical.

    The stream is the task loader's natural size distribution (the fig
    10 sweep regime, *not* the bucketed ``_steady_stream``): sizes both
    recur (served by exact replay) and appear fresh (served by the
    compiled tier once a template is certified).  The full-simulation
    per-iteration rate comes from a shorter prefix of the same stream —
    at ~4 ms/iteration an 8000-iteration uncached reference would
    dominate the whole suite's wall clock for no extra information.
    Equivalence is asserted over that shared prefix via rolling digests.
    """

    def scenario():
        task = load_task(TASK, iterations=COMPILED_STREAM_N, seed=0)
        stream = [b for _, b in zip(range(COMPILED_STREAM_N), task.loader)]
        prefix = stream[:COMPILED_REF_N]
        _warm(task, stream)
        t_full, full, _ = _run_stream(
            task, prefix, replay=False, planner_name="sublinear"
        )
        t_comp, comp, executor = _run_stream(
            task, stream, replay=True, planner_name="sublinear"
        )
        cache = executor.compiled
        full_rate = t_full / len(prefix)
        comp_rate = t_comp / len(stream)
        return {
            "iterations": len(stream),
            "full_ms_per_iter": 1e3 * full_rate,
            "compiled_ms_per_iter": 1e3 * comp_rate,
            "speedup": full_rate / comp_rate,
            "compiled_hits": cache.hits,
            "certifications": cache.certifications,
            "fallbacks": cache.fallbacks,
            "replay_hits": executor.replay.hits,
            "digest_full": full.digest(),
            "digest_compiled_prefix": comp.rolling_digests()[
                COMPILED_REF_N - 1
            ],
        }

    row = run_once(benchmark, scenario)
    text = render_table(
        [{k: v for k, v in row.items() if not k.startswith("digest")}],
        title="Fast path: compiled templates (fig 10-style size sweep)",
    )
    save_result(results_dir, "fastpath_compiled", text)
    # equivalence first: the compiled tier must change nothing observable
    assert row["digest_compiled_prefix"] == row["digest_full"]
    # the compiled tier must actually have served iterations, from one
    # template: the stream runs one sublinear plan, certified once
    # whatever allocator state each size meets
    assert row["compiled_hits"] > 0, row
    assert row["certifications"] == 1, row
    assert row["speedup"] >= 10.0, row


def bench_fastpath_parallel_sweep(benchmark, results_dir):
    """4-way sweep: byte-identical to serial; faster given >= 4 CPUs."""

    def scenario():
        # each sweep starts from a cold task of its own: workers forked
        # from the serial sweep's task would inherit its traced shapes
        task = load_task(TASK, iterations=40, seed=0)
        cold = load_task(TASK, iterations=40, seed=0)
        planners = ("sublinear", "mimose")
        budgets = [4 * GB, 5 * GB]
        start = time.perf_counter()
        serial = sweep(task, planners, budgets)
        t_serial = time.perf_counter() - start
        start = time.perf_counter()
        parallel = sweep(cold, planners, budgets, jobs=4)
        t_parallel = time.perf_counter() - start
        return {
            "grid_points": len(serial),
            "serial_s": t_serial,
            "parallel_s": t_parallel,
            "speedup": t_serial / t_parallel,
            "digests_serial": [r.digest() for r in serial],
            "digests_parallel": [r.digest() for r in parallel],
        }

    row = run_once(benchmark, scenario)
    text = render_table(
        [{k: v for k, v in row.items() if not k.startswith("digests")}],
        title="Fast path: parallel sweep (4 workers)",
    )
    save_result(results_dir, "fastpath_parallel", text)
    # byte-identical, in order — unconditionally
    assert row["digests_parallel"] == row["digests_serial"]
    # the wall-clock claim needs the cores to exist
    if (os.cpu_count() or 1) >= 4:
        assert row["speedup"] >= 2.0, row


def bench_fastpath_serves_eviction_free_reactive(benchmark, results_dir):
    """REACTIVE (DTR) passes that never ask for an eviction victim are
    served from the fast paths, bit-identical to full simulation."""

    def scenario():
        task = load_task(TASK, iterations=STEADY_SHAPES, seed=0)
        stream = _steady_stream(task)
        _, full, _ = _run_stream(
            task, stream, replay=False, planner_name="dtr"
        )
        _, served, executor = _run_stream(
            task, stream, replay=True, planner_name="dtr"
        )
        return {
            "iterations": served.num_iterations,
            "evicting_iters": sum(1 for s in served.iterations if s.evictions),
            "replay_hits": executor.replay.hits,
            "replay_bypasses": executor.replay.bypasses,
            "compiled_hits": executor.compiled.hits,
            "digest_full": full.digest(),
            "digest_served": served.digest(),
        }

    row = run_once(benchmark, scenario)
    text = render_table(
        [{k: v for k, v in row.items() if not k.startswith("digest")}],
        title="Fast path: eviction-free REACTIVE passes are served",
    )
    save_result(results_dir, "fastpath_reactive", text)
    assert row["replay_hits"] > 0
    assert row["replay_bypasses"] == 0
    assert row["digest_served"] == row["digest_full"]


def bench_fastpath_faulted_equivalence(benchmark, results_dir):
    """Fault/recovery runs bypass replay, flush nothing, stay equivalent."""
    failure_at = 100  # the transient-failure window

    def scenario():
        faults = FaultPlan.parse(
            "frag:start=60,iters=4,bytes=1G;"
            f"alloc:start={failure_at},count=1,min=1M",
            seed=11,
        )
        task = load_task(TASK, iterations=STEADY_SHAPES, seed=0)
        stream = _steady_stream(task)
        earlier: dict = {}  # the records held when the window opens
        prewindow_hits: list = []

        def watch(executor):
            cache = executor.replay
            lookup = cache.lookup

            def tracking_lookup(key):
                record = lookup(key)
                if record is not None and record is earlier.get(key):
                    prewindow_hits.append(key)
                return record

            def at_start(event):
                if event.iteration == failure_at:
                    earlier.update(cache._records)

            cache.lookup = tracking_lookup
            executor.events.subscribe(at_start, IterationStart)

        _, full, _ = _run_stream(task, stream, replay=False, faults=faults)
        _, replayed, executor = _run_stream(
            task, stream, replay=True, faults=faults, observers=(watch,)
        )
        cache = executor.replay
        return {
            "iterations": full.num_iterations,
            "retries": replayed.total_retries,
            "recovered": replayed.recovered_count,
            "replay_hits": cache.hits,
            "bypasses": cache.bypasses,
            "prewindow_hits": len(prewindow_hits),
            "digest_full": full.digest(),
            "digest_replay": replayed.digest(),
        }

    row = run_once(benchmark, scenario)
    text = render_table(
        [{k: v for k, v in row.items() if not k.startswith("digest")}],
        title=(
            "Fast path: fault windows bypass and flush nothing, results "
            "stay identical"
        ),
    )
    save_result(results_dir, "fastpath_faulted", text)
    assert row["digest_replay"] == row["digest_full"]
    # the fault windows were hit ...
    assert row["bypasses"] > 0
    # ... and the records stored before the transient failure serve
    # their worlds after it
    assert row["prewindow_hits"] > 0
