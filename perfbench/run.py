"""Benchmark of the Mimose simulator: host throughput and modelled results.

Run from the repository root::

    python3 perfbench/run.py --workload drift-stream --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload fig10-sweep --seed 1 --trace 1
    python3 perfbench/run.py              # every workload, each in a fresh interpreter

With ``--trace 0`` a run measures the end-to-end metrics with tracing off:

1. the timed phase: whole workload passes, one caller in a closed loop,
   until at least ``min_passes`` passes ran and another pass would not
   end within ``--seconds``; host time is CPU time of this process, so
   time slices other tenants of a shared host take are not counted;
2. before each pass, set-up timed from a cold start (task load,
   calibration, budget bounds, model build, planner set-up, executor
   construction) up to the first iteration; the median is ``setup_s``;
3. untimed correctness checks.

With ``--trace 1`` a run times pass 0 untraced, repeats it under the span
tracer, and reports the per-layer metrics; the span ledger and the
self-time table are written to ``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every metric and its
unit is the one ``BENCHMARK.json`` lists.  The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: cold set-ups before each timed pass; the median of all is ``setup_s``
SETUPS_PER_PASS = 3
#: iterations of the first run that the determinism check repeats
DETERMINISM_PREFIX = 20


def _bootstrap() -> dict:
    """Put the simulator on the import path and read the metric catalogue."""
    spec = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec.is_file():
        raise SystemExit(
            f"error: the simulator sources ({SRC}) or {spec.name} are missing; "
            "run from a checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return json.loads(spec.read_text())


def _positive(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _parse(argv: Optional[Sequence[str]], names: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=(*names, "all"), default="all")
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--seconds", type=_positive, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_determinism(workload, seed: int, pass0) -> list[str]:
    """Two repetitions of the first run's prefix against each other and pass 0.

    Both must give the same digests and counters, and their rolling
    digests must equal the timed pass's up to the same iteration.
    """
    from workloads import load, run_point, sub_seed

    task, budgets = load(workload, sub_seed(seed, 0))
    planner, budget, options = workload.points(budgets)[0]
    repeats = [
        run_point(task, planner, budget, options, max_iterations=DETERMINISM_PREFIX)
        for _ in range(2)
    ]
    timed = pass0[0].result.rolling_digests()[:DETERMINISM_PREFIX]
    if (
        repeats[0].fingerprint() != repeats[1].fingerprint()
        or repeats[0].result.rolling_digests() != timed
    ):
        return ["determinism: repeated runs disagree on digests or counters"]
    return []


def check_fast_paths(workload, seed: int, pass0) -> list[str]:
    """Pass 0's fast-path results against a full simulation of a prefix.

    Every run of the pass is re-run untimed for ``check_prefix``
    iterations with the replay and compiled tiers off; its rolling
    digests must equal the fast-path run's, iteration by iteration.
    """
    from workloads import full_simulation, load, run_point, sub_seed

    task, budgets = load(workload, sub_seed(seed, 0))
    failures = []
    for (planner, budget, options), fast in zip(workload.points(budgets), pass0):
        reference = run_point(
            task, planner, budget, options,
            max_iterations=workload.check_prefix,
            observers=(full_simulation,),
        )
        expected = reference.result.rolling_digests()
        got = fast.result.rolling_digests()[: len(expected)]
        if got != expected:
            first = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
            failures.append(
                f"fast paths: {planner}@{budget} diverges from full simulation "
                f"at iteration {first + 1}"
            )
    return failures


# ---------------------------------------------------------------------------
# Timed run (end-to-end metrics)
# ---------------------------------------------------------------------------


def setup_time(workload, seed: int) -> float:
    """CPU seconds of one cold set-up, from task load to the first iteration."""
    from workloads import load, run_point, sub_seed

    gc.collect()
    first_iteration: list[float] = []
    start = process_time()
    task, budgets = load(workload, sub_seed(seed, 0))
    planner, budget, options = workload.points(budgets)[0]
    run_point(
        task, planner, budget, options,
        max_iterations=0,
        observers=(lambda _: first_iteration.append(process_time()),),
    )
    return first_iteration[0] - start


def timed_run(workload, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """(end-to-end metrics, counts, failed checks) of one timed run."""
    from workloads import modelled, run_pass, sub_seed

    setups, passes, cpu = [], [], []
    while len(passes) < workload.min_passes or sum(cpu) + cpu[-1] <= seconds:
        # set-ups are spread over the run, so their median follows the
        # host's speed over the whole run rather than over one second
        setups += [setup_time(workload, seed) for _ in range(SETUPS_PER_PASS)]
        gc.collect()
        start = process_time()
        passes.append(run_pass(workload, sub_seed(seed, len(passes))))
        cpu.append(process_time() - start)

    failures = check_determinism(workload, seed, passes[0])
    failures += check_fast_paths(workload, seed, passes[0])

    totals = modelled([run for runs in passes for run in runs])
    model = modelled([run for runs in passes[: workload.min_passes] for run in runs])
    metrics = {
        "iters_per_s": totals["attempted"] / sum(cpu),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_elems_per_s": model["sim_elems_per_s"],
        "completed_iter_frac": model["completed_iter_frac"],
        "peak_over_budget": model["peak_over_budget"],
    }
    counts = {
        "attempted": totals["attempted"],
        "oom_iterations": totals["oom_iterations"],
        "pass_cpu_s": [round(t, 3) for t in cpu],
        "setup_s": [round(t, 4) for t in setups],
    }
    return metrics, counts, failures


# ---------------------------------------------------------------------------
# Traced run (per-layer metrics)
# ---------------------------------------------------------------------------


def _first_pass(workload, seed: int, tracer=None) -> tuple[list, float]:
    """Pass 0 of the workload and its CPU seconds, traced if ``tracer``."""
    from workloads import run_pass, sub_seed

    gc.collect()
    start = process_time()
    if tracer is None:
        runs = run_pass(workload, sub_seed(seed, 0))
    else:
        with tracer.span("pass"):
            runs = run_pass(workload, sub_seed(seed, 0))
    return runs, process_time() - start


def layer_metrics(ledger, runs, overhead: float) -> dict[str, float]:
    """Per-layer metrics of the traced passes (see README.md)."""
    import numpy as np
    from tracer import FLAG_RAISED, FLAG_VALUE, percentile_ms as ms
    from workloads import modelled

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def summed(key: str) -> int:
        return sum(run.counters.get(key, 0) for run in runs)

    predicts = [
        n for n in ledger.names if n.startswith("LightningMemoryEstimator.predict")
    ]
    plans = ledger.entries("MimosePlanner.plan")
    assigns = np.concatenate(
        [ledger.entries(n) for n in set(ledger.names) if n.endswith(".assign")]
    )
    tiers = {t: ledger.attempt_durations(t) for t in ("replay", "compiled", "full")}
    lookups = ledger.calls("ReplayCache.lookup")
    replay_hits = ledger.calls("ReplayCache.lookup", flag=FLAG_VALUE)
    serves = ledger.calls("CompiledCache.serve")
    compiled_hits = ledger.calls("CompiledCache.serve", flag=FLAG_VALUE)
    cache_gets = ledger.calls("PlanCache.get")
    certifications = summed("compiled_certifications")
    rejects = summed("compiled_rejects")
    model = modelled(runs)
    metrics = {
        "data.batches": ledger.calls("DataLoader.__iter__", flag=FLAG_VALUE),
        "models.profile_calls": ledger.calls("SegmentedModel.profiles"),
        "core.planner.plan_calls": len(plans),
        "core.planner.plan_ms_p50": ms(plans, 50),
        "core.planner.plan_ms_p90": ms(plans, 90),
        "core.planner.plan_cache_hit_ratio": ratio(
            ledger.calls("PlanCache.get", flag=FLAG_VALUE), cache_gets
        ),
        "core.estimator.fit_calls": ledger.calls("LightningMemoryEstimator.fit"),
        "core.estimator.fit_s": ledger.inclusive_s(
            "LightningMemoryEstimator.fit", "LightningMemoryEstimator.fit_base"
        ),
        "core.estimator.predict_calls": sum(len(ledger.entries(n)) for n in predicts),
        "core.estimator.predict_s": ledger.inclusive_s(*predicts),
        "solvers.assign_calls": len(assigns),
        "solvers.assign_ms_p90": ms(assigns, 90),
        "engine.replay.lookups": lookups,
        "engine.replay.hits": replay_hits,
        "engine.replay.hit_ratio": ratio(replay_hits, lookups),
        "engine.replay.bypasses": summed("replay_bypasses"),
        "engine.replay.invalidations": summed("replay_invalidations"),
        "engine.replay.key_s": ledger.inclusive_s(
            "ReplayCache.key", "CachingAllocator.state_signature"
        ),
        "engine.replay.iter_ms_p50": ms(tiers["replay"], 50),
        "engine.replay.iter_ms_p90": ms(tiers["replay"], 90),
        "engine.compiled.serves": serves,
        "engine.compiled.hits": compiled_hits,
        "engine.compiled.hit_ratio": ratio(compiled_hits, serves),
        "engine.compiled.fallbacks": summed("compiled_fallbacks"),
        "engine.compiled.serve_s": ledger.inclusive_s("CompiledCache.serve"),
        "engine.compiled.iter_ms_p50": ms(tiers["compiled"], 50),
        "engine.compiled.iter_ms_p90": ms(tiers["compiled"], 90),
        "engine.compiled.certify_calls": ledger.calls("CompiledCache.maybe_certify"),
        "engine.compiled.certifications": certifications,
        "engine.compiled.rejects": rejects,
        "engine.compiled.certify_yield": ratio(certifications, certifications + rejects),
        "engine.compiled.certify_s": ledger.inclusive_s("CompiledCache.maybe_certify"),
        "engine.strategies.full_iters": len(tiers["full"]),
        "engine.strategies.iter_ms_p50": ms(tiers["full"], 50),
        "engine.strategies.iter_ms_p90": ms(tiers["full"], 90),
        "engine.events.emits": ledger.calls("EventBus.emit"),
        "tensorsim.allocator.mallocs": ledger.calls("CachingAllocator.malloc"),
        "tensorsim.allocator.frees": ledger.calls("CachingAllocator.free"),
        "tensorsim.allocator.ooms": ledger.calls(
            "CachingAllocator.malloc", flag=FLAG_RAISED
        ),
        "experiments.runner.points": ledger.calls("run_task"),
        "trace.overhead_frac": overhead,
    }
    for layer in ledger.layer_names:
        metrics[f"{layer}.self_s"] = ledger.self_s(layer)
    metrics.update(
        {k: v for k, v in model.items() if k.startswith(("sim.", "core.lifecycle."))}
    )
    return metrics


def traced_run(workload, seed: int) -> tuple[dict, dict, list[str]]:
    """(per-layer metrics, counts, failed checks) of one traced run."""
    from tracer import Tracer

    untraced, untraced_s = _first_pass(workload, seed)
    with Tracer() as tracer:
        runs, traced_s = _first_pass(workload, seed, tracer)

    failures = []
    if [r.fingerprint() for r in runs] != [r.fingerprint() for r in untraced]:
        failures.append("tracing: the traced run's digests or counters differ")
    failures += check_fast_paths(workload, seed, untraced)

    ledger = tracer.ledger()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{seed}"
    table = ledger.tables(f"{workload.name} (seed {seed})")
    Path(f"{stem}.ledger.txt").write_text(table + "\n")
    ledger.write_spans(Path(f"{stem}.spans.csv.gz"))
    print(table)
    print(f"ledger: {stem}.ledger.txt, spans: {stem}.spans.csv.gz")

    metrics = layer_metrics(ledger, runs, overhead=1.0 - untraced_s / traced_s)
    counts = {
        "attempted": sum(len(run.result.iterations) for run in runs),
        "oom_iterations": sum(run.result.oom_count for run in runs),
    }
    return metrics, counts, failures


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _report(catalogue: list[dict], values: dict[str, float]) -> dict[str, dict]:
    """Every catalogued metric with its unit; a missing one is an error."""
    missing = [m["name"] for m in catalogue if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in catalogue
    }


def _run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Every workload, each in a fresh interpreter (per-workload peak RSS)."""
    status = 0
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status |= subprocess.run(command, check=False).returncode
    return status


def main(argv: Optional[Sequence[str]] = None, workloads: Optional[dict] = None) -> int:
    # The simulator is single-threaded; idle BLAS worker threads would
    # only compete with it for the cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    spec = _bootstrap()
    from workloads import WORKLOADS, sub_seed

    table = WORKLOADS if workloads is None else workloads
    args = _parse(argv, list(table))
    if args.workload == "all":
        return _run_all(args, list(table))
    workload = table[args.workload]
    print(
        f"workload {workload.name}: seed {args.seed} (loader seeds "
        f"{sub_seed(args.seed, 0)}, {sub_seed(args.seed, 1)}, ...), "
        f"trace {args.trace}"
    )
    if args.trace:
        values, counts, failures = traced_run(workload, args.seed)
        catalogue = spec["per_layer"]
    else:
        values, counts, failures = timed_run(workload, args.seed, args.seconds)
        catalogue = spec["end_to_end"]
    metrics = _report(catalogue, values)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  counts: {json.dumps(counts)}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    # Every attempted iteration was simulated: an iteration that runs out
    # of simulated memory is a modelled result (completed_iter_frac), and a
    # simulator error ends the run before any result is printed.
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": counts["attempted"],
                "failed": 0,
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
