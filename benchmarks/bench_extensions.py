"""Extension benchmarks beyond the paper's headline experiments.

* **hybrid swap/recompute** — quantifies §II's dismissal of swapping:
  under input dynamics a Capuchin-style hybrid is fast only because it
  stops honouring the budget, while transfers that cannot finish in time
  silently degrade to keeping tensors resident;
* **adaptive estimator margin** — the paper's stated future work
  (§IV-C): a conformal residual margin replaces most of the fixed
  fragmentation reserve, shown on the content-dependent OD task.
"""

from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.engine.stats import RunResult
from repro.experiments.report import render_table
from repro.experiments.runner import run_task
from repro.experiments.tasks import GB, load_task

from conftest import run_once, save_result


def bench_hybrid_swapping(benchmark, results_dir):
    def sweep():
        task = load_task("TC-Bert", iterations=100, seed=31)
        budget = int(3.5 * GB)
        base = run_task(task, "baseline", 8 * GB)
        rows = []
        for name in ("sublinear", "capuchin", "mimose"):
            r = run_task(task, name, budget)
            rows.append(
                {
                    "planner": name,
                    "normalized_time": r.normalized_time(base),
                    "peak_used_gb": r.peak_in_use / GB,
                    "respects_budget": r.peak_reserved <= budget,
                    "swap_stall_ms": 1e3
                    * sum(s.swap_stall_time for s in r.iterations),
                    "max_swapped_units": max(
                        (s.num_swapped for s in r.iterations), default=0
                    ),
                    "ooms": r.oom_count,
                }
            )
        return rows, budget

    rows, budget = run_once(benchmark, sweep)
    text = render_table(
        rows, title=f"Extension: hybrid swapping vs checkpointing @ {budget / GB:.1f} GB"
    )
    save_result(results_dir, "ext_hybrid_swapping", text)
    by = {r["planner"]: r for r in rows}
    # the hybrid swaps, but only Mimose is both fast and budget-honest
    assert by["capuchin"]["max_swapped_units"] > 0
    assert by["mimose"]["respects_budget"]
    assert not by["capuchin"]["respects_budget"]
    assert by["mimose"]["normalized_time"] < by["sublinear"]["normalized_time"]


def bench_adaptive_margin(benchmark, results_dir):
    def sweep():
        rows = []
        for label, kwargs in (
            ("fixed reserve (10%)", {}),
            (
                "adaptive margin + small reserve",
                {"adaptive_margin": True, "headroom_bytes": 256 * 1024**2},
            ),
        ):
            task = load_task("OD-R50", iterations=60, seed=32)
            lb, _ = task.memory_bounds()
            budget = int(lb * 1.35)
            model = task.model
            planner = MimosePlanner(budget, **kwargs)
            ex = TrainingExecutor(model, planner, capacity_bytes=budget)
            result = RunResult(task.spec.abbr, label, budget)
            for batch in task.loader:
                result.append(ex.step(batch))
            rows.append(
                {
                    "configuration": label,
                    "budget_gb": budget / GB,
                    "total_time_s": result.total_time,
                    "peak_gb": result.peak_in_use / GB,
                    "utilisation": result.peak_in_use / budget,
                    "est_margin_pct": 100 * planner.residuals.margin()
                    if planner.adaptive_margin
                    else float("nan"),
                    "frag_reserve_gb": planner.frag_observed.value() / GB
                    if planner.adaptive_margin
                    else float("nan"),
                    "ooms": result.oom_count,
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    text = render_table(
        rows, title="Extension: adaptive estimator margin (OD-R50)"
    )
    save_result(results_dir, "ext_adaptive_margin", text)
    fixed, adaptive = rows
    assert adaptive["ooms"] == 0
    # the learned margin lets Mimose run closer to the budget
    assert adaptive["utilisation"] >= fixed["utilisation"] - 0.02


def bench_amp_mixed_precision(benchmark, results_dir):
    """Extension: fp16 activations halve the memory the planner manages.

    Same TC-Bert stream, same budget: the AMP model trains with little or
    no checkpointing where the fp32 model must recompute heavily.
    """

    def sweep():
        from repro.models.registry import build_model

        budget = int(3.5 * GB)
        rows = []
        for name in ("bert-base", "bert-base-amp"):
            task = load_task("TC-Bert", iterations=80, seed=33)
            model = build_model(name)
            planner = MimosePlanner(budget)
            ex = TrainingExecutor(model, planner, capacity_bytes=budget)
            result = RunResult("TC-Bert", name, budget)
            for batch in task.loader:
                result.append(ex.step(batch))
            responsive = [s for s in result.iterations if s.mode == "normal"]
            rows.append(
                {
                    "model": name,
                    "total_time_s": result.total_time,
                    "recompute_s": result.time_breakdown()["recompute_time"],
                    "mean_ckpt_units": sum(
                        s.num_checkpointed for s in responsive
                    ) / max(len(responsive), 1),
                    "peak_gb": result.peak_in_use / GB,
                    "ooms": result.oom_count,
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    text = render_table(
        rows, title="Extension: fp32 vs AMP under the same 3.5 GB budget"
    )
    save_result(results_dir, "ext_amp", text)
    fp32, amp = rows
    assert amp["ooms"] == fp32["ooms"] == 0
    assert amp["recompute_s"] < fp32["recompute_s"]
    assert amp["mean_ckpt_units"] < fp32["mean_ckpt_units"]


def bench_segment_memory_floor(benchmark, results_dir):
    """Extension: segment-level (Chen et al.) vs per-unit memory floors.

    Scans every balanced segmentation per architecture.  Finding: at
    block granularity, grouping lowers the floor only for *pre-norm*
    blocks (GPT-2), whose internal saved sets are small relative to
    their boundaries; post-norm BERT and the CNNs gain nothing because
    the group-recompute working set eats the boundary savings.
    """

    def sweep():
        from repro.models.base import BatchInput
        from repro.models.registry import build_model
        from repro.planners.analysis import full_checkpoint_peak
        from repro.planners.base import ModelView
        from repro.planners.segmented import minimum_memory_plan
        from repro.tensorsim.dtypes import FLOAT32, INT64

        cases = [
            ("bert-base", (16, 256), INT64),
            ("gpt2-small", (8, 512), INT64),
            ("t5-base", (8, 256), INT64),
            ("resnet50-det", (4, 3, 640, 640), FLOAT32),
            ("swin-tiny", (8, 3, 224, 224), FLOAT32),
        ]
        rows = []
        for name, shape, dtype in cases:
            model = build_model(name)
            view = ModelView(model)
            batch = BatchInput(shape, dtype)
            unit_floor = full_checkpoint_peak(
                view.profiles(batch),
                static_bytes=view.static_memory.total,
                input_nbytes=batch.nbytes,
                checkpointable=view.checkpointable,
            )
            plan, seg_floor = minimum_memory_plan(view, batch)
            rows.append(
                {
                    "model": name,
                    "unit_floor_gb": unit_floor / GB,
                    "segment_floor_gb": seg_floor / GB,
                    "gain_pct": 100 * (1 - seg_floor / unit_floor),
                    "best_segmentation": str(
                        [len(s) for s in plan.assignment.segments][:10]
                    ),
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    text = render_table(
        rows, title="Extension: segment-level vs per-unit memory floors"
    )
    save_result(results_dir, "ext_segment_floor", text)
    by = {r["model"]: r for r in rows}
    assert by["gpt2-small"]["gain_pct"] > 1.0  # pre-norm blocks gain
    for name in ("bert-base", "resnet50-det", "swin-tiny"):
        assert by[name]["gain_pct"] >= -1e-9  # never worse than per-unit
