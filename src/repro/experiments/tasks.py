"""The six training tasks of Table II.

| Abbr.      | Task                | Dataset  | Model     | Batch |
|------------|---------------------|----------|-----------|-------|
| MC-Roberta | Multiple Choice     | SWAG     | Roberta-B | 16    |
| TR-T5      | Translation         | UN_PC    | T5        | 8     |
| QA-Bert    | Question Answering  | SQuAD    | Bert-B    | 12    |
| TC-Bert    | Text Classification | GLUE-QQP | Bert-B    | 32    |
| OD-R50     | Object Detection    | COCO     | ResNet50  | 8     |
| OD-R101    | Object Detection    | COCO     | ResNet101 | 6     |

A :class:`TaskContext` bundles everything a run needs: the task's shared
model, the seeded data loader, the worst-case batch (for static planners),
and calibration percentiles of the input-size distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.datasets import DataLoader, apply_drift_scenario, make_dataset
from repro.models.base import BatchInput, SegmentedModel
from repro.models.registry import build_model
from repro.planners.analysis import full_checkpoint_peak, no_checkpoint_peak
from repro.planners.base import ModelView

GB = 1024**3


@dataclass(frozen=True)
class TaskSpec:
    """Static description of one Table II task."""

    abbr: str
    task: str
    dataset: str
    model: str
    batch_size: int
    #: whether the static planners' assumed shape is the worst case (NLP)
    #: or a calibration percentile (OD — their static graphs cannot follow
    #: MMDetection's variable shapes, hence the budget overshoot in Fig 10)
    static_plan_for_worst_case: bool = True


TASKS: dict[str, TaskSpec] = {
    "MC-Roberta": TaskSpec(
        "MC-Roberta", "Multiple Choice", "swag", "roberta-base", 16
    ),
    "TR-T5": TaskSpec("TR-T5", "Translation", "un_pc", "t5-base", 8),
    "QA-Bert": TaskSpec("QA-Bert", "Question Answering", "squad", "bert-base", 12),
    "TC-Bert": TaskSpec(
        "TC-Bert", "Text Classification", "glue-qqp", "bert-base", 32
    ),
    "OD-R50": TaskSpec(
        "OD-R50", "Object Detection", "coco", "resnet50-det", 8,
        static_plan_for_worst_case=False,
    ),
    "OD-R101": TaskSpec(
        "OD-R101", "Object Detection", "coco", "resnet101-det", 6,
        static_plan_for_worst_case=False,
    ),
    # Extension task (not in the paper's Table II): causal language
    # modelling with document-length dynamics.
    "LM-GPT2": TaskSpec("LM-GPT2", "Language Modeling", "webtext", "gpt2-small", 8),
}


@dataclass
class TaskContext:
    """Everything needed to run one task.

    ``model`` is shared by every run of the task, so each input shape is
    traced, sized and timed once per task: it is never written to after
    it is built, and what it memoises is a pure function of the input
    shape (see :class:`~repro.models.base.SegmentedModel`).
    """

    spec: TaskSpec
    loader: DataLoader
    worst_case: BatchInput
    model: SegmentedModel = field(repr=False)
    calibration: list[BatchInput] = field(repr=False, default_factory=list)

    def percentile_batch(self, q: float) -> BatchInput:
        """Calibration batch at quantile ``q`` of input size."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        ordered = sorted(self.calibration, key=lambda b: b.input_size)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def assumed_static_batch(self) -> BatchInput:
        """The shape static planners (Checkmate/MONeT) were solved for."""
        if self.spec.static_plan_for_worst_case:
            return self.worst_case
        return self.percentile_batch(0.95)

    def memory_bounds(self) -> tuple[int, int]:
        """(lower, upper) peak bytes at the worst-case input — the Fig 10
        "*" markers: full checkpointing vs no checkpointing."""
        view = ModelView(self.model)
        profiles = view.profiles(self.worst_case)
        lb = full_checkpoint_peak(
            profiles,
            static_bytes=view.static_memory.total,
            input_nbytes=self.worst_case.nbytes,
            checkpointable=view.checkpointable,
        )
        ub = no_checkpoint_peak(
            profiles,
            static_bytes=view.static_memory.total,
            input_nbytes=self.worst_case.nbytes,
        )
        return lb, ub

    def default_budgets(self, count: int = 4) -> list[int]:
        """An evenly spaced budget sweep over the memory-constrained regime
        (between the full-checkpoint floor and 85 % of the no-checkpoint
        peak — the paper's budgets likewise sit strictly below the
        worst-case unconstrained footprint)."""
        lb, ub = self.memory_bounds()
        lo = int(lb * 1.25)
        hi = int(ub * 0.85)
        if count == 1 or hi <= lo:
            return [max(lo, hi)]
        step = (hi - lo) / (count - 1)
        return [int(lo + i * step) for i in range(count)]


def load_task(
    abbr: str,
    *,
    iterations: int = 100,
    seed: int = 0,
    calibration_samples: int = 200,
    drift_scenario: str | None = None,
) -> TaskContext:
    """Build the :class:`TaskContext` for a Table II abbreviation.

    ``drift_scenario`` names one of
    :data:`repro.data.datasets.DRIFT_SCENARIOS` to rewrite the preset's
    input-size samplers into a non-stationary trajectory spanning the
    run (``--drift-scenario`` on the CLI); ``None`` keeps the paper's
    stationary Table II distributions.
    """
    try:
        spec = TASKS[abbr]
    except KeyError:
        raise KeyError(f"unknown task {abbr!r}; available: {sorted(TASKS)}") from None
    dataset = make_dataset(spec.dataset)
    if drift_scenario is not None:
        dataset = apply_drift_scenario(dataset, drift_scenario, iterations)
    loader = DataLoader(dataset, spec.batch_size, iterations, seed=seed)
    return TaskContext(
        spec=spec,
        loader=loader,
        worst_case=loader.worst_case_batch(),
        model=build_model(spec.model),
        calibration=loader.peek_sizes(calibration_samples),
    )
