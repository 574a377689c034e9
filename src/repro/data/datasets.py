"""Synthetic datasets and the collating data loader.

Each dataset preset is calibrated to the corresponding corpus in the
paper's Table II / Fig 3: the *collated* batch sequence lengths span the
reported ranges (SWAG 35–141, SQuAD 153–512, GLUE-QQP 30–332,
UN_PC 17–460) with the reported distribution families.  COCO images pass
through the multi-scale resize augmentation and are padded to the batch
maximum in each dimension, exactly like MMDetection's collate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro.data.augment import MultiScaleResize, TokenizerSim, pad_and_truncate
from repro.data.distributions import (
    BucketRotationSampler,
    CurriculumSampler,
    PowerLawSampler,
    RegimeSwitchSampler,
    Sampler,
    TruncatedNormalSampler,
    UniformSampler,
)
from repro.models.base import BatchInput
from repro.tensorsim.dtypes import FLOAT32, INT64


@dataclass(frozen=True)
class SyntheticTextDataset:
    """Token-length-only view of a text corpus.

    Attributes:
        name: corpus label.
        length_sampler: per-sample *word* count distribution.
        tokenizer: word→token expansion model.
        max_length: truncation cap applied at collation.
        num_choices: samples per example that are flattened into the batch
            (4 for SWAG-style multiple choice, 1 otherwise) — multiple
            choice multiplies the effective batch dimension.
    """

    name: str
    length_sampler: Sampler
    tokenizer: TokenizerSim = TokenizerSim()
    max_length: int = 512
    num_choices: int = 1
    #: intra-batch length correlation: real pipelines group samples of
    #: similar length (sorted shards, topical batches), which is what lets
    #: the *collated* length vary as widely as Fig 3 shows.  0 = i.i.d.
    #: samples; 1 = every sample shares the batch's base length.
    length_correlation: float = 0.8

    def sample_token_length(
        self, rng: np.random.Generator, base_words: int | None = None
    ) -> int:
        words = self.length_sampler.sample(rng)
        if base_words is not None and self.length_correlation > 0:
            c = self.length_correlation
            words = int(round(c * base_words + (1.0 - c) * words))
        return self.tokenizer.tokenize_length(max(words, 1), rng)

    def sample_base_words(self, rng: np.random.Generator) -> int:
        return self.length_sampler.sample(rng)

    def max_token_length(self) -> int:
        """Upper bound on a collated length (for static planners)."""
        _, hi = self.length_sampler.support
        # worst case expansion: mean + 4 sigma, then the truncation cap
        worst = int(round(hi * (self.tokenizer.expansion_mean + 4 * self.tokenizer.expansion_std)))
        return min(worst + self.tokenizer.special_tokens, self.max_length)

    def samplers(self) -> tuple[Sampler, ...]:
        """The samplers the loader must position before each iteration."""
        return (self.length_sampler,)


@dataclass(frozen=True)
class SyntheticCocoDataset:
    """Image-dimension-only view of a detection corpus."""

    name: str
    height_sampler: Sampler
    width_sampler: Sampler
    resize: MultiScaleResize = MultiScaleResize()

    def sample_hw(self, rng: np.random.Generator) -> tuple[int, int]:
        h = self.height_sampler.sample(rng)
        w = self.width_sampler.sample(rng)
        return self.resize.resize(h, w, rng)

    def max_hw(self) -> tuple[int, int]:
        return self.resize.worst_case()

    def samplers(self) -> tuple[Sampler, ...]:
        """The samplers the loader must position before each iteration."""
        return (self.height_sampler, self.width_sampler)


class DataLoader:
    """Collates per-sample shapes into per-iteration :class:`BatchInput`s.

    Deterministic given the seed; ``peek_sizes`` lets offline planners
    sample the input-size distribution without consuming loader state
    (the paper's static baselines got to profile the dataset offline).
    Samplers are positioned absolutely, so the stream is a pure function
    of the seed: the first complete pass draws it, and later passes
    replay it.
    """

    def __init__(
        self,
        dataset: SyntheticTextDataset | SyntheticCocoDataset,
        batch_size: int,
        num_iterations: int,
        *,
        seed: int = 0,
    ) -> None:
        if batch_size < 1 or num_iterations < 1:
            raise ValueError("batch_size and num_iterations must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.num_iterations = num_iterations
        self.seed = seed
        self._stream: tuple[BatchInput, ...] | None = None

    def _collate(self, rng: np.random.Generator) -> BatchInput:
        ds = self.dataset
        if isinstance(ds, SyntheticTextDataset):
            base = ds.sample_base_words(rng)
            lengths = [
                ds.sample_token_length(rng, base) for _ in range(self.batch_size)
            ]
            padded = pad_and_truncate(lengths, ds.max_length)
            rows = self.batch_size * ds.num_choices
            return BatchInput((rows, padded), INT64)
        heights, widths = [], []
        for _ in range(self.batch_size):
            h, w = ds.sample_hw(rng)
            heights.append(h)
            widths.append(w)
        return BatchInput(
            (self.batch_size, 3, max(heights), max(widths)), FLOAT32
        )

    def __iter__(self) -> Iterator[BatchInput]:
        if self._stream is not None:
            yield from self._stream
            return
        rng = np.random.default_rng(self.seed)
        samplers = self.dataset.samplers()
        stream = []
        for i in range(self.num_iterations):
            for s in samplers:
                s.advance(i)
            stream.append(self._collate(rng))
            yield stream[-1]
        self._stream = tuple(stream)  # a pass stopped early keeps nothing

    def __len__(self) -> int:
        return self.num_iterations

    def peek_sizes(self, n: int = 256, *, seed_offset: int = 10_000) -> list[BatchInput]:
        """Sample n batches from a disjoint stream (offline calibration).

        Non-stationary samplers are walked through the same absolute
        positions ``0..n-1`` as a real epoch, so the peek stream covers
        the drift trajectory; positioning is absolute, so a subsequent
        ``__iter__`` is unaffected.
        """
        rng = np.random.default_rng(self.seed + seed_offset)
        samplers = self.dataset.samplers()
        batches = []
        for i in range(n):
            for s in samplers:
                s.advance(i)
            batches.append(self._collate(rng))
        return batches

    def worst_case_batch(self) -> BatchInput:
        """The largest batch the pipeline can emit (for static planners)."""
        ds = self.dataset
        if isinstance(ds, SyntheticTextDataset):
            rows = self.batch_size * ds.num_choices
            return BatchInput((rows, ds.max_token_length()), INT64)
        h, w = ds.max_hw()
        return BatchInput((self.batch_size, 3, max(h, w), max(h, w)), FLOAT32)


# ---------------------------------------------------------------------------
# Table II / Fig 3 presets
# ---------------------------------------------------------------------------

def _swag() -> SyntheticTextDataset:
    # Multiple choice: short contexts; collated lengths ~35-141
    return SyntheticTextDataset(
        name="swag",
        length_sampler=TruncatedNormalSampler(mean=50, std=22, lo=18, hi=104),
        max_length=141,
        num_choices=4,
    )


def _squad() -> SyntheticTextDataset:
    # QA over paragraphs: long contexts, truncated at 512; lengths ~153-512
    return SyntheticTextDataset(
        name="squad",
        length_sampler=TruncatedNormalSampler(mean=190, std=75, lo=110, hi=420),
        max_length=512,
    )


def _glue_qqp() -> SyntheticTextDataset:
    # Question pairs: short-biased power law; lengths ~30-332
    return SyntheticTextDataset(
        name="glue-qqp",
        length_sampler=PowerLawSampler(alpha=2.6, lo=18, hi=250),
        max_length=332,
    )


def _un_pc() -> SyntheticTextDataset:
    # Parallel corpus sentences: heavy tail; lengths ~17-460
    return SyntheticTextDataset(
        name="un_pc",
        length_sampler=PowerLawSampler(alpha=1.9, lo=10, hi=350),
        max_length=460,
    )


def _webtext() -> SyntheticTextDataset:
    # Document stream for causal LM: long heavy tail, truncated at 1024.
    return SyntheticTextDataset(
        name="webtext",
        length_sampler=PowerLawSampler(alpha=1.7, lo=30, hi=780),
        max_length=1024,
    )


def _coco() -> SyntheticCocoDataset:
    # Raw COCO images cluster around 640x480 with varied aspect ratios.
    return SyntheticCocoDataset(
        name="coco",
        height_sampler=UniformSampler(360, 640),
        width_sampler=UniformSampler(480, 640),
    )


_PRESETS = {
    "webtext": _webtext,
    "swag": _swag,
    "squad": _squad,
    "glue-qqp": _glue_qqp,
    "un_pc": _un_pc,
    "coco": _coco,
}


def available_datasets() -> list[str]:
    return sorted(_PRESETS)


def make_dataset(name: str) -> SyntheticTextDataset | SyntheticCocoDataset:
    """Construct a dataset preset by Table II name."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {available_datasets()}"
        ) from None


# ---------------------------------------------------------------------------
# Drift scenarios — non-stationary rewrites of a preset's samplers
# ---------------------------------------------------------------------------

#: scenario names accepted by ``repro run/sweep --drift-scenario``
DRIFT_SCENARIOS = ("regime-switch", "curriculum", "bucket-rotation")


def _drift_sampler(base: Sampler, scenario: str, iterations: int) -> Sampler:
    """Wrap one stationary sampler into the named drift trajectory.

    Every scenario starts confined to the *lower* part of the base
    support and later visits the upper part, so a model fitted on the
    early window faces genuine extrapolation once the drift lands —
    the regime the lifecycle controller exists to survive.
    """
    lo, hi = base.support
    span = hi - lo
    if span < 3:
        raise ValueError(
            f"support [{lo}, {hi}] is too narrow for a drift scenario"
        )
    third = max(1, span // 3)
    if scenario == "regime-switch":
        return RegimeSwitchSampler(
            [
                (0, UniformSampler(lo, lo + third)),
                (max(1, iterations // 2), UniformSampler(hi - third, hi)),
            ]
        )
    if scenario == "curriculum":
        quarter = max(1, span // 4)
        return CurriculumSampler(
            UniformSampler(lo, lo + quarter),
            UniformSampler(hi - quarter, hi),
            ramp_iterations=max(1, iterations),
        )
    if scenario == "bucket-rotation":
        mid = lo + span // 2
        return BucketRotationSampler(
            [
                UniformSampler(lo, lo + third),
                UniformSampler(mid - third // 2, mid + third // 2),
                UniformSampler(hi - third, hi),
            ],
            period=max(1, iterations // 6),
        )
    raise KeyError(
        f"unknown drift scenario {scenario!r}; available: {DRIFT_SCENARIOS}"
    )


def apply_drift_scenario(
    dataset: SyntheticTextDataset | SyntheticCocoDataset,
    scenario: str,
    iterations: int,
) -> SyntheticTextDataset | SyntheticCocoDataset:
    """Rewrite a preset's samplers into the named non-stationary scenario.

    Returns a new dataset (the presets are frozen dataclasses); the
    drift trajectory spans ``iterations`` loader steps.
    """
    if isinstance(dataset, SyntheticTextDataset):
        return replace(
            dataset,
            length_sampler=_drift_sampler(
                dataset.length_sampler, scenario, iterations
            ),
        )
    return replace(
        dataset,
        height_sampler=_drift_sampler(
            dataset.height_sampler, scenario, iterations
        ),
        width_sampler=_drift_sampler(
            dataset.width_sampler, scenario, iterations
        ),
    )
