"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the simulator at runtime (nothing
under ``src/`` changes) and records one span per call: which function,
start, end, the enclosing span, and the id of the training iteration the
call belongs to.  Spans are kept in flat arrays while the run executes and
are written out only when the run is over.

A layer's *self time* is the summed duration of its spans minus the part
covered by their child spans, so the layers partition the traced host
time.  Each span also inherits the *tier* of the executor attempt that
contains it (replay, compiled or full simulation; ``outside`` for planning,
data loading and set-up), which is how the ledger shows fast-path and
full-simulation cost side by side.

Observing must not perturb the run: the wrappers pass arguments and return
values through untouched, and the tracer subscribes to nothing on the
event bus, so every ``EventBus.wants`` guard sees the same audience as in
an untraced run.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np

#: Wrapped public functions, as (module, class, methods, layer).  An empty
#: class name wraps module-level functions.  A class entry also wraps the
#: same-named methods of every subclass that defines its own version,
#: unless an earlier entry already claimed that class.
TARGETS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro.experiments.runner", "", ("run_task",), "experiments.runner"),
    ("repro.experiments.tasks", "", ("load_task",), "data"),
    ("repro.data.datasets", "DataLoader", ("peek_sizes", "worst_case_batch"), "data"),
    ("repro.experiments.tasks", "TaskContext", ("fresh_model",), "models"),
    ("repro.models.base", "SegmentedModel", ("profiles",), "models"),
    ("repro.core.planner", "MimosePlanner", ("setup", "plan", "recover"), "core.planner"),
    ("repro.core.plan_cache", "PlanCache", ("get", "put", "clear"), "core.planner"),
    (
        "repro.core.estimator",
        "LightningMemoryEstimator",
        (
            "fit", "fit_base", "predict_all_bytes", "predict_all_times",
            "predict_all_bwd_times", "predict_base",
        ),
        "core.estimator",
    ),
    ("repro.core.lifecycle", "LifecycleController", ("needs_collection", "observe"), "core.lifecycle"),
    ("repro.planners.base", "Planner", ("setup", "plan", "on_oom"), "planners"),
    ("repro.solvers.base", "Solver", ("assign",), "solvers"),
    ("repro.engine.executor", "TrainingExecutor", ("step", "run_iteration"), "engine.executor"),
    ("repro.engine.replay", "ReplayCache", ("key", "lookup", "store", "invalidate"), "engine.replay"),
    # the allocator fingerprint is what a replay key hashes
    ("repro.tensorsim.allocator", "CachingAllocator", ("state_signature",), "engine.replay"),
    ("repro.engine.compiled", "CompiledCache", ("serve", "maybe_certify", "invalidate"), "engine.compiled"),
    (
        "repro.engine.strategies", "ExecutionStrategy",
        ("begin", "run_forward", "run_backward"), "engine.strategies",
    ),
    ("repro.engine.strategies", "StatsBuilder", ("finalize",), "engine.strategies"),
    ("repro.engine.events", "EventBus", ("emit",), "engine.events"),
    ("repro.tensorsim.allocator", "CachingAllocator", ("malloc", "free", "clone"), "tensorsim.allocator"),
)

#: Root layer: the benchmark's own loop plus any work no target covers.
ROOT_LAYER = "bench"
DATA_ITER = "DataLoader.__iter__"

TIERS = ("outside", "full", "compiled", "replay")
_OUTSIDE, _FULL, _COMPILED, _REPLAY = range(len(TIERS))

#: span outcome flags: the call returned None, returned a value, or raised
FLAG_NONE, FLAG_VALUE, FLAG_RAISED = 0, 1, 2


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """Records spans for calls into the simulator's layers.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions, so code outside the ``with`` block
    runs untraced.
    """

    def __init__(self) -> None:
        self.names: list[str] = []  # span kind -> "Owner.function"
        self.layers: list[str] = []  # span kind -> layer
        self.kind: array = array("l")
        self.parent: array = array("l")
        self.iteration: array = array("l")
        self.flag: array = array("b")
        self.start: array = array("d")
        self.end: array = array("d")
        self._stack: list[int] = []
        self._iter = [-1]  # id of the iteration being traced; -1 = none
        self._iter_count = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _kind(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _open(self, kind: int) -> int:
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration.append(self._iter[0])
        self.flag.append(FLAG_NONE)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, flag: int) -> None:
        self.end[idx] = perf_counter()
        self.flag[idx] = flag
        self._stack.pop()

    def span(self, name: str, layer: str = ROOT_LAYER) -> "_Span":
        """A span around a block of the benchmark's own code."""
        return _Span(self, self._kind(name, layer))

    def _wrap(self, fn: Callable, kind: int) -> Callable:
        kinds, parents, iters = self.kind, self.parent, self.iteration
        flags, starts, ends = self.flag, self.start, self.end
        stack, current = self._stack, self._iter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            iters.append(current[0])
            flags.append(FLAG_NONE)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                flags[idx] = FLAG_RAISED
                stack.pop()
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if result is not None:
                flags[idx] = FLAG_VALUE
            return result

        return traced

    def _wrap_run_task(self, fn: Callable, kind: int) -> Callable:
        inner = self._wrap(fn, kind)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # set-up before the first batch belongs to no iteration
            self._iter[0] = -1
            try:
                return inner(*args, **kwargs)
            finally:
                self._iter[0] = -1

        return traced

    def _wrap_iter(self, fn: Callable, kind: int) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(loader):
            batches = fn(loader)
            while True:
                # each batch opens a new iteration id, shared by the
                # loader span and every span of the step that consumes it
                tracer._iter_count += 1
                tracer._iter[0] = tracer._iter_count
                idx = tracer._open(kind)
                try:
                    batch = next(batches)
                except StopIteration:
                    tracer._close(idx, FLAG_NONE)
                    return
                tracer._close(idx, FLAG_VALUE)
                yield batch

        return traced

    # ------------------------------------------------------------- patching

    def _patch(self, owner: object, attr: str, wrapped: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def __enter__(self) -> "Tracer":
        claimed: set[tuple[type, str]] = set()
        for module_name, class_name, methods, layer in TARGETS:
            module = importlib.import_module(module_name)
            if not class_name:
                for attr in methods:
                    kind = self._kind(attr, layer)
                    wrap = self._wrap_run_task if attr == "run_task" else self._wrap
                    self._patch(module, attr, wrap(getattr(module, attr), kind))
                continue
            for cls in _subclasses(getattr(module, class_name)):
                for attr in methods:
                    raw = cls.__dict__.get(attr)
                    if raw is None or (cls, attr) in claimed:
                        continue
                    claimed.add((cls, attr))
                    kind = self._kind(f"{cls.__name__}.{attr}", layer)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(raw.__func__, kind))
                    else:
                        wrapped = self._wrap(raw, kind)
                    self._patch(cls, attr, wrapped)
        datasets = importlib.import_module("repro.data.datasets")
        loader_cls = datasets.DataLoader
        self._patch(
            loader_cls, "__iter__",
            self._wrap_iter(loader_cls.__iter__, self._kind(DATA_ITER, "data")),
        )
        return self

    def __exit__(self, *exc: object) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def kinds_named(self, name: str) -> list[int]:
        return [k for k, n in enumerate(self.names) if n == name]

    def ledger(self) -> "Ledger":
        return Ledger(self)


class _Span:
    def __init__(self, tracer: Tracer, kind: int) -> None:
        self._tracer = tracer
        self._kind = kind
        self._idx = -1

    def __enter__(self) -> "_Span":
        self._idx = self._tracer._open(self._kind)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._idx, FLAG_NONE)


class Ledger:
    """Self time, tiers and per-function samples derived from the spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.names = tracer.names
        self.layer_names = sorted(set(tracer.layers))
        layer_index = {name: i for i, name in enumerate(self.layer_names)}
        self.kind = np.array(tracer.kind, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.flag = np.array(tracer.flag, dtype=np.int8)
        self.start = np.array(tracer.start, dtype=np.float64)
        self.duration = np.array(tracer.end, dtype=np.float64) - self.start
        kind_layer = [layer_index[layer] for layer in tracer.layers]
        self.layer = np.array(kind_layer, dtype=np.int64)[self.kind]
        nested = self.parent >= 0
        child = np.zeros(len(self.kind))
        np.add.at(child, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - child
        self.tier = self._tiers()

    def _mask(self, name: str) -> np.ndarray:
        return np.isin(self.kind, self.tracer.kinds_named(name))

    def _tiers(self) -> np.ndarray:
        """Tier of every span: that of its enclosing executor attempt."""
        attempt = self._mask("TrainingExecutor.run_iteration")
        own = np.where(attempt, _FULL, -1)
        for name, tier in (
            ("ReplayCache.lookup", _REPLAY),
            ("CompiledCache.serve", _COMPILED),
        ):
            served = self._mask(name) & (self.flag == FLAG_VALUE)
            own[self.parent[served]] = tier
        # a parent is recorded before its children, so one forward pass
        # hands every span the tier of its nearest enclosing attempt
        tiers = own.tolist()
        for i, p in enumerate(self.parent.tolist()):
            if tiers[i] < 0:
                tiers[i] = tiers[p] if p >= 0 else _OUTSIDE
        return np.array(tiers, dtype=np.int64)

    # ------------------------------------------------------------- queries

    @property
    def total_s(self) -> float:
        roots = self.parent < 0
        return float(self.duration[roots].sum())

    def calls(self, name: str, *, flag: Optional[int] = None) -> int:
        mask = self._mask(name)
        if flag is not None:
            mask &= self.flag == flag
        return int(mask.sum())

    def inclusive_s(self, *names: str) -> float:
        mask = np.zeros(len(self.kind), dtype=bool)
        for name in names:
            mask |= self._mask(name)
        return float(self.duration[mask].sum())

    def entries(self, name: str) -> np.ndarray:
        """Durations of calls to ``name`` not nested in its own layer."""
        mask = self._mask(name)
        outer = self.parent >= 0
        same = np.zeros(len(self.kind), dtype=bool)
        same[outer] = self.layer[self.parent[outer]] == self.layer[outer]
        return self.duration[mask & ~same]

    def attempt_durations(self, tier: str) -> np.ndarray:
        mask = self._mask("TrainingExecutor.run_iteration")
        return self.duration[mask & (self.tier == TIERS.index(tier))]

    def self_s(self, layer: str) -> float:
        if layer not in self.layer_names:
            return 0.0
        mask = self.layer == self.layer_names.index(layer)
        return float(self.self_time[mask].sum())

    def self_by_tier(self) -> np.ndarray:
        """Self seconds as a (layer, tier) matrix over ``layer_names × TIERS``."""
        sums = np.zeros((len(self.layer_names), len(TIERS)))
        np.add.at(sums, (self.layer, self.tier), self.self_time)
        return sums

    # -------------------------------------------------------------- output

    def tables(self, title: str) -> str:
        """The per-layer self-time table and the tier table, as text."""
        from repro.experiments.report import render_table

        total = self.total_s
        by_tier = self.self_by_tier()
        layer_calls = np.bincount(self.layer, minlength=len(self.layer_names))
        rows = []
        for i, name in enumerate(self.layer_names):
            cells = by_tier[i].tolist()
            own = sum(cells)
            row: dict[str, object] = {
                "layer": name,
                "self_s": own,
                "share": f"{100.0 * own / total:.1f}%" if total else "-",
                "calls": int(layer_calls[i]),
            }
            for tier, seconds in zip(TIERS, cells):
                row[f"{tier}_s"] = seconds
            rows.append(row)
        rows.sort(key=lambda r: -float(r["self_s"]))  # type: ignore[arg-type]
        dominant = rows[0]["layer"] if rows else "-"
        tier_rows = []
        for tier in TIERS[1:]:
            durations = self.attempt_durations(tier)
            tier_rows.append(
                {
                    "tier": tier,
                    "attempts": int(durations.size),
                    "host_s": float(durations.sum()),
                    "share": (
                        f"{100.0 * durations.sum() / total:.1f}%" if total else "-"
                    ),
                    "ms_p50": percentile_ms(durations, 50),
                    "ms_p90": percentile_ms(durations, 90),
                }
            )
        lines = [
            render_table(rows, title=f"{title}: self time by layer and tier"),
            "",
            render_table(tier_rows, title=f"{title}: executor attempts by tier"),
            "",
            f"traced host time: {total:.3f} s over {len(self.kind)} spans; "
            f"dominant layer: {dominant}",
        ]
        return "\n".join(lines)

    def write_spans(self, path: Path) -> None:
        """All spans as gzip CSV; times in microseconds from the first span."""
        origin = float(self.start.min()) if len(self.start) else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(
                ["span", "name", "layer", "start_us", "end_us", "parent",
                 "iteration", "tier"]
            )
            names, layers = self.names, self.tracer.layers
            starts = ((self.start - origin) * 1e6).tolist()
            ends = ((self.start + self.duration - origin) * 1e6).tolist()
            for i, (k, p, it, t) in enumerate(
                zip(self.kind.tolist(), self.parent.tolist(),
                    self.tracer.iteration.tolist(), self.tier.tolist())
            ):
                out.writerow(
                    [i, names[k], layers[k], f"{starts[i]:.3f}",
                     f"{ends[i]:.3f}", p, it, TIERS[t]]
                )


def percentile_ms(durations: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of span durations in milliseconds (0 if none)."""
    return float(np.percentile(durations, q)) * 1e3 if durations.size else 0.0
