"""Typed iteration events and the executor's event bus.

The execution engine publishes what happens in an iteration as typed
events on an :class:`EventBus` owned by the executor
(``executor.events``).  The bus only observes: the engine decides
nothing from it.  Stats, fault windows and planner feedback are direct
calls, so a subscriber sees what runs and never changes it.
Consumers such as the :class:`~repro.engine.trace.MemoryTimeline`,
benchmarks, examples and tracing exporters attach without touching the
executor:

    executor = TrainingExecutor(model, planner, capacity_bytes=budget)
    executor.events.subscribe(lambda e: peaks.append(e.bytes_in_use),
                              UnitForward)

Delivery contract:

* events are delivered synchronously, on the simulation "thread", at the
  exact simulated timestamp they describe (``clock.now`` is consistent
  with the event's ``time`` field where one exists);
* handlers run in **subscription order** — a handler subscribed earlier
  always observes an event before one subscribed later, regardless of
  whether either subscribed to the specific type or to all events;
* handlers must not mutate the executor; they are observers.

Hot-path discipline: constructing an event nobody listens to is wasted
work, so publishers guard every per-unit, per-charge and per-tensor
event with :meth:`EventBus.wants` (replint's ``guard-dominance`` rule
lists them).  Only the per-iteration events are always published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.stats import IterationStats, UnitMeasurement


# ---------------------------------------------------------------------------
# Event types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IterationStart:
    """A new iteration is about to run (emitted before replay lookup)."""

    iteration: int
    mode: str  # ExecutionMode.value
    plan_label: str
    input_size: int


@dataclass(frozen=True, slots=True)
class UnitForward:
    """One unit's forward pass (and its post-forward plan action) finished."""

    iteration: int
    unit: str
    time: float  # simulated clock at emission
    bytes_in_use: int
    bytes_reserved: int
    fwd_time: float
    checkpointed: bool  # dropped after forward (incl. segment members)


@dataclass(frozen=True, slots=True)
class UnitBackward:
    """One unit's backward pass (incl. any recompute) finished."""

    iteration: int
    unit: str
    time: float
    bytes_in_use: int
    bytes_reserved: int


@dataclass(frozen=True, slots=True)
class TimeCharged:
    """Simulated seconds charged to one stats component.

    ``component`` is one of ``fwd``, ``bwd``, ``recompute``, ``collect``,
    ``upkeep``, ``optimizer``, ``swap_stall``, ``eviction_search``.
    ``unit`` is the index into ``model.units`` of the unit the time is
    spent on, or None for the optimizer step and the eviction search.
    Published (when someone listens) by
    :meth:`~repro.engine.strategies.IterationContext.charge`, which
    itself folds the charge into the iteration's breakdown and logs it
    for the compiled tier's certifier.
    """

    component: str
    seconds: float
    unit: Optional[int] = None


@dataclass(frozen=True, slots=True)
class MeasurementTaken:
    """The shuttling collector measured one unit (COLLECT mode).

    ``measurement`` is the simulated one: measurement noise, if a fault
    plan injects it, is applied after the pass, to the measurements the
    planner observes (:meth:`~repro.engine.executor.TrainingExecutor
    .run_iteration`).
    """

    iteration: int
    measurement: "UnitMeasurement"


@dataclass(frozen=True, slots=True)
class BackwardMeasured:
    """The sheltered backward pass timed one unit (COLLECT mode).

    Emitted per checkpointable unit by the COLLECT strategy's backward,
    after the unit's backward compute has been charged to the simulated
    clock and ``seconds`` stamped onto the unit's
    :class:`~repro.engine.stats.UnitMeasurement`, completing the
    (bytes, forward, backward) sample the shuttling collector
    accumulates.
    """

    iteration: int
    unit: str
    seconds: float


@dataclass(frozen=True, slots=True)
class TensorAlloc:
    """An activation tensor was materialized."""

    iteration: int
    nbytes: int
    owner: str
    time: float


@dataclass(frozen=True, slots=True)
class TensorEvicted:
    """A reactive planner evicted one unit's activations."""

    iteration: int
    unit: str
    nbytes: int
    time: float


@dataclass(frozen=True, slots=True)
class SwapOut:
    """A unit's activations were scheduled onto the PCIe copy engine."""

    iteration: int
    unit: str
    nbytes: int
    #: when the transfer completes, in simulated seconds after the
    #: iteration's first charge (the copy engine's clock)
    done: float


@dataclass(frozen=True, slots=True)
class SwapIn:
    """An offloaded unit's activations started prefetching back."""

    iteration: int
    unit: str
    nbytes: int
    done: float  # as SwapOut.done


@dataclass(frozen=True, slots=True)
class OomHit:
    """The iteration ran out of memory and is being unwound."""

    iteration: int
    time: float


@dataclass(frozen=True, slots=True)
class RecoveryRung:
    """The recovery ladder produced a retry decision for a failed iteration."""

    iteration: int
    attempt: int  # 0-based retry counter
    mode: str  # e.g. "replan", "widen-reserve", "full-checkpoint"


@dataclass(frozen=True, slots=True)
class ReplayHit:
    """The iteration was served from the replay cache (not simulated)."""

    iteration: int
    base_time: float  # simulated clock after the planning charge
    sim_time: float  # recorded simulated duration being replayed


@dataclass(frozen=True, slots=True)
class CompiledHit:
    """The iteration was served by evaluating a compiled template.

    The middle tier of the executor's lookup ladder: the exact world did
    not recur (new input size), but the world *class* did, and its
    certified template's feasibility constraints accepted the new size.
    """

    iteration: int
    base_time: float  # simulated clock after the planning charge
    sim_time: float  # evaluated simulated duration being applied


@dataclass(frozen=True, slots=True)
class IterationEnd:
    """The iteration's stats are final (replayed or fully simulated)."""

    stats: "IterationStats"


@dataclass(frozen=True, slots=True)
class IterationObserved:
    """One iteration's *surviving* stats, as handed to the planner.

    Emitted by the executor once per :meth:`~repro.engine.executor
    .TrainingExecutor.step`, after the recovery ladder has resolved and
    ``planner.observe`` has taken the stats — unlike
    :class:`IterationEnd`, which also fires for OOM'd attempts that are
    about to be rolled back and retried.  It carries exactly the
    observation stream the planner's feedback loop sees; any lifecycle
    events that observation caused were published before it.
    """

    stats: "IterationStats"


@dataclass(frozen=True, slots=True)
class LifecycleTransition:
    """The planning lifecycle state machine changed state.

    Published by :class:`~repro.core.lifecycle.LifecycleController`
    (``COLLECTING → FITTED → MONITORING → DRIFTED → REFITTING``); the
    ``reason`` is a human-readable trigger description ("initial fit",
    "input-size drift", ...).
    """

    iteration: int
    previous: str  # LifecycleState.value
    current: str
    reason: str


@dataclass(frozen=True, slots=True)
class DriftDetected:
    """A lifecycle drift monitor crossed its detection threshold.

    ``monitor`` names the firing detector (``"residual-page-hinkley"``
    for the prediction-residual stream, ``"input-size-cusum"`` for the
    input-size distribution monitor); ``statistic`` is the test statistic
    at detection against the configured ``threshold``.
    """

    iteration: int
    monitor: str
    statistic: float
    threshold: float


@dataclass(frozen=True, slots=True)
class EstimatorRefit:
    """The lifecycle controller (re)fitted the memory estimator.

    ``fit_count`` counts every fit including the initial one;
    ``window_iterations`` is the collector window the fit was trained on.
    """

    iteration: int
    fit_count: int
    window_iterations: int


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------


Handler = Callable[[object], None]


@dataclass(slots=True, eq=False)
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; pass to
    :meth:`EventBus.unsubscribe` to detach (tokens compare by identity)."""

    handler: Handler
    event_types: Optional[tuple[type, ...]]  # None = all events

    def matches(self, event_type: type) -> bool:
        return self.event_types is None or event_type in self.event_types


class EventBus:
    """Synchronous publish/subscribe hub for iteration events.

    Handlers are invoked in subscription order (see module docstring).
    Dispatch lists are cached per concrete event type and rebuilt lazily
    on (un)subscription, so :meth:`emit` is a dict lookup plus a loop.
    """

    def __init__(self) -> None:
        self._subs: list[Subscription] = []
        self._dispatch: dict[type, tuple[Handler, ...]] = {}

    def subscribe(
        self, handler: Handler, *event_types: type
    ) -> Subscription:
        """Attach ``handler`` for the given event types (none = all).

        Returns a :class:`Subscription` token for :meth:`unsubscribe`.
        """
        sub = Subscription(
            handler, tuple(event_types) if event_types else None
        )
        self._subs.append(sub)
        self._dispatch.clear()
        return sub

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscription; unknown/stale tokens are a no-op."""
        try:
            self._subs.remove(subscription)
        except ValueError:
            return
        self._dispatch.clear()

    def wants(self, event_type: type) -> bool:
        """Whether any subscriber would receive ``event_type`` — use to
        skip constructing hot-path events with no audience."""
        return bool(self._handlers_for(event_type))

    def emit(self, event: object) -> None:
        """Deliver ``event`` to every matching handler, in order."""
        for handler in self._handlers_for(type(event)):
            handler(event)

    # ------------------------------------------------------------- internals

    def _handlers_for(self, event_type: type) -> tuple[Handler, ...]:
        handlers = self._dispatch.get(event_type)
        if handlers is None:
            handlers = tuple(
                s.handler for s in self._subs if s.matches(event_type)
            )
            self._dispatch[event_type] = handlers
        return handlers

    def __len__(self) -> int:
        return len(self._subs)


# ---------------------------------------------------------------------------
# Engine-provided observers
# ---------------------------------------------------------------------------


class EventCounter:
    """Counts events by type name — the smallest useful observer.

    Used by ``python -m repro run --trace`` and handy in notebooks::

        counter = EventCounter().attach(executor.events)
        ...
        print(counter.counts)
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def attach(self, bus: EventBus) -> "EventCounter":
        bus.subscribe(self)
        return self

    def __call__(self, event) -> None:
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
