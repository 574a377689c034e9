"""Memory timeline recording (memory-in-use sampled at unit boundaries)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.events import EventBus, UnitBackward, UnitForward


@dataclass(frozen=True, slots=True)
class TimelinePoint:
    """One sample of the device memory state."""

    time: float  # simulated seconds since executor construction
    bytes_in_use: int
    bytes_reserved: int
    phase: str  # "fwd:<unit>" or "bwd:<unit>", e.g. "bwd:encoder.3"
    iteration: int


@dataclass(slots=True)
class MemoryTimeline:
    """Append-only sequence of :class:`TimelinePoint`s.

    An ordinary event-bus observer (``examples/memory_timeline.py``
    plots one)::

        timeline = MemoryTimeline().attach(executor.events)

    It samples each unit boundary of the iterations the executor
    simulates.  An iteration served from a fast tier adds no samples,
    so a timeline of every iteration needs ``replay=False``.
    """

    points: list[TimelinePoint] = field(default_factory=list)

    def attach(self, bus: EventBus) -> "MemoryTimeline":
        bus.subscribe(self, UnitForward, UnitBackward)
        return self

    def __call__(self, event: UnitForward | UnitBackward) -> None:
        phase = "fwd:" if type(event) is UnitForward else "bwd:"
        self.record(
            event.time,
            event.bytes_in_use,
            event.bytes_reserved,
            phase + event.unit,
            event.iteration,
        )

    def record(
        self,
        time: float,
        in_use: int,
        reserved: int,
        phase: str,
        iteration: int,
    ) -> None:
        self.points.append(
            TimelinePoint(time, in_use, reserved, phase, iteration)
        )

    def peak_by_iteration(self) -> dict[int, int]:
        """Max bytes-in-use observed per iteration."""
        peaks: dict[int, int] = {}
        for p in self.points:
            if p.bytes_in_use > peaks.get(p.iteration, -1):
                peaks[p.iteration] = p.bytes_in_use
        return peaks

    def phases(self, iteration: int) -> list[TimelinePoint]:
        return [p for p in self.points if p.iteration == iteration]

    def clear(self) -> None:
        self.points.clear()
