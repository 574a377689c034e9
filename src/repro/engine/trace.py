"""Memory timeline recording (memory-in-use sampled at phase boundaries)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class TimelinePoint:
    """One sample of the device memory state."""

    time: float  # simulated seconds since executor construction
    bytes_in_use: int
    bytes_reserved: int
    phase: str  # e.g. "fwd:encoder.3", "bwd:encoder.3", "recompute:encoder.3"
    iteration: int


@dataclass(slots=True)
class MemoryTimeline:
    """Append-only sequence of :class:`TimelinePoint`s.

    Used by the examples and by Fig 4-style plots; recording is optional
    because long sweeps (Fig 10) do not need per-phase samples.  An
    executor given a timeline records into it for its whole life.
    """

    points: list[TimelinePoint] = field(default_factory=list)

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

    # ------------------------------------------------------------- replay API

    def record_relative(
        self,
        base_time: float,
        iteration: int,
        rel_points: tuple[tuple[float, int, int, str], ...],
    ) -> None:
        """Append recorded relative points shifted onto ``base_time``."""
        for dt, in_use, reserved, phase in rel_points:
            self.record(base_time + dt, in_use, reserved, phase, iteration)
