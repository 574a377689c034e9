"""Deterministic simulated clock.

All experiment timings in this reproduction are *simulated* — advanced by the
executor according to the device roofline model — so results are exactly
reproducible across machines.  Wall-clock time is used only for costs that
are genuinely incurred by the planner itself in Python (estimator fit and
predict latency, scheduler solve latency), mirroring how the paper reports
them in Tables III–V.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, from 0.0.

    The builtin ``sum()`` of floats is this fold up to Python 3.11 and a
    compensated sum from 3.12, which rounds differently; simulated times,
    plans and their costs must not depend on the interpreter.
    """
    total = 0.0
    for v in values:
        total += v
    return total


class SimClock:
    """A monotonically advancing simulated clock, in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start in the past")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative).

        Returns the new time, which makes the common pattern
        ``end = clock.advance(dt)`` read naturally.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self._now += seconds
        return self._now

    def reset(self, to: float = 0.0) -> None:
        """Reset the clock (used between independent experiment runs)."""
        if to < 0:
            raise ValueError("clock cannot be reset to a negative time")
        self._now = float(to)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f}s)"
