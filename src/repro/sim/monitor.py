"""Statistics collection for simulations and benchmarks.

Small, allocation-light accumulators: ``Counter`` keeps named
monotonic counts; ``TimeWeighted`` integrates a piecewise-constant
signal (queue length, resident agents) over virtual time.
"""

from __future__ import annotations

__all__ = ["Counter", "TimeWeighted"]


class Counter:
    """Named monotonically increasing counters."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        return self.get(name)


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal."""

    def __init__(self, start_time: float = 0.0, initial: float = 0.0) -> None:
        self._last_time = start_time
        self._value = initial
        self._area = 0.0
        self._start = start_time

    def update(self, time: float, value: float) -> None:
        """Record that the signal changed to ``value`` at ``time``."""
        if time < self._last_time:
            raise ValueError("time moved backwards")
        self._area += self._value * (time - self._last_time)
        self._last_time = time
        self._value = value

    def average(self, now: float | None = None) -> float:
        """Time-weighted mean from start to ``now`` (default: last update)."""
        end = self._last_time if now is None else now
        if end < self._last_time:
            raise ValueError("now precedes last update")
        area = self._area + self._value * (end - self._last_time)
        span = end - self._start
        return area / span if span > 0 else self._value

    @property
    def current(self) -> float:
        return self._value
