"""Trading time grids: strictly increasing trade times starting at 0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_GAP = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nonnegative trade times with ``times[0] == 0``."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        if times.size < 1:
            raise ValueError("a time grid needs at least one trade time")
        if not np.all(np.isfinite(times)):
            raise ValueError("trade times must be finite")
        if times[0] != 0.0:
            raise ValueError("the first trade time must be exactly 0")
        if times.size > 1 and np.min(np.diff(times)) < MIN_GAP:
            raise ValueError(f"trade times must increase by at least {MIN_GAP:g}")
        times = times.copy()
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def span(self) -> float:
        return float(self.times[-1])


def equidistant_grid(horizon: float, n: int) -> TimeGrid:
    """N equally spaced trade times on [0, horizon]."""
    if n < 1:
        raise ValueError("need at least one trade time")
    if n == 1:
        return TimeGrid(np.zeros(1))
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return TimeGrid(np.linspace(0.0, horizon, n))


def geometric_grid(horizon: float, n: int, ratio: float = 2.0) -> TimeGrid:
    """Trade times on [0, horizon] with geometrically growing gaps.

    ``t_i = horizon * (ratio**i - 1) / (ratio**(n-1) - 1)``, so the first
    time is exactly 0 and the last exactly ``horizon``.
    """
    if n < 1:
        raise ValueError("need at least one trade time")
    if n == 1:
        return TimeGrid(np.zeros(1))
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if ratio <= 1.0:
        raise ValueError("ratio must exceed 1")
    with np.errstate(over="ignore"):
        powers = ratio ** np.arange(n, dtype=float)
    if not np.isfinite(powers[-1]):
        raise ValueError(f"ratio**(n-1) = {ratio!r}**{n - 1} is not a finite float")
    times = horizon * (powers - 1.0) / (powers[-1] - 1.0)
    times[0] = 0.0
    times[-1] = horizon
    return TimeGrid(times)
