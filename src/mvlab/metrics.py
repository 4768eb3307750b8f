"""Equity-curve performance statistics: terminal return, max drawdown,
annualised standard deviation of wealth increments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError

Array = NDArray[np.float64]


@dataclass(frozen=True)
class PerfStats:
    terminal_return: float
    max_drawdown: float
    std_dev: float


def max_drawdown(series) -> float:
    """Largest peak-to-trough fractional decline, single running-peak pass.

    Returns a nonpositive number; 0 iff the series never falls below a
    running peak.  Entries must be positive (shift wealth by a base first).
    """
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise DomainError("empty series")
    if np.any(~(series > 0)):  # `not > 0`, so NaN is rejected too
        raise DomainError("max_drawdown requires positive entries")
    peaks = np.maximum.accumulate(series)
    return float(np.min(series / peaks - 1.0))


def perf_stats(path, base: float, periods_per_year: int = 52) -> PerfStats:
    """Statistics of the equity curve E_k = base + wealth_k.

    terminal_return is E_end/E_0 - 1; std_dev is the annualised sample
    standard deviation of wealth increments divided by base.
    """
    if base <= 0:
        raise DomainError("base must be positive")
    wealth = np.asarray(getattr(path, "wealth", path), dtype=np.float64)
    if wealth.size == 0:
        raise DomainError("empty wealth path")
    bad = np.flatnonzero(~np.isfinite(wealth))
    if bad.size:
        raise DomainError(f"wealth {wealth[bad[0]]} at row {bad[0]} is not finite")
    equity = base + wealth
    if np.any(equity <= 0):
        raise DomainError("equity curve crosses zero; increase the base")
    incr = np.diff(wealth)
    std = 0.0
    if incr.size >= 2:
        std = float(np.sqrt(periods_per_year) * np.std(incr, ddof=1) / base)
    return PerfStats(
        terminal_return=float(equity[-1] / equity[0] - 1.0),
        max_drawdown=max_drawdown(equity),
        std_dev=std,
    )
