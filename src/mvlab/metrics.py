"""Equity-curve performance statistics: terminal return, max drawdown,
annualised standard deviation of wealth increments."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
from .estimate import WEEKS_PER_YEAR

Array = NDArray[np.float64]


class PerfStats(NamedTuple):
    terminal_return: float
    max_drawdown: float
    std_dev: float


def max_drawdown(series) -> float:
    """Largest peak-to-trough fractional decline, single running-peak pass.

    Returns a nonpositive number; 0 iff the series never falls below a
    running peak.  Entries must be positive and finite (shift wealth by a
    base first).
    """
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise DomainError("empty series")
    if not np.all(np.isfinite(series) & (series > 0)):
        raise DomainError("max_drawdown requires positive, finite entries")
    peaks = np.maximum.accumulate(series)
    return float(np.min(series / peaks - 1.0))


def perf_stats(path, base: float) -> PerfStats:
    """Statistics of the equity curve E_k = base + wealth_k.

    terminal_return is E_end/E_0 - 1; std_dev is the sample standard
    deviation of the weekly wealth increments, annualised by
    sqrt(WEEKS_PER_YEAR), divided by base.
    """
    if not (np.isfinite(base) and base > 0):
        raise DomainError(f"base must be positive and finite, got {base}")
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
        std = float(np.sqrt(WEEKS_PER_YEAR) * np.std(incr, ddof=1) / base)
    return PerfStats(
        terminal_return=float(equity[-1] / equity[0] - 1.0),
        max_drawdown=max_drawdown(equity),
        std_dev=std,
    )
