"""Calibrated op timing on a host whose speed drifts.

The reference host is a shared 2-core VM.  Identical ops there vary by
tens of percent from second to second, and the median of a 20 s window
moves by up to a third from one minute to the next.  The drift is not
CPU steal: steal in /proc/stat stays at about 0.  Right before each op,
`Timer` times a small fixed kernel that does not touch mvlab (about 3-6
ms), and again right after an op that took longer than LONG_S.  The op
is then credited with

    op seconds x (kernel's nominal time / kernel's measured time),

averaging the two factors when there are two.  Each factor uses the
median of the samples taken in the last RECENT_S, which damps the
kernel's own jitter between short ops without mixing in stale samples
around long ones.  The kernel has to sit right next to the op: sampled
every 0.1 s instead, it left 10-13% of run-to-run spread on the 40 ms
dynamic backtests.

Each kind of op uses the kernel whose speed tracked it best in nine
20 s windows on that host.  Spread is the IQR over the median of the
window medians:

    kernel   work                                        tracks          raw -> calibrated
    interp   Python column-loop Cholesky, 50 x 50 x 8    backtests, KKT  17-27% -> 1-5%
    stream   12 elementwise passes over 150k doubles     MC kernel       12% -> 4%
    python   pure-Python integer loop                    CLI processes   22% -> 2%
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20261017)
_A = _RNG.normal(size=(50, 50))
_SIGMA = _A @ _A.T + 50.0 * np.eye(50)
_X = _RNG.random(150_000)


def _interp():
    for _ in range(8):
        L = np.zeros_like(_SIGMA)
        for j in range(_SIGMA.shape[0]):
            L[j, j] = np.sqrt(_SIGMA[j, j] - L[j, :j] @ L[j, :j])
            L[j + 1:, j] = (_SIGMA[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]


def _stream():
    y = _X.copy()
    for _ in range(12):
        y = y + y * (1e-3 * np.sqrt(y))


def _python():
    total = 0
    for i in range(60_000):
        total += i * i % 7


LONG_S = 0.1
RECENT_S = 0.25

# name: (kernel, nominal seconds = its typical time on the reference host)
KERNELS = {"interp": (_interp, 0.0035), "stream": (_stream, 0.006),
           "python": (_python, 0.005)}


class Timer:
    """Times ops and credits each with the calibration scale in force.

    `cal_s` is the time spent in the kernel, which passes subtract from
    their wall time.
    """

    def __init__(self, kernel: str):
        self.kernel, self.nominal_s = KERNELS[kernel]
        self.samples: list[float] = []
        self._recent: list[tuple[float, float]] = []   # (end time, took)
        self.cal_s = 0.0

    def sample(self) -> float:
        """Time the kernel once; returns the scale from the samples of the
        last RECENT_S."""
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        took = end - start
        self.samples.append(took)
        self.cal_s += took
        self._recent = [(t, d) for t, d in self._recent if t >= end - RECENT_S]
        self._recent.append((end, took))
        return self.nominal_s / statistics.median(d for _, d in self._recent)

    def time(self, fn, *args, **kwargs):
        """(seconds, scale, result, error) of one call.  An exception is
        the op's failure: it is recorded as `error`, never raised."""
        scale = self.sample()
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if seconds >= LONG_S:
            scale = 0.5 * (scale + self.sample())
        return seconds, scale, result, error

    def since(self, start, cal_start):
        """Wall time since `start`, less the kernel time spent since then."""
        return time.perf_counter() - start - (self.cal_s - cal_start)
