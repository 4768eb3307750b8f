"""Per-function timing of mvlab from outside the package.

`Tracer.installed(modules)` replaces every public function of each module
with a timing wrapper by setting the module attribute, so calls made from
inside the module (which look the name up in the module globals) are timed
too, e.g. the three `robust_cholesky` calls per static decision week.  The
originals are put back when the `with` block ends, also on error.

Self time of a function is its span minus the time covered by the spans of
wrapped functions it called.  Spans are folded into per-function totals as
they close; nothing is written until the benchmark reads the totals.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0          # work units reported by the function's counter


def public_functions(module):
    """(name, function) for functions defined in the module, not imported."""
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


class Tracer:
    def __init__(self, counters=None):
        # {"layer.function": f(bound arguments, result) -> work units}
        self.counters = counters or {}
        self.stats: dict[str, FunctionStats] = {}
        self._child_time: list[float] = []

    def reset(self):
        self.stats = {}

    def _wrap(self, key: str, fn):
        counter = self.counters.get(key)
        signature = inspect.signature(fn) if counter is not None else None
        clock = time.perf_counter
        child_time = self._child_time

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = clock() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += span
                st = self.stats.get(key)
                if st is None:
                    st = self.stats[key] = FunctionStats()
                st.calls += 1
                st.total_s += span
                st.self_s += span - children
                if counter is not None and result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    st.count += counter(bound.arguments, result)

        timed.__wrapped_by_bench__ = True
        return timed

    @contextmanager
    def installed(self, modules):
        """Wrap every public function of `modules` for the block's duration."""
        saved = []
        try:
            for module in modules:
                layer = module.__name__.rsplit(".", 1)[-1]
                for name, fn in public_functions(module):
                    saved.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{layer}.{name}", fn))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)


def default_counters():
    """Work units: decision weeks of a backtest, paths x steps of an MC call."""
    return {
        "backtest.run_backtest": lambda a, res: res.week_index.size - 1,
        "simulate.mc_anticipated_gain": lambda a, res: a["paths"] * (a["n_steps"] or 0),
    }


def any_wrapped(modules) -> bool:
    """True if a timing wrapper is still installed on any module."""
    return any(getattr(fn, "__wrapped_by_bench__", False)
               for module in modules for _, fn in vars(module).items()
               if callable(fn))
