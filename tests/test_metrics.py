import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvlab.errors import DomainError
from mvlab.metrics import max_drawdown, perf_stats


class TestMaxDrawdown:
    def test_monotone_series_zero(self):
        assert max_drawdown([1.0, 1.1, 1.2, 1.5]) == 0.0

    def test_known_drawdown(self):
        # peak 2.0 to trough 1.2: -40%
        assert max_drawdown([1.0, 2.0, 1.2, 1.8]) == pytest.approx(-0.4)

    def test_later_deeper_drawdown_wins(self):
        got = max_drawdown([1.0, 2.0, 1.8, 3.0, 1.5])
        assert got == pytest.approx(1.5 / 3.0 - 1.0)

    def test_single_point(self):
        assert max_drawdown([5.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            max_drawdown([])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            max_drawdown([1.0, -0.5])

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            max_drawdown([1.0, np.nan, 2.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=60))
    def test_matches_brute_force(self, values):
        s = np.array(values)
        brute = min(s[j] / s[i] - 1.0
                    for i in range(s.size) for j in range(i, s.size))
        assert max_drawdown(s) == pytest.approx(brute, abs=1e-14)

    def test_bounds(self, rng):
        for _ in range(50):
            s = np.exp(rng.normal(0, 0.3, size=100).cumsum())
            dd = max_drawdown(s)
            assert -1.0 < dd <= 0.0


class TestPerfStats:
    def test_terminal_return(self):
        st = perf_stats([0.0, 0.1, 0.3], base=1.0)
        assert st.terminal_return == pytest.approx(0.3)

    def test_flat_path(self):
        st = perf_stats([0.0, 0.0, 0.0], base=2.0)
        assert st.terminal_return == 0.0
        assert st.max_drawdown == 0.0
        assert st.std_dev == 0.0

    def test_annualised_std(self):
        # increments alternate +x/-x: sample std of increments is known
        w = np.array([0.0, 0.02, 0.0, 0.02, 0.0])
        incr = np.diff(w)
        expect = np.sqrt(52) * np.std(incr, ddof=1) / 0.5
        st = perf_stats(w, base=0.5)
        assert st.std_dev == pytest.approx(expect, rel=1e-12)

    def test_accepts_wealth_attribute(self):
        class P:
            wealth = np.array([0.0, 0.05, -0.02])

        direct = perf_stats(P.wealth, base=1.0)
        viaattr = perf_stats(P(), base=1.0)
        assert direct == viaattr

    def test_bad_base(self):
        with pytest.raises(DomainError):
            perf_stats([0.0, 0.1], base=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_wealth_names_the_row(self, bad):
        with pytest.raises(DomainError, match=rf"wealth {bad} at row 2 is not finite"):
            perf_stats([0.0, 0.1, bad, 0.2, np.nan], base=1.0)

    def test_equity_crossing_zero(self):
        with pytest.raises(DomainError):
            perf_stats([0.0, -2.0], base=1.0)

    def test_base_shift_changes_drawdown_scale(self):
        # a larger base damps drawdown of the same wealth path
        w = [0.0, 0.5, -0.2]
        small = perf_stats(w, base=1.0)
        large = perf_stats(w, base=10.0)
        assert large.max_drawdown > small.max_drawdown
