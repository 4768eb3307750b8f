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

    def test_inf_rejected(self):
        # inf > 0, so a positivity check alone lets it through to inf / inf
        with pytest.raises(DomainError, match="requires positive, finite entries"):
            max_drawdown([1.0, np.inf, 2.0])

    def test_two_dimensional_rejected(self):
        # the running peak ran down each column and returned 0.0
        with pytest.raises(DomainError, match=r"one-dimensional series, got shape \(2, 2\)$"):
            max_drawdown(np.ones((2, 2)))

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

    def test_empty_path_rejected(self):
        with pytest.raises(DomainError, match="^empty wealth path$"):
            perf_stats([], base=1.0)

    def test_bad_base(self):
        with pytest.raises(DomainError):
            perf_stats([0.0, 0.1], base=0.0)

    def test_infinite_base_rejected(self):
        # base + wealth is inf everywhere: inf / inf would be a NaN return
        with pytest.raises(DomainError, match="^base must be positive and finite, got inf$"):
            perf_stats([0.0, 0.1], base=np.inf)

    def test_nan_base_rejected(self):
        # blamed on the base, not on the drawdown's positive entries
        with pytest.raises(DomainError, match="^base must be positive and finite, got nan$"):
            perf_stats([0.0, 0.1], base=np.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_wealth_names_the_row(self, bad):
        with pytest.raises(DomainError, match=rf"wealth {bad} at row 2 is not finite"):
            perf_stats([0.0, 0.1, bad, 0.2, np.nan], base=1.0)

    def test_two_dimensional_wealth_rejected(self):
        # was a TypeError from converting a row of returns to a float
        with pytest.raises(DomainError, match=r"^wealth path must be one-dimensional, "
                                              r"got shape \(3, 2\)$"):
            perf_stats(np.zeros((3, 2)), 1.0)

    def test_array_base_rejected(self):
        # was numpy's ambiguous truth value of an array
        with pytest.raises(DomainError, match=r"^base must be a scalar, got shape \(2,\)$"):
            perf_stats([0.0, 0.1], base=np.array([1.0, 2.0]))

    def test_overflowing_equity_names_the_row(self):
        # base + wealth overflows at row 1: was two RuntimeWarnings, then
        # the drawdown's positive, finite entries blamed
        with pytest.raises(DomainError, match=r"^equity base \+ wealth = 1.7e\+308 \+ "
                                              r"1.7e\+308 at row 1 overflows$"):
            perf_stats([0.0, 1.7e308, 1.7e308], base=1.7e308)

    @pytest.mark.parametrize("wealth, base, said", [
        ([0.0, 1.7e308, 0.0], 1.0, "std_dev"),
        ([0.0, 2e154, 0.0], 1.0, "std_dev"),
        ([0.0, 1e10], 1e-300, "terminal_return"),
    ], ids=["std-of-1.7e308", "square-of-2e154", "return-on-base-1e-300"])
    def test_overflowing_statistic_names_it(self, wealth, base, said):
        # a statistic beyond the float range is refused, not returned as inf
        with pytest.raises(DomainError, match=rf"^{said} = inf overflows$"):
            perf_stats(wealth, base)

    def test_equity_crossing_zero(self):
        with pytest.raises(DomainError):
            perf_stats([0.0, -2.0], base=1.0)

    def test_base_shift_changes_drawdown_scale(self):
        # a larger base damps drawdown of the same wealth path
        w = [0.0, 0.5, -0.2]
        small = perf_stats(w, base=1.0)
        large = perf_stats(w, base=10.0)
        assert large.max_drawdown > small.max_drawdown
