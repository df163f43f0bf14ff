import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from satira import (
    NanPolicy,
    TTestVariant,
    density_histogram,
    regularized_incomplete_beta,
    student_t_sf,
    ttest_two_tailed,
)
from satira.stats import density_to_csv, student_t_log10_p

NAN = float("nan")


def pooled_oracle(a, b):
    """Direct textbook evaluation: pooled variance + incomplete-beta p."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = len(a), len(b)
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    sp2 = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    t = (a.mean() - b.mean()) / math.sqrt(sp2 * (1 / na + 1 / nb))
    df = na + nb - 2
    p = float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))
    return t, p, df


class TestIncompleteBeta:
    def test_bounds(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    def test_symmetric_half(self):
        assert regularized_incomplete_beta(0.5, 4.0, 4.0) == pytest.approx(0.5, abs=1e-14)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a = rng.uniform(0.5, 80.0)
            b = rng.uniform(0.5, 80.0)
            x = rng.uniform(0.0, 1.0)
            assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                float(special.betainc(a, b, x)), abs=1e-12
            )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, -1.0, 1.0)

    def test_sf_at_zero(self):
        assert student_t_sf(0.0, 7.0) == pytest.approx(0.5, abs=1e-14)


class TestTTest:
    def test_identical_samples(self):
        result = ttest_two_tailed([1, 2, 3], [1, 2, 3])
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0)
        assert result.df == 4.0

    def test_pooled_fixture(self):
        result = ttest_two_tailed([1, 2, 3], [1, 2, 4])
        assert result.statistic == pytest.approx(-1 / math.sqrt(10), abs=1e-12)
        assert round(result.statistic, 4) == -0.3162
        t, p, df = pooled_oracle([1, 2, 3], [1, 2, 4])
        assert result.statistic == pytest.approx(t, abs=1e-12)
        assert result.p_value == pytest.approx(p, abs=1e-12)
        assert result.df == df

    def test_omit_drops_nan(self):
        with_nan = ttest_two_tailed([1, NAN, 2, 3], [1, 2, 4], nan_policy=NanPolicy.OMIT)
        without = ttest_two_tailed([1, 2, 3], [1, 2, 4], nan_policy=NanPolicy.OMIT)
        assert with_nan.statistic == without.statistic
        assert with_nan.p_value == without.p_value
        assert with_nan.n_a == 3

    def test_propagate_nan(self):
        result = ttest_two_tailed([1, NAN, 3], [1, 2, 4])
        assert math.isnan(result.statistic)
        assert math.isnan(result.p_value)

    def test_too_few_after_omit(self):
        with pytest.raises(ValueError, match="at least 2"):
            ttest_two_tailed([1, NAN, NAN], [1, 2, 3], nan_policy=NanPolicy.OMIT)

    def test_zero_variance_equal_means(self):
        with pytest.raises(ValueError, match="zero variance"):
            ttest_two_tailed([2, 2, 2], [2, 2])

    def test_welch_matches_scipy_shapes(self):
        result = ttest_two_tailed([1.0, 2.0, 3.0, 9.0], [1.0, 2.0, 4.0], TTestVariant.WELCH)
        sa = np.var([1.0, 2.0, 3.0, 9.0], ddof=1) / 4
        sb = np.var([1.0, 2.0, 4.0], ddof=1) / 3
        expected_df = (sa + sb) ** 2 / (sa**2 / 3 + sb**2 / 2)
        assert result.df == pytest.approx(expected_df, abs=1e-12)

    def test_random_pairs_match_direct_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(3, 40))
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(3, 40))
            mine = ttest_two_tailed(a, b)
            t, p, df = pooled_oracle(a, b)
            assert mine.statistic == pytest.approx(t, abs=1e-9)
            assert mine.p_value == pytest.approx(p, abs=1e-9)

    samples = st.lists(
        st.floats(-50, 50).filter(lambda v: abs(v) > 1e-6 or v == 0.0),
        min_size=3,
        max_size=25,
    )

    @given(a=samples, b=samples)
    @settings(max_examples=150, deadline=None)
    def test_swap_negates_statistic(self, a, b):
        try:
            fwd = ttest_two_tailed(a, b)
        except ValueError:
            return
        rev = ttest_two_tailed(b, a)
        assert rev.statistic == pytest.approx(-fwd.statistic, abs=1e-12)
        assert rev.p_value == fwd.p_value

    int_samples = st.lists(st.integers(-50, 50).map(float), min_size=3, max_size=25)

    @given(a=int_samples, b=int_samples, shift=st.integers(-20, 20).map(float))
    @settings(max_examples=150, deadline=None)
    def test_shift_invariance(self, a, b, shift):
        try:
            base = ttest_two_tailed(a, b)
        except ValueError:
            return
        moved = ttest_two_tailed([v + shift for v in a], [v + shift for v in b])
        assert moved.statistic == pytest.approx(base.statistic, rel=1e-12, abs=1e-12)
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-12, abs=1e-12)

    @given(a=int_samples, b=int_samples, scale=st.floats(0.01, 50))
    @settings(max_examples=150, deadline=None)
    def test_scale_invariance(self, a, b, scale):
        try:
            base = ttest_two_tailed(a, b)
        except ValueError:
            return
        scaled = ttest_two_tailed([v * scale for v in a], [v * scale for v in b])
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-12, abs=1e-12)

    def test_p_monotone_in_statistic(self):
        df = 11.0
        ts = np.linspace(0.0, 8.0, 60)
        ps = [2.0 * student_t_sf(t, df) for t in ts]
        assert all(p2 < p1 for p1, p2 in zip(ps, ps[1:]))


def mpmath_series_betainc(a, b, x):
    """x^a / a * 2F1(a, 1 - b; a + 1; x), the incomplete beta B_x(a, b), summed term
    by term: for b < 1 every term is positive, so no digit cancels."""
    term, total, n = mpmath.mpf(1), mpmath.mpf(0), 0
    while term * a > total * (a + n) * mpmath.eps:
        total += term * a / (a + n)
        term *= (n + 1 - b) * x / (n + 1)
        n += 1
    return x**a * total / a


def mpmath_log10_p(t: float, df: float):
    """log10 of the two-tailed p-value I_x(df/2, 1/2), x = df / (df + t^2), at 50 digits.

    For x > 0.8, ``mpmath.betainc`` takes 2F1 through its 1 - x transformation,
    whose two terms cancel to about x^a of their size, so where a ln(1/x) is
    large it gives up (df 1e5, t 100); there the direct series is summed, which
    needs about 115 / (1 - x) terms."""
    with mpmath.workdps(50):
        t, df = mpmath.mpf(t), mpmath.mpf(df)
        x = df / (df + t * t)
        a, b = df / 2, mpmath.mpf(1) / 2
        if x > 0.8 and a * mpmath.log1p(t * t / df) > 1000:
            return mpmath.log10(mpmath_series_betainc(a, b, x) / mpmath.beta(a, b))
        return mpmath.log10(mpmath.betainc(a, b, 0, x, regularized=True))


def assert_close_to_mpmath(t: float, df: float):
    exact = mpmath_log10_p(t, df)
    assert abs(student_t_log10_p(t, df) - exact) <= 1e-10 * abs(exact), (t, df)


class TestLog10PValue:
    # the J, S and fpp statistics of `satira ttest` on the paper-scale corpus
    # (scripts/paper_scale.py), whose p-values underflow double precision
    @pytest.mark.parametrize("t", [-41.12524291879902, 40.859059701560916, 89.4457576755712])
    def test_paper_scale_statistics_match_mpmath(self, t):
        assert 2.0 * student_t_sf(abs(t), 6893.0) == 0.0
        assert_close_to_mpmath(t, 6893.0)

    # t = 1.73 is just past the continued-fraction switch at these df, where
    # lgamma(a + 1/2) - lgamma(a) put log10 p off by 4.1e-11, 9.1e-11 and 2.4e-9
    @given(t=st.floats(1e-6, 1e3), negative=st.booleans(), df=st.floats(0.5, 1e6))
    @example(t=1.73, negative=False, df=1e4)
    @example(t=1.73, negative=False, df=1e5)
    @example(t=1.73, negative=False, df=1e6)
    @settings(max_examples=150, deadline=None)
    def test_matches_mpmath(self, t, negative, df):
        assert_close_to_mpmath(-t if negative else t, df)

    def test_edges(self):
        assert student_t_log10_p(0.0, 5.0) == 0.0
        assert student_t_log10_p(math.inf, 5.0) == -math.inf
        assert math.isnan(student_t_log10_p(math.nan, 5.0))

    def test_ttest_reports_it_beside_p_value(self):
        result = ttest_two_tailed([1, 2, 3, 4], [7, 8, 9, 11])
        assert result.log10_p_value == pytest.approx(math.log10(result.p_value), rel=1e-12)
        assert_close_to_mpmath(result.statistic, result.df)
        fake = [0.9 + 0.001 * (i % 7) for i in range(3000)]
        real = [0.1 + 0.001 * (i % 5) for i in range(3000)]
        underflow = ttest_two_tailed(fake, real)
        assert underflow.p_value == 0.0 and -math.inf < underflow.log10_p_value < -308
        assert math.isnan(ttest_two_tailed([1, NAN], [2, 3]).log10_p_value)


class TestDensityHistogram:
    def test_two_point_uniform(self):
        est = density_histogram([0.0, 1.0], 2)
        assert est.bin_edges == (0.0, 0.5, 1.0)
        assert est.densities == (1.0, 1.0)

    def test_degenerate_single_value(self):
        est = density_histogram([0.3] * 7, 5)
        widths = np.diff(est.bin_edges)
        assert est.bin_edges[0] == pytest.approx(-0.2)
        assert est.bin_edges[-1] == pytest.approx(0.8)
        assert np.sum(np.array(est.densities) * widths) == pytest.approx(1.0)
        assert sum(1 for d in est.densities if d > 0) == 1

    def test_monte_carlo_uniform(self):
        rng = np.random.default_rng(5)
        est = density_histogram(rng.uniform(0, 1, size=10_000), 10)
        for density in est.densities:
            assert abs(density - 1.0) < 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            density_histogram([], 3)

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            density_histogram([1.0, 2.0], 0)

    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=50),
        bins=st.integers(1, 20),
    )
    @settings(max_examples=150, deadline=None)
    def test_always_integrates_to_one(self, values, bins):
        est = density_histogram(values, bins)
        widths = np.diff(est.bin_edges)
        assert np.sum(np.array(est.densities) * widths) == pytest.approx(1.0)

    def test_csv_format(self):
        est = density_histogram([0.0, 1.0], 2)
        lines = density_to_csv(est).splitlines()
        assert lines[0] == "bin_left,bin_right,density"
        assert lines[1] == "0.0,0.5,1.0"
