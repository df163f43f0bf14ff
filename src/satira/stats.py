"""Two-sample significance tests and density-plot data.

The Student-t p-value is computed from scratch via the regularized
incomplete beta function (continued fraction, modified Lentz), so the
package needs no statistics dependency. For t >= 0 and df = v,

    P(T > t) = 0.5 * I_x(v/2, 1/2)   with   x = v / (v + t^2)

so the two-tailed p-value is simply I_x(v/2, 1/2) evaluated at |t|.

Its log10 is computed in log space from ln s, s = t^2 / v = (1 - x) / x,
so it stays finite where the p-value underflows double precision: on the
continued fraction's lower side ln I_x is the log of its front factor plus
the log of the fraction, and on the upper side it is ``log1p`` of minus the
other tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

_MAX_ITER = 300
_CF_EPS = 1e-16
_FPMIN = 1e-300
_STIRLING_FROM = 11.0  # the larger Beta argument from which _ln_front uses Stirling's series


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _stirling_rest(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), from the first terms of
    Stirling's series; the first term left out is below 7e-15 for z >= 11."""
    w = 1.0 / (z * z)
    return (((((1 / 1188) * w - 1 / 1680) * w + 1 / 1260) * w - 1 / 360) * w + 1 / 12) / z


def _ln_front(ln_x: float, ln_y: float, a: float, b: float) -> float:
    """ln of x^a (1 - x)^b / B(a, b), the factor in front of the continued
    fraction, from ln x and ln y = ln(1 - x).

    ``lgamma(a + b) - lgamma(a)`` loses about ``a ln a`` ulps when a is large,
    so from a = ``_STIRLING_FROM`` on (or b, the roles swapped) the difference
    is taken term by term from Stirling's series, in which the ``a ln a``
    terms cancel exactly: b ln a + (a + b - 1/2) log1p(b / a) - b plus the
    difference of the rests. Against mpmath this beats the lgamma difference
    from a = 11 on."""
    big, small = max(a, b), min(a, b)
    if big < _STIRLING_FROM:
        ln_ratio = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    else:
        ln_ratio = (small * math.log(big) + (big + small - 0.5) * math.log1p(small / big) - small
                    + (_stirling_rest(big + small) - _stirling_rest(big)) - math.lgamma(small))
    return ln_ratio + a * ln_x + b * ln_y


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], accurate to ~1e-14."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(_ln_front(math.log(x), math.log1p(-x), a, b))
    # continued fraction converges fast on this side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _log_incomplete_beta(ln_x: float, ln_y: float, a: float, b: float) -> float:
    """ln I_x(a, b) from ln x and ln y = ln(1 - x), with 0 < x < 1, in log space."""
    ln_front = _ln_front(ln_x, ln_y, a, b)
    x = math.exp(ln_x)
    if x < (a + 1.0) / (a + b + 2.0):
        return ln_front + math.log(_betacf(a, b, x) / a)
    return math.log1p(-math.exp(ln_front) * _betacf(b, a, math.exp(ln_y)) / b)


def student_t_log10_p(t: float, df: float) -> float:
    """log10 of the two-tailed p-value P(|T| >= |t|), I_x(df/2, 1/2), computed
    in log space, so it is finite for any finite ``t``."""
    if math.isnan(t) or math.isnan(df):
        return math.nan
    if t == 0.0:
        return 0.0
    if math.isinf(t):
        return -math.inf
    ln_s = 2.0 * math.log(abs(t)) - math.log(df)  # s = t^2 / df = (1 - x) / x
    # ln(1 + s), with no exp that can overflow
    ln_1ps = ln_s + math.log1p(math.exp(-ln_s)) if ln_s > 0 else math.log1p(math.exp(ln_s))
    ln_p = _log_incomplete_beta(-ln_1ps, ln_s - ln_1ps, df / 2.0, 0.5)
    return min(ln_p, 0.0) / math.log(10.0)


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom."""
    if math.isnan(t) or math.isnan(df):
        return math.nan
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(x, df / 2.0, 0.5)
    return tail if t >= 0 else 1.0 - tail


class TTestVariant(Enum):
    POOLED = "pooled"
    WELCH = "welch"


class NanPolicy(Enum):
    PROPAGATE = "propagate"
    OMIT = "omit"


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    p_value: float
    log10_p_value: float  # finite where p_value underflows to 0
    df: float
    n_a: int
    n_b: int
    variant: TTestVariant
    nan_policy: NanPolicy


def ttest_two_tailed(
    a: Sequence[float],
    b: Sequence[float],
    variant: TTestVariant = TTestVariant.POOLED,
    nan_policy: NanPolicy = NanPolicy.PROPAGATE,
) -> TTestResult:
    """Independent two-sample t-test, two-tailed.

    POOLED assumes equal variances (df = n_a + n_b - 2); WELCH uses
    per-sample variances with Welch-Satterthwaite degrees of freedom.
    Under PROPAGATE any NaN input yields NaN statistic and p-value; under
    OMIT NaN values are dropped per sample before testing.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.ndim != 1 or xb.ndim != 1:
        raise ValueError("samples must be one-dimensional")

    has_nan = bool(np.isnan(xa).any() or np.isnan(xb).any())
    if nan_policy is NanPolicy.OMIT:
        xa = xa[~np.isnan(xa)]
        xb = xb[~np.isnan(xb)]
        has_nan = False

    n_a, n_b = len(xa), len(xb)
    if n_a < 2 or n_b < 2:
        raise ValueError(
            f"each sample needs at least 2 values after nan handling "
            f"(got {n_a} and {n_b})"
        )

    if variant is TTestVariant.POOLED:
        df = float(n_a + n_b - 2)
    else:
        df = math.nan  # set below from the data

    if has_nan:
        return TTestResult(math.nan, math.nan, math.nan, df, n_a, n_b, variant, nan_policy)

    mean_a = float(np.mean(xa))
    mean_b = float(np.mean(xb))
    var_a = float(np.var(xa, ddof=1))
    var_b = float(np.var(xb, ddof=1))

    if var_a == 0.0 and var_b == 0.0:
        detail = "equal means" if mean_a == mean_b else "different means"
        raise ValueError(f"both samples have zero variance ({detail}); statistic undefined")

    if variant is TTestVariant.POOLED:
        pooled = ((n_a - 1) * var_a + (n_b - 1) * var_b) / (n_a + n_b - 2)
        se = math.sqrt(pooled * (1.0 / n_a + 1.0 / n_b))
    else:
        sa = var_a / n_a
        sb = var_b / n_b
        se = math.sqrt(sa + sb)
        df = (sa + sb) ** 2 / (sa * sa / (n_a - 1) + sb * sb / (n_b - 1))

    statistic = (mean_a - mean_b) / se
    p_value = 2.0 * student_t_sf(abs(statistic), df)
    p_value = min(p_value, 1.0)
    log10_p = student_t_log10_p(statistic, df)
    return TTestResult(statistic, p_value, log10_p, df, n_a, n_b, variant, nan_policy)


@dataclass(frozen=True)
class DensityEstimate:
    """Histogram-based density: ascending bin edges and per-bin density."""

    bin_edges: tuple[float, ...]
    densities: tuple[float, ...]

    def __post_init__(self):
        edges = self.bin_edges
        if len(edges) != len(self.densities) + 1:
            raise ValueError("need one more edge than density")
        if any(e2 <= e1 for e1, e2 in zip(edges, edges[1:])):
            raise ValueError("bin edges must be strictly ascending")
        if any(d < 0 for d in self.densities):
            raise ValueError("densities must be non-negative")


def density_histogram(values: Sequence[float], bins: int) -> DensityEstimate:
    """Equal-width histogram normalized so the densities integrate to 1.

    A single repeated value gets a unit-width support centered on it; the
    same fallback covers ranges too narrow for finite per-bin densities.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    x = np.asarray(values, dtype=np.float64)
    x = x[np.isfinite(x)]
    if x.size == 0:
        raise ValueError("need at least one finite value")
    lo, hi = float(x.min()), float(x.max())
    if (hi - lo) / bins < 1e-300:  # 1/width must stay below the float max
        center = 0.5 * (lo + hi)
        lo, hi = center - 0.5, center + 0.5
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    widths = np.diff(edges)
    densities = counts / (counts.sum() * widths)
    return DensityEstimate(tuple(float(e) for e in edges), tuple(float(d) for d in densities))


def density_to_csv(est: DensityEstimate) -> str:
    """``bin_left,bin_right,density`` rows for external plotting."""
    lines = ["bin_left,bin_right,density"]
    for left, right, dens in zip(est.bin_edges, est.bin_edges[1:], est.densities):
        lines.append(f"{left!r},{right!r},{dens!r}")
    return "".join(line + "\n" for line in lines)
