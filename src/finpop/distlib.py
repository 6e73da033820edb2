"""Distribution functions used by the inference layer.

Standard normal cdf/quantile, chi-square cdf/sf/quantile for integer degrees
of freedom, the equal-threshold lower-orthant probability of a bivariate
standard normal, and the critical value c solving
P(max of a correlated standard-normal pair > c) = alpha. The orthant gives
the normal reference of the 'joint' statistic of `randtests.sum_statistic`,
P(max > m) = 2 Phi(-m) - P(X <= -m, Y <= -m), and the pair rejects at level
alpha exactly when m exceeds that critical value.

The normal and chi-square functions need only the standard library:
math.erfc, statistics.NormalDist (Wichura's AS241 quantile) and the finite
gamma series that integer degrees of freedom allow. The orthant probability
is Owen's T function on one fixed Gauss-Legendre rule, and the chi-square
quantile and the critical value share one grid root finder. Nothing here
needs more than numpy.
"""

from __future__ import annotations

import functools
import math
import statistics

import numpy as np

from .errors import ValidationError

__all__ = [
    "check_alpha",
    "std_normal_cdf",
    "std_normal_quantile",
    "chi2_cdf",
    "chi2_sf",
    "chi2_quantile",
    "bvn_lower_orthant",
    "solve_gamma_c",
]

# |rho| above this takes the closed forms of rho = +/-1 (Owen's a is then 0 or inf).
_RHO_DEGENERATE = 1.0 - 1e-12

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_STD_NORMAL = statistics.NormalDist()
# Elementwise math.erfc, math.exp and math.log, so that an array element and
# a scalar call go through the same libm routine.
_ERFC = np.frompyfunc(math.erfc, 1, 1)
_EXP = np.frompyfunc(math.exp, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)

# 1/sqrt(2) as a double, its rounding error (from a 50-digit value), and the
# double split in two 26-bit halves (Veltkamp), for Dekker's exact product in
# std_normal_cdf.
_RSQRT2 = math.sqrt(0.5)
_RSQRT2_ERR = -4.833646656726457e-17
_VELTKAMP = 134217729.0  # 2^27 + 1
_RSQRT2_HI = _VELTKAMP * _RSQRT2 - (_VELTKAMP * _RSQRT2 - _RSQRT2)
_RSQRT2_LO = _RSQRT2 - _RSQRT2_HI


def _array(value) -> np.ndarray:
    """value as a float64 array (frompyfunc ufuncs return object arrays)."""
    return np.asarray(value, dtype=float)


def _float_or_array(value):
    """A 0-d result as a float; an array result as a float64 array."""
    value = _array(value)
    return float(value) if value.ndim == 0 else value


def std_normal_cdf(x):
    """P(Z <= x) for Z standard normal, 0.5 erfc(-x / sqrt 2).

    The rounding error d of t = -x/sqrt(2) would cost about 2 t^2 * 1e-16
    relative in the lower tail, so it is computed exactly (Dekker's product)
    and removed by the first-order term erfc(t + d) = erfc(t) - 2 d e^-t^2 /
    sqrt(pi). Accurate to 1e-15 absolute everywhere and to 1e-13 relative in
    the lower tail down to x = -37. x may be an array; each element equals the
    scalar call bit for bit.
    """
    x = np.asarray(x, dtype=float)
    t = -x * _RSQRT2
    # Past |x| = 64 the correction is 0 (e^-t^2 underflows); the clip keeps
    # the split finite.
    u = np.clip(-x, -64.0, 64.0)
    u_hi = _VELTKAMP * u - (_VELTKAMP * u - u)
    u_lo = u - u_hi
    d = (((u_hi * _RSQRT2_HI - u * _RSQRT2) + u_hi * _RSQRT2_LO + u_lo * _RSQRT2_HI)
         + u_lo * _RSQRT2_LO) + u * _RSQRT2_ERR
    slope = (2.0 / math.sqrt(math.pi)) * _array(_EXP(-t * t))
    return _float_or_array(0.5 * (_array(_ERFC(t)) - slope * d))


def check_alpha(alpha: float) -> None:
    """Refuse a level alpha outside (0, 1), or one so small (alpha <= 2^-53)
    that 1 - alpha/2 rounds to 1, where the two-sided normal quantile the
    intervals and tests take does not exist in double precision."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValidationError(f"alpha must exceed 2**-53, got {alpha}: "
                              "1 - alpha/2 rounds to 1")


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1), accurate to 1e-14 absolute on
    [1e-12, 1 - 1e-12]."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile level must be in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


# ---------------------------------------------------------------------------
# chi-square through the Poisson form of the regularized incomplete gamma
#
# With a = df/2 and t = x/2, the terms pois(k, t) = t^k e^-t / Gamma(k + 1)
# for k in a + Z split the chi-square law into its two tails:
#   P(X <= x) = sum_{j >= 0} pois(a + j, t)
#   P(X > x)  = sum_{1 <= j <= a} pois(a - j, t)  [+ erfc(sqrt t) for odd df]
# The upper sum is finite because df is an integer. The terms of the lower
# series decrease from the first one when t < a, and those of the upper sum
# when t >= a, which is also roughly when each is the smaller tail; so that
# tail is summed directly, to full relative accuracy, and the other is its
# complement.

# Asymptotic series of stirlerr; for k > 15 the sixth term is below 2e-16.
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(k: float) -> float:
    """log Gamma(k + 1) - log(sqrt(2 pi k) (k / e)^k) for k > 0 (Loader 2000)."""
    if k <= 15.0:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LN_SQRT_2PI
    kk = k * k
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k


def _bd0(k: float, t: np.ndarray) -> np.ndarray:
    """k log(k / t) + t - k elementwise, by a series without cancellation
    where k is near t."""
    # t >= 2^-1022 here, so k / t overflows only where t^k underflows anyway
    with np.errstate(over="ignore"):
        out = k * _array(_LOG(k / t)) + t - k
    near = np.abs(k - t) < 0.1 * (k + t)
    if near.any():
        tn = t[near]
        v = (k - tn) / (k + tn)
        v2 = v * v
        total = (k - tn) * v
        ej = 2.0 * k * v
        j = 3.0
        while True:
            ej = ej * v2
            step = total + ej / j
            if np.array_equal(step, total):
                break
            total = step
            j += 2.0
        out[near] = total
    return out


def _poisson_terms(k: float, t: np.ndarray) -> np.ndarray:
    """t^k e^-t / Gamma(k + 1) elementwise for k >= 0 and t > 0, in Loader's
    saddle-point form: no overflow, no early underflow, and no cancellation
    where k is near t."""
    if k == 0.0:
        return _array(_EXP(-t))
    return _array(_EXP(-_stirlerr(k) - _bd0(k, t))) / math.sqrt(2.0 * math.pi * k)


def _poisson_sum(k: float, t: np.ndarray, up: bool) -> np.ndarray:
    """Sum of pois(k, t), pois(k + 1, t), ... (up) or of pois(k, t),
    pois(k - 1, t), ... down to k >= 0, for terms that do not increase.

    Each element stops changing at its first negligible term, and later terms
    are smaller still, so an element's sum does not depend on the others it
    is summed with.
    """
    total = np.zeros_like(t)
    term = _poisson_terms(k, t) if k >= 0.0 else total
    while k >= 0.0:
        grown = total + term
        if np.array_equal(grown, total):
            break
        total = grown
        if up:
            k += 1.0
            term = term * (t / k)
        else:
            term = term * (k / t)
            k -= 1.0
    return total


def _chi2_tails(x, df: int) -> tuple[np.ndarray, np.ndarray]:
    """(P(X <= x), P(X > x)) elementwise for X chi-square with integer df >= 1."""
    x = np.array(x, dtype=float, ndmin=1)
    t = 0.5 * x
    # x <= 0, x = +inf and NaN are set here; the two sums fill the rest
    lower = np.where(x <= 0.0, 0.0, np.where(x == np.inf, 1.0, np.nan))
    upper = 1.0 - lower
    a = 0.5 * df
    small = (x > 0.0) & (t < a)
    # Below 2^-1021 the halving x / 2 is inexact (the smallest subnormal
    # halves to 0), and the lower series is its first term t^a / Gamma(a + 1)
    # to double precision, so that term is formed from log x instead.
    tiny = small & (x < 2.0**-1021)
    lower[tiny] = _array(_EXP(a * (_array(_LOG(x[tiny])) - math.log(2.0)) - math.lgamma(a + 1.0)))
    series = small & ~tiny
    lower[series] = _poisson_sum(a, t[series], up=True)
    upper[small] = 1.0 - lower[small]
    large = (t >= a) & (t < np.inf)
    tl = t[large]
    sf = _poisson_sum(a - 1.0, tl, up=False)
    if df % 2:
        sf = sf + _array(_ERFC(np.sqrt(tl)))
    upper[large] = sf
    lower[large] = 1.0 - sf
    return lower, upper


def _check_df(df) -> int:
    if not isinstance(df, (int, np.integer)):
        raise ValidationError(f"degrees of freedom must be an integer, got {df!r}")
    if df < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {df}")
    return int(df)


def chi2_cdf(x, df: int):
    """P(X <= x) for X chi-square with integer df degrees of freedom, accurate
    to 1e-14 absolute.

    x may be an array; each element equals the scalar call bit for bit.
    """
    lower, _ = _chi2_tails(x, _check_df(df))
    return _float_or_array(lower.reshape(np.shape(x)))


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) for integer df, summed directly so that it keeps
    1e-12 relative accuracy far in the tail (down to 1e-300)."""
    return float(_chi2_tails(float(x), _check_df(df))[1][0])


def _grid_root(below, lo: float, hi: float) -> float:
    """Root in [lo, hi] of below(v), True elementwise under the root: rounds
    that each test 63 evenly spaced points of the bracket at once, down to
    adjacent doubles. A root outside [lo, hi] returns the nearer end."""
    while True:
        grid = lo + (hi - lo) * np.arange(1, 64) / 64.0
        inside = below(grid)
        # first grid point at or above the root; monotone up to round-off
        j = int(np.argmin(inside)) if not inside.all() else grid.size
        new_lo = grid[j - 1] if j > 0 else lo
        new_hi = grid[j] if j < grid.size else hi
        if new_lo == lo and new_hi == hi:
            return float(hi)
        lo, hi = float(new_lo), float(new_hi)


def chi2_quantile(df: int, p: float) -> float:
    """Inverse chi-square cdf for integer df, accurate to 1e-10 relative on
    [1e-6, 1 - 1e-6].

    Root search on the tail that holds min(p, 1 - p), so that either end
    keeps its relative accuracy, in a bracket [0, df 2^k].
    """
    df = _check_df(df)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile level must be in (0, 1), got {p}")
    q = 1.0 - p

    def below(v):
        lower, upper = _chi2_tails(v, df)
        return lower < p if p < 0.5 else upper > q
    lo, hi = 0.0, float(df)
    while below(hi)[0]:
        lo, hi = hi, 2.0 * hi
    return _grid_root(below, lo, hi)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [0, 1] from the eigenvectors of the
    Jacobi matrix (Golub & Welsch 1969), built on first use: the first eigh
    takes about 1 MB of LAPACK workspace that no other CLI call needs."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


def _owen_t(h, a: float):
    """Owen's T(h, a) = (1/2 pi) int_0^{atan a} exp(-h^2 / (2 cos^2 t)) dt
    elementwise over the array h, for a >= 0 (Owen 1956). For a <= 1 the
    40-point rule integrates the smooth integrand on [0, pi/4]; for a > 1 Owen's
    reflection, written with upper tails Q(x) = Phi(-|x|) so that no term
    cancels where T is small, returns to a < 1."""
    if a > 1.0:
        q, qa = std_normal_cdf(-np.abs(h)), std_normal_cdf(-np.abs(a * h))
        return 0.5 * q + 0.5 * qa - q * qa - _owen_t(a * h, 1.0 / a)
    span = math.atan(a)
    nodes, weights = _gauss_legendre(40)
    integrand = np.exp(-0.5 * h[..., np.newaxis] ** 2 / np.cos(span * nodes) ** 2)
    return span / (2.0 * math.pi) * np.sum(weights * integrand, axis=-1)


def bvn_lower_orthant(c: float, rho: float) -> float:
    """P(X <= c, Y <= c) for a standard bivariate normal pair with correlation rho.

    Phi(c) - 2 T(c, a) with a = sqrt((1 - rho) / (1 + rho)) and Owen's T,
    accurate to 1e-15 absolute for |rho| <= 0.999 and |c| <= 8.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValidationError(f"correlation must be in [-1, 1], got {rho}")
    if rho >= _RHO_DEGENERATE:  # Y = X almost surely
        return std_normal_cdf(c)
    if rho <= -_RHO_DEGENERATE:  # Y = -X almost surely: P(-c <= X <= c)
        return max(0.0, 2.0 * std_normal_cdf(c) - 1.0)
    t = float(_owen_t(np.asarray(c, dtype=float), math.sqrt((1.0 - rho) / (1.0 + rho))))
    # round-off can leave the probability a hair below 0 far in the lower tail
    return max(0.0, std_normal_cdf(c) - 2.0 * t)


def solve_gamma_c(rho: float, alpha: float) -> float:
    """Critical value c with P(max(X, Y) > c) = alpha, (X, Y) standard normal
    with correlation rho.

    The Frechet bounds max(0, 2 Phi(c) - 1) <= P(X <= c, Y <= c) <= Phi(c)
    bracket the root between Phi^-1(1 - alpha) and Phi^-1(1 - alpha/2);
    _grid_root solves Phi(-c) + 2 T(c, a) = alpha on that bracket.
    """
    check_alpha(alpha)
    if not -1.0 <= rho <= 1.0:
        raise ValidationError(f"correlation must be in [-1, 1], got {rho}")
    if rho >= _RHO_DEGENERATE:
        return std_normal_quantile(1.0 - alpha)
    if rho <= -_RHO_DEGENERATE:
        return std_normal_quantile(1.0 - alpha / 2.0)
    a = math.sqrt((1.0 - rho) / (1.0 + rho))

    def below(c):
        return std_normal_cdf(-c) + 2.0 * _owen_t(c, a) > alpha

    lo, hi = std_normal_quantile(1.0 - alpha), std_normal_quantile(1.0 - alpha / 2.0)
    return _grid_root(below, lo, hi)
