"""Distribution functions used by the inference layer.

Standard normal cdf/quantile, chi-square cdf/quantile, the equal-threshold
lower-orthant probability of a bivariate standard normal, and the critical
value c solving P(max of a correlated standard-normal pair > c) = alpha.

The normal and gamma primitives wrap scipy.special; the orthant probability
is a one-dimensional adaptive quadrature, which is all the equal-threshold
case needs. scipy.integrate and scipy.optimize are imported inside the two
functions that use them, so importing this module loads only scipy.special.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import ValidationError

# |rho| above this is collapsed to the degenerate +/-1 closed forms: the
# conditional sd sqrt(1-rho^2) underflows the quadrature before rho reaches 1.
_RHO_DEGENERATE = 1.0 - 1e-12


def _float_or_array(value):
    """A 0-d result as a float; an array result as it is."""
    return float(value) if np.ndim(value) == 0 else value


def std_normal_cdf(x):
    """P(Z <= x) for Z standard normal, accurate to 1e-12 absolute.

    x may be an array; each element equals the scalar call bit for bit.
    """
    return _float_or_array(special.ndtr(x))


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile level must be in (0, 1), got {p}")
    return float(special.ndtri(p))


def chi2_cdf(x, df: int):
    """P(X <= x) for X chi-square with df degrees of freedom.

    x may be an array; each element equals the scalar call bit for bit.
    """
    if df < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {df}")
    x = np.asarray(x, dtype=float)
    return _float_or_array(np.where(x <= 0.0, 0.0, special.gammainc(df / 2.0, x / 2.0)))


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x), computed directly for accuracy far in the tail."""
    if df < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0.0:
        return 1.0
    return float(special.gammaincc(df / 2.0, x / 2.0))


def chi2_quantile(df: int, p: float) -> float:
    """Inverse chi-square cdf, accurate to 1e-8 relative."""
    if df < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile level must be in (0, 1), got {p}")
    return float(2.0 * special.gammaincinv(df / 2.0, p))


def bvn_lower_orthant(c: float, rho: float) -> float:
    """P(X <= c, Y <= c) for a standard bivariate normal pair with correlation rho.

    Conditioning on X gives the single integral
    integral_{-inf}^{c} phi(x) Phi((c - rho x) / sqrt(1 - rho^2)) dx,
    evaluated adaptively; absolute error at most 1e-7.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValidationError(f"correlation must be in [-1, 1], got {rho}")
    if rho >= _RHO_DEGENERATE:
        # Y = X almost surely.
        return std_normal_cdf(c)
    if rho <= -_RHO_DEGENERATE:
        # Y = -X almost surely: P(-c <= X <= c).
        return max(0.0, 2.0 * std_normal_cdf(c) - 1.0)
    from scipy import integrate

    denom = math.sqrt(1.0 - rho * rho)

    def integrand(x: float) -> float:
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * special.ndtr(
            (c - rho * x) / denom
        )

    value, _ = integrate.quad(integrand, -math.inf, c, epsabs=1e-10, epsrel=1e-10)
    # Quadrature noise can leave the probability a hair outside [0, 1].
    return min(1.0, max(0.0, value))


def solve_gamma_c(rho: float, alpha: float) -> float:
    """Critical value c with P(max(X, Y) > c) = alpha, (X, Y) standard normal
    with correlation rho.

    Equivalently bvn_lower_orthant(c, rho) = 1 - alpha. The Frechet bounds
    max(0, 2 Phi(c) - 1) <= P(X <= c, Y <= c) <= Phi(c) bracket the root
    between Phi^-1(1 - alpha) and Phi^-1(1 - alpha/2).
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    if not -1.0 <= rho <= 1.0:
        raise ValidationError(f"correlation must be in [-1, 1], got {rho}")
    if rho >= _RHO_DEGENERATE:
        return std_normal_quantile(1.0 - alpha)
    if rho <= -_RHO_DEGENERATE:
        return std_normal_quantile(1.0 - alpha / 2.0)
    lo = std_normal_quantile(1.0 - alpha)
    hi = std_normal_quantile(1.0 - alpha / 2.0)

    def gap(c: float) -> float:
        return bvn_lower_orthant(c, rho) - (1.0 - alpha)

    # Near-degenerate rho pushes the root onto a bracket end; quadrature noise
    # may then give the end the "wrong" sign, so settle those cases directly.
    if gap(lo) >= 0.0:
        return lo
    if gap(hi) <= 0.0:
        return hi
    from scipy import optimize

    return float(optimize.brentq(gap, lo, hi, xtol=1e-10, rtol=8.9e-16))
