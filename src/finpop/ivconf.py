"""Randomization-based instrumental-variable analysis.

Under the exclusion-restriction model the adjusted outcome A_i = Y_i - beta D_i
is a fixed constant for every unit when beta is the true effect ratio, so the
two-arm difference in means of A has known exact null moments: it is the
'diff' statistic of `randtests.sum_statistic` on A. Inverting its
normal-calibrated test over beta gives a confidence set that is the solution
of a quadratic inequality; depending on the instrument strength the set is an
interval, a half line, the complement of an open interval, a single point, the
whole line, or empty. All six shapes are represented and classified exactly.
`iv_summary` computes every moment once, and the set and the finite-N
normality condition are read from the summary it returns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distlib
from .errors import ValidationError
from .popstats import sample_cov

__all__ = ["IVSummary", "QuadraticSet", "iv_summary", "classify_quadratic"]

# Relative tolerance that collapses a floating-point discriminant to zero.
_DISC_RTOL = 1e-12


@dataclass(frozen=True)
class IVSummary:
    """Pooled summary statistics entering the quadratic inequality.

    tau_hat_y and tau_hat_d are the assigned-minus-unassigned differences in
    means of response and dose; s2_y, s2_d, s_yd the pooled finite-population
    variances and covariance of the observed values (divisor N - 1); eta the
    threshold N / (n_1 n_0) * (Phi^{-1}(alpha/2))^2.

    condition is the finite-N normality diagnostic of the adjusted statistic,
    valid for every beta at once,
    (1 / min(n_1, n_0)) [ max_i (Y_i - Ybar)^2 / (s2_Y - s_YD^2 / s2_D)
                        + max_i (D_i - Dbar)^2 / (s2_D - s_YD^2 / s2_Y) ],
    or None where a denominator is not positive (a constant series, or d
    exactly proportional to y) and the diagnostic is undefined.
    """

    tau_hat_y: float
    tau_hat_d: float
    s2_y: float
    s2_d: float
    s_yd: float
    eta: float
    n1: int
    n0: int
    alpha: float
    condition: float | None

    @property
    def confidence_set(self) -> QuadraticSet:
        """Confidence set for the effect ratio beta: all beta whose adjusted
        statistic passes the level-alpha normal-calibrated test, which is the
        solution set of
        (tau_D^2 - eta s2_D) beta^2 - 2 (tau_D tau_Y - eta s_YD) beta
            + (tau_Y^2 - eta s2_Y) <= 0.
        """
        return classify_quadratic(
            self.tau_hat_d**2 - self.eta * self.s2_d,
            self.tau_hat_d * self.tau_hat_y - self.eta * self.s_yd,
            self.tau_hat_y**2 - self.eta * self.s2_y,
        )


@dataclass(frozen=True)
class QuadraticSet:
    """Solution set of a quadratic inequality a b^2 - 2 b x + c <= 0 in x.

    kind is one of empty, point, interval, half_line_up, half_line_down,
    complement, whole_line. endpoints holds () for empty/whole_line, (c,) for
    point and half lines, and (c1, c2) with c1 <= c2 otherwise; for
    'complement' the set is (-inf, c1] union [c2, inf). All sets are closed.
    """

    kind: str
    endpoints: tuple[float, ...]

    def contains(self, x: float, tol: float = 0.0) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "whole_line":
            return True
        if self.kind == "point":
            return abs(x - self.endpoints[0]) <= tol
        if self.kind == "interval":
            return self.endpoints[0] - tol <= x <= self.endpoints[1] + tol
        if self.kind == "half_line_up":
            return x >= self.endpoints[0] - tol
        if self.kind == "half_line_down":
            return x <= self.endpoints[0] + tol
        # complement of the open interval (c1, c2)
        return x <= self.endpoints[0] + tol or x >= self.endpoints[1] - tol


def _check_iv(z, d, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    z = np.asarray(z)
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (z.ndim == d.ndim == y.ndim == 1) or not (z.size == d.size == y.size):
        raise ValidationError("z, d, y must be 1-d arrays of equal length")
    if not np.isin(z, (0, 1)).all():
        raise ValidationError("assignment indicator z must be binary with values 0 and 1")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(y))):
        raise ValidationError("d and y must be finite")
    n1 = int(z.sum())
    n0 = int(z.size - n1)
    if n1 == 0 or n0 == 0:
        raise ValidationError("both assignment groups must be nonempty")
    return z.astype(bool), d, y, n1, n0


def _condition(y, d, s2_y, s2_d, s_yd, n_min) -> float | None:
    if s2_y == 0.0 or s2_d == 0.0:
        return None
    den_y = s2_y - s_yd**2 / s2_d
    den_d = s2_d - s_yd**2 / s2_y
    if den_y <= 0.0 or den_d <= 0.0:
        return None
    m_y = float(np.max((y - y.mean()) ** 2))
    m_d = float(np.max((d - d.mean()) ** 2))
    return (m_y / den_y + m_d / den_d) / n_min


def iv_summary(z, d, y, alpha: float) -> IVSummary:
    """Pooled moments, the eta threshold and the normality condition of the
    effect-ratio analysis, from one validation of (z, d, y)."""
    distlib.check_alpha(alpha)
    z, d, y, n1, n0 = _check_iv(z, d, y)
    n = n1 + n0
    quantile = distlib.std_normal_quantile(alpha / 2.0)
    s2_y, s2_d, s_yd = sample_cov(y), sample_cov(d), sample_cov(y, d)
    return IVSummary(
        tau_hat_y=float(y[z].mean() - y[~z].mean()),
        tau_hat_d=float(d[z].mean() - d[~z].mean()),
        s2_y=s2_y,
        s2_d=s2_d,
        s_yd=s_yd,
        eta=n / (n1 * n0) * quantile**2,
        n1=n1,
        n0=n0,
        alpha=alpha,
        condition=_condition(y, d, s2_y, s2_d, s_yd, min(n1, n0)),
    )


def classify_quadratic(a: float, b: float, c: float) -> QuadraticSet:
    """Closed solution set of a x^2 - 2 b x + c <= 0.

    The discriminant 4 b^2 - 4 a c is treated as zero when it is within
    1e-12 * max(|4 b^2|, |4 a c|) of zero, which makes the boundary rows
    (single point, tangent whole line) reachable deterministically. The
    leading coefficient is compared with exact zero; degenerate-linear rows
    arise from constructed inputs, not from noisy data.
    """
    a, b, c = float(a), float(b), float(c)
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not np.isfinite(value):
            raise ValidationError(f"coefficient {name} must be finite, got {value}")
    if a == 0.0:
        if b > 0.0:
            return QuadraticSet(kind="half_line_up", endpoints=(c / (2.0 * b),))
        if b < 0.0:
            return QuadraticSet(kind="half_line_down", endpoints=(c / (2.0 * b),))
        if c > 0.0:
            return QuadraticSet(kind="empty", endpoints=())
        return QuadraticSet(kind="whole_line", endpoints=())
    disc = b * b - a * c
    if abs(disc) <= _DISC_RTOL * max(b * b, abs(a * c)):
        disc = 0.0
    if a > 0.0:
        if disc < 0.0:
            return QuadraticSet(kind="empty", endpoints=())
        if disc == 0.0:
            return QuadraticSet(kind="point", endpoints=(b / a,))
        root = np.sqrt(disc)
        return QuadraticSet(kind="interval", endpoints=((b - root) / a, (b + root) / a))
    if disc <= 0.0:
        return QuadraticSet(kind="whole_line", endpoints=())
    root = np.sqrt(disc)
    # a < 0 flips the division, so (b + root)/a is the smaller endpoint.
    return QuadraticSet(kind="complement", endpoints=((b + root) / a, (b - root) / a))
