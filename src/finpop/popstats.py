"""Finite-population moments, cross-arm covariance structures, and the
regularity diagnostics that govern when randomization distributions are
approximately normal.

Everything here is a pure function of fixed population quantities; no
randomness is involved. Variance divisors are N - 1 throughout, which is what
makes the unbiasedness identities in `estimators` exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import _check_sizes
from .errors import DegenerateInputError, ValidationError

__all__ = [
    "PopMoments",
    "CovStructure",
    "CREConditionStats",
    "pop_moments",
    "sample_cov",
    "srs_mean_var",
    "hajek_condition_stat",
    "partition_condition_stat",
    "unit_contrasts",
    "pot_cov_structure",
    "cre_condition_stats",
]


@dataclass(frozen=True)
class PopMoments:
    """Mean, variance (divisor N - 1), and maximum squared deviation."""

    mean: float
    variance: float
    max_sq_dev: float


@dataclass(frozen=True)
class CovStructure:
    """Potential-outcome covariance structure for a Q-arm table.

    s2_within[q] is the p x p covariance of Y_i(q) over units; s_between[q, r]
    the cross covariance of Y_i(q) with Y_i(r); s2_tau the K x K covariance of
    the unit-level contrasts tau_i = sum_q A_q Y_i(q). All divisors are N - 1.
    """

    s2_within: np.ndarray
    s_between: np.ndarray
    s2_tau: np.ndarray


@dataclass(frozen=True)
class CREConditionStats:
    """Finite-N diagnostics for the Q-arm randomization CLT.

    clt_condition: max over arms q and contrast rows k of
        n_q^{-2} m_q(k) / (sum_r n_r^{-1} v_r(k) - N^{-1} v_tau(k)),
        the deviation-to-variance ratio that must vanish for the standardized
        contrast estimator to be asymptotically normal.
    additive_condition: max_{q,k} m_q(k) / (n_q v_q(k)), the simpler sufficient
        form appropriate under additive (constant) effects; 0/0 counts as 0.
    studentization_condition: max_q max_i ||Y_i(q) - Ybar(q)||^2 / N, which must
        vanish for sample covariances to estimate their population targets.
    degenerate: True when some clt_condition denominator is zero while its
        numerator is not (the estimator is exactly degenerate); such terms are
        excluded from the reported maximum.
    """

    clt_condition: float
    additive_condition: float
    studentization_condition: float
    degenerate: bool


def _as_population(values) -> np.ndarray:
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValidationError("population must be a non-empty 1-d array of values")
    if not np.all(np.isfinite(y)):
        raise ValidationError("population contains non-finite values")
    return y


def pop_moments(values) -> PopMoments:
    """Population mean, variance with divisor N - 1, and max squared deviation.

    A single-unit population has variance 0 by convention.
    """
    y = _as_population(values)
    n = y.size
    mean = float(y.mean())
    dev = y - mean
    if n == 1:
        return PopMoments(mean=mean, variance=0.0, max_sq_dev=0.0)
    variance = float(dev @ dev / (n - 1))
    return PopMoments(mean=mean, variance=variance, max_sq_dev=float(np.max(dev * dev)))


def sample_cov(u, v=None):
    """Covariance (divisor N - 1) of the columns of u with those of v
    (default u): an array for (N, K) inputs, a float for two vectors."""
    u = np.asarray(u, dtype=float)
    dev_u = u - u.mean(axis=0)
    dev_v = dev_u if v is None else np.asarray(v, dtype=float) - np.mean(v, axis=0)
    out = dev_u.T @ dev_v / (u.shape[0] - 1)
    return float(out) if out.ndim == 0 else out


def srs_mean_var(values, n: int) -> tuple[float, float]:
    """Exact mean and variance of the sample average of a size-n simple random
    sample drawn without replacement: (ybar, (1/n - 1/N) v_N)."""
    y = _as_population(values)
    big_n = y.size
    if not 1 <= n <= big_n:
        raise ValidationError(f"sample size must satisfy 1 <= n <= {big_n}, got {n}")
    m = pop_moments(y)
    return m.mean, (1.0 / n - 1.0 / big_n) * m.variance


def hajek_condition_stat(values, n: int) -> float:
    """Normality diagnostic for the sample mean under simple random sampling:
    (1 / min(n, N - n)) * (m_N / v_N).

    A sequence of (population, n) pairs admits a normal limit for the
    standardized sample mean exactly when this ratio tends to zero. A single
    call just reports the finite-N value; no direction is encoded.
    """
    y = _as_population(values)
    big_n = y.size
    if not 1 <= n <= big_n - 1:
        raise ValidationError(
            f"sample size must satisfy 1 <= n <= N - 1 = {big_n - 1}, got {n}"
        )
    return partition_condition_stat(y, (n, big_n - n))


def partition_condition_stat(values, sizes) -> float:
    """Joint-normality diagnostic for the arm means of a random partition:
    (1 / min_q n_q) * (m_N / v_N)."""
    y = _as_population(values)
    sizes = _check_sizes(sizes)
    if sum(sizes) != y.size:
        raise ValidationError(
            f"arm sizes {sizes} sum to {sum(sizes)}, expected N = {y.size}"
        )
    m = pop_moments(y)
    if m.variance == 0.0:
        raise DegenerateInputError("constant population: m_N / v_N is undefined")
    return (1.0 / min(sizes)) * (m.max_sq_dev / m.variance)


def as_table(table) -> np.ndarray:
    """Coerce a potential-outcome table to shape (N, Q, p)."""
    t = np.asarray(table, dtype=float)
    if t.ndim == 2:
        t = t[:, :, np.newaxis]
    if t.ndim != 3:
        raise ValidationError("potential-outcome table must have shape (N, Q) or (N, Q, p)")
    if not np.all(np.isfinite(t)):
        raise ValidationError("potential-outcome table contains non-finite values")
    return t


def as_contrast(contrast, q: int) -> np.ndarray:
    """Coerce contrast coefficients to shape (Q, K, p).

    Accepts a length-Q vector (K = p = 1), a (Q, K) matrix of scalar-outcome
    coefficients, or the full (Q, K, p) stack.
    """
    a = np.asarray(contrast, dtype=float)
    if a.ndim == 1:
        a = a[:, np.newaxis, np.newaxis]
    elif a.ndim == 2:
        a = a[:, :, np.newaxis]
    if a.ndim != 3 or a.shape[0] != q:
        raise ValidationError(
            f"contrast must have Q = {q} coefficient matrices, got shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise ValidationError("contrast contains non-finite values")
    if not np.any(a):
        raise ValidationError("contrast must have at least one nonzero coefficient")
    return a


def unit_contrasts(table, contrast) -> np.ndarray:
    """Unit-level contrast values tau_i = sum_q A_q Y_i(q), shape (N, K)."""
    t = as_table(table)
    a = as_contrast(contrast, t.shape[1])
    if a.shape[2] != t.shape[2]:
        raise ValidationError(
            f"contrast outcome dimension {a.shape[2]} != table dimension {t.shape[2]}"
        )
    # (N, Q, p) x (Q, K, p) -> (N, K)
    return np.einsum("nqp,qkp->nk", t, a)


def pot_cov_structure(table, contrast) -> CovStructure:
    """Within-arm, between-arm, and contrast covariances of a potential table.

    The identity
        s2_tau = sum_q A_q s2_within[q] A_q' + sum_{q != r} A_q s_between[q, r] A_r'
    holds exactly because every unit carries a full row of potential outcomes.
    """
    t = as_table(table)
    n, q_arms, p = t.shape
    if n < 2:
        raise DegenerateInputError("covariances need at least two units")
    a = as_contrast(contrast, q_arms)
    full = sample_cov(t.reshape(n, q_arms * p)).reshape(q_arms, p, q_arms, p)
    s_between = full.transpose(0, 2, 1, 3)
    return CovStructure(
        s2_within=s_between[np.arange(q_arms), np.arange(q_arms)],
        s_between=s_between,
        s2_tau=sample_cov(unit_contrasts(t, a)),
    )


def cre_condition_stats(table, contrast, sizes) -> CREConditionStats:
    """Regularity diagnostics for a completely randomized Q-arm experiment.

    See CREConditionStats for the three maxima. m_q(k) and v_q(k) are the max
    squared deviation and variance of the transformed values (A_q Y_i(q))_k
    over units; v_tau(k) of the unit contrasts.
    """
    t = as_table(table)
    n, q_arms, _p = t.shape
    a = as_contrast(contrast, q_arms)
    sizes = _check_sizes(sizes)
    if len(sizes) != q_arms:
        raise ValidationError(f"need {q_arms} arm sizes, got {sizes}")
    if sum(sizes) != n:
        raise ValidationError(f"arm sizes {sizes} must sum to N = {n}")
    if n < 2:
        raise DegenerateInputError("diagnostics need at least two units")
    k_rows = a.shape[1]
    # transformed[q, k, i] = (A_q Y_i(q))_k
    transformed = np.einsum("qkp,nqp->qkn", a, t)
    dev = transformed - transformed.mean(axis=2, keepdims=True)
    v = np.einsum("qkn,qkn->qk", dev, dev) / (n - 1)
    m = np.max(dev * dev, axis=2)

    tau_i = unit_contrasts(t, a)
    tau_dev = tau_i - tau_i.mean(axis=0)
    v_tau = np.einsum("nk,nk->k", tau_dev, tau_dev) / (n - 1)

    inv_sizes = 1.0 / np.asarray(sizes, dtype=float)
    denom = inv_sizes @ v - v_tau / n  # exact Var(tau_hat_k), length K

    degenerate = False
    clt_terms = []
    for k in range(k_rows):
        num = inv_sizes**2 * m[:, k]
        if denom[k] <= 0.0:
            if np.any(num > 0.0):
                degenerate = True
            continue
        clt_terms.append(np.max(num) / denom[k])
    clt_condition = max(clt_terms) if clt_terms else 0.0

    # v_q(k) = 0 forces m_q(k) = 0, so masking the denominator keeps the
    # convention that 0/0 counts as 0.
    ratio = m / np.where(v > 0.0, np.asarray(sizes, float)[:, np.newaxis] * v, np.inf)
    additive_condition = float(np.max(ratio)) if ratio.size else 0.0

    sq_norm = np.sum((t - t.mean(axis=0)) ** 2, axis=2)  # (N, Q)
    studentization_condition = float(np.max(sq_norm) / n)

    return CREConditionStats(
        clt_condition=float(clt_condition),
        additive_condition=additive_condition,
        studentization_condition=studentization_condition,
        degenerate=degenerate,
    )
