"""Point estimators, exact repeated-sampling moments, variance estimators,
and confidence regions for completely randomized Q-arm experiments.

The estimand is a general contrast tau(A) = sum_q A_q Ybar(q) with one K x p
coefficient matrix per arm. Over the uniform random partition the plug-in
estimator is exactly unbiased with covariance
    sum_q A_q S2_q A_q' / n_q - S2_tau / N,
and the observable variance estimator overshoots by exactly S2_tau / N, the
effect-heterogeneity term that has no unbiased estimator. Those three facts
are what the enumeration oracle in the harness checks.
"""

from __future__ import annotations

import numpy as np

from . import distlib
from .designs import ArmBlock, FactorialSpec, _check_sizes, _singular, check_centered, null_factor
from .errors import SingularMatrixError, ValidationError
from .popstats import as_contrast, as_table, pot_cov_structure, sample_cov

__all__ = [
    "arm_sizes",
    "tau_true",
    "tau_hat",
    "neyman_cov_true",
    "neyman_estimate",
    "wald_threshold",
    "normal_interval",
    "regression_adjusted",
    "fit_ls_coefs",
    "finite_pop_ls",
    "cluster_adjusted",
    "factorial_null_moments",
]


def _arm_block(labels, q_arms: int | None = None) -> ArmBlock:
    """Labels (one assignment, a block or its ArmBlock) as an ArmBlock whose
    arms are all nonempty in every assignment."""
    arms = labels if isinstance(labels, ArmBlock) else ArmBlock(labels, q_arms)
    if q_arms is not None and arms.q != q_arms:
        raise ValidationError(f"the labels are for {arms.q} arms, expected {q_arms}")
    if np.any(arms.counts == 0):
        empty = np.flatnonzero(np.any(arms.counts == 0, axis=0)) + 1
        raise ValidationError(f"arms {empty.tolist()} have no observations")
    return arms


def arm_sizes(labels, q_arms: int | None = None) -> np.ndarray:
    """Counts per arm: length Q for one assignment, (B, Q) for a (B, N)
    block or an ArmBlock; every arm of every assignment must be nonempty."""
    counts = _arm_block(labels, q_arms).counts
    return counts[0] if np.ndim(labels) == 1 else counts


def _block_means(labels, y, contrast):
    """Checked inputs of the contrast estimators as a block (B = 1 for one
    assignment): the ArmBlock of the labels, the (B, N, p) outcomes, the
    (Q, K, p) contrast and the (B, Q, p) arm means."""
    q_arms = np.asarray(contrast).shape[0]
    arms = _arm_block(labels, q_arms)
    lead = np.shape(labels) if np.ndim(labels) == 1 else arms.shape
    y = np.asarray(y, dtype=float)
    if y.shape[:len(lead)] != lead or y.ndim > len(lead) + 1:
        raise ValidationError(f"outcomes must have shape {lead} or {lead} + (p,), got {y.shape}")
    a = as_contrast(contrast, q_arms)
    y = y.reshape(arms.shape + (-1,))
    if a.shape[2] != y.shape[2]:
        raise ValidationError(
            f"contrast outcome dimension {a.shape[2]} != data dimension {y.shape[2]}"
        )
    means = arms.sums(y) / arms.counts[:, :, np.newaxis]
    # a non-finite outcome makes its arm's sum non-finite
    if not np.all(np.isfinite(means)):
        raise ValidationError("outcomes contain non-finite values or their arm sums overflow")
    return arms, y, a, means


def tau_true(table, contrast) -> np.ndarray:
    """Population contrast tau(A) = sum_q A_q Ybar(q)."""
    t = as_table(table)
    a = as_contrast(contrast, t.shape[1])
    return np.einsum("qkp,qp->k", a, t.mean(axis=0))


def tau_hat(labels, y, contrast) -> np.ndarray:
    """Plug-in contrast estimate sum_q A_q Ybar_hat(q).

    Length K for one assignment (labels (N,), outcomes (N,) or (N, p));
    (B, K) for a (B, N) label block, or its `designs.ArmBlock`, with outcomes
    (B, N) or (B, N, p).
    """
    _, _, a, means = _block_means(labels, y, contrast)
    out = np.einsum("qkp,bqp->bk", a, means)
    return out[0] if np.ndim(labels) == 1 else out


def neyman_cov_true(table, contrast, sizes) -> np.ndarray:
    """Exact repeated-sampling covariance of the contrast estimator:
    sum_q A_q S2_q A_q' / n_q - S2_tau / N."""
    t = as_table(table)
    n, q_arms, _ = t.shape
    a = as_contrast(contrast, q_arms)
    sizes = _check_sizes(sizes)
    if len(sizes) != q_arms:
        raise ValidationError(f"need {q_arms} arm sizes, got {sizes}")
    if sum(sizes) != n:
        raise ValidationError(f"arm sizes {sizes} must sum to N = {n}")
    structure = pot_cov_structure(t, a)
    cov = -structure.s2_tau / n
    for q in range(q_arms):
        cov = cov + a[q] @ structure.s2_within[q] @ a[q].T / sizes[q]
    return cov


def _arm_scatter(arms: ArmBlock, y, means) -> np.ndarray:
    """(B, Q, p, p) arm sums of products of deviations of the (B, N, p)
    outcomes from their (B, Q, p) arm means. This second pass of arm sums
    follows the means, so a common offset in y cancels before squaring.
    Only the p (p + 1) / 2 products on and above the diagonal are summed;
    the lower triangle mirrors them."""
    dev = arms.spread(means)
    np.subtract(y, dev, out=dev)
    p = dev.shape[-1]
    rows, cols = np.triu_indices(p)
    with np.errstate(over="ignore"):
        upper = arms.sums(dev[:, :, rows] * dev[:, :, cols])
    if not np.all(np.isfinite(upper)):
        raise ValidationError("the squared deviations from the arm means overflow")
    out = np.empty(arms.counts.shape + (p, p))
    out[:, :, rows, cols] = upper
    out[:, :, cols, rows] = upper
    return out


def neyman_estimate(labels, y, contrast) -> tuple[np.ndarray, np.ndarray]:
    """The plug-in estimate `tau_hat` and its observable covariance estimator
    sum_q A_q s2_q A_q' / n_q, with arm-wise sample covariances (divisor
    n_q - 1), from one pass of arm means.

    The covariance estimator's expectation exceeds the true covariance by
    exactly S2_tau / N, so intervals built from it are conservative. Inputs
    are as for `tau_hat`; the results are (K,) and K x K for one assignment,
    (B, K) and (B, K, K) for a block. The arm covariances are the arm
    scatter matrices of `_arm_scatter` over n_q - 1.
    """
    arms, y, a, means = _block_means(labels, y, contrast)
    counts = arms.counts
    if np.any(counts < 2):
        small = np.flatnonzero(np.any(counts < 2, axis=0)) + 1
        raise ValidationError(
            f"arms {small.tolist()} have fewer than 2 observations; "
            "sample covariances are undefined"
        )
    point = np.einsum("qkp,bqp->bk", a, means)
    s2 = _arm_scatter(arms, y, means)
    s2 /= (counts * (counts - 1))[:, :, np.newaxis, np.newaxis]
    cov = np.einsum("qkp,bqpr,qlr->bkl", a, s2, a)
    return (point[0], cov[0]) if np.ndim(labels) == 1 else (point, cov)


def wald_threshold(cov, alpha: float) -> float:
    """The chi-square (K, 1 - alpha) quantile that bounds the Wald region
    {mu : (t - mu)' cov^{-1} (t - mu) <= threshold} of a K x K estimated
    covariance, refusing a numerically singular one."""
    distlib.check_alpha(alpha)
    w = np.linalg.eigvalsh(np.asarray(cov, dtype=float))
    if _singular(w):
        raise SingularMatrixError(
            f"estimated covariance is numerically singular (eigenvalue {w[0]:.6g} "
            f"vs max {w[-1]:.6g}); consider dropping redundant contrast rows"
        )
    return distlib.chi2_quantile(w.size, 1.0 - alpha)


def normal_interval(point, variance, alpha: float) -> tuple:
    """Normal-calibrated interval point +/- Phi^{-1}(1 - alpha/2) variance^{1/2},
    elementwise when point and variance are arrays."""
    distlib.check_alpha(alpha)
    half = distlib.std_normal_quantile(1.0 - alpha / 2.0) * np.sqrt(variance)
    return point - half, point + half


def _as_covariates(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    if x.ndim != 2 or x.shape[0] != n:
        raise ValidationError(f"covariates must have shape ({n}, K)")
    if not np.all(np.isfinite(x)):
        raise ValidationError("covariates contain non-finite values")
    return x


def _adjusted_block(labels, y, x):
    """Checked inputs of the adjusted estimators as a block (B = 1 for one
    assignment): the two-arm ArmBlock of the labels, the (B, N) scalar
    outcomes and the (N, K) covariates that every row shares."""
    arms = _arm_block(labels, 2)
    lead = np.shape(labels) if np.ndim(labels) == 1 else arms.shape
    y = np.asarray(y, dtype=float)
    if y.shape not in (lead, lead + (1,)):
        raise ValidationError(f"the adjusted estimators take scalar outcomes of shape {lead}, "
                              f"got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("outcomes contain non-finite values")
    return arms, y.reshape(arms.shape), _as_covariates(x, arms.shape[1])


def regression_adjusted(labels, y, x, beta1, beta0) -> tuple[np.ndarray, np.ndarray]:
    """Covariate-adjusted two-arm estimator
    (1/n_1) sum_treated (Y_i - beta1'X_i) - (1/n_0) sum_control (Y_i - beta0'X_i)
    with variance estimate s2_1(beta1)/n_1 + s2_0(beta0)/n_0 on the adjusted
    outcomes: `neyman_estimate` of the observed adjusted outcome
    Y_i - beta_{L_i}'X_i under the contrast [1, -1].

    Labels are one assignment, a (B, N) block or its ArmBlock, y has their
    leading shape, and x is one centered (N, K) array for every row. Each
    coefficient is (K,) for every row or (B, K), one row per assignment. The
    results are shaped as `neyman_estimate`'s: (1,) and (1, 1) for one
    assignment, (B, 1) and (B, 1, 1) for a block.

    The coefficients must not depend on the realized assignment; with fixed
    coefficients and centered covariates the estimator is exactly unbiased.
    Plugging in estimated coefficients keeps the same variance formula, which
    is justified asymptotically (not exactly) and tagged accordingly by
    callers that do so.
    """
    arms, y, x = _adjusted_block(labels, y, x)
    check_centered(x)
    b, k = arms.shape[0], x.shape[1]
    beta = [np.atleast_1d(np.asarray(coef, dtype=float)) for coef in (beta1, beta0)]
    if any(coef.shape not in ((k,), (b, k)) for coef in beta):
        raise ValidationError(f"coefficients must have shape ({k},) or ({b}, {k})")
    # each unit's arm coefficients, spread from the stacked (B, 2, K) (beta1, beta0)
    unit_beta = arms.spread(np.broadcast_to(np.stack(beta, axis=-2), (b, 2, k)))
    point, cov = neyman_estimate(arms, y - np.einsum("bnk,nk->bn", unit_beta, x), [1.0, -1.0])
    return (point[0], cov[0]) if np.ndim(labels) == 1 else (point, cov)


def _ls_solve(s_xx: np.ndarray, s_xy: np.ndarray, what) -> np.ndarray:
    """Solve s_xx beta = s_xy for every leading index of the (..., K, K) s_xx
    and (..., K) s_xy, refusing a numerically singular s_xx; what(index)
    names the first singular one in the error."""
    w = np.linalg.eigvalsh(s_xx)
    singular = _singular(w)
    if np.any(singular):
        index = tuple(np.argwhere(singular)[0])
        cond = float("inf") if w[index][0] <= 0.0 else float(w[index][-1] / w[index][0])
        raise SingularMatrixError(
            f"{what(index)} covariate covariance is singular (condition number {cond:.3g})"
        )
    return np.linalg.solve(s_xx, s_xy[..., np.newaxis])[..., 0]


def fit_ls_coefs(labels, y, x) -> tuple[np.ndarray, np.ndarray]:
    """Arm-wise least-squares slopes of Y on X:
    beta_z = (arm sample cov of X)^{-1} (arm sample cov of X with Y), solved
    as scatter_XX beta_z = scatter_XY on the arm scatter matrices of [X, Y],
    where the divisor n_z - 1 cancels. Each arm needs K + 2 units: with
    K + 1 the slopes fit the arm exactly and its residual variance is 0.
    Inputs are as for `regression_adjusted`, but x need not be centered; each
    slope is (K,) for one assignment and (B, K) for a block."""
    arms, y, x = _adjusted_block(labels, y, x)
    k = x.shape[1]
    if np.any(arms.counts < k + 2):
        raise ValidationError(f"each arm needs at least K + 2 = {k + 2} observations")
    xy = np.concatenate([np.broadcast_to(x, arms.shape + (k,)), y[:, :, np.newaxis]], axis=2)
    scatter = _arm_scatter(arms, xy, arms.sums(xy) / arms.counts[:, :, np.newaxis])
    one = np.ndim(labels) == 1
    beta = _ls_solve(scatter[:, :, :k, :k], scatter[:, :, :k, k],
                     lambda i: f"arm {i[1] + 1}" + ("" if one else f" of assignment {i[0]}"))
    return (beta[0, 0], beta[0, 1]) if one else (beta[:, 0], beta[:, 1])


def finite_pop_ls(y_col, x) -> np.ndarray:
    """Population least-squares slope of one potential-outcome column on X:
    beta_z = (S2_X)^{-1} S_{X, Y(z)}, all divisors N - 1."""
    y_col = np.asarray(y_col, dtype=float)
    if y_col.ndim != 1 or y_col.size < 2:
        raise ValidationError("need a 1-d outcome column with N >= 2")
    x = _as_covariates(x, y_col.size)
    return _ls_solve(sample_cov(x), sample_cov(x, y_col), lambda index: "population")


def cluster_adjusted(
    cluster_labels, y_totals, x_totals, n_units: int, gamma1=None, gamma0=None
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster-randomized adjusted estimator on cluster totals:
    (M/N) [ (1/m_1) sum_treated (Ytot_j - gamma1'Xtot_j)
            - (1/m_0) sum_control (Ytot_j - gamma0'Xtot_j) ],
    with variance estimate (M/N)^2 (s2_1/m_1 + s2_0/m_0) on adjusted totals:
    `regression_adjusted` on the totals, with its inputs and shapes, scaled
    by M/N. Without covariates the totals are adjusted by a zero column with
    zero coefficients.

    Cluster totals of covariates must be centered; including cluster size as a
    covariate column is recommended but not required.
    """
    y_totals = np.asarray(y_totals, dtype=float)
    if y_totals.ndim not in (1, 2) or y_totals.size == 0:
        raise ValidationError("cluster totals must be a non-empty (M,) or (B, M) array")
    m_clusters = y_totals.shape[-1]
    n_units = int(n_units)
    if n_units < m_clusters:
        raise ValidationError(f"unit count {n_units} below cluster count {m_clusters}")
    x = _as_covariates(np.zeros(m_clusters) if x_totals is None else x_totals, m_clusters)
    zeros = np.zeros(x.shape[1])
    point, cov = regression_adjusted(
        cluster_labels, y_totals, x,
        zeros if gamma1 is None else gamma1, zeros if gamma0 is None else gamma0,
    )
    scale = m_clusters / n_units
    return scale * point, scale**2 * cov


def factorial_null_moments(v_n: float, sizes, spec: FactorialSpec):
    """Sharp-null moments of the factorial effect estimates: every arm sees
    the same fixed population with variance v_n, so
        Var_0(tau_hat_k) = 2^{-2(K-1)} v_n sum_q 1/n_q        (same for all k)
        Corr_0(tau_hat_k, tau_hat_m)
            = sum_q g_kq g_mq / n_q  /  sum_q 1/n_q.
    The variance is v_n times the exact `designs.null_factor` of one effect's
    column; the correlations stay one float product, since the exact (Q - 1)^2
    factor costs about Q^3 integer operations. Returns (variances, correlations)."""
    if v_n < 0.0:
        raise ValidationError(f"population variance must be >= 0, got {v_n}")
    variance = v_n * null_factor(2.0 ** (1 - spec.k) * spec.generators[:, 0], sizes)[0, 0]
    inv = 1.0 / np.asarray(sizes, dtype=float)
    g = spec.generators.astype(float)
    return np.full(spec.q_arms - 1, variance), (g.T * inv) @ g / inv.sum()
