"""Estimator tests driven by exhaustive enumeration.

The expectation and covariance targets come from brute-force enumeration of
every assignment (the populations are small enough that the randomization
distribution is computed exactly), so the closed-form expressions are checked
against an independent oracle rather than against themselves.
"""

import numpy as np
import pytest

from finpop import designs, estimators, popstats
from finpop.errors import SingularMatrixError, ValidationError

Z_975 = 1.9599639845400542355  # mpmath, dps=40

# N=5, two arms, two outcome coordinates per arm
_TABLE_5 = np.array(
    [
        [[1.0, 0.5], [0.0, 1.0]],
        [[3.0, 1.0], [1.0, 0.0]],
        [[2.0, 2.5], [5.0, 2.0]],
        [[4.0, 0.0], [2.0, 4.0]],
        [[0.0, 1.5], [2.0, 1.0]],
    ]
)
_SIZES_5 = (2, 3)
# per-coordinate difference of arm means: K = 2 rows
_CONTRAST_5 = np.stack([np.eye(2), -np.eye(2)])


def _enumerated_estimates(table, sizes, contrast):
    """tau_hat over every assignment, one row per assignment."""
    table = popstats.as_table(table)
    rows = []
    for lab in np.concatenate(list(designs.enumerate_partition_blocks(sizes))):
        lab = np.asarray(lab)
        observed = table[np.arange(table.shape[0]), lab - 1]
        rows.append(estimators.tau_hat(lab, observed, contrast))
    return np.array(rows)


def _enumerated_cov_estimates(table, sizes, contrast):
    """The covariance estimate of neyman_estimate over every assignment."""
    table = popstats.as_table(table)
    rows = []
    for lab in np.concatenate(list(designs.enumerate_partition_blocks(sizes))):
        lab = np.asarray(lab)
        observed = table[np.arange(table.shape[0]), lab - 1]
        rows.append(estimators.neyman_estimate(lab, observed, contrast)[1])
    return np.array(rows)


# =========================================================================
# Point estimator: unbiasedness and exact covariance
# =========================================================================


def test_tau_hat_hand_values():
    labels = np.array([1, 1, 2, 2])
    y = np.array([1.0, 3.0, 0.0, 2.0])
    assert estimators.tau_hat(labels, y, [1.0, -1.0])[0] == pytest.approx(1.0)
    assert estimators.tau_true([[1.0, 0.0], [3.0, 2.0]], [1.0, -1.0])[0] == pytest.approx(
        1.0
    )


def test_tau_hat_unbiased_by_enumeration():
    draws = _enumerated_estimates(_TABLE_5, _SIZES_5, _CONTRAST_5)
    target = estimators.tau_true(_TABLE_5, _CONTRAST_5)
    assert draws.mean(axis=0) == pytest.approx(target, abs=1e-12)


def test_exact_covariance_matches_enumeration():
    draws = _enumerated_estimates(_TABLE_5, _SIZES_5, _CONTRAST_5)
    dev = draws - draws.mean(axis=0)
    empirical = dev.T @ dev / dev.shape[0]
    formula = estimators.neyman_cov_true(_TABLE_5, _CONTRAST_5, _SIZES_5)
    assert formula == pytest.approx(empirical, abs=1e-12)


def test_two_assignment_instance_has_variance_four():
    # table [[1,0],[3,2]], sizes (1,1): estimates {-1, 3}, variance 4
    table = [[1.0, 0.0], [3.0, 2.0]]
    cov = estimators.neyman_cov_true(table, [1.0, -1.0], (1, 1))
    assert cov[0, 0] == pytest.approx(4.0, abs=1e-14)
    draws = _enumerated_estimates(table, (1, 1), [1.0, -1.0])
    assert sorted(draws[:, 0].tolist()) == [-1.0, 3.0]


def test_tau_hat_rejects_label_gaps():
    with pytest.raises(ValidationError):
        estimators.tau_hat(np.array([1, 1, 1, 1]), np.zeros(4), [1.0, -1.0])


# =========================================================================
# Covariance estimator and its exact upward bias
# =========================================================================


def test_cov_estimator_bias_is_s2_tau_over_n():
    draws = _enumerated_cov_estimates(_TABLE_5, _SIZES_5, _CONTRAST_5)
    expected_vhat = draws.mean(axis=0)
    truth = estimators.neyman_cov_true(_TABLE_5, _CONTRAST_5, _SIZES_5)
    structure = popstats.pot_cov_structure(_TABLE_5, _CONTRAST_5)
    n = _TABLE_5.shape[0]
    assert expected_vhat - truth == pytest.approx(structure.s2_tau / n, abs=1e-12)


def _enumerated_block(sizes):
    return np.concatenate(list(designs.enumerate_partition_blocks(sizes, block=97)))


@pytest.mark.parametrize("sizes", [(3, 3, 2), (4, 4)])
def test_block_forms_equal_per_assignment_loop(sizes):
    # reference: masked arm means and two-pass arm covariances, one
    # assignment and one arm at a time
    rng = np.random.default_rng(sum(sizes))
    q, n = len(sizes), sum(sizes)
    table = rng.normal(size=(n, q, 2))
    contrast = rng.normal(size=(q, 3, 2))
    block = _enumerated_block(sizes)
    y = table[np.arange(n), block - 1]  # (B, N, p)
    taus, covs = estimators.neyman_estimate(block, y, contrast)
    assert np.array_equal(taus, estimators.tau_hat(block, y, contrast))
    assert taus.shape == (block.shape[0], 3) and covs.shape == (block.shape[0], 3, 3)
    for labels, y_b, tau_b, cov_b in zip(block, y, taus, covs):
        arms = [y_b[labels == k] for k in range(1, q + 1)]
        means = np.array([arm.mean(axis=0) for arm in arms])
        want_cov = sum(
            a_k @ ((arm - arm.mean(axis=0)).T @ (arm - arm.mean(axis=0)) / (n_k - 1)) @ a_k.T / n_k
            for a_k, arm, n_k in zip(contrast, arms, sizes)
        )
        assert tau_b == pytest.approx(np.einsum("qkp,qp->k", contrast, means), abs=1e-12)
        assert cov_b == pytest.approx(want_cov, abs=1e-12)
        assert tau_b == pytest.approx(estimators.tau_hat(labels, y_b, contrast), abs=1e-12)
        assert cov_b == pytest.approx(estimators.neyman_estimate(labels, y_b, contrast)[1],
                                      abs=1e-12)
    # a block indexed once gives the same estimates as its labels
    arms = designs.ArmBlock(block, q)
    tau_arms, cov_arms = estimators.neyman_estimate(arms, y, contrast)
    assert np.array_equal(tau_arms, taus) and np.array_equal(cov_arms, covs)
    assert np.array_equal(estimators.arm_sizes(block), arms.counts)


def test_cov_estimator_is_two_pass_under_a_large_offset():
    # a one-pass sum of squares loses every digit of these variances
    rng = np.random.default_rng(8)
    block = designs.draw_partition_batch((40, 50, 60), 8, rng)
    y = 1e8 + 1e6 * block + rng.normal(size=block.shape)
    covs = estimators.neyman_estimate(block, y, np.eye(3))[1]
    for labels, y_b, cov_b in zip(block, y, covs):
        for k, n_k in zip(range(1, 4), (40, 50, 60)):
            want = np.var(y_b[labels == k], ddof=1)
            assert cov_b[k - 1, k - 1] * n_k == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimators_reject_non_finite_outcomes(bad):
    block = np.array([[1, 1, 2, 2], [1, 2, 1, 2]])
    y = np.ones((2, 4))
    y[1, 2] = bad
    for estimate in (estimators.tau_hat, estimators.neyman_estimate):
        with pytest.raises(ValidationError, match="non-finite"):
            estimate(block, y, [1.0, -1.0])
        with pytest.raises(ValidationError, match="non-finite"):
            estimate(block[1], y[1], [1.0, -1.0])


def test_cov_estimator_rejects_singleton_arm():
    labels = np.array([1, 2, 2, 2])
    with pytest.raises(ValidationError, match="fewer than 2"):
        estimators.neyman_estimate(labels, np.arange(4.0), [1.0, -1.0])


# =========================================================================
# Intervals and regions
# =========================================================================


def _neyman_interval(labels, y, alpha):
    # the two-arm interval tau_hat +/- z (s2_1/n_1 + s2_0/n_0)^{1/2}
    point, cov = estimators.neyman_estimate(labels, y, [1.0, -1.0])
    return estimators.normal_interval(point[0], cov[0, 0], alpha)


def test_neyman_ci_frozen_endpoints():
    # tau_hat = 1, V_hat = s2_1/2 + s2_0/2 = 2, halfwidth = z * sqrt(2)
    labels = np.array([1, 1, 2, 2])
    y = np.array([1.0, 3.0, 0.0, 2.0])
    lo, hi = _neyman_interval(labels, y, 0.05)
    half = Z_975 * np.sqrt(2.0)
    assert lo == pytest.approx(1.0 - half, abs=1e-12)
    assert hi == pytest.approx(1.0 + half, abs=1e-12)


def test_wald_interval_equals_neyman_ci():
    # chi2_quantile(1, 1 - alpha) is the square of the normal quantile, so
    # the K = 1 region is point +/- sqrt(threshold v_hat); this is why the
    # coverage campaign counts the Neyman interval only
    rng = np.random.default_rng(2)
    labels = np.array([1] * 5 + [2] * 6)
    y = rng.normal(size=11)
    point, cov = estimators.neyman_estimate(labels, y, [1.0, -1.0])
    for alpha in (0.001, 0.01, 0.05, 0.10, 0.2, 0.32):
        half = np.sqrt(estimators.wald_threshold(cov, alpha) * cov[0, 0])
        assert (point[0] - half, point[0] + half) == pytest.approx(
            _neyman_interval(labels, y, alpha), abs=1e-12
        )


def test_wald_region_rejects_singular_cov():
    # duplicated contrast rows make the estimated covariance rank deficient
    rng = np.random.default_rng(3)
    labels = np.array([1, 1, 1, 2, 2, 2])
    y = rng.normal(size=6)
    cov = estimators.neyman_estimate(labels, y, [[1.0, 1.0], [-1.0, -1.0]])[1]
    with pytest.raises(SingularMatrixError):
        estimators.wald_threshold(cov, 0.05)
    for alpha in (0.0, 1.0):
        with pytest.raises(ValidationError, match="alpha"):
            estimators.wald_threshold(np.eye(2), alpha)


def test_one_singularity_tolerance_for_every_matrix_check():
    # the three refusals share the 1e-10 relative eigenvalue rule
    for small, singular in ((5e-11, True), (2e-10, False)):
        mat = np.diag([1.0, small])
        calls = (lambda: designs.inv_sqrt_psd(mat),
                 lambda: estimators.wald_threshold(mat, 0.05),
                 lambda: estimators._ls_solve(mat, np.ones(2), lambda index: "test"))
        for call in calls:
            if singular:
                with pytest.raises(SingularMatrixError):
                    call()
            else:
                call()


def test_normal_interval_formula_and_alpha_check():
    lo, hi = estimators.normal_interval(1.0, 2.0, 0.05)
    half = Z_975 * np.sqrt(2.0)
    assert (lo, hi) == pytest.approx((1.0 - half, 1.0 + half), abs=1e-12)
    for alpha in (0.0, 1.0, -0.1):
        with pytest.raises(ValidationError):
            estimators.normal_interval(1.0, 2.0, alpha)


def test_neyman_ci_requires_two_per_arm():
    with pytest.raises(ValidationError):
        _neyman_interval(np.array([1, 2, 2]), np.arange(3.0), 0.05)


# =========================================================================
# Regression adjustment
# =========================================================================

_REG_TABLE = np.array(
    [[1.0, 0.0], [4.0, 2.0], [2.0, 3.0], [8.0, 5.0], [9.0, 4.0], [12.0, 10.0]]
)
_REG_X = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])[:, None]
_REG_SIZES = (3, 3)


def _enumerated_adjusted(table, x, sizes, beta1, beta0):
    estimates = []
    for lab in np.concatenate(list(designs.enumerate_partition_blocks(sizes))):
        lab = np.asarray(lab)
        observed = table[np.arange(table.shape[0]), lab - 1]
        point, _ = estimators.regression_adjusted(lab, observed, x, beta1, beta0)
        estimates.append(point[0])
    return np.array(estimates)


def test_regression_adjusted_zero_beta_is_difference_in_means():
    labels = np.array([1, 1, 1, 2, 2, 2])
    y = _REG_TABLE[np.arange(6), labels - 1]
    point, _ = estimators.regression_adjusted(labels, y, _REG_X, [0.0], [0.0])
    assert point[0] == pytest.approx(
        estimators.tau_hat(labels, y, [1.0, -1.0])[0], abs=1e-14
    )


def test_regression_adjusted_unbiased_for_any_fixed_coefficients():
    target = estimators.tau_true(_REG_TABLE, [1.0, -1.0])[0]
    for beta1, beta0 in (([0.0], [0.0]), ([1.3], [-0.4]), ([0.8], [0.8])):
        draws = _enumerated_adjusted(_REG_TABLE, _REG_X, _REG_SIZES, beta1, beta0)
        assert draws.mean() == pytest.approx(target, abs=1e-12)


def test_population_ls_coefficients_minimize_enumerated_variance():
    beta1_opt = estimators.finite_pop_ls(_REG_TABLE[:, 0], _REG_X)
    beta0_opt = estimators.finite_pop_ls(_REG_TABLE[:, 1], _REG_X)
    best = _enumerated_adjusted(_REG_TABLE, _REG_X, _REG_SIZES, beta1_opt, beta0_opt)
    best_var = best.var()
    rng = np.random.default_rng(11)
    for _ in range(25):
        b1 = beta1_opt + rng.normal(scale=0.7, size=1)
        b0 = beta0_opt + rng.normal(scale=0.7, size=1)
        draws = _enumerated_adjusted(_REG_TABLE, _REG_X, _REG_SIZES, b1, b0)
        assert draws.var() >= best_var - 1e-12


def test_fit_ls_coefs_matches_lstsq_oracle():
    rng = np.random.default_rng(8)
    n = 40
    labels = designs.draw_partition_batch((22, 18), 1, rng)[0]
    x = rng.normal(size=(n, 2))
    y = 1.0 + x @ np.array([2.0, -1.0]) + rng.normal(scale=0.3, size=n)
    beta1, beta0 = estimators.fit_ls_coefs(labels, y, x)
    for q, beta in ((1, beta1), (2, beta0)):
        mask = labels == q
        design = np.column_stack([np.ones(mask.sum()), x[mask]])
        coef, *_ = np.linalg.lstsq(design, y[mask], rcond=None)
        assert beta == pytest.approx(coef[1:], abs=1e-10)


def _full_square_scatter(arms, y, means):
    # all p^2 products summed, the form the mirrored upper triangle replaces
    dev = y - arms.spread(means)
    b, n, p = dev.shape
    products = np.einsum("bnp,bnr->bnpr", dev, dev).reshape(b, n, p * p)
    return arms.sums(products).reshape(arms.counts.shape + (p, p))


@pytest.mark.parametrize("b, n, p", [(1, 7, 1), (5, 30, 2), (3, 101, 4), (2, 64, 6)])
def test_arm_scatter_upper_triangle_is_the_full_square_bit_for_bit(b, n, p):
    rng = np.random.default_rng(100 * p + n)
    arms = designs.ArmBlock(designs.draw_partition_batch((n // 3, n - n // 3), b, 5), 2)
    y = 1e3 + rng.standard_normal((b, n, p)) * rng.uniform(0.1, 50.0, p)
    means = arms.sums(y) / arms.counts[:, :, np.newaxis]
    got = estimators._arm_scatter(arms, y, means)
    np.testing.assert_array_equal(got, _full_square_scatter(arms, y, means))
    np.testing.assert_array_equal(got, np.swapaxes(got, -1, -2))


def test_fit_ls_coefs_is_unchanged_by_the_mirrored_scatter(monkeypatch):
    rng = np.random.default_rng(12)
    n = 500
    labels = designs.draw_partition_batch((240, 260), 1, rng)[0]
    x = rng.normal(size=(n, 3))
    y = 5.0 + x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=n)
    mirrored = estimators.fit_ls_coefs(labels, y, x)
    monkeypatch.setattr(estimators, "_arm_scatter", _full_square_scatter)
    full = estimators.fit_ls_coefs(labels, y, x)
    for got, want in zip(mirrored, full):
        np.testing.assert_array_equal(got, want)


def test_adjusted_estimators_are_two_pass_under_a_large_offset():
    # masked per-arm references; the 1e8 offset cancels in the arm deviations,
    # and points keep the absolute error of means near 1e8 (spacing 1.5e-8)
    rng = np.random.default_rng(9)
    n = 60
    labels = designs.draw_partition_batch((27, 33), 1, rng)[0]
    x = rng.normal(size=(n, 2))
    x -= x.mean(axis=0)
    y = 1e8 + 3.0 * (labels == 1) + x @ np.array([2.0, -1.0]) + rng.normal(size=n)
    beta1, beta0 = estimators.fit_ls_coefs(labels, y, x)
    masks = (labels == 1, labels == 2)
    for mask, beta in zip(masks, (beta1, beta0)):
        design = np.column_stack([np.ones(mask.sum()), x[mask]])
        coef, *_ = np.linalg.lstsq(design, y[mask] - 1e8, rcond=None)
        assert beta == pytest.approx(coef[1:], abs=1e-9)
    adjusted = [y[mask] - x[mask] @ beta for mask, beta in zip(masks, (beta1, beta0))]
    point = adjusted[0].mean() - adjusted[1].mean()
    var = sum(np.var(adj, ddof=1) / adj.size for adj in adjusted)
    got_point, got_cov = estimators.regression_adjusted(labels, y, x, beta1, beta0)
    assert got_point[0] == pytest.approx(point, abs=1e-6)
    assert got_cov[0, 0] == pytest.approx(var, rel=1e-9)
    assert tuple(estimators.arm_sizes(labels)) == (27, 33)
    cluster_point, cluster_cov = estimators.cluster_adjusted(labels, y, x, 150, beta1, beta0)
    assert cluster_point[0] == pytest.approx(0.4 * point, abs=1e-6)
    assert cluster_cov[0, 0] == pytest.approx(0.16 * var, rel=1e-9)
    plain_point, plain_cov = estimators.cluster_adjusted(labels, y, None, 150)
    want = 0.16 * sum(np.var(y[mask], ddof=1) / mask.sum() for mask in masks)
    assert plain_point[0] == pytest.approx(0.4 * (y[masks[0]].mean() - y[masks[1]].mean()),
                                           abs=1e-6)
    assert plain_cov[0, 0] == pytest.approx(want, rel=1e-9)


def test_adjusted_estimators_take_a_block_bit_for_bit_as_the_per_row_loop():
    # a (B, N) block, or its ArmBlock, gives each row's single-assignment
    # results bit for bit, with coefficients shared by every row or one row
    # of coefficients per assignment (the block fit); labels, outcomes or
    # coefficients of the wrong size are a ValidationError, not an IndexError
    rng = np.random.default_rng(10)
    n, b = 40, 25
    x = rng.normal(size=(n, 3)) * [1.0, 20.0, 0.3]
    x -= x.mean(axis=0)
    labels = designs.draw_partition_batch((18, 22), b, rng)
    y = 1e6 + x @ [0.5, -0.1, 4.0] + 3.0 * (labels == 1) + rng.normal(size=(b, n))
    arms = designs.ArmBlock(labels, 2)
    for k in (1, 2, 3):
        xk = x[:, :k]
        slopes = estimators.fit_ls_coefs(labels, y, xk)
        rows = [estimators.fit_ls_coefs(lab, y_row, xk) for lab, y_row in zip(labels, y)]
        assert all(beta.shape == (b, k) for beta in slopes)
        for got, want in zip(slopes, zip(*rows)):
            np.testing.assert_array_equal(got, np.stack(want))
        np.testing.assert_array_equal(estimators.fit_ls_coefs(arms, y, xk), slopes)
        shared = (rng.normal(size=k), rng.normal(size=k))
        for beta in (shared, slopes):
            def row_beta(i, beta=beta):
                return [coef if coef.ndim == 1 else coef[i] for coef in beta]

            for estimate, extra in ((estimators.regression_adjusted, ()),
                                    (estimators.cluster_adjusted, (3 * n,))):
                point, cov = estimate(labels, y, xk, *extra, *beta)
                assert point.shape == (b, 1) and cov.shape == (b, 1, 1)
                want = [estimate(labels[i], y[i], xk, *extra, *row_beta(i)) for i in range(b)]
                np.testing.assert_array_equal(point, np.stack([p for p, _ in want]))
                np.testing.assert_array_equal(cov, np.stack([c for _, c in want]))
                for got, block in zip(estimate(arms, y, xk, *extra, *beta), (point, cov)):
                    np.testing.assert_array_equal(got, block)
    short = designs.draw_partition_batch((5, 5), 1, rng)[0]
    with pytest.raises(ValidationError, match="scalar outcomes of shape"):
        estimators.regression_adjusted(short, y[0], x, [0.5, 0.1, 0.0], [0.2, 0.0, 0.0])
    with pytest.raises(ValidationError, match="scalar outcomes of shape"):
        estimators.fit_ls_coefs(short, y[0], x)
    with pytest.raises(ValidationError, match="scalar outcomes of shape"):
        estimators.fit_ls_coefs(labels, y[:, :-1], x)
    with pytest.raises(ValidationError, match="covariates must have shape"):
        estimators.fit_ls_coefs(labels, y, x[:-1])
    with pytest.raises(ValidationError, match="coefficients must have shape"):
        estimators.regression_adjusted(labels, y, x, rng.normal(size=(b + 1, 3)), np.zeros(3))


def test_fit_ls_coefs_needs_enough_observations():
    # K + 1 units fit an arm exactly and leave a zero plug-in variance
    x = np.random.default_rng(0).normal(size=(8, 2))
    labels = np.array([1, 1, 1, 2, 2, 2, 2, 2])
    with pytest.raises(ValidationError, match="K \\+ 2 = 4"):
        estimators.fit_ls_coefs(labels, np.arange(8.0), x)
    beta1, _ = estimators.fit_ls_coefs(np.array([1, 1, 1, 1, 2, 2, 2, 2]), np.arange(8.0), x)
    assert beta1.shape == (2,)


def test_regression_adjusted_requires_centered_covariates():
    labels = np.array([1, 1, 2, 2])
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    with pytest.raises(ValidationError, match="centered"):
        estimators.regression_adjusted(labels, np.arange(4.0), x, [0.0], [0.0])


# =========================================================================
# Cluster-randomized adjustment
# =========================================================================


def test_cluster_adjusted_unbiased_by_enumeration():
    rng = np.random.default_rng(21)
    m, n_units = 4, 11
    totals = rng.normal(size=(m, 2)) * 3.0  # potential totals per arm
    x_totals = rng.normal(size=(m, 1))
    x_totals = x_totals - x_totals.mean(axis=0)
    gamma1, gamma0 = np.array([0.6]), np.array([-0.2])
    target = (m / n_units) * (totals[:, 0].mean() - totals[:, 1].mean())
    estimates = []
    for lab in np.concatenate(list(designs.enumerate_partition_blocks((2, 2)))):
        lab = np.asarray(lab)
        observed = totals[np.arange(m), lab - 1]
        point, _ = estimators.cluster_adjusted(
            lab, observed, x_totals, n_units, gamma1, gamma0
        )
        estimates.append(point[0])
    assert np.mean(estimates) == pytest.approx(target, abs=1e-12)


def test_cluster_adjusted_without_covariates():
    labels = np.array([1, 2, 1, 2])
    totals = np.array([4.0, 1.0, 6.0, 3.0])
    point, _ = estimators.cluster_adjusted(labels, totals, None, 10)
    assert point[0] == pytest.approx((4.0 / 10.0) * (5.0 - 2.0))


def test_cluster_adjusted_is_the_adjusted_core_on_totals():
    rng = np.random.default_rng(4)
    labels = np.array([1, 2, 1, 2, 2, 1, 1, 2])
    totals = rng.normal(size=8) * 4.0
    x = rng.normal(size=(8, 2))
    x -= x.mean(axis=0)
    g1, g0 = np.array([0.5, -0.1]), np.array([0.2, 0.3])
    cluster_point, cluster_cov = estimators.cluster_adjusted(labels, totals, x, 20, g1, g0)
    point, cov = estimators.regression_adjusted(labels, totals, x, g1, g0)
    assert cluster_point[0] == 8 / 20 * point[0]
    assert cluster_cov[0, 0] == (8 / 20) ** 2 * cov[0, 0]


def test_cluster_adjusted_validates_unit_count():
    with pytest.raises(ValidationError):
        estimators.cluster_adjusted(np.array([1, 2, 1, 2]), np.ones(4), None, 3)


# =========================================================================
# Factorial effects
# =========================================================================


def test_factorial_effects_hand_example():
    spec = designs.factorial_contrasts(2)
    labels = np.array([1, 1, 2, 2, 3, 3, 4, 4])
    y = np.array([5.0, 6.0, 4.0, 4.0, 2.0, 3.0, 1.0, 0.5])
    effects = estimators.tau_hat(labels, y, spec.contrast)
    means = np.array([5.5, 4.0, 2.5, 0.75])
    assert effects == pytest.approx(0.5 * (spec.generators.T @ means))
    assert effects[0] == pytest.approx(3.125)
    assert effects[1] == pytest.approx(1.625)
    assert effects[2] == pytest.approx(-0.125)


def test_factorial_null_moments_unbalanced_sizes():
    # sizes (1,2,2,1): the two main effects correlate at exactly 1/3 under
    # the sharp null; each main effect is uncorrelated with the interaction
    spec = designs.factorial_contrasts(2)
    variances, correlations = estimators.factorial_null_moments(
        5.0 / 3.0, (1, 2, 2, 1), spec
    )
    assert np.all(variances == variances[0])
    assert correlations[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert correlations[0, 2] == pytest.approx(0.0, abs=1e-15)
    assert correlations[1, 2] == pytest.approx(0.0, abs=1e-15)
    assert np.diag(correlations) == pytest.approx(np.ones(3))


def test_factorial_null_moments_match_enumeration_balanced():
    # sharp null: the same outcome vector is seen whatever the assignment
    spec = designs.factorial_contrasts(2)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    v_n = popstats.pop_moments(y).variance
    variances, correlations = estimators.factorial_null_moments(v_n, (1, 1, 1, 1), spec)
    draws = np.array(
        [
            estimators.tau_hat(np.asarray(lab), y, spec.contrast)
            for lab in np.concatenate(list(designs.enumerate_partition_blocks((1, 1, 1, 1))))
        ]
    )
    dev = draws - draws.mean(axis=0)
    empirical = dev.T @ dev / draws.shape[0]
    assert np.diag(empirical) == pytest.approx(variances, abs=1e-12)
    d = np.sqrt(np.diag(empirical))
    assert empirical / np.outer(d, d) == pytest.approx(correlations, abs=1e-12)


def test_factorial_effects_rejects_wrong_arm_count():
    spec = designs.factorial_contrasts(2)
    with pytest.raises(ValidationError):
        estimators.tau_hat(np.array([1, 2, 3]), np.arange(3.0), spec.contrast)
