"""Finite-population moment and condition-number tests.

Expected values for the worked examples were frozen from hand computation
(divisor N - 1 throughout, maximum squared deviation for the extreme term).
The structural identities are checked against brute-force enumeration or by
construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpop import popstats
from finpop.errors import DegenerateInputError, ValidationError

_finite_arrays = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=2,
    max_size=25,
).map(np.asarray)


def _mvm(values):
    """(mean, variance, max squared deviation) triple: the variance from
    `sample_cov`, the other two from numpy."""
    values = np.asarray(values, dtype=float)
    mean = float(np.mean(values))
    return mean, popstats.sample_cov(values), float(np.max((values - mean) ** 2))


# =========================================================================
# sample_cov / srs_mean_var
# =========================================================================


def test_pop_moments_worked_example():
    mean, v, m = _mvm([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5, abs=1e-15)
    assert v == pytest.approx(5.0 / 3.0, abs=1e-15)  # divisor N - 1
    assert m == pytest.approx(2.25, abs=1e-15)  # (4 - 2.5)^2


def test_pop_moments_single_unit():
    # one unit: the sample mean is the unit, with variance 0, and the
    # condition's m_N / v_N is undefined
    assert popstats.srs_mean_var([7.0], 1) == (7.0, 0.0)
    with pytest.raises(DegenerateInputError):
        popstats.partition_condition_stat([7.0], (1,))


def test_pop_moments_rejects_empty_and_nonfinite():
    for values in ([], [1.0, np.nan]):
        with pytest.raises(ValidationError):
            popstats.srs_mean_var(values, 1)
        with pytest.raises(ValidationError):
            popstats.partition_condition_stat(values, (1, 1))


@given(_finite_arrays)
def test_extreme_deviation_bounds_variance(pop):
    # m <= sum(dev^2) = (N-1) v, so m/v >= ... only the other direction is
    # universal: v <= N m/(N-1), hence m/v >= 1 - 1/N
    _, v, m = _mvm(pop)
    if v > 0:
        assert m / v >= (1.0 - 1.0 / pop.size) - 1e-9


def test_srs_mean_var_matches_enumeration():
    from finpop.designs import enumerate_partition_blocks

    pop = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    n = 2
    mean, var = popstats.srs_mean_var(pop, n)
    draws = [
        pop[np.asarray(lab) == 1].mean()
        for lab in np.concatenate(list(enumerate_partition_blocks((n, pop.size - n))))
    ]
    assert mean == pytest.approx(np.mean(draws), abs=1e-12)
    assert var == pytest.approx(np.var(draws), abs=1e-12)


def test_srs_full_sample_has_zero_variance():
    _, var = popstats.srs_mean_var([1.0, 2.0, 5.0], 3)
    assert var == 0.0


def test_srs_rejects_bad_sample_size():
    with pytest.raises(ValidationError):
        popstats.srs_mean_var([1.0, 2.0], 0)
    with pytest.raises(ValidationError):
        popstats.srs_mean_var([1.0, 2.0], 3)


# =========================================================================
# Condition statistics
# =========================================================================


def test_hajek_condition_worked_example():
    # N=4, n=2: (1/2) * m/v = 0.5 * 2.25 / (5/3)
    value = popstats.partition_condition_stat([1.0, 2.0, 3.0, 4.0], (2, 2))
    assert value == pytest.approx(0.675, abs=1e-15)


def test_hajek_condition_rejects_constant_population():
    with pytest.raises(DegenerateInputError):
        popstats.partition_condition_stat([2.0, 2.0, 2.0], (1, 2))


def test_hajek_condition_scale_invariant():
    pop = np.array([0.3, -1.2, 4.0, 2.2, -0.4])
    a = popstats.partition_condition_stat(pop, (2, 3))
    b = popstats.partition_condition_stat(5.0 * pop + 3.0, (2, 3))
    assert a == pytest.approx(b, rel=1e-12)


def test_partition_condition_uses_smallest_arm():
    pop = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    _, v, m = _mvm(pop)
    value = popstats.partition_condition_stat(pop, (1, 2, 3))
    assert value == pytest.approx(m / v / 1.0, rel=1e-12)


# =========================================================================
# Table and contrast coercion
# =========================================================================


def test_as_table_promotes_scalar_outcomes():
    table = popstats.as_table([[1.0, 2.0], [3.0, 4.0]])
    assert table.shape == (2, 2, 1)


def test_as_table_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        popstats.as_table(np.ones(3))
    with pytest.raises(ValidationError):
        popstats.as_table([[1.0, np.inf], [0.0, 1.0]])


def test_as_contrast_arms_are_rows():
    # 2-d input is (Q arms, K contrasts)
    contrast = popstats.as_contrast([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], 3)
    assert contrast.shape == (3, 2, 1)


def test_as_contrast_scalar_difference():
    contrast = popstats.as_contrast([1.0, -1.0], 2)
    assert contrast.shape == (2, 1, 1)


def test_as_contrast_rejects_wrong_arm_count_and_zero():
    with pytest.raises(ValidationError):
        popstats.as_contrast([1.0, -1.0], 3)
    with pytest.raises(ValidationError):
        popstats.as_contrast([0.0, 0.0], 2)


def test_unit_contrasts_difference_table():
    table = popstats.as_table([[1.0, 2.0], [3.0, 5.0]])
    values = popstats.unit_contrasts(table, [1.0, -1.0])
    assert values.shape == (2, 1)
    assert values[:, 0] == pytest.approx([-1.0, -2.0])


def test_s2_tau_two_point_example():
    # tau_i in {-2, 2}: S^2_tau = (4 + 4)/(2 - 1) = 8
    structure = popstats.pot_cov_structure([[-1.0, 1.0], [1.0, -1.0]], [1.0, -1.0])
    assert structure.s2_tau.shape == (1, 1)
    assert structure.s2_tau[0, 0] == pytest.approx(8.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_cov_structure_identity(n_units, seed):
    # s2_tau[k,m] = sum_{q,r} A_q[k] . Block_qr . A_r[m] holds exactly because
    # every unit carries a complete row of potential outcomes
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(n_units, 3, 2))
    contrast = rng.normal(size=(3, 2, 2))
    structure = popstats.pot_cov_structure(table, contrast)
    k_rows = contrast.shape[1]
    rhs = np.zeros((k_rows, k_rows))
    for k in range(k_rows):
        for m in range(k_rows):
            total = 0.0
            for q in range(3):
                for r in range(3):
                    block = (
                        structure.s2_within[q] if q == r else structure.s_between[q, r]
                    )
                    total += contrast[q, k] @ block @ contrast[r, m]
            rhs[k, m] = total
    assert structure.s2_tau == pytest.approx(rhs, abs=1e-9)


def test_between_cov_is_transpose_symmetric():
    rng = np.random.default_rng(3)
    structure = popstats.pot_cov_structure(
        rng.normal(size=(6, 2, 3)), rng.normal(size=(2, 1, 3))
    )
    assert structure.s_between[0, 1] == pytest.approx(structure.s_between[1, 0].T)


# =========================================================================
# Composite condition report
# =========================================================================


def test_sample_cov_matches_numpy():
    rng = np.random.default_rng(12)
    u, v = rng.normal(size=(30, 3)), rng.normal(size=(30, 2))
    assert popstats.sample_cov(u) == pytest.approx(np.cov(u, rowvar=False), abs=1e-12)
    both = np.cov(u, v, rowvar=False)
    assert popstats.sample_cov(u, v) == pytest.approx(both[:3, 3:], abs=1e-12)
    assert popstats.sample_cov(u[:, 0], v[:, 1]) == pytest.approx(both[0, 4], abs=1e-12)
    assert isinstance(popstats.sample_cov(u[:, 0], v[:, 1]), float)


def test_cre_condition_stats_finite_instance():
    rng = np.random.default_rng(7)
    table = rng.normal(size=(8, 2))
    stats = popstats.cre_condition_stats(table, [1.0, -1.0], (4, 4))
    assert not stats.degenerate
    assert stats.clt_condition >= 0.0
    assert stats.additive_condition >= 0.0
    assert stats.studentization_condition >= 0.0


def test_cre_clt_condition_matches_hand_formula():
    table = np.array([[1.0, 0.0], [3.0, 1.0], [2.0, 5.0], [4.0, 2.0]])
    sizes = (2, 2)
    stats = popstats.cre_condition_stats(table, [1.0, -1.0], sizes)
    _, v1, m1 = _mvm(table[:, 0])
    _, v0, m0 = _mvm(-table[:, 1])
    _, v_tau, _ = _mvm(table[:, 0] - table[:, 1])
    denom = v1 / 2 + v0 / 2 - v_tau / 4
    expected = max(m1 / 4, m0 / 4) / denom
    assert stats.clt_condition == pytest.approx(expected, rel=1e-12)


def test_cre_condition_stats_degenerate_flag():
    # Y(2) = -Y(1) with sizes (1,1): the contrast estimator is constant, so
    # the normalizing variance is exactly zero while deviations are not
    stats = popstats.cre_condition_stats(
        [[1.0, -1.0], [-1.0, 1.0]], [1.0, -1.0], (1, 1)
    )
    assert stats.degenerate


def test_partition_condition_stat_refuses_fractional_sizes():
    # truncated, (2.5, 3.9) would run as (2, 3), which sums to N = 5
    with pytest.raises(ValidationError, match="whole numbers, got 2.5"):
        popstats.partition_condition_stat([1.0, 4.0, 2.0, 8.0, 3.0], (2.5, 3.9))


def test_cre_condition_stats_rejects_size_mismatch():
    with pytest.raises(ValidationError):
        popstats.cre_condition_stats([[1.0, 2.0], [3.0, 4.0]], [1.0, -1.0], (1, 2))
