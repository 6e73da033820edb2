"""Randomization-test tests.

Frozen constants were computed by hand (rank algebra on N = 4) or with mpmath
at 40 decimal digits (normal and chi-square tails). Exact p-values are checked
against full enumeration; Monte Carlo p-values against the exact ones at the
resolution the replication count supports.
"""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import diff_in_means_stat, dose_rank_stat, extreme_rank_stats, wilcoxon_stat
from finpop import designs, distlib, estimators, randtests
from finpop.errors import (
    DegenerateInputError,
    EnumerationCapError,
    InternalCheckError,
    TieError,
    ValidationError,
)

# mpmath, dps=40
CHI2_SF_24_1 = 0.12133525035848214653
SQRT_24 = 1.5491933384829667541
P_MAX_RANK = 0.060667625179241073265  # 1 - Phi(sqrt(2.4))
HYPER_NORMAL_P = 0.38647623077123266493  # 2(1 - Phi(0.5 / sqrt(1/3)))

# canonical N=4 instance: arm 1 holds ranks {3,4}, arm 2 holds {1,2}
_LAB4 = np.array([2, 2, 1, 1])
_Y4 = np.array([1.0, 2.0, 3.0, 4.0])


# =========================================================================
# Rank transforms
# =========================================================================


def test_rank_transform_strict_orders_values():
    assert randtests.rank_transform([3.0, 1.0, 2.0]).tolist() == [3.0, 1.0, 2.0]


def test_rank_transform_strict_rejects_ties():
    with pytest.raises(TieError):
        randtests.rank_transform([1.0, 2.0, 2.0, 3.0])


def test_rank_transform_midrank_averages_ties():
    ranks = randtests.rank_transform([1.0, 2.0, 2.0, 3.0], "midrank")
    assert ranks.tolist() == [1.0, 2.5, 2.5, 4.0]


def test_rank_transform_rejects_unknown_policy():
    with pytest.raises(ValidationError):
        randtests.rank_transform([1.0, 2.0], "dense")


@pytest.mark.parametrize("policy", ["strict", "midrank"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_transform_rejects_non_finite(bad, policy):
    # a NaN would otherwise fall into one finite tie group and rank silently
    with pytest.raises(ValidationError, match="finite"):
        randtests.rank_transform([1.0, bad, 2.0, bad], policy)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]),
                min_size=1, max_size=40))
def test_rank_transform_midrank_matches_scipy_rankdata(values):
    from scipy.stats import rankdata

    y = np.array(values)
    assert np.array_equal(randtests.rank_transform(y, "midrank"),
                          rankdata(y, method="average"))


# =========================================================================
# Two-arm statistics
# =========================================================================


def test_diff_and_wilcoxon_stats_hand_values():
    assert diff_in_means_stat(_LAB4, _Y4) == pytest.approx(2.0)
    # ranks equal values here, so the rank difference matches
    assert wilcoxon_stat(_LAB4, _Y4) == pytest.approx(2.0)


def test_standardized_rank_means_hand_values():
    tilde = randtests.standardized_rank_means(_LAB4, _Y4)
    # sqrt(12 * 2 / (5 * 2)) * (Rbar_q - 2.5) = sqrt(2.4) * (+/-1)
    assert tilde == pytest.approx([SQRT_24, -SQRT_24], abs=1e-12)


def test_standardized_rank_means_rejects_non_permutation():
    with pytest.raises(TieError):
        randtests.standardized_rank_means(_LAB4, np.array([1.0, 2.0, 2.0, 4.0]))


@pytest.mark.parametrize("sizes", [(3, 3, 2), (4, 4)])
def test_standardized_rank_means_block_equals_per_assignment_loop(sizes):
    n = sum(sizes)
    ranks = np.random.default_rng(n).permutation(np.arange(1.0, n + 1.0))
    block = designs.enumerate_assignments(sizes)
    stats = randtests.standardized_rank_means(block, ranks)
    per_row = randtests.standardized_rank_means(block, np.tile(ranks, (block.shape[0], 1)))
    assert stats.shape == (block.shape[0], len(sizes))
    assert np.array_equal(stats, per_row)
    for labels, row in zip(block, stats):
        # reference: masked arm rank means, one arm at a time
        want = [np.sqrt(12.0 * n_q / ((n + 1.0) * (n - n_q)))
                * (ranks[labels == q].mean() - (n + 1.0) / 2.0)
                for q, n_q in enumerate(sizes, start=1)]
        assert row == pytest.approx(want, abs=1e-12)
        assert row == pytest.approx(randtests.standardized_rank_means(labels, ranks), abs=1e-12)


def test_standardized_rank_means_null_moments_by_enumeration():
    sizes = (2, 3)
    ranks = np.arange(1.0, 6.0)
    draws = np.array(
        [
            randtests.standardized_rank_means(np.asarray(lab), ranks)
            for lab in designs.enumerate_assignments(sizes)
        ]
    )
    assert draws.mean(axis=0) == pytest.approx(np.zeros(2), abs=1e-12)
    emp_cov = draws.T @ draws / draws.shape[0]
    assert emp_cov == pytest.approx(randtests.rank_null_cov(sizes), abs=1e-12)


def test_rank_null_cov_closed_form():
    cov = randtests.rank_null_cov((2, 3, 5))
    n = 10.0
    for q, n_q in enumerate((2.0, 3.0, 5.0)):
        assert cov[q, q] == pytest.approx(1.0)
        for r, n_r in enumerate((2.0, 3.0, 5.0)):
            if q != r:
                expected = -np.sqrt(n_q * n_r / ((n - n_q) * (n - n_r)))
                assert cov[q, r] == pytest.approx(expected, abs=1e-15)


# =========================================================================
# Rank analysis of variance
# =========================================================================


def test_kruskal_wallis_canonical_value():
    result = randtests.randomization_test("kw", _LAB4, _Y4)
    assert result.statistic == pytest.approx(2.4, abs=1e-12)
    assert result.p_value == pytest.approx(CHI2_SF_24_1, abs=1e-12)
    assert result.method == "chi2_approx"


def test_kruskal_wallis_dual_forms_agree_on_random_instances():
    rng = np.random.default_rng(15)
    for _ in range(50):
        q_arms = int(rng.integers(2, 5))
        sizes = rng.integers(1, 5, size=q_arms)
        n = int(sizes.sum())
        if n < q_arms + 1:
            continue
        labels = designs.draw_partition_batch(sizes.tolist(), 1, rng)[0]
        y = rng.permutation(np.arange(1.0, n + 1.0))
        result = randtests.randomization_test("kw", labels, y)  # internal check active
        ranks = randtests.rank_transform(y)
        tilde = randtests.standardized_rank_means(labels, ranks)
        counts = np.array([np.sum(labels == q) for q in range(1, q_arms + 1)])
        h_std = float(((n - counts) / n) @ (tilde**2))
        assert result.statistic == pytest.approx(h_std, abs=1e-10)


def test_kruskal_wallis_constant_outcome_is_degenerate():
    result = randtests.randomization_test(
        "kw", np.array([1, 1, 2, 2]), np.ones(4), ties="midrank"
    )
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert "degenerate" in result.method
    # max and range simulate a zero-variance normal reference: every draw ties
    for stat in ("max", "range"):
        result = randtests.randomization_test(
            stat, np.array([1, 1, 2, 2]), np.ones(4), ties="midrank", seed=1
        )
        assert result.p_value == 1.0
        assert result.method == "normal_approx(B=10000),degenerate"
    untied = randtests.randomization_test("max", np.array([1, 1, 2, 2]), np.arange(4.0), seed=1)
    assert untied.method == "normal_approx(B=10000)"


def test_kruskal_wallis_tags_tie_adjustment():
    result = randtests.randomization_test(
        "kw", np.array([1, 1, 2, 2]), np.array([1.0, 1.0, 2.0, 3.0]), ties="midrank"
    )
    assert result.method == "chi2_approx,ties_adjusted"


def test_kruskal_wallis_chi2_close_to_exact_enumeration():
    # moderate N: the chi-square approximation should land near the exact
    # randomization p-value of the same statistic
    rng = np.random.default_rng(4)
    labels = designs.draw_partition_batch((3, 3, 3), 1, rng)[0]
    y = rng.permutation(np.arange(1.0, 10.0))
    approx = randtests.randomization_test("kw", labels, y)
    exact = randtests.exact_randomization_pvalue(
        randtests.sum_statistic("kw", randtests.rank_transform(y), 3),
        labels,
        alternative="greater",
    )
    assert exact.statistic == approx.statistic
    assert abs(approx.p_value - exact.p_value) < 0.08


# =========================================================================
# Joint max-of-two-statistics rule
# =========================================================================


def _joint_normal(labels, columns):
    """The normal reference of `sum_statistic('joint', columns)` at the
    observed assignment: two outcomes reach it only through the library."""
    statistic = randtests.sum_statistic("joint", columns)
    sizes = estimators.arm_sizes(labels).astype(float)
    return statistic.tail(statistic(labels), sizes, "greater", 1, None)


def test_joint_test_rank_mode_perfectly_correlated():
    # y already equals its ranks, so the two statistics coincide: rho = 1,
    # the standardized value is sqrt(2.4), and p = 1 - Phi(sqrt(2.4))
    result = randtests.randomization_test("joint", _LAB4, _Y4)
    assert (result.method, result.alternative) == ("normal_approx", "greater")
    assert result.statistic == pytest.approx(SQRT_24, abs=1e-12)
    assert result.p_value == pytest.approx(P_MAX_RANK, abs=1e-9)
    # no rejection at 0.05: the critical value is Phi^-1(0.95) = 1.6449 > 1.5492
    assert result.statistic < distlib.solve_gamma_c(1.0, 0.05)
    assert result.p_value > 0.05


def test_joint_test_rejects_at_looser_level():
    result = randtests.randomization_test("joint", _LAB4, _Y4)
    assert result.statistic > distlib.solve_gamma_c(1.0, 0.10)  # Phi^-1(0.90) = 1.2816
    assert result.p_value < 0.10


def test_joint_test_two_outcome_antithetic_pair():
    # second outcome = -first: rho = -1, max(z, -z) = |z|, p is two-sided
    rng = np.random.default_rng(6)
    labels = np.array([1, 1, 1, 2, 2, 2])
    y1 = rng.normal(size=6)
    result = _joint_normal(labels, np.column_stack([y1, -y1]))
    z = diff_in_means_stat(labels, y1) / np.sqrt(y1.var(ddof=1) * 6 / 9)
    assert result.statistic == pytest.approx(abs(z), rel=1e-14)
    assert result.p_value == pytest.approx(
        2.0 * (1.0 - distlib.std_normal_cdf(abs(z))), abs=1e-9
    )


def test_joint_test_correlation_matches_corrcoef():
    rng = np.random.default_rng(9)
    labels = np.array([1] * 5 + [2] * 5)
    y = rng.normal(size=(10, 2))
    result = _joint_normal(labels, y)
    rho = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
    m = result.statistic
    want = 2.0 * distlib.std_normal_cdf(-m) - distlib.bvn_lower_orthant(-m, rho)
    assert result.p_value == pytest.approx(want, abs=1e-12)


def test_joint_test_rejects_degenerate_and_bad_mode():
    labels = np.array([1, 1, 2, 2])
    for method in randtests.TEST_METHODS:
        with pytest.raises(DegenerateInputError):
            randtests.randomization_test("joint", labels, np.ones(4), method,
                                         ties="midrank", b=9, seed=1)
    with pytest.raises(DegenerateInputError):
        randtests.sum_statistic("joint", np.column_stack([np.arange(4.0), np.ones(4)]))
    # two columns, and two arms
    with pytest.raises(ValidationError, match=r"\(N, 2\)"):
        randtests.sum_statistic("joint", np.arange(4.0))
    with pytest.raises(ValidationError, match="two arms"):
        randtests.randomization_test("joint", np.array([1, 1, 2, 2, 3, 3]), np.arange(6.0))


def test_joint_test_p_value_far_in_the_upper_tail(pair_max_sf):
    # a strong effect puts the larger standardized statistic past 10, where
    # P(max > m) is below 1e-23 and 1 - P(max <= m) rounds to 0
    rng = np.random.default_rng(3)
    labels = np.repeat([1, 2], 100)
    y = rng.normal(size=200) + 2.3 * (labels == 1)
    y2 = np.column_stack([y, rng.normal(size=200) + 1.6 * (labels == 1)])
    ranked = np.column_stack([y, randtests.rank_transform(y)])
    rank_mode = randtests.randomization_test("joint", labels, y)
    for mode, result, columns in (("rank", rank_mode, ranked),
                                  ("two_outcome", _joint_normal(labels, y2), y2)):
        assert result.statistic > 9.0
        ref = pair_max_sf(result.statistic, np.corrcoef(columns.T)[0, 1])
        assert abs(result.p_value - ref) <= 1e-12 * ref, mode


def test_joint_exact_p_value_matches_brute_force_enumeration():
    # every 4-of-10 assignment, each standardized difference from the scalar
    # reference statistics: z_j = diff_j / sqrt(N / (n_1 n_0) S_j^2)
    rng = np.random.default_rng(12)
    y = rng.normal(size=10) + np.linspace(0.0, 1.0, 10)
    labels = np.repeat([1, 2], [4, 6])
    ranks = randtests.rank_transform(y)
    scale = np.sqrt(10.0 / 24.0 * np.array([y.var(ddof=1), ranks.var(ddof=1)]))

    def joint(assignment):
        return max(diff_in_means_stat(assignment, y) / scale[0],
                   wilcoxon_stat(assignment, y) / scale[1])

    observed = joint(labels)
    count = total = 0
    for arm1 in itertools.combinations(range(10), 4):
        assignment = np.full(10, 2)
        assignment[list(arm1)] = 1
        count += joint(assignment) >= observed - 1e-12 * max(1.0, abs(observed))
        total += 1
    result = randtests.randomization_test("joint", labels, y, "exact")
    assert result.statistic == pytest.approx(observed, rel=1e-13)
    assert (result.p_value, result.method) == (count / total, "exact(count=210)")
    assert 0.0 < result.p_value < 1.0


# =========================================================================
# Rank functionals and their normal reference
# =========================================================================


def test_extreme_rank_stats_hand_values():
    labels = np.array([1, 1, 2, 2, 3, 3])
    ranks = np.array([6.0, 5.0, 1.0, 2.0, 3.0, 4.0])
    largest, spread = extreme_rank_stats(labels, ranks)
    assert largest == pytest.approx(5.5)
    assert spread == pytest.approx(4.0)


def test_dose_rank_stat_hand_value():
    labels = np.array([1, 1, 2, 2])
    doses = np.array([0.0, 1.0])
    assert dose_rank_stat(labels, _Y4, doses) == pytest.approx(3.5)


def _simulated_normal(sizes, observed, kind, b, seed):
    """The simulated normal reference of `sum_statistic(kind)` ('max' or
    'range') of untied ranks 1..N at the given arm sizes, evaluated at
    `observed`."""
    n = float(sum(sizes))
    statistic = randtests.sum_statistic(kind, np.arange(1.0, n + 1.0), len(sizes))
    return statistic.tail(observed, np.asarray(sizes, dtype=float), "greater", b, seed)


def test_rank_stat_normal_pvalue_is_seeded_and_bounded():
    a = _simulated_normal((4, 4, 4), 10.5, "max", 4000, 13)
    b = _simulated_normal((4, 4, 4), 10.5, "max", 4000, 13)
    assert a.p_value == b.p_value
    assert a.method == "normal_approx(B=4000)"
    assert a.alternative == "greater"
    assert 0.0 < a.p_value <= 1.0
    sky_high = _simulated_normal((4, 4, 4), 1e9, "max", 999, 13)
    assert sky_high.p_value == pytest.approx(1.0 / 1000.0)


def test_rank_stat_normal_pvalue_tracks_enumeration():
    # max arm rank mean on (3,3,3): compare the normal reference with the
    # exact randomization tail. Arm rank sums are integers over 3 slots, so
    # the exact law is a lattice with step 1/3; evaluating the continuous
    # reference half a step below the observed value removes the bias that
    # P(lattice >= t) carries its atom at t while P(continuous >= t) does not.
    rng = np.random.default_rng(10)
    labels = designs.draw_partition_batch((3, 3, 3), 1, rng)[0]
    y = rng.permutation(np.arange(1.0, 10.0))
    ranks = randtests.rank_transform(y)
    observed = extreme_rank_stats(labels, ranks)[0]
    exact = randtests.exact_randomization_pvalue(
        randtests.sum_statistic("max", ranks, 3), labels, alternative="greater"
    )
    assert exact.statistic == pytest.approx(observed, abs=1e-12)
    approx = _simulated_normal((3, 3, 3), observed - 1.0 / 6.0, "max", 40000, 5)
    assert abs(approx.p_value - exact.p_value) < 0.05


def test_rank_stat_normal_pvalue_validates_inputs():
    labels, y = np.array([1, 1, 1, 2, 2, 2]), np.arange(6.0)
    with pytest.raises(ValidationError):
        randtests.randomization_test("max", labels, y, "normal", b=0, seed=1)
    with pytest.raises(ValidationError):
        _simulated_normal((3, 3), 1.0, "slope", 10, 1)
    with pytest.raises(ValidationError):
        randtests.randomization_test("dose", labels, y, "normal", doses=[1.0], b=10, seed=1)


# Frozen p-values of the simulated functional as computed from arm rank
# means Rbar_q = (N + 1)/2 + sd_q Rtilde_q directly, with the untied-rank
# sd_q^2 = (N + 1)(N - n_q) / (12 n_q), before the functional became the
# `sum_statistic` reduction of the centered arm sums and sd_q the values' own
# S^2 (N - n_q) / (N n_q), equal to it for ranks 1..N.
@pytest.mark.parametrize("sizes, observed, kind, b, seed, doses, p_value", [
    ((4, 4, 4), 10.5, "max", 4000, 13, None, 0.01274681329667583),
    ((3, 3, 3), 4.0, "range", 5000, 2, None, 0.16296740651869626),
    ((5, 3), 5.6, "max", 3000, 7, None, 0.21159613462179275),
    ((6, 5, 4), 1.5, "range", 2000, 11, None, 0.8570714642678661),
])
def test_rank_stat_normal_pvalue_is_frozen(sizes, observed, kind, b, seed, doses, p_value):
    result = _simulated_normal(sizes, observed, kind, b, seed)
    assert result.p_value == p_value


def test_dose_normal_reference_is_the_closed_form():
    # sum_q d_q Rbar_q has null mean Rbar sum_q d_q and variance
    # S^2 (sum_q d_q^2 / n_q - (sum_q d_q)^2 / N); no seed is needed
    rng = np.random.default_rng(19)
    sizes = np.array([4.0, 5.0, 6.0])
    labels = rng.permutation(np.repeat([1, 2, 3], [4, 5, 6]))
    y = rng.normal(size=15) + 0.4 * labels
    doses = np.array([0.0, 1.0, 2.5])
    result = randtests.randomization_test("dose", labels, y, "normal", doses=doses)
    ranks = randtests.rank_transform(y)
    var0 = ranks.var(ddof=1) * (doses @ (doses / sizes) - doses.sum() ** 2 / 15)
    shift = result.statistic - ranks.mean() * doses.sum()
    assert result.method == "normal_approx"
    assert result.null_variance == pytest.approx(var0, rel=1e-12)
    assert result.p_value == pytest.approx(distlib.std_normal_cdf(-shift / var0**0.5), rel=1e-9)


@pytest.mark.parametrize("method", ["normal", "exact", "mc"])
def test_kw_dual_form_check_catches_a_planted_error(monkeypatch, method):
    exact_form = randtests.standardized_rank_means
    monkeypatch.setattr(randtests, "standardized_rank_means",
                        lambda labels, ranks: exact_form(labels, ranks) + 1e-6)
    # unequal sizes: with equal ones the error cancels to first order
    labels = np.repeat([1, 2, 3], [2, 3, 4])
    y = np.array([4.0, 1.0, 2.0, 6.0, 3.0, 5.0, 9.0, 8.0, 7.0])
    with pytest.raises(InternalCheckError, match="rank statistic forms disagree"):
        randtests.randomization_test("kw", labels, y, method, b=99, seed=1)


def test_simulated_normal_reference_uses_the_midrank_variance():
    # a binary outcome under midranks: the dose statistic's null variance is
    # S^2 (sum d^2 / n - (sum d)^2 / N) with S^2 the midrank variance (511.9),
    # not the untied-rank variance 682.5, which gave p = 0.0142 here; the
    # closed form needs no seed
    labels = np.repeat([1, 2, 3], 30)
    y = np.concatenate([(np.arange(30) < ones).astype(float) for ones in (10, 15, 20)])
    doses = np.array([0.0, 1.0, 2.0])
    result = randtests.randomization_test("dose", labels, y, "normal", ties="midrank",
                                          doses=doses)
    ranks = randtests.rank_transform(y, "midrank")
    var0 = ranks.var(ddof=1) * (doses @ doses / 30 - doses.sum() ** 2 / 90)
    tail = distlib.std_normal_cdf(-(result.statistic - ranks.mean() * doses.sum()) / var0**0.5)
    assert tail == pytest.approx(0.00512, abs=5e-5)
    assert result.null_variance == pytest.approx(var0, rel=1e-12)
    assert result.p_value == pytest.approx(tail, rel=1e-9)


@pytest.mark.parametrize("kind", ["diff", "kw", "max", "range", "joint"])
def test_only_the_dose_statistic_takes_doses(kind):
    # 'diff' overwrote the doses with (1, -1), and the other kinds never read them
    values = np.arange(1.0, 7.0)
    with pytest.raises(ValidationError, match="only the 'dose' statistic takes doses"):
        randtests.sum_statistic(kind, np.column_stack([values, values ** 2])
                                if kind == "joint" else values, 2, (5.0, 7.0))


@pytest.mark.parametrize("doses", [(np.nan, 1.0, 2.0), (1.0, np.inf, 2.0), None])
def test_dose_statistic_needs_finite_doses(doses):
    with pytest.raises(ValidationError):
        randtests.sum_statistic("dose", np.arange(1.0, 7.0), 3, doses)
    with pytest.raises(ValidationError):
        randtests.randomization_test("dose", np.repeat([1, 2, 3], 2), np.arange(6.0), "normal",
                                     doses=doses, b=10, seed=1)


def test_randomization_test_validates_its_arguments():
    labels, y = np.array([1, 1, 2, 2]), np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValidationError, match="unknown statistic"):
        randtests.randomization_test("slope", labels, y)
    with pytest.raises(ValidationError, match="unknown method"):
        randtests.randomization_test("diff", labels, y, method="bootstrap")
    with pytest.raises(ValidationError, match="upper-tailed"):
        randtests.randomization_test("kw", labels, y, alternative="less")
    with pytest.raises(ValidationError, match="exact and normal"):
        randtests.randomization_test("hyper", labels, np.array([1, 0, 1, 0]), method="mc")
    with pytest.raises(ValidationError, match="seed"):
        randtests.randomization_test("diff", labels, y, method="mc")
    result = randtests.randomization_test("kw", labels, y)
    assert (result.alternative, result.method) == ("greater", "chi2_approx")
    result = randtests.randomization_test("wilcoxon", labels, y, method="exact")
    assert (result.alternative, result.p_value) == ("two_sided", 2.0 / 6.0)


@pytest.mark.parametrize("method", randtests.TEST_METHODS)
@pytest.mark.parametrize("stat", list(randtests.TEST_STATISTICS))
def test_randomization_test_needs_two_arms(stat, method):
    # max, range and dose under exact and mc returned p = 1 on one arm
    labels, y = np.ones(6, dtype=np.int64), np.array([1, 0, 1, 1, 0, 0])
    with pytest.raises(ValidationError, match="the test needs at least two arms"):
        randtests.randomization_test(stat, labels, y, method, doses=[1.0], b=99, seed=1)


@pytest.mark.parametrize("method", randtests.TEST_METHODS)
@pytest.mark.parametrize("stat", ["diff", "wilcoxon", "hyper"])
@pytest.mark.parametrize("alternative", ["bogus", "Greater", "two-sided"])
def test_randomization_test_refuses_unknown_alternatives(alternative, stat, method):
    # the normal reference of diff and wilcoxon took any unknown value for
    # 'two_sided' and reported it as the alternative
    labels, y = np.array([1, 1, 1, 2, 2, 2]), np.array([1, 0, 1, 1, 0, 0])
    with pytest.raises(ValidationError, match="unknown alternative"):
        randtests.randomization_test(stat, labels, y, method, alternative, b=99, seed=1)


# =========================================================================
# Hypergeometric count test
# =========================================================================


def test_hypergeom_null_moments_hand_values():
    # N=4, n=2, two ones: mean 1, variance 1/3
    labels = np.array([1, 1, 2, 2])
    y = np.array([1, 0, 1, 0])
    result = randtests.randomization_test("hyper", labels, y, "exact")
    assert result.null_mean == pytest.approx(1.0)
    assert result.null_variance == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_hypergeom_exact_tail_fractions():
    labels = np.array([1, 1, 2, 2])
    y_obs2 = np.array([1, 1, 0, 0])  # both ones in arm 1
    two_sided = randtests.randomization_test("hyper", labels, y_obs2, "exact")
    assert two_sided.p_value == pytest.approx(1.0 / 3.0, abs=1e-15)  # {0,2} of 6
    greater = randtests.randomization_test("hyper", labels, y_obs2, "exact", "greater")
    assert greater.p_value == pytest.approx(1.0 / 6.0, abs=1e-15)
    centered = randtests.randomization_test("hyper", labels, np.array([1, 0, 1, 0]), "exact")
    assert centered.p_value == 1.0  # observed at the null mean


def _hypergeom_fraction_pvalue(n, n_total, ones_total, observed, alternative):
    """Exact hypergeometric p-value in rational arithmetic: two `comb` calls
    per support point and a three-way rule on the distance from the mean."""
    mean = Fraction(n * ones_total, n_total)
    weight = 0
    for x in range(max(0, n - (n_total - ones_total)), min(n, ones_total) + 1):
        if alternative == "greater":
            extreme = x >= observed
        elif alternative == "less":
            extreme = x <= observed
        else:
            extreme = abs(x - mean) >= abs(observed - mean)
        if extreme:
            weight += comb(ones_total, x) * comb(n_total - ones_total, n - x)
    return float(Fraction(weight, comb(n_total, n)))


@given(
    n1=st.integers(1, 150),
    n0=st.integers(1, 150),
    ones1=st.integers(0, 150),
    ones0=st.integers(0, 150),
    alternative=st.sampled_from(["two_sided", "greater", "less"]),
)
# two-sided ties at a half-integer mean: x = 4 ties the observed 1 about 2.5,
# x = 12 ties 3 about 7.5, and x = 7 ties 0 about 3.5
@example(n1=5, n0=5, ones1=1, ones0=4, alternative="two_sided")
@example(n1=15, n0=15, ones1=3, ones0=12, alternative="two_sided")
@example(n1=7, n0=9, ones1=0, ones0=8, alternative="two_sided")
@settings(max_examples=150, deadline=None)
def test_hypergeom_exact_matches_rational_comb_loop(n1, n0, ones1, ones0, alternative):
    ones1, ones0 = min(ones1, n1), min(ones0, n0)
    labels = np.repeat([1, 2], [n1, n0])
    y = np.concatenate([np.arange(n1) < ones1, np.arange(n0) < ones0]).astype(int)
    result = randtests.randomization_test("hyper", labels, y, "exact", alternative)
    want = _hypergeom_fraction_pvalue(n1, n1 + n0, ones1 + ones0, ones1, alternative)
    assert result.p_value == want


def test_hypergeom_normal_mode_continuity_correction():
    labels = np.array([1, 1, 2, 2])
    y = np.array([1, 1, 0, 0])
    result = randtests.randomization_test("hyper", labels, y, "normal")
    assert result.p_value == pytest.approx(HYPER_NORMAL_P, abs=1e-12)


def test_normal_reference_p_values_far_in_the_upper_tail(mp):
    # z near 9.5 (count) and 8.0 (difference in means): the tails are taken
    # as Phi(-z), since 1 - Phi(z) rounds to 0 or keeps only a few digits
    labels = np.repeat([1, 2], 500)
    ones = np.concatenate([np.arange(500) < 300, np.arange(500) < 150]).astype(int)
    y = np.sin(np.arange(1000.0)) + 0.36 * (labels == 1)
    for alternative in ("two_sided", "greater"):
        count = randtests.randomization_test("hyper", labels, ones, "normal", alternative)
        shift = count.statistic - count.null_mean - 0.5
        sides = 2 if alternative == "two_sided" else 1
        ref = sides * mp.ncdf(-shift / mp.sqrt(count.null_variance))
        assert shift / count.null_variance**0.5 > 9.0
        assert abs(count.p_value - ref) <= 1e-12 * ref, alternative
        diff = randtests.randomization_test("diff", labels, y, "normal", alternative)
        z = diff.statistic / mp.sqrt(diff.null_variance)
        assert z > 7.5
        ref = sides * mp.ncdf(-z)
        assert abs(diff.p_value - ref) <= 1e-12 * ref, alternative


def test_hypergeom_all_ones_is_degenerate():
    labels = np.array([1, 1, 2, 2])
    for mode in ("exact", "normal"):
        assert randtests.randomization_test("hyper", labels, np.ones(4), mode).p_value == 1.0


def test_hypergeom_rejects_nonbinary_outcome():
    with pytest.raises(ValidationError):
        randtests.randomization_test("hyper", np.array([1, 2]), np.array([0.5, 1.0]), "exact")


# =========================================================================
# Exact and Monte Carlo engines
# =========================================================================


def test_exact_pvalue_hand_enumeration():
    # diff of means on (2,2) with y = (1,2,3,4): |diff| = 2 for 2 of the 6
    # assignments, diff >= 2 for exactly 1
    statistic = randtests.sum_statistic("diff", _Y4)
    result = randtests.exact_randomization_pvalue(statistic, _LAB4)
    assert result.p_value == pytest.approx(2.0 / 6.0, abs=1e-15)
    assert result.method == "exact(count=6)"
    greater = randtests.exact_randomization_pvalue(statistic, _LAB4, alternative="greater")
    assert greater.p_value == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_exact_pvalue_includes_observed_assignment():
    # the observed assignment always counts itself, so p >= 1/#assignments
    rng = np.random.default_rng(14)
    for _ in range(5):
        labels = designs.draw_partition_batch((3, 3), 1, rng)[0]
        y = rng.normal(size=6)
        result = randtests.exact_randomization_pvalue(randtests.sum_statistic("diff", y), labels)
        assert result.p_value >= 1.0 / 20.0 - 1e-15


def test_mc_pvalue_tracks_exact():
    rng = np.random.default_rng(16)
    labels = designs.draw_partition_batch((4, 4), 1, rng)[0]
    y = rng.normal(size=8)
    statistic = randtests.sum_statistic("diff", y)
    exact = randtests.exact_randomization_pvalue(statistic, labels)
    mc = randtests.mc_randomization_pvalue(statistic, labels, 20000, 99)
    assert abs(mc.p_value - exact.p_value) < 0.015
    assert mc.method == "monte_carlo(B=20000, seed=99)"


def test_mc_pvalue_is_seeded_and_add_one():
    labels = np.array([1, 1, 1, 2, 2, 2])
    y = np.array([10.0, 11.0, 12.0, 0.0, 1.0, 2.0])
    statistic = randtests.sum_statistic("diff", y)
    a = randtests.mc_randomization_pvalue(statistic, labels, 500, 7, alternative="greater")
    b = randtests.mc_randomization_pvalue(statistic, labels, 500, 7, alternative="greater")
    assert a.p_value == b.p_value
    assert a.p_value >= 1.0 / 501.0  # the +1 convention keeps p positive


def test_mc_pvalue_super_uniform_under_sharp_null():
    # with B=99, P(p <= 0.05) must not exceed 0.05 (up to MC noise)
    rng = np.random.default_rng(20)
    statistic = randtests.sum_statistic("diff", rng.normal(size=12))
    hits = 0
    trials = 400
    for _ in range(trials):
        labels = designs.draw_partition_batch((6, 6), 1, rng)[0]
        result = randtests.mc_randomization_pvalue(statistic, labels, 99, rng)
        hits += result.p_value <= 0.05
    assert hits / trials <= 0.05 + 0.03


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_exact_two_sided_pvalue_bounds(seed):
    rng = np.random.default_rng(seed)
    labels = designs.draw_partition_batch((3, 2), 1, rng)[0]
    y = rng.normal(size=5)
    result = randtests.exact_randomization_pvalue(randtests.sum_statistic("diff", y), labels)
    assert 0.0 < result.p_value <= 1.0


def test_engines_reject_bad_arguments():
    statistic = randtests.sum_statistic("diff", _Y4)
    with pytest.raises(ValidationError):
        randtests.mc_randomization_pvalue(statistic, _LAB4, 0, 1)
    with pytest.raises(ValidationError):
        randtests.exact_randomization_pvalue(statistic, _LAB4, alternative="sideways")
    # an outcome vector where the alternative now stands
    with pytest.raises(ValidationError, match="unknown alternative"):
        randtests.exact_randomization_pvalue(statistic, _LAB4, _Y4)


@pytest.mark.parametrize("stat_fn", [diff_in_means_stat, lambda lab, y: 0.0])
def test_engines_take_a_sum_statistic_only(stat_fn):
    message = r"SumStatistic\(values, q, reduce, tail=None, check=None\), got"
    with pytest.raises(ValidationError, match=message):
        randtests.exact_randomization_pvalue(stat_fn, _LAB4)
    with pytest.raises(ValidationError, match=message):
        randtests.mc_randomization_pvalue(stat_fn, _LAB4, 99, 1)


@pytest.mark.parametrize("b", [2.5, 5.0, "100", None, True, np.True_])
def test_simulated_references_refuse_a_non_integer_replication_count(b):
    # B = 2.5 drew two rows but divided by 3.5 (normal), or was truncated to
    # two rows (Monte Carlo)
    with pytest.raises(ValidationError, match="replication count must be an integer >= 1"):
        randtests.randomization_test("max", np.repeat([1, 2, 3], 3), np.arange(9.0), "normal",
                                     b=b, seed=1)
    with pytest.raises(ValidationError, match="replication count must be an integer >= 1"):
        randtests.mc_randomization_pvalue(randtests.sum_statistic("diff", _Y4), _LAB4, b, 1)


# =========================================================================
# Arm-sum kernel and block engines
# =========================================================================


def test_arm_sums_matches_masked_sums():
    rng = np.random.default_rng(31)
    block = designs.draw_partition_batch((3, 2, 4), 50, rng)
    values = rng.normal(size=(9, 2))
    per_row = rng.normal(size=(50, 9, 2))
    sums = designs.ArmBlock(block, 3).sums(values)
    row_sums = designs.ArmBlock(block, 3).sums(per_row)
    assert sums.shape == row_sums.shape == (50, 3, 2)
    for b, lab in enumerate(block):
        # a row gives the same sums alone as inside the block
        alone = designs.ArmBlock(block[b:b + 1], 3).sums(per_row[b:b + 1])
        assert np.array_equal(alone[0], row_sums[b])
        for q in (1, 2, 3):
            assert sums[b, q - 1] == pytest.approx(values[lab == q].sum(axis=0), abs=1e-12)
            assert row_sums[b, q - 1] == pytest.approx(
                per_row[b][lab == q].sum(axis=0), abs=1e-12)
    with pytest.raises(ValidationError):
        designs.ArmBlock(block, 2).sums(values)  # label 3 outside 1..2
    with pytest.raises(ValidationError):
        designs.ArmBlock(block, 3).sums(values[:8])
    with pytest.raises(ValidationError):
        designs.ArmBlock(block, 3).sums(per_row[:49])


def _scalar_and_kernel(stat, y, q, ties="strict"):
    """(public scalar function of (labels, y), the same statistic as a
    SumStatistic) for each CLI statistic."""
    ranks = randtests.rank_transform(y, ties)
    doses = np.linspace(-1.0, 2.0, q)
    if stat == "diff":
        return diff_in_means_stat, randtests.sum_statistic("diff", y)
    if stat == "wilcoxon":
        return (lambda lab, yy: wilcoxon_stat(lab, yy, ties),
                randtests.sum_statistic("diff", ranks))
    if stat == "kw":
        return (lambda lab, yy: randtests.randomization_test("kw", lab, yy, ties=ties).statistic,
                randtests.sum_statistic("kw", ranks, q))
    if stat == "dose":
        return (lambda lab, yy: dose_rank_stat(lab, ranks, doses),
                randtests.sum_statistic("dose", ranks, q, doses))
    index = 0 if stat == "max" else 1
    return (lambda lab, yy: extreme_rank_stats(lab, ranks)[index],
            randtests.sum_statistic(stat, ranks, q))


@pytest.mark.parametrize(
    "stat, sizes, ties",
    [("diff", (4, 4), "strict"), ("wilcoxon", (4, 4), "strict")]
    + [(stat, sizes, "strict") for stat in ("kw", "max", "range", "dose")
       for sizes in ((3, 3, 2), (4, 4))]
    + [("kw", (3, 3, 2), "midrank"), ("kw", (4, 4), "midrank"),
       ("wilcoxon", (4, 4), "midrank")],
)
def test_block_kernel_equals_scalar_statistic_on_every_assignment(stat, sizes, ties):
    rng = np.random.default_rng(32)
    n = sum(sizes)
    y = rng.normal(size=n) + 50.0
    if ties == "midrank":
        y = np.round(rng.normal(size=n))  # a handful of distinct values
    scalar, kernel = _scalar_and_kernel(stat, y, len(sizes), ties)
    labs = designs.enumerate_assignments(sizes)
    got = kernel.block(labs, sizes)
    want = np.array([scalar(lab, y) for lab in labs])
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    # one assignment through __call__ is the same kernel row, bit for bit
    assert kernel(labs[17]) == got[17]


def test_kw_kernel_all_tied_outcome_gives_zero_and_unit_pvalue():
    labels = designs.draw_partition_batch((3, 3, 2), 1, 33)[0]
    y = np.full(8, 2.5)
    statistic = randtests.sum_statistic("kw", randtests.rank_transform(y, "midrank"), 3)
    assert np.array_equal(statistic.block(labels[np.newaxis], (3, 3, 2)), [0.0])
    exact = randtests.exact_randomization_pvalue(statistic, labels, alternative="greater")
    mc = randtests.mc_randomization_pvalue(statistic, labels, 500, 3, alternative="greater")
    assert (exact.statistic, exact.p_value) == (0.0, 1.0)
    assert (mc.statistic, mc.p_value) == (0.0, 1.0)


def _drawn_assignments(sizes, b, seed) -> np.ndarray:
    """The B assignments the Monte Carlo engine draws: chunks of 1024 rows of
    one seeded `draw_partition_batch` stream."""
    rng = designs.as_rng(seed)
    return np.concatenate([designs.draw_partition_batch(sizes, min(1024, b - start), rng)
                           for start in range(0, b, 1024)])


def _per_row_pvalues(stat_fn, labels, y, alternative, b, seed):
    """(exact, Monte Carlo) p-values of a scalar `stat_fn(labels, y)` called
    once per assignment of the engines' reference streams, counted by the
    engines' tail rule: the per-row route the engines no longer take."""
    sizes = np.bincount(labels)[1:].tolist()
    observed = stat_fn(labels, y)

    def count(rows):
        refs = np.array([stat_fn(row, y) for row in rows])
        return int(np.count_nonzero(randtests._is_extreme(refs, observed, alternative)))

    enumerated = designs.enumerate_assignments(sizes)
    drawn = _drawn_assignments(sizes, b, seed)
    return count(enumerated) / len(enumerated), (1 + count(drawn)) / (b + 1)


@pytest.mark.parametrize("stat, sizes", [("diff", (4, 3)), ("wilcoxon", (4, 3)),
                                         ("kw", (3, 3, 2)), ("max", (3, 3, 2)),
                                         ("range", (3, 3, 2)), ("dose", (3, 3, 2))])
def test_engines_agree_between_block_path_and_scalar_adapter(stat, sizes):
    rng = np.random.default_rng(34)
    labels = designs.draw_partition_batch(sizes, 1, rng)[0]
    y = rng.normal(size=sum(sizes))
    scalar, kernel = _scalar_and_kernel(stat, y, len(sizes))
    alternative = "two_sided" if stat in ("diff", "wilcoxon") else "greater"
    exact = randtests.exact_randomization_pvalue(kernel, labels, alternative)
    mc = randtests.mc_randomization_pvalue(kernel, labels, 2500, 35, alternative)
    assert (exact.p_value, mc.p_value) == _per_row_pvalues(
        scalar, labels, y, alternative, 2500, 35)


@pytest.mark.parametrize("observed", [float("nan"), float("inf"), -float("inf")])
def test_engines_refuse_a_non_finite_observed_statistic(observed):
    # no reference compares as extreme as NaN or +-inf, so the exact p-value
    # was 0 and the Monte Carlo one 1 / (B + 1), below the observed
    # assignment's own share. Arm 1 sums to 3 on the observed assignment only.
    labels = np.array([1, 1, 1, 2, 2, 2])
    statistic = randtests.SumStatistic(
        np.arange(6.0), 2, lambda sums, sizes: np.where(sums[:, 0, 0] == 3.0, observed, 0.0))
    with pytest.raises(ValidationError, match="observed statistic must be finite"):
        randtests.exact_randomization_pvalue(statistic, labels, "greater")
    with pytest.raises(ValidationError, match="observed statistic must be finite"):
        randtests.mc_randomization_pvalue(statistic, labels, 99, 1, "greater")


@pytest.mark.parametrize("observed", [float("nan"), float("inf"), -float("inf")])
def test_rank_stat_normal_pvalue_refuses_a_non_finite_observed_value(observed):
    # NaN and +inf gave p = 1 / (B + 1), -inf gave 1
    with pytest.raises(ValidationError, match="observed statistic must be finite"):
        _simulated_normal((3, 3, 3), observed, "max", 1000, 1)


def test_rank_stat_normal_pvalue_memory_does_not_grow_with_b():
    # one (B, Q) draw held about 80 MB at B = 10^6; 1024-row chunks peak near
    # 0.1 MB (1 MB on a cold first call), with the same p-value
    import tracemalloc

    tracemalloc.start()
    try:
        result = _simulated_normal((300, 300, 300), 460.0, "max", 1_000_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.p_value == 0.6215163784836215
    assert peak < 4_000_000


def _studentized_diff(y) -> randtests.SumStatistic:
    """Welch's t, (ybar_1 - ybar_2) / sqrt(s_1^2 / n_1 + s_2^2 / n_2), as a
    reduction of the arm sums of the columns [y, y^2]."""
    y = np.asarray(y, dtype=float)

    def reduce(sums, sizes):
        means = sums[:, :, 0] / sizes
        var = (sums[:, :, 1] - sums[:, :, 0] * means) / (sizes - 1.0)
        return (means[:, 0] - means[:, 1]) / np.sqrt(var[:, 0] / sizes[0] + var[:, 1] / sizes[1])

    return randtests.SumStatistic(np.column_stack([y, y * y]), 2, reduce)


def _studentized_order_key(labels, y, alternative):
    """A rational key that orders assignments as Welch's t does: t^2 sign(t)
    for a one-sided alternative (negated for 'less', so larger is more
    extreme), t^2 for the two-sided one."""
    arms = [[Fraction(str(v)) for v, a in zip(y, labels) if a == arm] for arm in (1, 2)]
    means = [sum(arm) / len(arm) for arm in arms]
    var = sum(sum((v - m) ** 2 for v in arm) / (len(arm) - 1) / len(arm)
              for arm, m in zip(arms, means))
    diff = means[0] - means[1]
    if alternative == "two_sided":
        return diff * diff / var
    return (1 if alternative == "greater" else -1) * diff * abs(diff) / var


# y on a 0.1 grid. Some assignments tie in exact arithmetic while their t
# differ in the last bit: in the first population {0.0, 0.4, 0.5} and
# {0.1, 0.2, 0.6} share their sum and sum of squares, so putting one or the
# other in arm 1 with 0.9 gives the same t; in the last, arm 1 as
# {0.3, -1.2, 0.8} or {0.3, 0.0, -0.4} gives the same arm means and, with
# equal arm sizes, the same pooled within-arm sum of squares.
@pytest.mark.parametrize("y, has_round_off_tie", [
    ((0.0, 0.4, 0.5, 0.1, 0.2, 0.6, 0.9), True),
    ((1.3, -0.7, 0.2, 2.4, -1.1, 0.6, 0.8), False),
    ((0.3, -1.2, 0.8, 2.1, 0.0, -0.4), True),
])
def test_studentized_difference_is_a_two_column_sum_statistic(y, has_round_off_tie):
    sizes = (4, 3) if len(y) == 7 else (3, 3)
    statistic = _studentized_diff(y)
    assignments = designs.enumerate_assignments(sizes)
    t = statistic.block(assignments, sizes)
    y_arr = np.array(y)
    welch = [(y_arr[lab == 1].mean() - y_arr[lab == 2].mean())
             / np.sqrt(y_arr[lab == 1].var(ddof=1) / sizes[0] + y_arr[lab == 2].var(ddof=1) / sizes[1])
             for lab in assignments]
    assert np.allclose(t, welch, rtol=1e-12, atol=0.0)
    b, seed = 1500, 8
    index = {tuple(lab): i for i, lab in enumerate(assignments.tolist())}
    drawn_index = [index[tuple(lab)] for lab in _drawn_assignments(sizes, b, seed).tolist()]
    round_off_ties = 0
    for alternative in ("two_sided", "greater", "less"):
        keys = [_studentized_order_key(lab, y, alternative) for lab in assignments]
        t_key = np.abs(t) if alternative == "two_sided" else t
        for i, labels in enumerate(assignments):
            extreme = [key >= keys[i] for key in keys]
            round_off_ties += sum(keys[j] == keys[i] and t_key[j] != t_key[i]
                                  for j in range(len(keys)))
            exact = randtests.exact_randomization_pvalue(statistic, labels, alternative)
            mc = randtests.mc_randomization_pvalue(statistic, labels, b, seed, alternative)
            assert exact.p_value == sum(extreme) / len(extreme)
            assert mc.p_value == (1 + sum(extreme[j] for j in drawn_index)) / (b + 1)
    assert (round_off_ties > 0) == has_round_off_tie


def test_exact_diff_counts_round_off_ties():
    # sizes (5,5), seed 0; y on a 0.1 grid, so many assignments tie the
    # observed |diff| in exact arithmetic. Rational enumeration counts 148 of
    # 252; a raw float comparison drops two of them (146).
    labels = designs.draw_partition_batch((5, 5), 1, 0)[0]
    assert labels.tolist() == [2, 1, 1, 2, 2, 1, 1, 2, 1, 2]
    y = np.array([0.6, 0.3, 0.0, 0.0, 0.8, 0.9, 0.6, 0.7, 0.5, 0.9])
    result = randtests.exact_randomization_pvalue(randtests.sum_statistic("diff", y), labels)
    assert result.p_value == 148 / 252


def _fraction_oracle_pvalue(labels, y, alternative):
    """Exact p-value of the difference in means in rational arithmetic."""
    y = [Fraction(str(v)) for v in y]
    sizes = (labels.count(1), labels.count(2))

    def diff(lab):
        arm1 = sum(v for v, a in zip(y, lab) if a == 1)
        arm2 = sum(v for v, a in zip(y, lab) if a == 2)
        return arm1 / sizes[0] - arm2 / sizes[1]

    observed = diff(labels)
    refs = [diff(lab) for lab in designs.enumerate_assignments(sizes)]
    if alternative == "greater":
        count = sum(r >= observed for r in refs)
    elif alternative == "less":
        count = sum(r <= observed for r in refs)
    else:
        count = sum(abs(r) >= abs(observed) for r in refs)
    return count / len(refs)


@given(
    data=st.data(),
    sizes=st.sampled_from([(3, 3), (4, 3)]),
    alternative=st.sampled_from(["two_sided", "greater", "less"]),
)
@settings(max_examples=60, deadline=None)
def test_exact_diff_matches_rational_enumeration(data, sizes, alternative):
    n = sum(sizes)
    labels = data.draw(st.permutations([1] * sizes[0] + [2] * sizes[1]))
    y = data.draw(st.lists(st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
                           min_size=n, max_size=n))
    want = _fraction_oracle_pvalue(list(labels), y, alternative)
    y_arr, lab_arr = np.array(y), np.array(labels)
    result = randtests.exact_randomization_pvalue(
        randtests.sum_statistic("diff", y_arr), lab_arr, alternative)
    assert result.p_value == want


def _enumerated_count(statistic, labels, alternative):
    """(as or more extreme, assignments) with every label row of
    `enumerate_assignments` through `SumStatistic.block`: the label
    enumeration the exact engine replaced, counted by its tail rule."""
    sizes = estimators.arm_sizes(labels, statistic.q)
    observed = float(statistic.block(labels[np.newaxis], sizes)[0])
    ref = statistic.block(designs.enumerate_assignments(sizes.tolist()), sizes)
    return int(np.count_nonzero(randtests._is_extreme(ref, observed, alternative))), ref.shape[0]


@st.composite
def _split_cases(draw):
    """(kind, arm sizes) with Q <= 4 and N <= 12; diff, wilcoxon and joint
    take two arms."""
    kind = draw(st.sampled_from(["diff", "wilcoxon", "kw", "max", "range", "dose", "joint"]))
    q = 2 if kind in ("diff", "wilcoxon", "joint") else draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 12 // q), min_size=q, max_size=q))
    return kind, tuple(sizes)


# the first N // 2 units leave an arm empty in some half: (1, N - 1) puts
# its one unit of arm 1 in one half only
@given(case=_split_cases(), data=st.data())
@example(case=("diff", (1, 1)), data=None)
@example(case=("wilcoxon", (1, 11)), data=None)
@example(case=("joint", (1, 11)), data=None)
@example(case=("kw", (1, 1, 1)), data=None)
@example(case=("range", (1, 1, 10)), data=None)
@example(case=("dose", (1, 1, 10)), data=None)
@example(case=("max", (3, 3, 3, 3)), data=None)
@settings(max_examples=60, deadline=None)
def test_exact_engine_equals_label_enumeration(case, data):
    kind, sizes = case
    q, n = len(sizes), sum(sizes)
    rng = np.random.default_rng(sum(sizes) * 7 + q)
    if data is None:
        labels = designs.draw_partition_batch(sizes, 1, rng)[0]
        y = np.round(rng.normal(size=n), 1)
        doses = np.linspace(-1.0, 2.0, q)
    else:
        labels = np.array(data.draw(st.permutations(np.repeat(np.arange(1, q + 1), sizes))))
        y = np.array(data.draw(st.lists(st.floats(-2.0, 2.0).map(lambda v: round(v, 1)),
                                        min_size=n, max_size=n)))
        doses = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=q, max_size=q)), float)
    if kind == "joint" and y.min() == y.max():
        y[0] += 0.1  # joint refuses a constant column
    ranks = randtests.rank_transform(y, "midrank")
    values = {"diff": y, "joint": np.column_stack([y, ranks])}.get(kind, ranks)
    statistic = randtests.sum_statistic("diff" if kind == "wilcoxon" else kind, values, q,
                                        doses if kind == "dose" else None)
    for alternative in ("two_sided", "greater", "less"):
        count, total = _enumerated_count(statistic, labels, alternative)
        result = randtests.exact_randomization_pvalue(statistic, labels, alternative)
        assert result.method == f"exact(count={total})"
        assert result.p_value == count / total


def _rank_sum_counts(n: int, k: int) -> list[int]:
    """ways[s]: the k-subsets of the ranks 1..n with sum s, by the recursion
    on the largest rank (in the subset or not), in integers."""
    top = n * (n + 1) // 2
    ways = [[0] * (top + 1) for _ in range(k + 1)]
    ways[0][0] = 1
    for rank in range(1, n + 1):
        for size in range(min(rank, k), 0, -1):
            for s in range(top, rank - 1, -1):
                ways[size][s] += ways[size - 1][s - rank]
    return ways[k]


def test_exact_wilcoxon_past_the_old_enumeration_cost():
    # (13, 13) has 10,400,600 assignments, above the default cap; label
    # enumeration took about 7 s for them
    sizes = (13, 13)
    labels = designs.draw_partition_batch(sizes, 1, 41)[0]
    y = np.random.default_rng(41).normal(size=26)
    ranks = randtests.rank_transform(y)
    ways = _rank_sum_counts(26, 13)
    total = comb(26, 13)
    assert sum(ways) == total == 10_400_600
    # the rank-mean difference is (2 R_1 - 351) / 13 for the rank sum R_1 of arm 1
    observed = int(ranks[labels == 1].sum())
    tails = {
        "greater": sum(ways[observed:]),
        "less": sum(ways[:observed + 1]),
        "two_sided": sum(w for s, w in enumerate(ways) if abs(2 * s - 351) >= abs(2 * observed - 351)),
    }
    for alternative, count in tails.items():
        result = randtests.randomization_test("wilcoxon", labels, y, "exact", alternative,
                                              cap=11_000_000)
        assert result.method == "exact(count=10400600)"
        assert result.p_value == count / total


def test_exact_engine_refuses_the_cap_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(randtests, "enumerate_arm_sums", no_enumeration)
    statistic = randtests.sum_statistic("diff", np.arange(10.0))
    with pytest.raises(EnumerationCapError) as info:
        randtests.exact_randomization_pvalue(statistic, np.repeat([1, 2], 5), cap=10)
    assert (info.value.count, info.value.cap) == (252, 10)
