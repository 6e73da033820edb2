"""Assignment-mechanism tests: partitions, indicator moments, factorial
generators, and covariate imbalance.

Indicator covariances are checked against exhaustive enumeration; partition
counts against the multinomial coefficient; Monte Carlo draws against exact
frequencies at loose tolerances. Everything random is seeded.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finpop import designs, estimators, popstats, randtests
from finpop.errors import EnumerationCapError, ValidationError

# =========================================================================
# RNG plumbing
# =========================================================================


def test_derive_rng_is_deterministic():
    a = designs.derive_rng(2026, 3, 1).standard_normal(8)
    b = designs.derive_rng(2026, 3, 1).standard_normal(8)
    assert np.array_equal(a, b)


def test_derive_rng_streams_are_distinct():
    a = designs.derive_rng(2026, 0).standard_normal(8)
    b = designs.derive_rng(2026, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_as_rng_accepts_int_and_generator():
    rng = designs.as_rng(5)
    assert designs.as_rng(rng) is rng
    with pytest.raises(ValidationError):
        designs.as_rng(None)


# =========================================================================
# Counting and enumeration
# =========================================================================


def test_multinomial_count_worked_examples():
    assert designs.multinomial_count((2, 2, 2)) == 90
    assert designs.multinomial_count((1, 1)) == 2
    assert designs.multinomial_count((3, 3)) == 20
    assert designs.multinomial_count((2, 3)) == 10
    assert designs.multinomial_count((5,)) == 1


def test_enumerate_partitions_complete_and_lexicographic():
    sizes = (1, 2, 1)
    seen = [tuple(lab) for lab in np.concatenate(list(designs.enumerate_partition_blocks(sizes)))]
    assert len(seen) == designs.multinomial_count(sizes) == 12
    assert len(set(seen)) == 12
    assert seen == sorted(seen)
    assert seen[0] == (1, 2, 2, 3)  # ascending template comes first
    assert seen[-1] == (3, 2, 2, 1)
    for lab in seen:
        assert tuple(np.bincount(lab, minlength=4)[1:]) == sizes


def _next_permutation_rows(sizes):
    """Reference enumerator: the per-row lexicographic next-permutation walk
    from the ascending template."""
    a = [q for q, s in enumerate(sizes, start=1) for _ in range(s)]
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


@pytest.mark.parametrize(
    "sizes, block",
    [(s, 4096) for s in [(1, 1, 1), (2, 2, 2), (3, 1, 2), (4, 4), (10, 10)]]
    + [((3, 1, 2), 1), ((4, 4), 7), ((10, 10), 1000)],
)
def test_enumerate_partition_blocks_match_row_walk(sizes, block):
    blocks = list(designs.enumerate_partition_blocks(sizes, block=block))
    assert all(1 <= b.shape[0] <= block for b in blocks)
    rows = [tuple(row) for b in blocks for row in b.tolist()]
    assert rows == list(_next_permutation_rows(sizes))


@pytest.mark.parametrize("cap", [6.5, np.float64(6.5), True, "6", float("nan")])
def test_enumeration_cap_is_refused_unless_whole(cap):
    # a cap of 6.5 on the 6 assignments of (2, 2) was truncated to 6 and ran
    with pytest.raises(ValidationError, match="enumeration caps must be whole numbers"):
        designs.enumerate_partition_blocks((2, 2), cap=cap)
    statistic = randtests.sum_statistic("diff", np.arange(4.0))
    with pytest.raises(ValidationError, match="enumeration caps must be whole numbers"):
        randtests.exact_randomization_pvalue(statistic, np.array([1, 1, 2, 2]), cap=cap)


@pytest.mark.parametrize("cap", [6, 6.0, np.int64(6), np.uint8(6)])
def test_enumeration_cap_accepts_whole_floats_and_numpy_integers(cap):
    assert sum(len(block) for block in designs.enumerate_partition_blocks((2, 2), cap)) == 6


def test_enumerate_partition_blocks_cap_before_first_block():
    with pytest.raises(EnumerationCapError) as info:
        designs.enumerate_partition_blocks((5, 5), cap=10)  # raises on the call
    assert info.value.count == 252
    assert info.value.cap == 10
    with pytest.raises(ValidationError):
        designs.enumerate_partition_blocks((2, 2), block=0)


# =========================================================================
# Random draws
# =========================================================================


def test_draw_partition_has_exact_sizes_and_is_seeded():
    sizes = (3, 4, 2)
    lab = designs.draw_partition_batch(sizes, 1, 11)[0]
    assert tuple(np.bincount(lab, minlength=4)[1:]) == sizes
    assert np.array_equal(lab, designs.draw_partition_batch(sizes, 1, 11)[0])


@pytest.mark.parametrize("sizes", [(50, 70), (6, 9, 5), (1, 1), (3,)])
def test_sequential_draws_are_the_rows_of_one_batch(sizes):
    # one Fisher-Yates path: b single draws on a generator are the rows of one
    # b-row batch on an equal generator, and both leave it in the same state;
    # a plain permutation of the labels is the same stream
    single, batch, plain = (designs.derive_rng(29, 1) for _ in range(3))
    rows = np.array([designs.draw_partition_batch(sizes, 1, single)[0] for _ in range(300)])
    template = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    permuted = np.array([plain.permutation(template) for _ in range(300)])
    assert np.array_equal(rows, designs.draw_partition_batch(sizes, 300, batch))
    assert np.array_equal(rows, permuted)
    assert single.random() == batch.random() == plain.random()


def test_negative_seeds_are_validation_errors():
    for args in [(-1,), (3, -2), (3, 1, -1)]:
        with pytest.raises(ValidationError, match="non-negative"):
            designs.derive_rng(*args)
    with pytest.raises(ValidationError):
        designs.draw_partition_batch((2, 2), 1, -5)


@pytest.mark.parametrize("seed", [1.7, True, "1", float("nan")])
def test_seeds_are_refused_unless_whole(seed):
    # derive_rng(1.7) was truncated to the stream of derive_rng(1)
    with pytest.raises(ValidationError, match="seeds must be whole numbers"):
        designs.derive_rng(seed)
    with pytest.raises(ValidationError, match="seeds must be whole numbers"):
        designs.derive_rng(3, seed)
    assert designs.derive_rng(np.int64(3), 2.0).random() == designs.derive_rng(3, 2).random()


@pytest.mark.parametrize("b", [2.5, True, "2", None])
def test_draw_partition_batch_refuses_a_batch_size_that_is_not_whole(b):
    # 2.5 reached numpy as a TypeError
    with pytest.raises(ValidationError, match="batch sizes must be whole numbers"):
        designs.draw_partition_batch((2, 2), b, 1)


def test_draw_partition_frequencies_match_uniform_law():
    # sizes (1,1,1): 6 equally likely permutations
    rng = designs.as_rng(17)
    draws = [tuple(designs.draw_partition_batch((1, 1, 1), 1, rng)[0]) for _ in range(6000)]
    values, counts = np.unique(np.array(draws), axis=0, return_counts=True)
    assert values.shape[0] == 6
    assert np.all(np.abs(counts / 6000.0 - 1.0 / 6.0) < 0.03)


def test_draw_partition_batch_rows_are_partitions():
    batch = designs.draw_partition_batch((2, 3), 50, 7)
    assert batch.shape == (50, 5)
    for row in batch:
        assert tuple(np.bincount(row, minlength=3)[1:]) == (2, 3)


# =========================================================================
# Indicator moments
# =========================================================================


def _empirical_indicator_cov(sizes, i, j, q, r):
    labs = np.concatenate(list(designs.enumerate_partition_blocks(sizes)))
    zi = (labs[:, i] == q).astype(float)
    zj = (labs[:, j] == r).astype(float)
    return float(np.mean(zi * zj) - np.mean(zi) * np.mean(zj))


@pytest.mark.parametrize("sizes", [(2, 2, 2), (1, 2, 3), (1, 1, 4)])
def test_indicator_cov_matches_enumeration(sizes):
    q_arms = len(sizes)
    for i, j in ((0, 0), (0, 1), (2, 4)):
        for q in range(1, q_arms + 1):
            for r in range(1, q_arms + 1):
                got = designs.indicator_cov(sizes, i, j, q, r)
                want = _empirical_indicator_cov(sizes, i, j, q, r)
                assert got == pytest.approx(want, abs=1e-12), (i, j, q, r)


def test_indicator_cov_rows_sum_to_zero():
    # sum_r 1{L_j = r} = 1, so covariances against a fixed 1{L_i = q} cancel
    sizes = (2, 3, 1)
    for q in (1, 2, 3):
        total = sum(designs.indicator_cov(sizes, 0, 1, q, r) for r in (1, 2, 3))
        assert total == pytest.approx(0.0, abs=1e-15)


def test_indicator_cov_validates_indices():
    with pytest.raises(ValidationError):
        designs.indicator_cov((2, 2), 4, 0, 1, 1)
    with pytest.raises(ValidationError):
        designs.indicator_cov((2, 2), 0, 1, 3, 1)


@st.composite
def _small_designs(draw):
    """(sizes, contrast, y): 2 to 4 arms of 1 to 5 units with N <= 10, so at
    most 25,200 assignments; an integer (Q, K) contrast with K <= 3; and
    integer outcomes."""
    q = draw(st.integers(2, 4))
    sizes = []
    for arm in range(q):
        room = 10 - sum(sizes) - (q - arm - 1)
        sizes.append(draw(st.integers(1, min(5, room))))
    k = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    contrast = draw(st.lists(row, min_size=q, max_size=q))
    y = draw(st.lists(st.integers(-3, 3), min_size=sum(sizes), max_size=sum(sizes)))
    return tuple(sizes), contrast, y


def _correlation(cov):
    variances = np.diag(cov)
    return cov / np.sqrt(np.outer(variances, variances))


# diff's factor is N / (n_1 n_0) and the dose (0, 1, 2) factor at (3, 3, 3)
# is 2/3, each to the bit; a design too large to enumerate has no outcomes
@given(_small_designs())
@example(((612_307, 998_101), [[1], [-1]], None))
@example(((1, 999_983), [[1], [-1]], None))
@example(((3, 3, 3), [[0], [1], [2]], [2, -1, 0, 3, 1, -3, 0, 2, 1]))
@settings(max_examples=60, deadline=None)
def test_null_factor_is_the_exact_sharp_null_covariance_of_contrast_means(design):
    sizes, contrast, y = design
    factor = designs.null_factor(contrast, sizes)
    # each entry is its rational value rounded once
    n = sum(sizes)
    columns = [[Fraction(w) for w in column] for column in zip(*contrast)]
    exact = [[sum(u_q * v_q / n_q for u_q, v_q, n_q in zip(u, v, sizes)) - sum(u) * sum(v) / n
              for v in columns] for u in columns]
    assert factor.tolist() == [[float(entry) for entry in row] for row in exact]
    # S^2 times the factor is the covariance of the contrast's arm means
    # over every assignment
    if y is not None:
        labels = np.concatenate(list(designs.enumerate_partition_blocks(sizes)))
        y = np.asarray(y, dtype=float)
        sums = designs.ArmBlock(labels, len(sizes)).sums(y[:, np.newaxis])[:, :, 0]
        effects = sums / np.asarray(sizes, dtype=float) @ np.asarray(contrast, dtype=float)
        dev = effects - effects.mean(axis=0)
        assert np.max(np.abs(dev.T @ dev / len(labels) - y.var(ddof=1) * factor)) <= 1e-12
    # the views: factorial moments and the correlation of the arm means
    if len(sizes) in (2, 4):
        spec = designs.factorial_contrasts(len(sizes).bit_length() - 1)
        view = designs.null_factor(spec.contrast, sizes)
        variances, correlations = estimators.factorial_null_moments(2.5, sizes, spec)
        assert variances.tolist() == (2.5 * np.diag(view)).tolist()
        assert np.max(np.abs(correlations - _correlation(view))) <= 1e-15
    arm_means = _correlation(designs.null_factor(np.eye(len(sizes)), sizes))
    assert np.max(np.abs(randtests.rank_null_cov(sizes) - arm_means)) <= 4e-16


# =========================================================================
# Factorial generators
# =========================================================================


def test_factorial_contrasts_two_factor_layout():
    spec = designs.factorial_contrasts(2)
    levels, generators, names = spec.levels, spec.generators, spec.names
    assert names == ("1", "2", "1:2")
    assert levels.tolist() == [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    assert generators[:, 0].tolist() == [1, 1, -1, -1]
    assert generators[:, 1].tolist() == [1, -1, 1, -1]
    assert generators[:, 2].tolist() == [1, -1, -1, 1]  # interaction column
    # the effect contrast halves the generators: tau_k = 2^{-(K-1)} g_k' Ybar
    assert spec.contrast.tolist() == (0.5 * generators).tolist()


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_factorial_generators_are_orthogonal(k):
    spec = designs.factorial_contrasts(k)
    generators, names = spec.generators, spec.names
    q = 2**k
    assert generators.shape == (q, q - 1)
    assert len(names) == q - 1
    assert generators.T @ generators == pytest.approx(q * np.eye(q - 1))
    assert generators.sum(axis=0) == pytest.approx(np.zeros(q - 1))


def test_factorial_contrasts_rejects_bad_k():
    with pytest.raises(ValidationError):
        designs.factorial_contrasts(0)
    with pytest.raises(ValidationError):
        designs.factorial_contrasts(13)
    for k in (2.5, True, "2"):  # 2.5 was truncated to two factors
        with pytest.raises(ValidationError, match="factor counts must be whole numbers"):
            designs.factorial_contrasts(k)
    assert designs.factorial_contrasts(2.0).k == 2


# =========================================================================
# Balance metric
# =========================================================================


def _center(x):
    return x - x.mean(axis=0)


def test_compute_delta_scalar_covariate():
    x = _center(np.array([[1.0], [2.0], [3.0], [6.0]]))
    labels = np.array([1, 1, 2, 2])
    delta = designs.compute_delta(labels, x)
    n, s2 = 4, float(x[:, 0] @ x[:, 0] / 3)
    diff = x[:2, 0].mean() - x[2:, 0].mean()
    expected = diff / np.sqrt(n / (2.0 * 2.0) * s2)
    assert delta.shape == (1,)
    assert delta[0] == pytest.approx(expected, rel=1e-12)


def test_compute_delta_mean_zero_over_enumeration():
    rng = np.random.default_rng(5)
    x = _center(rng.normal(size=(6, 2)))
    deltas = [
        designs.compute_delta(np.asarray(lab), x)
        for lab in np.concatenate(list(designs.enumerate_partition_blocks((3, 3))))
    ]
    assert np.mean(deltas, axis=0) == pytest.approx(np.zeros(2), abs=1e-12)


def test_arm_block_counts_spread_and_single_assignment():
    labels = np.array([[1, 3, 3, 2, 1], [2, 2, 1, 3, 3]])
    arms = designs.ArmBlock(labels)
    assert arms.q == 3 and arms.counts.tolist() == [[2, 1, 2], [1, 2, 2]]
    per_arm = np.array([[10.0, 20.0, 30.0], [1.0, 2.0, 3.0]])[:, :, np.newaxis]
    assert arms.spread(per_arm)[:, :, 0].tolist() == [[10, 30, 30, 20, 10], [2, 2, 1, 3, 3]]
    one = designs.ArmBlock(labels[1], 3)
    assert one.shape == (1, 5) and one.counts.tolist() == [[1, 2, 2]]
    for bad in (labels, np.zeros((2, 2, 2), dtype=int), []):
        with pytest.raises(ValidationError):
            designs.ArmBlock(bad, 2)


def test_compute_delta_block_equals_per_assignment_loop():
    # reference: the inverse root applied to masked arm means, one
    # assignment at a time
    x = _center(np.random.default_rng(44).normal(size=(8, 3)))
    root = designs.inv_sqrt_psd(8 / 16 * (x.T @ x / 7))
    block = np.concatenate(list(designs.enumerate_partition_blocks((4, 4), block=9)))
    deltas = designs.compute_delta(block, x)
    assert deltas.shape == (70, 3)
    for labels, delta in zip(block, deltas):
        want = root @ (x[labels == 1].mean(axis=0) - x[labels == 2].mean(axis=0))
        assert delta == pytest.approx(want, abs=1e-12)
        assert delta == pytest.approx(designs.compute_delta(labels, x), abs=1e-12)
    with pytest.raises(ValidationError, match="same arm sizes"):
        designs.compute_delta(np.array([[1, 1, 2, 2], [1, 2, 2, 2]]), _center(np.arange(4.0)))


def test_compute_delta_requires_centered_covariates():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    with pytest.raises(ValidationError):
        designs.compute_delta(np.array([1, 1, 2, 2]), x)


def test_inv_sqrt_psd_inverts_the_quadratic_form():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3))
    m = a @ a.T + 0.1 * np.eye(3)
    root = designs.inv_sqrt_psd(m)
    assert root @ m @ root == pytest.approx(np.eye(3), abs=1e-10)


def test_inv_sqrt_psd_rejects_singular():
    from finpop.errors import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        designs.inv_sqrt_psd(np.zeros((2, 2)))


# =========================================================================
# Size validation shared by the drawing routines
# =========================================================================


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_random_draw_lies_in_enumeration(sizes):
    sizes = tuple(sizes)
    if designs.multinomial_count(sizes) > 2000:
        return
    rows = np.concatenate(list(designs.enumerate_partition_blocks(sizes)))
    universe = {tuple(lab) for lab in rows}
    lab = designs.draw_partition_batch(sizes, 1, 3)[0]
    assert tuple(lab) in universe


@pytest.mark.parametrize("size", [2.5, True, np.True_, float("nan"), float("inf"), "3", None])
def test_check_sizes_refuses_a_size_that_is_not_a_whole_number(size):
    with pytest.raises(ValidationError, match="whole numbers"):
        designs._check_sizes((3, size))


def test_check_sizes_accepts_whole_floats_and_numpy_integers():
    sizes = designs._check_sizes((3.0, np.int64(2), np.int32(4), np.float64(1.0), np.uint8(5)))
    assert sizes == [3, 2, 4, 1, 5]
    assert all(type(s) is int for s in sizes)


_FIVE = np.array([1.0, 4.0, 2.0, 8.0, 3.0])


@pytest.mark.parametrize("call", [
    lambda sizes: estimators.neyman_cov_true(np.stack([_FIVE, _FIVE], axis=1), [1.0, -1.0], sizes),
    lambda sizes: estimators.factorial_null_moments(1.0, (1, 1) + sizes,
                                                    designs.factorial_contrasts(2)),
    lambda sizes: popstats.partition_condition_stat(_FIVE, sizes),
    lambda sizes: popstats.cre_condition_stats(np.stack([_FIVE, _FIVE], axis=1), [1.0, -1.0],
                                               sizes),
    lambda sizes: randtests.rank_null_cov(sizes),
], ids=["neyman_cov_true", "factorial_null_moments", "partition_condition_stat",
        "cre_condition_stats", "rank_null_cov"])
def test_every_size_argument_is_checked_by_check_sizes(call):
    # (2.5, 2.5) sums to N = 5; truncated to (2, 2) it would not
    with pytest.raises(ValidationError, match="whole numbers, got 2.5"):
        call((2.5, 2.5))


def test_draw_partition_rejects_bad_sizes():
    with pytest.raises(ValidationError):
        designs.draw_partition_batch((0, 2), 1, 1)
    with pytest.raises(ValidationError):
        designs.draw_partition_batch((), 1, 1)
