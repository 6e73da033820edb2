"""Sharp-null randomization tests.

Under the sharp null every potential outcome is known, so the randomization
distribution of any statistic is known exactly: it can be enumerated, sampled
by Monte Carlo, or approximated by the normal/chi-square limits. This module
provides the statistics (difference in means, rank statistics, counts, and
the joint rule on the larger of two standardized differences in means) and
the three reference-distribution engines.

Every statistic the CLI tests is a reduction of the Q arm sums of columns
that do not change across assignments (the outcomes, their ranks, or both).
`designs.ArmBlock` computes those sums for a whole block of assignments at
once, and `SumStatistic` pairs it with the reduction, so the Monte Carlo
engine evaluates a block of drawn assignments per call instead of one. The
exact engine never builds a full label row: it splits the units into two
halves, enumerates the arm sums of each half's assignments, and reduces the
sums of every pair of half assignments that make up one full assignment.

The normal reference needs only the statistic's values and the arm sizes:
by the finite-population central limit theorem the arm sums of any fixed
vector are asymptotically jointly normal, with a covariance set by that
vector's own variance. So it holds for outcomes, ranks and midranks alike,
and `sum_statistic` defines each statistic's tail next to its reduction:
closed form for the linear ones (diff, dose), the chi-square limit for
Kruskal-Wallis, the bivariate normal orthant for joint, and a simulation
for max and range, so the replication count and seed drive the Monte Carlo
reference and those two alone.

Ranks default to the strict no-ties policy. Midranks are opt-in; the
Kruskal-Wallis result computed from them is tagged ties_adjusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb

import numpy as np

from . import distlib
from .designs import (
    ArmBlock,
    _check_sizes,
    _enumeration_count,
    as_rng,
    draw_partition_batch,
    enumerate_partition_blocks,
)
from .errors import (
    DegenerateInputError,
    InternalCheckError,
    TieError,
    ValidationError,
)
from .estimators import arm_sizes, tau_hat

__all__ = [
    "TestResult",
    "TEST_STATISTICS",
    "TEST_METHODS",
    "randomization_test",
    "rank_transform",
    "SumStatistic",
    "sum_statistic",
    "standardized_rank_means",
    "rank_null_cov",
    "hypergeom_test",
    "mc_randomization_pvalue",
    "exact_randomization_pvalue",
]

_ALTERNATIVES = ("two_sided", "greater", "less")
# The statistics `randomization_test` offers, by name: (the `sum_statistic`
# kind, the columns it acts on, y and/or the ranks of y, whether it is
# upper-tailed). 'hyper' is the hypergeometric count of a binary outcome and
# has no kind.
TEST_STATISTICS = {
    "kw": ("kw", ("ranks",), True),
    "diff": ("diff", ("y",), False),
    "wilcoxon": ("diff", ("ranks",), False),
    "max": ("max", ("ranks",), True),
    "range": ("range", ("ranks",), True),
    "dose": ("dose", ("ranks",), True),
    "joint": ("joint", ("y", "ranks"), True),
    "hyper": (None, ("y",), False),
}
TEST_METHODS = ("normal", "exact", "mc")
_MC_CHUNK = 1024
# reference statistics per exact-engine block: the pairs of half-sample arm
# sums added and reduced at once
_PAIR_CHUNK = 1 << 16
# a reference statistic within this distance of the observed one, relative
# to max(1, |observed|), counts as a tie: statistics that are equal in exact
# arithmetic can differ by round-off, and dropping them is anti-conservative
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class TestResult:
    """Outcome of a single randomization test."""

    statistic: float
    p_value: float
    method: str
    alternative: str | None = None
    null_mean: float | None = None
    null_variance: float | None = None


def rank_transform(y, policy: str = "strict") -> np.ndarray:
    """Ascending ranks of y. `strict` raises on ties; `midrank` averages the
    positions of tied values.

    Every value must be finite: a NaN or infinite entry raises
    ValidationError under either policy.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("rank transform expects a non-empty 1-d array")
    if policy not in ("strict", "midrank"):
        raise ValidationError(f"tie policy must be 'strict' or 'midrank', got {policy!r}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("rank transform expects finite values")
    values, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    if policy == "strict" and np.any(counts > 1):
        raise TieError(values[counts > 1].tolist())
    # A group of c ties ending at position e takes the mean position
    # e - (c - 1) / 2, a half-integer, so the midranks are exact.
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


class SumStatistic:
    """A statistic that is a reduction of the arm sums of a fixed matrix.

    Under the sharp null the outcomes, or their ranks, do not change across
    assignments, so the statistic of every row of a (B, N) label block is
    `reduce(ArmBlock(block, q).sums(values), sizes)` with `sizes` the float arm
    sizes the rows share; `reduce` returns a length-B vector. Calling the
    object evaluates one assignment through the same kernel. `sum_statistic`
    builds the CLI statistics, each with its normal tail; a custom one, say
    a studentized difference in means, is a reduction of the arm sums of
    the columns [y, y^2] and has only the exact and Monte Carlo references.
    """

    def __init__(self, values, q: int, reduce):
        values = np.asarray(values, dtype=float)
        self.values = values[:, np.newaxis] if values.ndim == 1 else values
        self.q = int(q)
        self.reduce = reduce

    def block(self, label_block, sizes) -> np.ndarray:
        """The statistic of every row of a label block with the given sizes."""
        sums = ArmBlock(label_block, self.q).sums(self.values)
        return self.reduce(sums, np.asarray(sizes, dtype=float))

    def __call__(self, labels) -> float:
        labels = np.asarray(labels)
        return float(self.block(labels[np.newaxis], arm_sizes(labels, self.q))[0])


def sum_statistic(kind: str, values, q: int = 2, doses=None) -> SumStatistic:
    """The statistics the CLI tests, as arm-sum reductions of `values`
    (outcomes, or ranks for the rank statistics), centered once here:

    - 'diff': vbar_1 - vbar_2, the mean of arm 1 minus the mean of arm 2
      (on ranks, the Wilcoxon rank-mean difference); two arms;
    - 'dose': sum_q dose_q vbar_q, with one finite dose per arm;
    - 'kw': the Kruskal-Wallis statistic in analysis-of-variance form,
      (N - 1) sum_q S_q^2 / n_q / sum_i (v_i - vbar)^2 with S_q the arm sums
      of centered values; 0 for constant values;
    - 'max': max_q vbar_q, the largest arm mean;
    - 'range': max_q vbar_q - min_q vbar_q, the largest minus the smallest
      arm mean;
    - 'joint': on the two columns of an (N, 2) array (y and its ranks, or
      two outcomes), the larger of the two standardized differences
      (vbar_1j - vbar_2j) / sqrt(c S_j^2), c = N / (n_1 n_0); two arms, and
      a column with zero variance raises DegenerateInputError.

    Here vbar_q is the mean of `values` over the units of arm q. Only
    'dose' takes doses.

    Each kind also sets its normal tail, the p-value of an observed value
    at given arm sizes. Under the sharp null the arm sums of the centered
    values v are asymptotically jointly normal with covariance
    S^2 (diag(n) - n n'/N), S^2 = v'v / (N - 1), whatever v is (outcomes,
    ranks or midranks), and each kind takes the tail of that law in its form:

    - the linear kinds, sum_q d_q vbar_q ('diff' with d = (1, -1), 'dose'
      with d the doses): Phi(-z) in closed form, with null variance S^2 c
      and c = `_linear_factor(d, sizes)`, so diff's c is N / (n_1 n_0) to
      the bit;
    - 'kw', a quadratic form in them: the chi-square (Q - 1) upper tail,
      tagged ties_adjusted for tied midranks and degenerate for constant
      values; an observed value of untied ranks is checked against its equal
      form sum_q ((N - n_q)/N) Rtilde_q^2 (`standardized_rank_means`);
    - 'joint', the larger of a standard normal pair with the correlation
      rho of its two centered columns:
      P(max > m) = 2 Phi(-m) - `distlib.bvn_lower_orthant(-m, rho)`, so
      the pair rejects at level alpha exactly when
      m > `distlib.solve_gamma_c(rho, alpha)`;
    - 'max' and 'range': B simulated arm sums, drawn in chunks of 1024 rows
      of one seeded stream as n_q sd_q Z_q with
      sd_q^2 = S^2 (N - n_q) / (N n_q) and Z of covariance
      `rank_null_cov(sizes)`; p = (1 + #{as or more extreme}) / (B + 1),
      tagged degenerate for constant values, where every draw ties.
    """
    # column-major, so that a column's mean is summed pairwise, as a 1-d array's is
    values = np.asarray(values, dtype=float, order="F")
    width = (2,) if kind == "joint" else ()
    if values.ndim != 1 + len(width) or values.shape[1:] != width or values.size == 0:
        shape = "(N, 2)" if width else "1-d"
        raise ValidationError(f"statistic values must be a non-empty {shape} array")
    if not np.all(np.isfinite(values)):
        raise ValidationError("statistic values must be finite")
    if doses is not None and kind != "dose":
        raise ValidationError(f"only the 'dose' statistic takes doses, not {kind!r}")
    center = values.mean(axis=0)
    centered = values - center
    # the centered sum of squares; the 2 x 2 cross products for 'joint'
    gram = centered.T @ centered
    s2 = gram / max(values.shape[0] - 1, 1)
    constant = values.min() == values.max()
    check = None
    if kind in ("diff", "dose"):
        if kind == "diff":
            if q != 2:
                raise ValidationError(f"'diff' compares two arms, got q={q}")
            doses = (1.0, -1.0)
        elif doses is None:
            raise ValidationError(f"the 'dose' statistic needs one dose per arm ({q})")
        doses = np.asarray(doses, dtype=float)
        if doses.shape != (q,):
            raise ValidationError(f"need one dose per arm ({q}), got shape {doses.shape}")
        if not np.all(np.isfinite(doses)):
            raise ValidationError(f"doses must be finite, got {doses.tolist()}")
        offset = center * float(doses.sum())

        def reduce(sums, sizes):
            return sums[:, :, 0] / sizes @ doses + offset

        def tail(observed, sizes, alternative, b, seed):
            var0 = _linear_factor(doses.tolist(), sizes) * s2
            if var0 <= 0.0:
                raise ValidationError("the null variance is zero (constant outcomes, "
                                      "or doses proportional to the arm sizes)")
            return TestResult(
                statistic=observed,
                p_value=_normal_p_value(observed - offset, np.sqrt(var0), alternative),
                method="normal_approx",
                alternative=alternative,
                null_variance=var0,
            )
    elif kind == "kw":
        tied = np.unique(values, return_counts=True)[1].size < values.size

        def reduce(sums, sizes):
            if constant:
                return np.zeros(sums.shape[0])
            return (values.size - 1.0) * np.sum(sums[:, :, 0] ** 2 / sizes, axis=1) / gram

        def tail(observed, sizes, alternative, b, seed):
            method = "chi2_approx"
            if constant:
                method += ",degenerate"
            elif tied:
                method += ",ties_adjusted"
            return TestResult(
                statistic=observed,
                p_value=distlib.chi2_sf(observed, sizes.size - 1),
                method=method,
                alternative=alternative,
                null_mean=float(sizes.size - 1),
            )

        def check(labels, observed):
            # a disagreement beyond rounding is an internal error; tied
            # midranks have only the analysis-of-variance form
            if tied:
                return
            n = values.size
            counts = arm_sizes(labels)
            h_std = float(((n - counts) / n) @ (standardized_rank_means(labels, values) ** 2))
            if abs(observed - h_std) > 1e-10 * max(1.0, abs(observed)):
                raise InternalCheckError(f"rank statistic forms disagree: {observed!r} vs {h_std!r}")
    elif kind == "joint":
        if q != 2:
            raise ValidationError(f"'joint' compares two arms, got q={q}")
        if np.any(values.min(axis=0) == values.max(axis=0)):
            raise DegenerateInputError("a column has zero variance: the differences "
                                       "cannot be standardized")
        variances = np.diag(s2)
        rho = min(1.0, max(-1.0, float(gram[0, 1] / np.sqrt(gram[0, 0] * gram[1, 1]))))

        def reduce(sums, sizes):
            diffs = sums[:, 0] / sizes[0] - sums[:, 1] / sizes[1]
            return (diffs / np.sqrt(_linear_factor((1, -1), sizes) * variances)).max(axis=1)

        def tail(observed, sizes, alternative, b, seed):
            # 1 - (orthant at m) would round to 0 far out
            p_value = (2.0 * distlib.std_normal_cdf(-observed)
                       - distlib.bvn_lower_orthant(-observed, rho))
            return TestResult(
                statistic=observed,
                p_value=min(1.0, max(0.0, p_value)),
                method="normal_approx",
                alternative=alternative,
            )
    elif kind in ("max", "range"):
        if kind == "max":
            def reduce(sums, sizes):
                return (sums[:, :, 0] / sizes).max(axis=1) + center
        else:
            def reduce(sums, sizes):
                means = sums[:, :, 0] / sizes
                return means.max(axis=1) - means.min(axis=1)

        def tail(observed, sizes, alternative, b, seed):
            n = float(values.size)
            sd = np.sqrt(s2 * (n - sizes) / (n * sizes))
            w, v = np.linalg.eigh(rank_null_cov(sizes))
            root = v * np.sqrt(np.clip(w, 0.0, None))

            def simulate(rows, rng):
                sums = rng.standard_normal((rows, sizes.size)) @ root.T * sd * sizes
                return reduce(sums[:, :, np.newaxis], sizes)

            count, rows = _tail_count(observed, alternative, _seeded_chunks(b, seed, simulate))
            return TestResult(
                statistic=observed,
                p_value=(1 + count) / (rows + 1),
                method=f"normal_approx(B={rows})" + (",degenerate" if constant else ""),
                alternative=alternative,
            )
    else:
        raise ValidationError(
            f"kind must be 'diff', 'kw', 'max', 'range', 'dose' or 'joint', got {kind!r}"
        )
    statistic = SumStatistic(centered, q, reduce)
    statistic._normal_tail, statistic._check_observed = tail, check
    return statistic


def standardized_rank_means(labels, ranks) -> np.ndarray:
    """Standardized arm rank means under the sharp null:
    sqrt(12 n_q / ((N + 1)(N - n_q))) (Rbar_q - (N + 1) / 2).

    Requires untied ranks (a permutation of 1..N); the vector has exact null
    mean zero and covariance rank_null_cov(sizes). Length Q for one
    assignment, (B, Q) for a (B, N) label block with ranks (N,) or (B, N).
    """
    counts = arm_sizes(labels)
    labels = np.asarray(labels)
    ranks = np.asarray(ranks, dtype=float)
    n = labels.shape[-1]
    if ranks.shape not in ((n,), labels.shape):
        raise ValidationError(f"ranks must have shape ({n},) or {labels.shape}, got {ranks.shape}")
    if np.any(np.sort(ranks, axis=-1) != np.arange(1, n + 1)):
        raise TieError(ranks.tolist())
    ranks = np.broadcast_to(ranks, labels.shape)
    r_bar = tau_hat(labels, ranks, np.eye(counts.shape[-1]))  # the arm means
    return np.sqrt(12.0 * counts / ((n + 1.0) * (n - counts))) * (r_bar - (n + 1.0) / 2.0)


def rank_null_cov(sizes) -> np.ndarray:
    """Exact sharp-null correlation of the Q arm means of any fixed vector
    with nonzero variance (the standardized rank means are one case): unit
    diagonal, off-diagonal entries -sqrt(n_q n_r / ((N - n_q)(N - n_r))).
    It depends on the arm sizes only."""
    sizes = np.asarray(_check_sizes(sizes), dtype=float)
    if sizes.size < 2:
        raise ValidationError("need at least two arm sizes")
    n = sizes.sum()
    ratio = np.sqrt(sizes / (n - sizes))
    cov = -np.outer(ratio, ratio)
    np.fill_diagonal(cov, 1.0)
    return cov


def hypergeom_test(labels, y, mode: str = "exact", alternative: str = "two_sided") -> TestResult:
    """Count test for a binary outcome in a two-arm experiment.

    The statistic is the number of ones in arm 1. Under the sharp null it is
    hypergeometric with mean n N_1 / N and variance
    N_1 (N - N_1) n (N - n) / (N^2 (N - 1)). Mode 'exact' sums the
    hypergeometric law in integers, selecting x by `_is_extreme` on x - mean;
    mode 'normal' applies the normal approximation with a 0.5 continuity
    correction, which is used precisely because the statistic is
    lattice-valued.
    """
    labels = np.asarray(labels)
    y_arr = np.asarray(y)
    if not np.isin(y_arr, (0, 1)).all():
        raise ValidationError("outcome must be binary with values 0 and 1")
    y_arr = y_arr.astype(np.int64)
    counts = arm_sizes(labels, 2)
    n, n_total = int(counts[0]), int(labels.size)
    ones_total = int(y_arr.sum())
    observed = int(y_arr[labels == 1].sum())
    _check_alternative(alternative)
    null_mean = n * ones_total / n_total
    null_var = (
        ones_total * (n_total - ones_total) * n * (n_total - n)
        / (n_total**2 * (n_total - 1.0))
    )
    lo = max(0, n - (n_total - ones_total))
    hi = min(n, ones_total)
    if mode == "exact":
        extreme = _is_extreme(np.arange(lo, hi + 1) - null_mean, observed - null_mean, alternative)
        # w(x) = C(N_1, x) C(N - N_1, n - x), each from the last by its exact ratio
        w, weight = comb(ones_total, lo) * comb(n_total - ones_total, n - lo), 0
        for x in range(lo, hi + 1):
            if extreme[x - lo]:
                weight += w
            w = w * (ones_total - x) * (n - x) // ((x + 1) * (n_total - ones_total - n + x + 1))
        p_value = weight / comb(n_total, n)
        method = "exact"
    elif mode == "normal":
        sd = float(np.sqrt(null_var))
        p_value = 1.0 if sd == 0.0 else _normal_p_value(observed - null_mean, sd, alternative, 0.5)
        method = "normal_approx"
    else:
        raise ValidationError(f"mode must be 'exact' or 'normal', got {mode!r}")
    return TestResult(
        statistic=float(observed),
        p_value=p_value,
        method=method,
        alternative=alternative,
        null_mean=null_mean,
        null_variance=float(null_var),
    )


def _normal_p_value(shift: float, sd: float, alternative: str, correction: float = 0.0) -> float:
    """p-value of a statistic `shift` above its null mean under N(0, sd^2),
    after moving it `correction` toward the mean (continuity). Each tail is
    Phi(-z) for z >= 0, never 1 - Phi(z), which rounds to 0 far out."""
    if alternative == "greater":
        return distlib.std_normal_cdf(-(shift - correction) / sd)
    if alternative == "less":
        return distlib.std_normal_cdf((shift + correction) / sd)
    gap = abs(shift) - correction
    return 1.0 if gap <= 0.0 else min(1.0, 2.0 * distlib.std_normal_cdf(-gap / sd))


def _linear_factor(weights, sizes) -> float:
    """c = sum_q d_q^2 / n_q - (sum_q d_q)^2 / N for the weights d and arm
    sizes n, in exact rationals rounded once: sum_q d_q vbar_q has null
    variance S^2 c."""
    d = [Fraction(w) for w in weights]
    n = [int(s) for s in sizes]
    return float(sum(w * w / m for w, m in zip(d, n)) - sum(d) ** 2 / sum(n))


def _check_alternative(alternative: str) -> None:
    if not isinstance(alternative, str) or alternative not in _ALTERNATIVES:
        raise ValidationError(f"unknown alternative {alternative!r}")


def _is_extreme(ref: np.ndarray, observed: float, alternative: str) -> np.ndarray:
    """Reference statistics as or more extreme than the observed one, ties
    judged within _TIE_RTOL; every p-value compares through this rule."""
    tol = _TIE_RTOL * max(1.0, abs(observed))
    if alternative == "greater":
        return ref >= observed - tol
    if alternative == "less":
        return ref <= observed + tol
    return np.abs(ref) >= abs(observed) - tol


def _tail_count(observed: float, alternative: str, blocks) -> tuple[int, int]:
    """(reference values as or more extreme than `observed`, reference values)
    over the blocks of reference statistics `blocks` yields, for the exact,
    Monte Carlo and simulated normal references alike. `observed` must be
    finite: no reference ties NaN or infinity, so it could not count itself."""
    if not np.isfinite(observed):
        raise ValidationError(f"the observed statistic must be finite, got {observed!r}")
    count = rows = 0
    for ref in blocks:
        count += int(np.count_nonzero(_is_extreme(ref, observed, alternative)))
        rows += ref.shape[0]
    return count, rows


def _seeded_chunks(b: int, seed, draw):
    """`draw(rows, rng)` for chunks of at most 1024 rows, B rows in all, from
    one generator seeded by `seed`; B must be an integer >= 1."""
    if not isinstance(b, (int, np.integer)) or isinstance(b, bool) or b < 1:
        raise ValidationError(f"replication count must be an integer >= 1, got {b!r}")
    rng = as_rng(seed)
    return (draw(min(_MC_CHUNK, b - start), rng) for start in range(0, b, _MC_CHUNK))


def _engine_count(statistic, labels, alternative: str, references) -> tuple[float, int, int]:
    """(observed statistic, reference rows as or more extreme, reference rows)
    of a SumStatistic over the blocks of reference statistics
    `references(sizes)` yields for the arm sizes of `labels`. The observed
    assignment is a block of one row through `SumStatistic.block`."""
    if not isinstance(statistic, SumStatistic):
        raise ValidationError("the engines take a sum_statistic(kind, values, q) or a "
                              f"SumStatistic(values, q, reduce), got {type(statistic).__name__}")
    _check_alternative(alternative)
    labels = np.asarray(labels)
    sizes = arm_sizes(labels, statistic.q)
    observed = float(statistic.block(labels[np.newaxis], sizes)[0])
    return (observed, *_tail_count(observed, alternative, references(sizes.tolist())))


def _half_sums(values: np.ndarray, counts: np.ndarray, q: int, cap: int) -> np.ndarray:
    """(rows, q, k) arm sums of `values`, one row per assignment of its units
    with arm counts `counts`. Arms with a zero count are left out of the
    enumeration and their labels mapped back; no units is one zero row."""
    arms = np.flatnonzero(counts) + 1
    if arms.size == 0:
        return np.zeros((1, q, values.shape[1]))
    return np.concatenate([ArmBlock(arms[block - 1], q).sums(values)
                           for block in enumerate_partition_blocks(counts[arms - 1], cap)])


def _split_references(statistic: SumStatistic, sizes: list[int], count: int):
    """The statistic of each of the `count` assignments with these arm sizes,
    in blocks of at most 2^16 rows, from the arm sums of two halves of the
    units (the split of Horowitz and Sahni, J. ACM 21, 1974).

    An assignment puts c_q of the first N // 2 units in arm q and n_q - c_q
    of the rest, and its arm sums are the sums over the first half plus
    those over the second. So for each count vector c every pair of a
    first-half and a second-half assignment is one full assignment, and
    every full assignment is one such pair. No half has more assignments
    than the whole, so `count` caps the half enumerations."""
    values, q = statistic.values, statistic.q
    half = sum(sizes) // 2
    sizes = np.asarray(sizes)
    float_sizes = sizes.astype(float)
    for head in product(*(range(size + 1) for size in sizes[:-1])):
        counts = np.array([*head, half - sum(head)])
        if not 0 <= counts[-1] <= sizes[-1]:
            continue
        first = _half_sums(values[:half], counts, q, count)
        second = _half_sums(values[half:], sizes - counts, q, count)
        step_second = min(len(second), _PAIR_CHUNK)
        step_first = max(1, _PAIR_CHUNK // step_second)
        for i in range(0, len(first), step_first):
            for j in range(0, len(second), step_second):
                pairs = first[i:i + step_first, np.newaxis] + second[np.newaxis, j:j + step_second]
                yield statistic.reduce(pairs.reshape(-1, q, values.shape[1]), float_sizes)


def mc_randomization_pvalue(
    statistic: SumStatistic, labels, b: int, seed, alternative: str = "two_sided"
) -> TestResult:
    """Monte Carlo randomization p-value with the observed-included convention
    p = (1 + #{reference stats as or more extreme}) / (B + 1), which is valid
    (super-uniform) at any B.

    The B reference assignments are drawn in chunks of 1024 rows by
    `draw_partition_batch`, so a seed gives the same draws whatever the
    statistic. A reference statistic within 1e-12 (relative to
    max(1, |observed|)) of the observed one counts as a tie. Two-sided
    ordering is by absolute value, appropriate for statistics centered at
    zero under the null; max-type statistics should use
    alternative='greater'.
    """
    observed, count, rows = _engine_count(
        statistic, labels, alternative,
        lambda sizes: (statistic.block(block, sizes) for block in
                       _seeded_chunks(b, seed, partial(draw_partition_batch, sizes))))
    seed_tag = seed if isinstance(seed, (int, np.integer)) else "external"
    return TestResult(
        statistic=observed,
        p_value=(1 + count) / (rows + 1),
        method=f"monte_carlo(B={rows}, seed={seed_tag})",
        alternative=alternative,
    )


def exact_randomization_pvalue(
    statistic: SumStatistic, labels, alternative: str = "two_sided", cap: int | None = None
) -> TestResult:
    """Exact randomization p-value: the proportion of all assignments whose
    statistic is as or more extreme than the observed one.

    A count of assignments above the cap is refused before any is
    enumerated, by the rule of `enumerate_partition_blocks`. The reference
    statistics are reductions of arm sums, never of label rows: the units
    split into a first half of N // 2 and the rest, `enumerate_partition_blocks`
    and `ArmBlock.sums` give the arm sums of every assignment of each half
    with each arm-count vector, and every pair of half sums with
    complementary counts is one assignment, reduced in blocks of at most
    2^16 pairs. Memory is bounded by one block and the half sums, about the
    square root of the count.

    A reference sum adds two partial sums, so it can differ from the
    observed statistic's unit-order sum in the last bits. A reference
    statistic within 1e-12 (relative to max(1, |observed|)) of the observed
    one counts as a tie, so the observed assignment always counts itself and
    p >= 1 / #assignments.
    """
    def references(sizes):
        return _split_references(statistic, sizes, _enumeration_count(sizes, cap))

    observed, count, total = _engine_count(statistic, labels, alternative, references)
    return TestResult(
        statistic=observed,
        p_value=count / total,
        method=f"exact(count={total})",
        alternative=alternative,
    )


def randomization_test(
    stat: str, labels, y, method: str = "normal", alternative: str | None = None,
    ties: str = "strict", doses=None, b: int = 10_000, seed=None, cap: int | None = None,
) -> TestResult:
    """Test the sharp null with a statistic of TEST_STATISTICS against the
    normal, exact or Monte Carlo ('mc') reference.

    Every reference evaluates one `sum_statistic` of the statistic's columns,
    y and/or its ranks (tie policy `ties`), so the statistic does not depend
    on the method, and the normal reference is that statistic's own tail.
    Every statistic needs at least two arms, and only 'dose' takes `doses`.
    The alternative defaults to 'greater', the only one an upper-tailed
    statistic takes, or to 'two_sided'. `b` and `seed` drive the Monte Carlo
    reference and the simulated normal reference of 'max' and 'range' only.
    `cap` drives the exact reference; 'hyper' has no Monte Carlo reference.
    The kw statistic of untied ranks is checked against its dual form under
    every method.
    """
    if stat not in TEST_STATISTICS:
        raise ValidationError(f"unknown statistic {stat!r}; use one of {list(TEST_STATISTICS)}")
    if method not in TEST_METHODS:
        raise ValidationError(f"unknown method {method!r}; use one of {list(TEST_METHODS)}")
    kind, columns, upper_tailed = TEST_STATISTICS[stat]
    alternative = alternative or ("greater" if upper_tailed else "two_sided")
    _check_alternative(alternative)
    if upper_tailed and alternative != "greater":
        raise ValidationError(f"{stat!r} is upper-tailed; its alternative is 'greater'")
    labels = np.asarray(labels)
    sizes = arm_sizes(labels).astype(float)
    if sizes.size < 2:
        raise ValidationError("the test needs at least two arms")
    if doses is not None and kind != "dose":
        raise ValidationError(f"only the 'dose' statistic takes doses, not {stat!r}")
    if kind is None:
        if method == "mc":
            raise ValidationError(f"{stat!r} has the exact and normal references only")
        return hypergeom_test(labels, y, mode=method, alternative=alternative)
    values = [rank_transform(y, ties) if column == "ranks" else np.asarray(y, dtype=float)
              for column in columns]
    statistic = sum_statistic(kind, values[0] if len(values) == 1 else np.column_stack(values),
                              sizes.size, doses)
    if statistic._check_observed is not None:
        statistic._check_observed(labels, statistic(labels))
    if method == "exact":
        return exact_randomization_pvalue(statistic, labels, alternative, cap)
    if method == "mc":
        return mc_randomization_pvalue(statistic, labels, b, seed, alternative)
    return statistic._normal_tail(statistic(labels), sizes, alternative, b, seed)
