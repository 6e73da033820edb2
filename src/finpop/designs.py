"""Assignment mechanisms: random partitions into Q arms (a simple random
sample is arm 1 of a two-arm partition), the covariate imbalance of a
two-arm assignment, factorial contrast matrices, and the exhaustive
enumeration oracle used to verify closed-form moments.

Conventions used across the package:
  - arm labels are 1..Q; `sizes[q-1]` is the number of units in arm q;
  - unit indices are 0-based positions into the label vector;
  - every stochastic operation takes an explicit `seed`, either an integer or
    an existing numpy Generator. Integer seeds build a counter-based Philox
    generator, and replicate streams derive their keys by hashing
    (base_seed, stream index), so concurrent replicates never overlap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import EnumerationCapError, SingularMatrixError, ValidationError

__all__ = [
    "DEFAULT_ENUM_CAP",
    "derive_rng",
    "as_rng",
    "draw_partition_batch",
    "multinomial_count",
    "enumerate_partition_blocks",
    "ArmBlock",
    "indicator_cov",
    "null_factor",
    "FactorialSpec",
    "factorial_contrasts",
    "inv_sqrt_psd",
    "check_centered",
    "compute_delta",
]

DEFAULT_ENUM_CAP = 10_000_000
# a symmetric matrix is numerically singular when its smallest eigenvalue is
# below this multiple of its largest, or its largest is not positive
_SINGULAR_RTOL = 1e-10


def derive_rng(base_seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for (base_seed, stream...), Philox-backed; every
    entry must be a non-negative whole number by the `_seed` rule."""
    ss = np.random.SeedSequence(entropy=tuple(_seed(s) for s in (base_seed, *stream)))
    return np.random.Generator(np.random.Philox(seed=ss))


def as_rng(seed) -> np.random.Generator:
    """Accept an integer seed or pass an existing Generator through."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        raise ValidationError("a seed is required; stochastic operations are explicit")
    return derive_rng(seed)


def _whole(value, what: str = "arm sizes") -> int:
    """`value` as an int: whole floats and numpy integers are accepted, any
    other value (2.5, True, NaN, a string, None) is refused, never
    truncated."""
    if not isinstance(value, (bool, np.bool_)):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, (float, np.floating)) and float(value).is_integer():
            return int(value)
    raise ValidationError(f"{what} must be whole numbers, got {value!r}")


def _seed(value) -> int:
    """A seed as an int: a non-negative whole number by the `_whole` rule."""
    seed = _whole(value, "seeds")
    if seed < 0:
        raise ValidationError(f"a seed must be a non-negative integer, got {seed}")
    return seed


def _check_sizes(sizes) -> list[int]:
    """The arm sizes as ints, each by the `_whole` rule."""
    sizes = [_whole(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValidationError(f"arm sizes must be a non-empty list of positive counts, got {sizes}")
    return sizes


def _label_template(sizes: list[int]) -> np.ndarray:
    return np.repeat(np.arange(1, len(sizes) + 1, dtype=np.int64), sizes)


def draw_partition_batch(sizes, b: int, seed) -> np.ndarray:
    """b independent assignments as a (b, N) matrix, row-wise Fisher-Yates
    shuffles of the label multiset; exactness follows from the uniformity of
    the permutation."""
    sizes = _check_sizes(sizes)
    b = _whole(b, "batch sizes")
    if b < 1:
        raise ValidationError(f"batch size must be >= 1, got {b}")
    rng = as_rng(seed)
    out = np.tile(_label_template(sizes), (b, 1))
    rng.permuted(out, axis=1, out=out)
    return out


def multinomial_count(sizes) -> int:
    """N! / (n_1! ... n_Q!), the number of distinct assignments."""
    sizes = _check_sizes(sizes)
    count = math.factorial(sum(sizes))
    for s in sizes:
        count //= math.factorial(s)
    return count


def _unrank_partitions(sizes: list[int], count: int, ranks: np.ndarray) -> np.ndarray:
    """The assignments at the given 0-based lexicographic ranks, one row each.

    This is the recursion on the first label, taken one position at a time:
    the assignments that start with label q come after those starting with
    1..q-1, and there are count * n_q / N of them, so the first label is the
    one whose cumulative range holds the rank, and the rest is the rank
    within that sub-enumeration.
    """
    b, n = ranks.size, sum(sizes)
    rank = ranks.astype(np.int64)
    # (Q, B) layout: every step below is a whole-row operation over B
    remaining = np.repeat(np.asarray(sizes, dtype=np.int64)[:, np.newaxis], b, axis=1)
    sub_count = np.full(b, count, dtype=np.int64)
    arms = np.arange(len(sizes))[:, np.newaxis]
    out = np.empty((n, b), dtype=np.int64)
    for pos in range(n):
        per_label = sub_count * remaining
        per_label //= n - pos
        upper = per_label.copy()
        for q in range(1, len(sizes)):
            upper[q] += upper[q - 1]
        below = upper <= rank
        label = np.count_nonzero(below, axis=0)
        chosen = arms == label
        rank -= (per_label * below).sum(axis=0)
        sub_count = (per_label * chosen).sum(axis=0)
        remaining -= chosen
        out[pos] = label + 1
    return np.ascontiguousarray(out.T)


def _enumeration_count(sizes, cap) -> int:
    """The number of assignments with these arm sizes, refused up front when
    it exceeds the cap, a whole number >= 1 that defaults to
    DEFAULT_ENUM_CAP; every exhaustive enumeration checks its count here."""
    sizes = _check_sizes(sizes)
    cap = DEFAULT_ENUM_CAP if cap is None else _whole(cap, "enumeration caps")
    if cap < 1:
        raise ValidationError(f"enumeration cap must be >= 1, got {cap}")
    count = multinomial_count(sizes)
    # the per-position sub-counts times an arm size must fit in int64
    cap_value = min(cap, np.iinfo(np.int64).max // sum(sizes))
    if count > cap_value:
        raise EnumerationCapError(count, cap_value)
    return count


def enumerate_partition_blocks(
    sizes, cap: int | None = None, block: int = 4096
) -> Iterator[np.ndarray]:
    """Yield every assignment exactly once as (B, N) label blocks of at most
    `block` rows, rows in lexicographic label order across blocks.

    Refuses up front (with the exact count) when the multinomial count exceeds
    the cap, a whole number >= 1 that defaults to DEFAULT_ENUM_CAP. Each block
    is a fresh array, so callers may keep or modify it.
    """
    sizes = _check_sizes(sizes)
    count = _enumeration_count(sizes, cap)
    block = int(block)
    if block < 1:
        raise ValidationError(f"block size must be >= 1, got {block}")

    def generate() -> Iterator[np.ndarray]:
        for start in range(0, count, block):
            ranks = np.arange(start, min(start + block, count))
            yield _unrank_partitions(sizes, count, ranks)

    return generate()


class ArmBlock:
    """A (B, N) block of assignments to arms 1..q (q defaults to the largest
    label; one assignment is a block of one row), indexed once for any number
    of arm sums, with its (B, q) arm sizes in `counts`.

    Every estimator of a completely randomized design reduces arm sums. Label
    l of row b goes to bin b q + l - 1 and each sum is one bincount over the
    bins, so a row's sums accumulate in unit order: they are the same alone
    as inside any block.
    """

    def __init__(self, label_block, q: int | None = None):
        labels = np.asarray(label_block, dtype=np.int64)
        if labels.ndim not in (1, 2) or labels.size == 0:
            raise ValidationError(
                "labels must be a non-empty 1-d vector of arm labels or a (B, N) block of them"
            )
        labels = labels.reshape(-1, labels.shape[-1])
        q = int(labels.max()) if q is None else int(q)
        if labels.min() < 1 or labels.max() > q:
            raise ValidationError(f"arm labels must lie in 1..{q}")
        self.shape = labels.shape
        self.q = q
        self.bins = (labels + (q * np.arange(labels.shape[0]) - 1)[:, np.newaxis]).ravel()
        self.counts = np.bincount(self.bins, minlength=labels.shape[0] * q).reshape(-1, q)

    def sums(self, values) -> np.ndarray:
        """Arm sums of `values` under every row, (B, q, k): `values` is one
        (N, k) matrix that every row shares, or a (B, N, k) stack with one
        matrix per row."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (2, 3) or values.shape[:-1] not in (self.shape[1:], self.shape):
            raise ValidationError(f"need (N, k) or (B, N, k) values for {self.shape} labels, "
                                  f"got shape {values.shape}")
        b, n = self.shape
        values = np.broadcast_to(values, (b, n, values.shape[-1]))
        out = np.empty((b, self.q, values.shape[-1]))
        for j in range(values.shape[-1]):
            sums = np.bincount(self.bins, values[:, :, j].ravel(), b * self.q)
            out[:, :, j] = sums.reshape(b, self.q)
        return out

    def spread(self, arm_values) -> np.ndarray:
        """(B, q, k) values per arm as (B, N, k), the value of each unit's arm."""
        flat = np.reshape(arm_values, (self.shape[0] * self.q, -1))
        return np.take(flat, self.bins, axis=0).reshape(self.shape + (-1,))


def indicator_cov(sizes, i: int, j: int, q: int, r: int) -> float:
    """Exact covariance of the arm-membership indicators 1{L_i = q} and
    1{L_j = r} under a uniform random partition.

    Four cases: for the same unit, n_q (N - n_q) / N^2 when q = r and
    -n_q n_r / N^2 otherwise; across units the same expressions scaled by
    -1 / (N - 1).
    """
    sizes = _check_sizes(sizes)
    n_total = sum(sizes)
    q_arms = len(sizes)
    if not (0 <= i < n_total and 0 <= j < n_total):
        raise ValidationError(f"unit indices must be in [0, {n_total}), got {i}, {j}")
    if not (1 <= q <= q_arms and 1 <= r <= q_arms):
        raise ValidationError(f"arm labels must be in [1, {q_arms}], got {q}, {r}")
    n_q, n_r = sizes[q - 1], sizes[r - 1]
    n_sq = float(n_total) ** 2
    if i == j:
        if q == r:
            return n_q * (n_total - n_q) / n_sq
        return -n_q * n_r / n_sq
    if q == r:
        return -n_q * (n_total - n_q) / (n_sq * (n_total - 1))
    return n_q * n_r / (n_sq * (n_total - 1))


def null_factor(contrast, sizes) -> np.ndarray:
    """The (K, K) sharp-null factor C'(diag(1/n) - 11'/N)C of a (Q, K) contrast C
    (a vector is one column) at arm sizes n: contrasts of the arm means of a fixed
    vector with variance S^2 have covariance S^2 times it, N / (n_1 n_0) for diff.
    Each entry, an integer over lcm(n, N) d^2 for C's common denominator d, is rounded once."""
    sizes = _check_sizes(sizes)
    c = np.asarray(contrast, dtype=float)
    if c.ndim not in (1, 2) or not np.all(np.isfinite(c)):
        raise ValidationError(f"need a finite contrast vector or matrix, got {contrast!r}")
    if len(sizes) != len(c):
        raise ValidationError(f"need {len(c)} arm sizes, got {sizes}")
    entries = [Fraction(w) for w in c.ravel().tolist()]
    d = math.lcm(*(w.denominator for w in entries))
    a = np.array([int(w * d) for w in entries], dtype=object).reshape(len(sizes), -1)
    scale, colsum = math.lcm(sum(sizes), *sizes), a.sum(axis=0)
    weighted = a.T * np.array([scale // s for s in sizes], dtype=object)
    try:
        return ((weighted @ a - scale // sum(sizes) * np.outer(colsum, colsum))
                / (scale * d * d)).astype(float)
    except OverflowError:
        raise ValidationError(f"the null factor of contrast {c.tolist()} overflows "
                              "the float range") from None


@dataclass(frozen=True)
class FactorialSpec:
    """Contrast structure of a 2^K factorial design.

    levels: (Q, K) matrix of factor levels, rows in lexicographic order with
    factor 1 slowest-varying and the +1 block first. generators: (Q, Q - 1)
    matrix whose first K columns are the factor-level columns and whose
    remaining columns are elementwise products over factor subsets, ordered by
    subset size and then lexicographically. names label the columns, e.g.
    "2" for a main effect and "1:3" for an interaction.

    The row and column orderings are a convention of this package; any fixed
    ordering gives the same inference.
    """

    k: int
    levels: np.ndarray
    generators: np.ndarray
    names: tuple[str, ...]

    @property
    def q_arms(self) -> int:
        return 2**self.k

    @property
    def contrast(self) -> np.ndarray:
        """The (Q, Q - 1) factorial effect contrast 2^{-(K-1)} generators, so
        that effect k is tau_k = 2^{-(K-1)} sum_q g_kq Ybar(q)."""
        return 2.0 ** (1 - self.k) * self.generators


def factorial_contrasts(k: int) -> FactorialSpec:
    """Build the level rows and the full +/-1 contrast matrix for K factors."""
    k = _whole(k, "factor counts")
    if not 1 <= k <= 12:
        raise ValidationError(f"factor count must satisfy 1 <= K <= 12, got {k}")
    q_arms = 2**k
    # itertools.product order = lexicographic with the first factor slowest.
    levels = np.empty((q_arms, k), dtype=np.int64)
    for col in range(k):
        block = 2 ** (k - col - 1)
        pattern = np.repeat(np.array([1, -1], dtype=np.int64), block)
        levels[:, col] = np.tile(pattern, q_arms // (2 * block))
    columns = []
    names = []
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            col = np.prod(levels[:, subset], axis=1)
            columns.append(col)
            names.append(":".join(str(f + 1) for f in subset))
    generators = np.stack(columns, axis=1)
    return FactorialSpec(k=k, levels=levels, generators=generators, names=tuple(names))


def _singular(w: np.ndarray):
    """Whether the ascending eigenvalues w (..., K) of each symmetric matrix
    make it numerically singular by the `_SINGULAR_RTOL` rule."""
    return (w[..., -1] <= 0.0) | (w[..., 0] < _SINGULAR_RTOL * w[..., -1])


def inv_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a symmetric PSD matrix, refusing a
    numerically singular one (`_singular`)."""
    mat = np.asarray(mat, dtype=float)
    w, v = np.linalg.eigh(mat)
    if _singular(w):
        raise SingularMatrixError(
            f"matrix is numerically singular: eigenvalue {float(w[0]):.6g} "
            f"is below {_SINGULAR_RTOL:g} x max eigenvalue {float(w[-1]):.6g}"
        )
    return (v * (1.0 / np.sqrt(w))) @ v.T


def check_centered(x: np.ndarray) -> None:
    """Raise unless every column mean of x is within 1e-8 max(1, max |x|) of 0."""
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x.mean(axis=0))) > 1e-8 * scale:
        raise ValidationError("covariates must be centered (column means zero)")


def compute_delta(labels, x) -> np.ndarray:
    """Standardized covariate imbalance of a two-arm assignment:
    delta = (N / (n_1 n_0) * S2_X)^(-1/2) (Xbar_1 - Xbar_0),
    with the symmetric PSD inverse root and S2_X the population covariance of
    the centered covariates (divisor N - 1).

    Length K for one assignment, (B, K) for a block with equal arm sizes.
    """
    arms = ArmBlock(labels, 2)
    if np.any(arms.counts == 0):
        raise ValidationError("imbalance is defined for two-arm assignments with labels 1 and 2")
    if np.any(arms.counts != arms.counts[0]):
        raise ValidationError("every assignment of a block must have the same arm sizes")
    n1, n0 = (int(c) for c in arms.counts[0])
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    n_total = n1 + n0
    if x.shape[0] != n_total:
        raise ValidationError(f"covariates have {x.shape[0]} rows, expected {n_total}")
    check_centered(x)
    root = inv_sqrt_psd(n_total / (n1 * n0) * (x.T @ x / (n_total - 1)))
    sums = arms.sums(x)
    delta = (sums[:, 0] / n1 - sums[:, 1] / n0) @ root.T
    return delta[0] if np.ndim(labels) == 1 else delta
