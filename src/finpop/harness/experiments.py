"""Verification campaigns.

Every suite is one entry of the table SUITES; the `verify --suite`
choices, ExperimentConfig's defaults and checks, and the order of the "all"
suite derive from it. The runners:

* run_oracle_suite ('oracle'): exhaustive enumeration over all assignments
  of small bundled instances, checking the closed-form estimator moments,
  the variance-estimator bias, the membership-indicator covariances, the
  standardized-rank-mean covariance, and the regression-adjustment variance
  decomposition, each as a max-abs discrepancy.
* run_clt_experiment ('clt' and 'rerand'): Monte Carlo Kolmogorov-Smirnov
  ladders for the standardized sample mean against N(0,1) (kind 'clt') and
  for the squared covariate imbalance against chi-square (kind 'rerand'),
  with the finite-N condition diagnostic reported alongside every ladder
  step.
* the coverage runner ('coverage'): empirical coverage of the two-arm
  Neyman interval over random assignments of fixed tables, every table
  evaluated on the same draws. With one contrast the chi-square Wald region
  is that same interval, so it is not counted again.

The campaigns check the code that ships: every estimate, variance estimate
and imbalance is computed by `estimators`, `designs` or `randtests` on whole
blocks of assignments from `_enumerated` or `_drawn` (their block forms
reduce arm sums through `designs.ArmBlock`), never by a copy of the formula
here; coverage counts the intervals of `estimators.normal_interval` at the
estimates of `estimators.neyman_estimate`.

Randomness is drawn from generators derived as (seed, stream ints) per chunk
of at most 4096 replicates, so any chunk is reproducible in isolation. The
chunks of a campaign are drawn on a thread pool as wide as the usable cores
(numpy releases the GIL while it shuffles), each in sub-batches of about 2^20
labels, and joined in chunk order: the metrics do not depend on the core
count.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .. import designs, distlib, estimators, popstats, randtests
from ..errors import DegenerateInputError, ValidationError
from .reports import MetricResult, Report

__all__ = [
    "ExperimentConfig",
    "synthetic_population",
    "coverage_table",
    "run_oracle_suite",
    "run_clt_experiment",
    "run_suite",
]

_CHUNK = 4096

# derive_rng stream tags
_STREAM_POP = 0
_STREAM_ASSIGN = 1

CLT_POPULATIONS = ("ranks", "lognormal", "two_point", "spike", "constant")
COVERAGE_TABLES = ("additive", "heterogeneous")

_GAP_TOL = 1e-10
_INDICATOR_TOL = 1e-12

# rerand campaign: covariate count and the chi-square tail kept by the gate
_N_COVARIATES = 2
_ACCEPT_TARGET = 0.2


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one campaign; a Report is a pure function of this and of
    nothing else (timing aside).

    kind names a suite of SUITES, and reps, population, ns and tol left as
    None take that suite's defaults. population names a synthetic generator
    for kind 'clt' and a table construction for kind 'coverage', and must be
    one the suite accepts. ns is the strictly increasing ladder of population
    sizes (a single entry is allowed); the oracle's bundled instances take
    none. tol gates the final KS distance or the coverage band.
    """

    kind: str
    seed: int
    reps: int | None = None
    alpha: float = 0.05
    population: str | None = None
    ns: tuple[int, ...] | None = None
    tol: float | None = None

    def __post_init__(self):
        suite = SUITES.get(self.kind)
        if suite is None:
            raise ValidationError(f"unknown experiment kind {self.kind!r}")
        for field, default in (("reps", suite.reps), ("population", suite.populations[0]),
                               ("ns", suite.ns), ("tol", suite.tol)):
            if getattr(self, field) is None:
                object.__setattr__(self, field, default)
        object.__setattr__(self, "seed", designs._seed(self.seed))
        object.__setattr__(self, "reps", designs._whole(self.reps, "replication counts"))
        if self.reps < 1:
            raise ValidationError(f"replication count must be >= 1, got {self.reps}")
        distlib.check_alpha(self.alpha)
        ns = tuple(designs._whole(n, "population sizes") for n in self.ns)
        if not suite.ns and ns:
            raise ValidationError(f"the {self.kind} campaign {suite.about} and takes no "
                                  f"population sizes, got {list(ns)}")
        if suite.ns and (not ns or any(n < 4 for n in ns)):
            raise ValidationError(f"population sizes must all be >= 4, got {list(ns)}")
        if any(a >= b for a, b in zip(ns, ns[1:])):
            raise ValidationError(f"population sizes must be strictly increasing, got {list(ns)}")
        object.__setattr__(self, "ns", ns)
        if not self.tol > 0.0:
            raise ValidationError(f"tolerance must be positive, got {self.tol}")
        if self.population not in suite.populations:
            if len(suite.populations) == 1:
                raise ValidationError(f"the {self.kind} campaign {suite.about} and takes "
                                      f"no population, got {self.population!r}")
            raise ValidationError(f"unknown {self.kind} population {self.population!r}; "
                                  f"choose from {list(suite.populations)}")

    def echo(self) -> dict:
        out = {
            "kind": self.kind,
            "seed": self.seed,
            "reps": self.reps,
            "alpha": self.alpha,
            "tol": self.tol,
        }
        if self.ns:  # the oracle echoes neither its placeholder nor a ladder
            out["population"] = self.population
            out["ns"] = list(self.ns)
        if self.kind == "rerand":
            out["n_covariates"] = _N_COVARIATES
            out["accept_target"] = _ACCEPT_TARGET
        return out


def _gap_metric(name: str, value: float, tol: float, checks: str) -> MetricResult:
    value = float(value)
    return MetricResult(name=name, value=value, tolerance=tol,
                        passed=value <= tol, checks=checks)


def _info_metric(name: str, value: float, checks: str) -> MetricResult:
    return MetricResult(name=name, value=float(value), tolerance=None,
                        passed=True, checks=checks)


# ---------------------------------------------------------------------------
# enumeration oracle

# N = 6 units, Q = 3 arms, sizes (2, 2, 2): 90 assignments.
_ORACLE_TABLE = np.array([
    [1.0, 2.0, 0.0],
    [3.0, 1.0, 4.0],
    [2.0, 5.0, 1.0],
    [4.0, 0.0, 3.0],
    [0.0, 2.0, 2.0],
    [5.0, 3.0, 1.0],
])
_ORACLE_SIZES = (2, 2, 2)
# (Q, K): arm 1 minus arm 3 and arm 2 minus arm 3
_ORACLE_CONTRAST = np.array([
    [1.0, 0.0],
    [0.0, 1.0],
    [-1.0, -1.0],
])

# two-arm instance whose enumerated estimator variance is exactly 4
_TWO_POINT_TABLE = np.array([[1.0, 0.0], [3.0, 2.0]])

# two-arm regression instance: centered covariate, sizes (3, 3), 20 assignments
_REG_X = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])
_REG_TABLE = np.array([
    [1.0, 0.0],
    [4.0, 2.0],
    [2.0, 3.0],
    [8.0, 5.0],
    [9.0, 4.0],
    [12.0, 10.0],
])


def _observed(table: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Observed outcomes table[i, labels[b, i] - 1] of a (B, N) label block."""
    n, q_arms = table.shape
    return table.ravel()[labels + (q_arms * np.arange(n) - 1)]


def _enumerated(sizes) -> np.ndarray:
    """Every assignment of the design, stacked as one (count, N) label block."""
    return np.concatenate(list(designs.enumerate_partition_blocks(sizes)))


def _enumerated_estimates(table, sizes, contrast, with_vhat: bool):
    """tau_hat and, if with_vhat, the variance estimate (else None) under
    every assignment of the design."""
    labels = _enumerated(sizes)
    arms = designs.ArmBlock(labels, len(sizes))
    y = _observed(np.asarray(table, dtype=float), labels)
    if with_vhat:
        return estimators.neyman_estimate(arms, y, contrast)
    return estimators.tau_hat(arms, y, contrast), None


def _pop_cov(values: np.ndarray) -> np.ndarray:
    dev = values - values.mean(axis=0)
    return dev.T @ dev / values.shape[0]


def _moment_metrics(metrics, table, sizes, contrast):
    n = np.asarray(table).shape[0]
    with_vhat = all(int(s) >= 2 for s in sizes)
    taus, vhats = _enumerated_estimates(table, sizes, contrast, with_vhat)
    mean_gap = np.max(np.abs(taus.mean(axis=0) - estimators.tau_true(table, contrast)))
    truth_cov = estimators.neyman_cov_true(table, contrast, sizes)
    cov_gap = np.max(np.abs(_pop_cov(taus) - truth_cov))
    metrics.append(_gap_metric(
        "estimator_mean_gap", mean_gap, _GAP_TOL,
        "mean of the contrast estimate over all assignments vs the population contrast",
    ))
    metrics.append(_gap_metric(
        "estimator_cov_gap", cov_gap, _GAP_TOL,
        "covariance of the contrast estimate over all assignments vs the "
        "closed-form arm-variance combination",
    ))
    if with_vhat:
        s2_tau = popstats.pot_cov_structure(table, contrast).s2_tau
        bias_gap = np.max(np.abs(vhats.mean(axis=0) - truth_cov - s2_tau / n))
        metrics.append(_gap_metric(
            "vhat_bias_gap", bias_gap, _GAP_TOL,
            "mean of the variance estimator minus the true covariance vs the "
            "effect-heterogeneity term S2_tau / N",
        ))


def _indicator_metric(metrics, sizes):
    sizes = tuple(int(s) for s in sizes)
    n = sum(sizes)
    q_arms = len(sizes)
    labels = _enumerated(sizes)
    inds = (labels[:, :, np.newaxis] == np.arange(1, q_arms + 1)).astype(float)  # (count, N, Q)
    count = inds.shape[0]
    emp_mean = inds.mean(axis=0)
    flat = inds.reshape(count, n * q_arms)
    emp_cov = flat.T @ flat / count - np.outer(emp_mean.ravel(), emp_mean.ravel())
    cells = [(i, q) for i in range(n) for q in range(1, q_arms + 1)]  # columns of flat
    truth = np.array([[designs.indicator_cov(sizes, i, j, q, r) for j, r in cells]
                      for i, q in cells])
    gap = max(np.max(np.abs(emp_mean - np.asarray(sizes) / n)),
              np.max(np.abs(emp_cov - truth)))
    metrics.append(_gap_metric(
        "indicator_cov_gap", gap, _INDICATOR_TOL,
        "membership-indicator means and covariances over all assignments vs "
        "the four-case closed forms",
    ))


def _rank_cov_metric(metrics, sizes):
    sizes = tuple(int(s) for s in sizes)
    n = sum(sizes)
    ranks = np.arange(1.0, n + 1.0)  # sharp null: ranks are fixed over assignments
    stats = randtests.standardized_rank_means(_enumerated(sizes), ranks)
    mean_gap = np.max(np.abs(stats.mean(axis=0)))
    cov_gap = np.max(np.abs(_pop_cov(stats) - randtests.rank_null_cov(sizes)))
    metrics.append(_gap_metric(
        "rank_mean_cov_gap", max(mean_gap, cov_gap), _GAP_TOL,
        "mean and covariance of the standardized rank means over all "
        "assignments vs zero and the unit-diagonal closed form",
    ))


def _regression_metric(metrics):
    table, x = _REG_TABLE, _REG_X
    beta_fixed = (np.zeros(1), np.zeros(1))
    beta_opt = (
        estimators.finite_pop_ls(table[:, 0], x),
        estimators.finite_pop_ls(table[:, 1], x),
    )
    labels = _enumerated((3, 3))
    arms = designs.ArmBlock(labels, 2)
    observed = _observed(table, labels)
    fixed_vals, opt_vals = (estimators.regression_adjusted(arms, observed, x, *beta)[0][:, 0]
                            for beta in (beta_fixed, beta_opt))
    var_gap = abs(
        (np.var(fixed_vals) - np.var(opt_vals)) - np.var(fixed_vals - opt_vals)
    )
    metrics.append(_gap_metric(
        "regression_decomposition_gap", var_gap, _GAP_TOL,
        "excess enumerated variance of an arbitrary-coefficient adjusted "
        "estimator over the least-squares one vs the variance of their "
        "difference (exact orthogonal decomposition)",
    ))
    mean_gap = abs(opt_vals.mean() - float(table[:, 0].mean() - table[:, 1].mean()))
    metrics.append(_gap_metric(
        "regression_unbiasedness_gap", mean_gap, _GAP_TOL,
        "mean of the adjusted estimator with fixed coefficients and centered "
        "covariates over all assignments vs the true effect",
    ))


def run_oracle_suite(config: ExperimentConfig) -> Report:
    """Exhaustive-enumeration checks on the bundled desk-scale instances."""
    if config.kind != "oracle":
        raise ValidationError(f"oracle suite got config kind {config.kind!r}")
    start = time.perf_counter()
    metrics: list[MetricResult] = []

    _moment_metrics(metrics, _ORACLE_TABLE, _ORACLE_SIZES, _ORACLE_CONTRAST)
    _indicator_metric(metrics, _ORACLE_SIZES)
    _rank_cov_metric(metrics, _ORACLE_SIZES)
    _regression_metric(metrics)

    # sharp null: the heterogeneity term vanishes, so the variance estimator
    # is exactly unbiased
    sharp = np.stack([_ORACLE_TABLE[:, 0]] * 2, axis=1)
    taus, vhats = _enumerated_estimates(sharp, (3, 3), [1.0, -1.0], True)
    truth = estimators.neyman_cov_true(sharp, [1.0, -1.0], (3, 3))
    sharp_gap = abs(float(vhats.mean(axis=0)[0, 0] - truth[0, 0]))
    metrics.append(_gap_metric(
        "sharp_null_bias", sharp_gap, _INDICATOR_TOL,
        "variance-estimator bias under equal potential-outcome columns; "
        "the heterogeneity term is exactly zero",
    ))

    # two-assignment design with enumerated estimator variance exactly 4
    taus, _ = _enumerated_estimates(_TWO_POINT_TABLE, (1, 1), [1.0, -1.0], False)
    metrics.append(_gap_metric(
        "two_assignment_var_gap", abs(float(_pop_cov(taus)[0, 0]) - 4.0), _GAP_TOL,
        "enumerated variance of the two-arm estimator on the size-(1,1) "
        "instance vs its hand-computed value 4",
    ))

    return Report(experiment=config.echo(), metrics=tuple(metrics),
                  wall_clock_s=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Monte Carlo campaigns

def synthetic_population(name: str, n: int) -> np.ndarray:
    """Deterministic populations exercising the normality condition.

    ranks and lognormal satisfy it (the latter with a heavy tail), two_point
    is a lattice case, spike concentrates all variance in one unit so the
    condition fails, constant is degenerate.
    """
    n = int(n)
    if n < 2:
        raise ValidationError(f"population size must be >= 2, got {n}")
    if name == "ranks":
        return np.arange(1.0, n + 1.0)
    if name == "lognormal":
        grid = (np.arange(n) + 0.5) / n
        return np.exp(np.array([distlib.std_normal_quantile(p) for p in grid]))
    if name == "two_point":
        return np.repeat([0.0, 1.0], [n - n // 2, n // 2])
    if name == "spike":
        pop = np.zeros(n)
        pop[-1] = float(n)
        return pop
    if name == "constant":
        return np.ones(n)
    raise ValidationError(
        f"unknown population {name!r}; choose from {list(CLT_POPULATIONS)}"
    )


def _ks_distance(sample: np.ndarray, cdf) -> float:
    x = np.sort(np.asarray(sample, dtype=float))
    b = x.size
    f = cdf(x)
    return float(np.max(np.maximum(f - np.arange(b) / b,
                                   np.arange(1, b + 1) / b - f)))


def _batched(reps: int, seed: int, *stream: int):
    """Yield (chunk_size, rng) pairs covering reps replicates."""
    done, chunk_idx = 0, 0
    while done < reps:
        m = min(_CHUNK, reps - done)
        yield m, designs.derive_rng(seed, *stream, chunk_idx)
        done += m
        chunk_idx += 1


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _drawn(sizes, reps: int, seed: int, n_index: int, stat) -> np.ndarray:
    """stat of reps uniform assignments of `sizes`, stacked in draw order.

    Chunk i is drawn from derive_rng(seed, _STREAM_ASSIGN, n_index, i). The
    chunks are mapped over a pool of min(usable cores, chunks) threads and
    their results joined in chunk order. A worker draws its chunk in
    sub-batches of about 2^20 labels, so memory is bounded by the pool width,
    and `stat` maps each slice of about 2^17 labels (which keeps an estimator
    call's temporaries in cache) to one row per assignment. Sub-batches are
    whole slices, and a generator's successive batches are the rows of one
    batch, so the result is the same bits for any pool width.
    """
    n = sum(sizes)
    rows = max(1, (1 << 17) // n)
    batch = max(rows, ((1 << 20) // n) // rows * rows)

    def reduce_chunk(job) -> np.ndarray:
        m, rng = job
        parts = []
        for start in range(0, m, batch):
            labels = designs.draw_partition_batch(sizes, min(batch, m - start), rng)
            parts.extend(stat(labels[i:i + rows]) for i in range(0, labels.shape[0], rows))
        return np.concatenate(parts)

    jobs = list(_batched(reps, seed, _STREAM_ASSIGN, n_index))
    with ThreadPoolExecutor(max_workers=min(_usable_cores(), len(jobs))) as pool:
        return np.concatenate(list(pool.map(reduce_chunk, jobs)))


def _srs_standardized(pop: np.ndarray, n: int, reps: int, seed: int,
                      n_index: int) -> np.ndarray:
    mean, var = popstats.srs_mean_var(pop, n)
    if var <= 0.0:
        raise DegenerateInputError("constant population: nothing to standardize")
    sd = math.sqrt(var)
    return _drawn((n, pop.size - n), reps, seed, n_index,
                  lambda labels: (((labels == 1) @ pop) / n - mean) / sd)


def _srs_rung(config: ExperimentConfig, n_index: int, n_total: int):
    pop = synthetic_population(config.population, n_total)
    n = n_total // 2
    condition = popstats.partition_condition_stat(pop, (n, n_total - n))
    stats = _srs_standardized(pop, n, config.reps, config.seed, n_index)
    return stats, distlib.std_normal_cdf, condition, []


def _rerand_rung(config: ExperimentConfig, n_index: int, n_total: int):
    x = designs.derive_rng(config.seed, _STREAM_POP, n_index).standard_normal(
        (n_total, _N_COVARIATES))
    x -= x.mean(axis=0)
    n1 = n_total // 2
    q_stats = _drawn((n1, n_total - n1), config.reps, config.seed, n_index,
                     lambda labels: np.square(designs.compute_delta(labels, x)).sum(axis=1))
    condition = max(popstats.partition_condition_stat(x[:, j], (n1, n_total - n1))
                    for j in range(_N_COVARIATES))
    threshold = distlib.chi2_quantile(_N_COVARIATES, _ACCEPT_TARGET)
    accept_rate = float(np.mean(q_stats <= threshold))
    gate = _gap_metric(
        f"acceptance_rate_gap_n{n_total}", abs(accept_rate - _ACCEPT_TARGET), config.tol,
        "rejection-sampling acceptance rate at the chi-square quantile "
        f"threshold vs the {_ACCEPT_TARGET} tail target",
    )
    return q_stats, lambda v: distlib.chi2_cdf(v, _N_COVARIATES), condition, [gate]


# kind -> (rung, KS checks, condition checks); a rung maps (config, n_index, N)
# to the drawn statistics, their reference cdf, the condition and its gates
_LADDERS = {
    "clt": (
        _srs_rung,
        "KS distance of the standardized sample mean to the standard normal cdf",
        "finite-N normality condition (max squared deviation over variance, "
        "scaled by the smaller group size)",
    ),
    "rerand": (
        _rerand_rung,
        "KS distance of the squared standardized covariate imbalance to "
        f"the chi-square({_N_COVARIATES}) cdf",
        "worst finite-N normality condition over covariate columns",
    ),
}


def run_clt_experiment(config: ExperimentConfig) -> Report:
    """KS convergence ladder for kind 'clt' (standardized sample mean) or
    kind 'rerand' (squared covariate imbalance against chi-square)."""
    if config.kind not in _LADDERS:
        raise ValidationError(f"CLT experiment got config kind {config.kind!r}")
    start = time.perf_counter()
    rung, ks_checks, condition_checks = _LADDERS[config.kind]
    metrics: list[MetricResult] = []
    ks_values = []
    for n_index, n_total in enumerate(config.ns):
        stats, cdf, condition, gates = rung(config, n_index, n_total)
        ks_values.append(_ks_distance(stats, cdf))
        metrics.append(_info_metric(f"ks_n{n_total}", ks_values[-1], ks_checks))
        metrics.append(_info_metric(f"condition_n{n_total}", condition, condition_checks))
        metrics.extend(gates)
    if len(ks_values) >= 2:
        drops = np.diff(ks_values)
        metrics.append(MetricResult(
            name="ks_min_drop",
            value=float(-np.max(drops)),
            tolerance=0.0,
            passed=bool(np.all(drops < 0.0)),
            checks="smallest decrease of the KS distance along the size ladder; "
                   "positive means strictly decreasing throughout",
        ))
    metrics.append(_gap_metric(
        "ks_final", ks_values[-1], config.tol,
        "KS distance at the largest population size",
    ))
    return Report(experiment=config.echo(), metrics=tuple(metrics),
                  wall_clock_s=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# coverage

def coverage_table(kind: str, n: int) -> np.ndarray:
    """Fixed two-arm tables: 'additive' shifts a normal-quantile population by
    a constant (zero heterogeneity, so nominal coverage is attained exactly in
    the limit); 'heterogeneous' makes the effect strongly unit-dependent, so
    intervals are conservative."""
    n = int(n)
    if n < 4:
        raise ValidationError(f"table size must be >= 4, got {n}")
    base = np.array([distlib.std_normal_quantile((i + 0.5) / n) for i in range(n)])
    if kind == "additive":
        return np.stack([base + 1.0, base], axis=1)
    if kind == "heterogeneous":
        return np.stack([-0.5 * base, base], axis=1)
    raise ValidationError(
        f"unknown coverage table {kind!r}; choose from {list(COVERAGE_TABLES)}"
    )


def _coverage_counts(tables, n1, reps, seed, n_index, alpha):
    """(coverage, true contrast) of the Neyman interval on each two-arm
    table, every table evaluated on the same reps draws of n1 treated units.
    The interval is `estimators.normal_interval` of `neyman_estimate`; its
    K = 1 Wald region is the same interval (chi2_{1, 1-alpha} = z^2_{1-alpha/2}),
    so no separate region is counted."""
    contrast = [1.0, -1.0]
    taus = [float(estimators.tau_true(table, contrast)[0]) for table in tables]

    def covered(labels):
        arms = designs.ArmBlock(labels, 2)
        hits = []
        for table, tau in zip(tables, taus):
            point, cov = estimators.neyman_estimate(arms, _observed(table, labels), contrast)
            lo, hi = estimators.normal_interval(point[:, 0], cov[:, 0, 0], alpha)
            hits.append((lo <= tau) & (tau <= hi))
        return np.stack(hits, axis=1)

    n_total = tables[0].shape[0]
    hits = _drawn((n1, n_total - n1), reps, seed, n_index, covered).sum(axis=0)
    return [(int(count) / reps, tau) for count, tau in zip(hits, taus)]


def _coverage_reports(configs) -> list[Report]:
    """One report per coverage config. The configs differ only in their
    table (population), so every table is evaluated on one pass of draws."""
    start = time.perf_counter()
    first = configs[0]
    metrics: list[list[MetricResult]] = [[] for _ in configs]
    nominal = 1.0 - first.alpha
    for n_index, n_total in enumerate(first.ns):
        tables = [coverage_table(config.population, n_total) for config in configs]
        counts = _coverage_counts(tables, n_total // 2, first.reps, first.seed, n_index,
                                  first.alpha)
        suffix = f"_n{n_total}" if len(first.ns) > 1 else ""
        for config, table, (coverage, tau), out in zip(configs, tables, counts, metrics):
            s2_tau = float(popstats.pot_cov_structure(table, [1.0, -1.0]).s2_tau[0, 0])
            out.append(_info_metric(
                "true_tau" + suffix, tau, "population contrast of the fixed table"))
            out.append(_info_metric(
                "s2_tau" + suffix, s2_tau,
                "effect-heterogeneity variance of the fixed table"))
            if config.population == "additive":
                passed = abs(coverage - nominal) <= config.tol
                gate = f"zero heterogeneity, so gated to {nominal} +/- {config.tol}"
            else:
                passed = coverage >= nominal - 1e-12
                gate = f"heterogeneous effects, so gated from below at {nominal}"
            out.append(MetricResult(
                name="neyman_coverage" + suffix, value=coverage, tolerance=config.tol,
                passed=passed, checks="fraction of intervals covering the true contrast; " + gate,
            ))
    wall = time.perf_counter() - start
    return [Report(experiment=config.echo(), metrics=tuple(out), wall_clock_s=wall)
            for config, out in zip(configs, metrics)]


# ---------------------------------------------------------------------------
# suite table


@dataclass(frozen=True)
class Suite:
    """One verification suite. populations are those it accepts, the first
    its default (a suite that takes none keeps one placeholder); ns is empty
    for a suite that takes no size ladder; about says what its campaign does,
    for refusals. A suite with tables runs them on shared draws when no
    population is given, and its runner maps those configs to one report
    each; any other runner maps one config to one report."""

    runner: Callable
    populations: tuple[str, ...]
    ns: tuple[int, ...]
    reps: int
    tol: float
    about: str
    tables: tuple[str, ...] = ()


# in the order the "all" suite runs them
SUITES = {
    "oracle": Suite(run_oracle_suite, ("ranks",), (), 1, 0.02,
                    "enumerates its bundled instances"),
    "clt": Suite(run_clt_experiment, CLT_POPULATIONS, (16, 64, 256, 1024), 20000, 0.02,
                 "draws sample means of a synthetic population"),
    "rerand": Suite(run_clt_experiment, ("ranks",), (256,), 20000, 0.02,
                    "draws normal covariates"),
    "coverage": Suite(_coverage_reports, COVERAGE_TABLES, (200,), 10000, 0.01,
                      "draws assignments of fixed two-arm tables", tables=COVERAGE_TABLES),
}

# the runners are called through this module-level dict, whose functions
# perfbench's tracer rebinds to time each campaign
_RUNNERS = {kind: suite.runner for kind, suite in SUITES.items()}


def run_suite(suite: str, seed: int, reps: int | None = None, alpha: float = 0.05,
              population: str | None = None, ns=None,
              tol: float | None = None) -> Report:
    """Run a named suite of SUITES, or every one in order for "all", and
    merge the component reports. reps, population, ns and tol left as None
    take each suite's defaults, and under "all" ns reaches only the suites
    that take a ladder. Every config is built, and so checked, before the
    first campaign runs."""
    start = time.perf_counter()
    if suite != "all" and suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}; choose from {[*SUITES, 'all']}")
    groups = []
    for kind in SUITES if suite == "all" else (suite,):
        entry = SUITES[kind]
        kind_ns = ns if entry.ns or suite != "all" else None
        pops = entry.tables if entry.tables and population is None else (population,)
        configs = [ExperimentConfig(kind, seed, reps, alpha, pop, kind_ns, tol) for pop in pops]
        groups.append((kind, entry.tables, configs))
    n_parts = sum(len(configs) for _, _, configs in groups)
    metrics: list[MetricResult] = []
    echoes = []
    for kind, tables, configs in groups:
        runner = _RUNNERS[kind]
        reports = runner(configs) if tables else [runner(config) for config in configs]
        for config, report in zip(configs, reports):
            label = f"{kind}_{config.population}" if tables else kind
            echoes.append({"name": label, **report.experiment})
            prefix = label + "." if n_parts > 1 else ""
            for m in report.metrics:
                metrics.append(MetricResult(
                    name=prefix + m.name, value=m.value, tolerance=m.tolerance,
                    passed=m.passed, checks=m.checks,
                ))
    return Report(experiment={"suite": suite, "runs": echoes},
                  metrics=tuple(metrics),
                  wall_clock_s=time.perf_counter() - start)
