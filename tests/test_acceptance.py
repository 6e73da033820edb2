"""Acceptance checks.

Twelve end-to-end criteria, one test each, covering the exact-enumeration
oracles, the Monte Carlo convergence and coverage campaigns, the quadratic
confidence-set classifier, factorial null moments, and the distribution
helpers. Every test prints a single PASS/FAIL line (visible even under
capture) and then asserts, so a bare `pytest tests/test_acceptance.py -q`
doubles as the verification protocol.

Monte Carlo criteria fix their seeds; the tolerances sit well above the
replication noise floor (about 0.87/sqrt(B) for a KS distance at B
replicates), so passing is a property of the implementation, not of the
draw.
"""

import time

import numpy as np

from finpop import designs, distlib, estimators, ivconf, popstats, randtests
from finpop.harness.experiments import ExperimentConfig, run_clt_experiment, run_suite

# ---------------------------------------------------------------------------
# shared fixtures: small instances whose assignments enumerate quickly

# N = 6, Q = 3 potential-outcome table, scalar outcomes
_T6 = np.array([
    [1.0, 2.0, 0.0],
    [3.0, 1.0, 4.0],
    [2.0, 5.0, 1.0],
    [4.0, 0.0, 3.0],
    [0.0, 2.0, 2.0],
    [5.0, 3.0, 1.0],
])
# arm 1 minus arm 3 and arm 2 minus arm 3
_C3 = np.array([
    [1.0, 0.0],
    [0.0, 1.0],
    [-1.0, -1.0],
])

# N = 5, Q = 2, bivariate outcomes; contrast is the vector difference
_T5 = np.array([
    [[1.0, 0.5], [0.0, 1.0]],
    [[3.0, 1.5], [2.0, 0.0]],
    [[2.0, 2.5], [5.0, 2.0]],
    [[4.0, 0.0], [1.0, 3.0]],
    [[0.0, 1.0], [2.0, 1.5]],
])
_C2 = np.stack([np.eye(2), -np.eye(2)])


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _observed(table, labels):
    return table[np.arange(table.shape[0]), labels - 1]


def _enumerated_estimates(table, sizes, contrast):
    return np.array([
        estimators.tau_hat(lab, _observed(table, lab), contrast)
        for lab in np.concatenate(list(designs.enumerate_partition_blocks(sizes)))
    ])


def _cov0(rows):
    dev = rows - rows.mean(axis=0)
    return dev.T @ dev / rows.shape[0]


# ---------------------------------------------------------------------------
# 1. enumerated estimator moments match the closed forms


def test_criterion_01_exact_estimator_moments(capsys):
    start = time.perf_counter()
    instances = [
        (_T6, (2, 2, 2), _C3),
        (_T6, (1, 2, 3), _C3),
        (_T5, (2, 3), _C2),
    ]
    mean_gap = cov_gap = 0.0
    for table, sizes, contrast in instances:
        ests = _enumerated_estimates(table, sizes, contrast)
        mean_gap = max(mean_gap, float(np.max(np.abs(
            ests.mean(axis=0) - estimators.tau_true(table, contrast)))))
        cov_gap = max(cov_gap, float(np.max(np.abs(
            _cov0(ests) - estimators.neyman_cov_true(table, contrast, sizes)))))
    elapsed = time.perf_counter() - start
    ok = mean_gap <= 1e-10 and cov_gap <= 1e-10 and elapsed < 10.0
    _verdict(capsys, 1, "exact estimator moments", ok,
             f"mean gap {mean_gap:.2e}, cov gap {cov_gap:.2e}, {elapsed:.1f}s")
    assert mean_gap <= 1e-10
    assert cov_gap <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. the variance estimator's enumerated bias is the heterogeneity term


def test_criterion_02_variance_estimator_bias(capsys):
    # sizes must all be >= 2 so the within-arm variances exist
    instances = [
        (_T6, (2, 2, 2), _C3),
        (_T5, (2, 3), _C2),
    ]
    gap = 0.0
    for table, sizes, contrast in instances:
        n = table.shape[0]
        vhats = np.array([
            estimators.neyman_estimate(lab, _observed(table, lab), contrast)[1]
            for lab in np.concatenate(list(designs.enumerate_partition_blocks(sizes)))
        ])
        ests = _enumerated_estimates(table, sizes, contrast)
        bias = vhats.mean(axis=0) - _cov0(ests)
        target = popstats.pot_cov_structure(table, contrast).s2_tau / n
        gap = max(gap, float(np.max(np.abs(bias - target))))
    ok = gap <= 1e-10
    _verdict(capsys, 2, "variance estimator bias identity", ok, f"max gap {gap:.2e}")
    assert gap <= 1e-10


# ---------------------------------------------------------------------------
# 3. membership-indicator covariances, all four unit/arm cases


def test_criterion_03_indicator_covariances(capsys):
    gaps = {"i=j,q=r": 0.0, "i=j,q!=r": 0.0, "i!=j,q=r": 0.0, "i!=j,q!=r": 0.0}
    for sizes in ((2, 2, 2), (1, 2, 3), (1, 1, 4)):
        labelings = np.concatenate(list(designs.enumerate_partition_blocks(sizes)))
        q_arms = len(sizes)
        ind = (labelings[:, :, None] == np.arange(1, q_arms + 1)).astype(float)
        m = ind.mean(axis=0)  # (N, Q)
        second = np.einsum("aiq,ajr->iqjr", ind, ind) / labelings.shape[0]
        emp = second - m[:, :, None, None] * m[None, None, :, :]
        n = labelings.shape[1]
        for i in range(n):
            for j in range(n):
                for q in range(1, q_arms + 1):
                    for r in range(1, q_arms + 1):
                        exact = designs.indicator_cov(sizes, i, j, q, r)
                        key = (f"i{'=' if i == j else '!='}j,"
                               f"q{'=' if q == r else '!='}r")
                        gaps[key] = max(gaps[key],
                                        abs(emp[i, q - 1, j, r - 1] - exact))
    worst = max(gaps.values())
    ok = worst <= 1e-12
    detail = ", ".join(f"{k} {v:.1e}" for k, v in gaps.items())
    _verdict(capsys, 3, "indicator covariances", ok, detail)
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 4. covariance of the standardized rank means


def test_criterion_04_standardized_rank_mean_cov(capsys):
    gap = 0.0
    for sizes in ((2, 2, 2), (2, 3)):
        n = sum(sizes)
        ranks = np.arange(1.0, n + 1.0)
        tilde = np.array([
            randtests.standardized_rank_means(lab, ranks)
            for lab in np.concatenate(list(designs.enumerate_partition_blocks(sizes)))
        ])
        # closed-form null covariance: unit diagonal, off-diagonals
        # -sqrt(n_q n_r / ((N - n_q)(N - n_r)))
        size_arr = np.asarray(sizes, dtype=float)
        displayed = -np.sqrt(np.outer(size_arr, size_arr)
                             / np.outer(n - size_arr, n - size_arr))
        np.fill_diagonal(displayed, 1.0)
        gap = max(gap, float(np.max(np.abs(_cov0(tilde) - displayed))))
        gap = max(gap, float(np.max(np.abs(
            randtests.rank_null_cov(sizes) - displayed))))
    ok = gap <= 1e-10
    _verdict(capsys, 4, "standardized rank-mean covariance", ok, f"max gap {gap:.2e}")
    assert gap <= 1e-10


# ---------------------------------------------------------------------------
# 5. the two Kruskal-Wallis forms agree; canonical value on N = 4


def test_criterion_05_kruskal_wallis_dual_form(capsys):
    rng = np.random.default_rng(5)
    gap = 0.0
    for _ in range(1000):
        q_arms = int(rng.integers(2, 6))
        sizes = tuple(int(rng.integers(2, 6)) for _ in range(q_arms))
        n = sum(sizes)
        y = rng.normal(size=n)  # continuous, so ties have probability zero
        labels = designs.draw_partition_batch(sizes, 1, rng)[0]
        h = randtests.randomization_test("kw", labels, y).statistic
        tilde = randtests.standardized_rank_means(
            labels, randtests.rank_transform(y))
        dual = float(((n - np.asarray(sizes, dtype=float)) / n) @ (tilde ** 2))
        gap = max(gap, abs(h - dual))
    canonical = randtests.randomization_test(
        "kw", np.array([2, 2, 1, 1]), np.array([1.0, 2.0, 3.0, 4.0])).statistic
    canon_gap = abs(canonical - 2.4)
    ok = gap <= 1e-10 and canon_gap <= 1e-12
    _verdict(capsys, 5, "Kruskal-Wallis dual form", ok,
             f"max gap {gap:.2e} over 1000 instances, H(canonical)={canonical:.10g}")
    assert gap <= 1e-10
    assert canon_gap <= 1e-12


# ---------------------------------------------------------------------------
# 6. KS distance to the normal limit decreases along the size ladder


def test_criterion_06_clt_convergence_ladder(capsys):
    start = time.perf_counter()
    report = run_clt_experiment(ExperimentConfig(
        kind="clt", seed=26, reps=20000, ns=(16, 64, 256, 1024)))
    elapsed = time.perf_counter() - start
    by_name = {m.name: m.value for m in report.metrics}
    ladder = [by_name[f"ks_n{n}"] for n in (16, 64, 256, 1024)]
    decreasing = all(b < a for a, b in zip(ladder, ladder[1:]))
    ok = decreasing and ladder[-1] < 0.02 and elapsed < 60.0
    _verdict(capsys, 6, "CLT convergence ladder", ok,
             "KS " + " > ".join(f"{v:.4f}" for v in ladder) + f", {elapsed:.1f}s")
    assert decreasing, ladder
    assert ladder[-1] < 0.02
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7. interval coverage: nominal under additive effects, conservative under
#    heterogeneous effects


def test_criterion_07_interval_coverage(capsys):
    start = time.perf_counter()
    # both tables are evaluated on the same draws
    report = run_suite("coverage", seed=26, reps=10000, ns=(200,), tol=0.01)
    results = {m.name: m.value for m in report.metrics}
    elapsed = time.perf_counter() - start
    additive = results["coverage_additive.neyman_coverage"]
    hetero = results["coverage_heterogeneous.neyman_coverage"]
    ok = 0.94 <= additive <= 0.96 and hetero >= 0.95 - 1e-12 and elapsed < 60.0
    _verdict(capsys, 7, "interval coverage", ok,
             f"additive {additive:.4f}, heterogeneous {hetero:.4f}, {elapsed:.1f}s")
    assert 0.94 <= additive <= 0.96
    assert hetero >= 0.95 - 1e-12
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. rerandomization: imbalance statistic matches chi-square, acceptance
#    rate matches the tail target


def test_criterion_08_rerandomization_calibration(capsys):
    report = run_clt_experiment(ExperimentConfig(
        kind="rerand", seed=26, reps=20000, ns=(256,)))
    by_name = {m.name: m.value for m in report.metrics}
    ks = by_name["ks_final"]
    rate_gap = by_name["acceptance_rate_gap_n256"]
    ok = ks < 0.02 and rate_gap <= 0.02
    _verdict(capsys, 8, "rerandomization calibration", ok,
             f"KS {ks:.4f}, acceptance-rate gap {rate_gap:.4f}")
    assert ks < 0.02
    assert rate_gap <= 0.02


# ---------------------------------------------------------------------------
# 9. regression adjustment: the variance excess over the optimal
#    coefficients is exactly the variance of the difference


def test_criterion_09_regression_optimality(capsys):
    x = np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0]).reshape(-1, 1)
    y1 = np.array([2.0, 1.0, 4.0, 3.5, 6.0, 5.0, 8.5, 7.0])
    y0 = np.array([1.0, 0.5, 2.0, 1.0, 3.0, 2.5, 4.0, 3.0])
    beta1_opt = estimators.finite_pop_ls(y1, x)
    beta0_opt = estimators.finite_pop_ls(y0, x)
    labelings = np.concatenate(list(designs.enumerate_partition_blocks((4, 4))))

    def estimates(b1, b0):
        out = []
        for lab in labelings:
            y = np.where(lab == 1, y1, y0)
            point, _ = estimators.regression_adjusted(lab, y, x, b1, b0)
            out.append(point[0])
        return np.array(out)

    opt = estimates(beta1_opt, beta0_opt)
    identity_gap = 0.0
    min_excess = np.inf
    for shift1, shift0 in ((0.7, -0.4), (-1.2, 0.9), (0.3, 0.3), (2.0, -2.0)):
        alt = estimates(beta1_opt + shift1, beta0_opt + shift0)
        excess = alt.var() - opt.var()
        identity_gap = max(identity_gap, abs(excess - (alt - opt).var()))
        min_excess = min(min_excess, excess)
    ok = identity_gap <= 1e-10 and min_excess >= -1e-12
    _verdict(capsys, 9, "regression-adjustment optimality", ok,
             f"decomposition gap {identity_gap:.2e}, smallest excess {min_excess:.2e}")
    assert identity_gap <= 1e-10
    assert min_excess >= -1e-12


# ---------------------------------------------------------------------------
# 10. quadratic confidence-set classification against brute force


def test_criterion_10_quadratic_classification(capsys):
    # (a) one constructed triple per classification row
    rows = [
        ((1.0, 0.0, -1.0), "interval"),
        ((1.0, 2.0, 4.0), "point"),
        ((1.0, 0.0, 1.0), "empty"),
        ((-1.0, 0.0, 1.0), "complement"),
        ((-1.0, 1.0, -1.0), "whole_line"),   # tangent from below
        ((0.0, 1.0, 2.0), "half_line_up"),
        ((0.0, -1.0, 2.0), "half_line_down"),
        ((0.0, 0.0, 1.0), "empty"),
        ((0.0, 0.0, -1.0), "whole_line"),
    ]
    row_failures = [
        (triple, expected, ivconf.classify_quadratic(*triple).kind)
        for triple, expected in rows
        if ivconf.classify_quadratic(*triple).kind != expected
    ]

    # (b) sign scan on 10^4 random triples. The grid is coarse (step 0.025
    # over [-150, 150]) so triples are filtered to |b^2 - ac| >= 0.05, which
    # keeps root pairs at least ~9 grid points apart and inside the window.
    rng = np.random.default_rng(2026)
    triples = np.empty((0, 3))
    while triples.shape[0] < 10000:
        a = rng.uniform(0.1, 2.0, size=4000) * rng.choice([-1.0, 1.0], size=4000)
        b = rng.uniform(-3.0, 3.0, size=4000)
        c = rng.uniform(-3.0, 3.0, size=4000)
        batch = np.column_stack([a, b, c])
        keep = np.abs(b * b - a * c) >= 0.05
        triples = np.vstack([triples, batch[keep]])
    triples = triples[:10000]

    grid = np.arange(-150.0, 150.0 + 0.0125, 0.025)
    mismatches = 0
    endpoint_gap = 0.0
    for chunk in np.array_split(triples, 20):
        a, b, c = chunk[:, 0:1], chunk[:, 1:2], chunk[:, 2:3]
        member = a * grid * grid - 2.0 * b * grid + c <= 0.0
        n_trans = (member[:, 1:] != member[:, :-1]).sum(axis=1)
        for row in range(chunk.shape[0]):
            mem = member[row]
            if not mem.any():
                scanned = "empty"
            elif mem.all():
                scanned = "whole_line"
            elif n_trans[row] == 2 and not mem[0] and not mem[-1]:
                scanned = "interval"
            elif n_trans[row] == 2 and mem[0] and mem[-1]:
                scanned = "complement"
            else:
                scanned = "unrecognized"
            predicted = ivconf.classify_quadratic(*chunk[row])
            if predicted.kind != scanned:
                mismatches += 1
                continue
            if scanned == "interval":
                idx = np.flatnonzero(mem)
            elif scanned == "complement":
                idx = np.flatnonzero(~mem)
            else:
                continue
            endpoint_gap = max(endpoint_gap,
                               abs(grid[idx[0]] - predicted.endpoints[0]),
                               abs(grid[idx[-1]] - predicted.endpoints[1]))

    # (c) the assembled confidence set agrees with direct test inversion
    inversion_mismatches = 0
    points_checked = 0
    crit2 = distlib.std_normal_quantile(0.975) ** 2
    rng = np.random.default_rng(50)
    for _ in range(50):
        n = int(rng.integers(12, 31))
        z = np.zeros(n, dtype=int)
        z[:n // 2] = 1
        rng.shuffle(z)
        d = rng.normal(size=n) + rng.uniform(0.1, 1.5) * z
        y = rng.normal(size=n) + rng.uniform(-1.0, 2.0) * d
        conf = ivconf.iv_summary(z, d, y, 0.05).confidence_set
        for beta in np.linspace(-8.0, 8.0, 161):
            # |t| <= z_{0.975} sqrt(v) directly, with t and v the statistic and
            # null variance of the shipped 'diff' test of y - beta d
            test = randtests.randomization_test("diff", 2 - z, y - beta * d, "normal")
            t, v = test.statistic, test.null_variance
            margin = t * t - crit2 * v
            if abs(margin) <= 1e-9 * max(1.0, t * t, crit2 * v):
                continue  # grid point sits on the set boundary
            points_checked += 1
            if conf.contains(beta) != (margin <= 0.0):
                inversion_mismatches += 1

    ok = (not row_failures and mismatches == 0 and endpoint_gap <= 0.05
          and inversion_mismatches == 0)
    _verdict(capsys, 10, "quadratic set classification", ok,
             f"9 rows, scan mismatches {mismatches}/10000, endpoint gap "
             f"{endpoint_gap:.3f}, inversion mismatches "
             f"{inversion_mismatches}/{points_checked}")
    assert not row_failures, row_failures
    assert mismatches == 0
    assert endpoint_gap <= 0.05
    assert inversion_mismatches == 0


# ---------------------------------------------------------------------------
# 11. factorial effects under the sharp null: enumerated moments match
#     the closed forms, including the unbalanced 1/3 correlation


def test_criterion_11_factorial_null_moments(capsys):
    spec = designs.factorial_contrasts(2)
    cases = [
        ((1, 2, 2, 1), np.array([0.5, 1.0, 2.5, -1.0, 3.0, 4.5])),
        ((2, 2, 2, 2), np.array([1.0, -0.5, 2.0, 0.0, 3.5, 1.5, -2.0, 4.0])),
    ]
    var_gap = corr_gap = 0.0
    unbalanced_corr = None
    for sizes, y in cases:
        v_n = popstats.pop_moments(y).variance
        var_pred, corr_pred = estimators.factorial_null_moments(v_n, sizes, spec)
        effects = np.array([
            estimators.tau_hat(lab, y, spec.contrast)
            for lab in np.concatenate(list(designs.enumerate_partition_blocks(sizes)))
        ])
        cov_emp = _cov0(effects)
        sd = np.sqrt(np.diag(cov_emp))
        var_gap = max(var_gap, float(np.max(np.abs(np.diag(cov_emp) - var_pred))))
        corr_gap = max(corr_gap, float(np.max(np.abs(
            cov_emp / np.outer(sd, sd) - corr_pred))))
        if sizes == (1, 2, 2, 1):
            unbalanced_corr = corr_pred
    ok = (var_gap <= 1e-10 and corr_gap <= 1e-10
          and abs(unbalanced_corr[0, 1] - 1.0 / 3.0) <= 1e-12
          and abs(unbalanced_corr[0, 2]) <= 1e-12
          and abs(unbalanced_corr[1, 2]) <= 1e-12)
    _verdict(capsys, 11, "factorial sharp-null moments", ok,
             f"var gap {var_gap:.2e}, corr gap {corr_gap:.2e}, "
             f"corr(tau1, tau2) at sizes (1,2,2,1) = {unbalanced_corr[0, 1]:.6f}")
    assert var_gap <= 1e-10
    assert corr_gap <= 1e-10
    assert abs(unbalanced_corr[0, 1] - 1.0 / 3.0) <= 1e-12
    assert abs(unbalanced_corr[0, 2]) <= 1e-12
    assert abs(unbalanced_corr[1, 2]) <= 1e-12


# ---------------------------------------------------------------------------
# 12. distribution helpers: quantile, orthant probability, threshold
#     round-trip


def test_criterion_12_distribution_helpers(capsys):
    quantile_gap = abs(distlib.std_normal_quantile(0.975) - 1.959964)
    orthant_gap = abs(distlib.bvn_lower_orthant(0.0, 0.5) - 1.0 / 3.0)
    round_trip = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.3, 0.7, 0.95):
        for alpha in (0.05, 0.10):
            c = distlib.solve_gamma_c(rho, alpha)
            round_trip = max(round_trip, abs(
                distlib.bvn_lower_orthant(c, rho) - (1.0 - alpha)))
    ok = quantile_gap <= 1e-5 and orthant_gap <= 1e-7 and round_trip <= 1e-6
    _verdict(capsys, 12, "distribution helpers", ok,
             f"quantile gap {quantile_gap:.2e}, orthant gap {orthant_gap:.2e}, "
             f"round-trip gap {round_trip:.2e}")
    assert quantile_gap <= 1e-5
    assert orthant_gap <= 1e-7
    assert round_trip <= 1e-6
