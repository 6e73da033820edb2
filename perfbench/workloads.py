"""Benchmark workloads: seeded inputs, the CLI calls of one pass, and the
independent output checks.

Every reference value is computed here with plain numpy/scipy from the
generated arrays, never by calling finpop, so a check fails when the CLI
computes the wrong number, not only when it crashes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special, stats

# Monte Carlo checks accept a p-value within this many binomial standard
# errors (CLI draws plus reference draws) of the set-up reference, plus one
# lattice step 1/(B + 1); the false-alarm rate per check is below 1e-5.
BAND_SIGMAS = 4.5

# Exact p-value checks count reference statistics within this relative
# distance of the observed one either way. The exact engine compares with raw
# `>=`, so an assignment whose statistic equals the observed one up to
# round-off may be dropped (the tie undercount of ROADMAP item 3); the CLI's
# count must lie between the strict and the tolerant reference counts.
ROUNDOFF_RTOL = 1e-9

Check = Callable[[int, "dict | None"], "str | None"]


@dataclass
class Call:
    label: str
    argv: list[str]
    check: Check


@dataclass
class Workload:
    name: str
    calls: list[Call]
    warmup: list[str]
    # reference assignments enumerated or drawn per pass, from the call
    # configuration (0 when the workload enters no randomization engine)
    assignments: int
    # passed checks that met a known package defect, one line each
    notices: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# helpers

def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Integers as written, floats in shortest round-trip form, so the CLI
    parses back exactly the arrays the references were computed from."""
    cols = [c.tolist() for c in columns]
    fmt = [str if np.issubdtype(c.dtype, np.integer) else repr for c in columns]
    lines = [",".join(header)]
    lines.extend(",".join(f(v) for f, v in zip(fmt, row)) for row in zip(*cols))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _shuffled_labels(rng: np.random.Generator, sizes) -> np.ndarray:
    return rng.permutation(np.repeat(np.arange(1, len(sizes) + 1), sizes))


def _even_sizes(n: int, q: int) -> list[int]:
    return [n // q + (1 if k < n % q else 0) for k in range(q)]


def _ranks(y: np.ndarray) -> np.ndarray:
    """Ranks 1..N of untied values."""
    r = np.empty(y.size)
    r[np.argsort(y, kind="stable")] = np.arange(1.0, y.size + 1.0)
    return r


def _mismatch(payload: dict, expected: dict, rtol: float = 1e-8,
              atol: float = 1e-12) -> str | None:
    for key, want in expected.items():
        got = payload
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if want is None or isinstance(want, str) or (
                isinstance(want, list) and isinstance(want[0], str)):
            if got != want:
                return f"{key}: got {got!r}, expected {want!r}"
            continue
        got_arr = np.asarray(got, dtype=float)
        want_arr = np.asarray(want, dtype=float)
        if got_arr.shape != want_arr.shape or not np.allclose(
                got_arr, want_arr, rtol=rtol, atol=atol):
            return f"{key}: got {got!r}, expected {want_arr.tolist()!r}"
    return None


def _expect(expected: dict, **tol) -> Check:
    def check(code: int, payload: dict | None) -> str | None:
        if code != 0 or payload is None:
            return f"exit code {code}"
        return _mismatch(payload, expected, **tol)
    return check


def _mc_band(p_cli: float, hits_ref: int, b_cli: int, b_ref: int) -> str | None:
    p_ref = max(hits_ref, 1) / b_ref
    sd = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / b_cli + 1.0 / b_ref))
    band = BAND_SIGMAS * sd + 1.0 / (b_cli + 1)
    if abs(p_cli - p_ref) > band:
        return f"p-value {p_cli} outside {p_ref} +/- {band} (B={b_cli}, B_ref={b_ref})"
    return None


def _two_sided_normal(stat: float, var0: float) -> float:
    return min(1.0, 2.0 * float(special.ndtr(-abs(stat) / math.sqrt(var0))))


def _arm_rank_sums(labels: np.ndarray, ranks: np.ndarray, q: int) -> np.ndarray:
    """(B, Q) rank sums of a (B, N) block of label rows."""
    return np.stack([(labels == k + 1) @ ranks for k in range(q)], axis=1)


def _kw_from_sums(sums: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    return 12.0 / (n * (n + 1.0)) * np.sum(sums**2 / sizes, axis=-1) - 3.0 * (n + 1.0)


# ---------------------------------------------------------------------------
# cli_analysis

_SIZES = {"small": 1_000, "mid": 10_000, "large": 100_000, "clusters": 500}


def cli_analysis(workdir: Path, seed: int) -> Workload:
    """Analysis subcommands with normal references on N = 1k..100k rows."""
    rng = np.random.default_rng([seed, 1])
    z975 = float(stats.norm.ppf(0.975))
    calls: list[Call] = []

    # three-arm file: plain estimate and the simulated max-rank test
    n = _SIZES["small"]
    sizes = np.array(_even_sizes(n, 3))
    lab = _shuffled_labels(rng, sizes)
    y = rng.normal(size=n) + 0.2 * lab
    path = workdir / "q3_small.csv"
    _write_csv(path, ["arm", "y"], [lab, y])
    means = np.array([y[lab == k].mean() for k in (1, 2, 3)])
    s2 = np.array([y[lab == k].var(ddof=1) for k in (1, 2, 3)])
    cov = np.full((2, 2), s2[2] / sizes[2])
    cov[np.diag_indices(2)] += s2[:2] / sizes[:2]
    calls.append(Call("estimate_plain", ["estimate", "--data", str(path)], _expect({
        "method": "difference_in_means",
        "point": means[:2] - means[2],
        "cov": cov,
        "sizes": sizes,
        "wald_chi2_threshold": stats.chi2.ppf(0.95, 2),
    })))

    ranks = _ranks(y)
    observed_max = float(np.max(_arm_rank_sums(lab[None, :], ranks, 3)[0] / sizes))
    b_cli, b_ref = 20_000, 400_000
    # Limiting law of the arm rank means: with G_q ~ N(0, s2 / n_q) independent
    # and s2 = N (N + 1) / 12, G - sum(n G) / N has the exact null covariance
    # of Rbar - (N + 1) / 2.
    ref_rng = np.random.default_rng([seed, 2])
    s2_rank = n * (n + 1.0) / 12.0
    g = ref_rng.standard_normal((b_ref, 3)) * np.sqrt(s2_rank / sizes)
    sims = (n + 1.0) / 2.0 + g - (g @ sizes / n)[:, None]
    max_hits = int(np.sum(sims.max(axis=1) >= observed_max))

    def check_max(code, payload):
        if code != 0 or payload is None:
            return f"exit code {code}"
        return (_mismatch(payload, {"statistic": observed_max}, rtol=1e-12)
                or _mc_band(float(payload["p_value"]), max_hits, b_cli, b_ref))

    calls.append(Call("test_max_normal", [
        "test", "--data", str(path), "--stat", "max", "--method", "normal",
        "--seed", str(seed), "--reps", str(b_cli)], check_max))

    # two-arm large file with covariates: regression estimate and Wilcoxon
    n = _SIZES["large"]
    lab = _shuffled_labels(rng, _even_sizes(n, 2))
    x = rng.normal(size=(n, 2)) + np.array([3.0, -1.0])
    y = 1.0 + 0.5 * (lab == 1) + x @ np.array([1.0, -0.3]) + rng.normal(size=n)
    path = workdir / "reg_large.csv"
    _write_csv(path, ["arm", "y", "x1", "x2"], [lab, y, x[:, 0], x[:, 1]])
    xc = x - x.mean(axis=0)
    betas = []
    for k in (1, 2):
        m = lab == k
        betas.append(np.linalg.lstsq(xc[m] - xc[m].mean(axis=0),
                                     y[m] - y[m].mean(), rcond=None)[0])
    t, c = lab == 1, lab == 2
    adj1, adj0 = y - xc @ betas[0], y - xc @ betas[1]
    point = adj1[t].mean() - adj0[c].mean()
    var = adj1[t].var(ddof=1) / t.sum() + adj0[c].var(ddof=1) / c.sum()
    half = z975 * math.sqrt(var)
    calls.append(Call("estimate_regression", ["estimate", "--data", str(path)], _expect({
        "method": "regression_adjusted",
        "point": [point],
        "cov": [[var]],
        "ci": [point - half, point + half],
        "coefficients.arm1": betas[0],
        "coefficients.arm2": betas[1],
    }, rtol=1e-7)))

    ranks = _ranks(y)
    n1, n0 = int(t.sum()), int(c.sum())
    observed = ranks[t].mean() - ranks[c].mean()
    var0 = n / (n1 * n0) * n * (n + 1.0) / 12.0
    calls.append(Call("test_wilcoxon_normal", [
        "test", "--data", str(path), "--stat", "wilcoxon", "--method", "normal"], _expect({
            "statistic": observed,
            "null_variance": var0,
            "p_value": _two_sided_normal(observed, var0),
            "method": "normal_approx",
        })))

    # cluster-randomized file: whole clusters share an arm
    n, m_clusters = _SIZES["mid"], _SIZES["clusters"]
    members = np.sort(rng.integers(0, m_clusters, size=n - m_clusters))
    cluster = rng.permutation(np.concatenate([np.arange(m_clusters), members])) + 1
    arm_of = _shuffled_labels(rng, _even_sizes(m_clusters, 2))
    lab = arm_of[cluster - 1]
    y = rng.normal(size=m_clusters)[cluster - 1] + rng.normal(size=n) + 0.3 * (lab == 1)
    path = workdir / "cluster_mid.csv"
    _write_csv(path, ["arm", "y", "cluster"], [lab, y, cluster])
    totals = np.bincount(cluster, weights=y)[1:]
    scale = m_clusters / n
    tt, tc = totals[arm_of == 1], totals[arm_of == 2]
    point = scale * (tt.mean() - tc.mean())
    var = scale**2 * (tt.var(ddof=1) / tt.size + tc.var(ddof=1) / tc.size)
    half = z975 * math.sqrt(var)
    calls.append(Call("estimate_cluster", ["estimate", "--data", str(path)], _expect({
        "method": "cluster_adjusted",
        "point": [point],
        "cov": [[var]],
        "ci": [point - half, point + half],
        "cluster_sizes_by_arm": [tt.size, tc.size],
        "n_units": n,
    })))

    # three-arm mid file: Kruskal-Wallis with its chi-square reference
    n = _SIZES["mid"]
    sizes = np.array(_even_sizes(n, 3))
    lab = _shuffled_labels(rng, sizes)
    y = rng.normal(size=n) + 0.03 * lab
    path = workdir / "q3_mid.csv"
    _write_csv(path, ["arm", "y"], [lab, y])
    h = float(_kw_from_sums(_arm_rank_sums(lab[None, :], _ranks(y), 3), sizes, n)[0])
    calls.append(Call("test_kw_normal", [
        "test", "--data", str(path), "--stat", "kw", "--method", "normal"], _expect({
            "statistic": h,
            "p_value": stats.chi2.sf(h, 2),
            "method": "chi2_approx",
            "null_mean": 2.0,
        }, rtol=1e-7)))

    # two-arm small file: difference in means
    n = _SIZES["small"]
    lab = _shuffled_labels(rng, _even_sizes(n, 2))
    y = rng.normal(size=n) + 0.1 * (lab == 1)
    path = workdir / "two_small.csv"
    _write_csv(path, ["arm", "y"], [lab, y])
    t = lab == 1
    observed = y[t].mean() - y[~t].mean()
    var0 = n / (t.sum() * (~t).sum()) * y.var(ddof=1)
    calls.append(Call("test_diff_normal", [
        "test", "--data", str(path), "--stat", "diff", "--method", "normal"], _expect({
            "statistic": observed,
            "null_variance": var0,
            "p_value": _two_sided_normal(observed, var0),
        })))

    # binary outcome: hypergeometric count with the continuity-corrected normal
    n = _SIZES["mid"]
    lab = _shuffled_labels(rng, _even_sizes(n, 2))
    y = (rng.random(n) < 0.3 + 0.02 * (lab == 1)).astype(np.int64)
    path = workdir / "binary_mid.csv"
    _write_csv(path, ["arm", "y"], [lab, y])
    n1, ones = int(np.sum(lab == 1)), int(y.sum())
    observed = int(y[lab == 1].sum())
    mean = n1 * ones / n
    var0 = ones * (n - ones) * n1 * (n - n1) / (n**2 * (n - 1.0))
    shifted = abs(observed - mean) - 0.5
    p = 1.0 if shifted <= 0 else min(1.0, 2.0 * float(special.ndtr(-shifted / math.sqrt(var0))))
    calls.append(Call("test_hyper_normal", [
        "test", "--data", str(path), "--stat", "hyper", "--method", "normal"], _expect({
            "statistic": observed,
            "null_mean": mean,
            "null_variance": var0,
            "p_value": p,
        })))

    # encouragement design: effect-ratio confidence set
    n = _SIZES["large"]
    z = _shuffled_labels(rng, _even_sizes(n, 2)) - 1
    d = 0.2 + 0.6 * z + 0.5 * rng.normal(size=n)
    y = 1.5 * d + rng.normal(size=n)
    path = workdir / "iv_large.csv"
    _write_csv(path, ["z", "d", "y"], [z, d, y])
    zt = z == 1
    n1, n0 = int(zt.sum()), int((~zt).sum())
    tau_y, tau_d = y[zt].mean() - y[~zt].mean(), d[zt].mean() - d[~zt].mean()
    cov_yd = np.cov(np.stack([y, d]), ddof=1)
    s2_y, s2_d, s_yd = cov_yd[0, 0], cov_yd[1, 1], cov_yd[0, 1]
    eta = n / (n1 * n0) * float(stats.norm.ppf(0.025)) ** 2
    a, b, cc = tau_d**2 - eta * s2_d, tau_d * tau_y - eta * s_yd, tau_y**2 - eta * s2_y
    root = math.sqrt(b * b - a * cc)
    den_y, den_d = s2_y - s_yd**2 / s2_d, s2_d - s_yd**2 / s2_y
    condition = (np.max((y - y.mean()) ** 2) / den_y
                 + np.max((d - d.mean()) ** 2) / den_d) / min(n1, n0)
    calls.append(Call("iv_ci", ["iv-ci", "--data", str(path)], _expect({
        "kind": "interval",
        "endpoints": [(b - root) / a, (b + root) / a],
        "eta": eta,
        "summary.tau_hat_y": tau_y,
        "summary.tau_hat_d": tau_d,
        "summary.s2_y": s2_y,
        "summary.s2_d": s2_d,
        "summary.s_yd": s_yd,
        "condition.value": condition,
    }, rtol=1e-7)))

    # 2^2 factorial: four arms, effects and their sharp-null moments
    n = _SIZES["mid"]
    sizes = np.array(_even_sizes(n, 4))
    lab = _shuffled_labels(rng, sizes)
    levels = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    y = rng.normal(size=n) + 0.2 * levels[lab - 1, 0] - 0.1 * levels[lab - 1, 1]
    path = workdir / "factorial_mid.csv"
    _write_csv(path, ["arm", "y"], [lab, y])
    gen = np.column_stack([levels, levels[:, 0] * levels[:, 1]]).astype(float)
    arm_means = np.array([y[lab == k].mean() for k in range(1, 5)])
    inv = 1.0 / sizes
    calls.append(Call("factorial", ["factorial", "--data", str(path), "--factors", "2"], _expect({
        "effect_names": ["1", "2", "1:2"],
        "effects": 0.5 * gen.T @ arm_means,
        "sharp_null_variances": np.full(3, 0.25 * y.var(ddof=1) * inv.sum()),
        "sharp_null_correlation": (gen.T * inv) @ gen / inv.sum(),
        "sizes": sizes,
    })))

    return Workload("cli_analysis", calls,
                    warmup=["estimate", "--data", str(workdir / "q3_small.csv")],
                    assignments=0)


# ---------------------------------------------------------------------------
# randomization

def randomization(workdir: Path, seed: int) -> Workload:
    """Exact and Monte Carlo p-values from the reference engines."""
    rng = np.random.default_rng([seed, 3])
    half = 10
    n_mc, b_cli, b_ref = 200, 10_000, 200_000

    # exact diff in means over all C(2 half, half) assignments
    n = 2 * half
    lab = _shuffled_labels(rng, [half, half])
    y = rng.normal(size=n)
    exact_path = workdir / "exact.csv"
    _write_csv(exact_path, ["arm", "y"], [lab, y])
    treated = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), half)),
        dtype=np.int64).reshape(-1, half)
    total = treated.shape[0]
    sums = y[treated].sum(axis=1)
    ref = np.abs(sums / half - (y.sum() - sums) / half)
    observed = y[lab == 1].mean() - y[lab == 2].mean()
    tol = ROUNDOFF_RTOL * max(1.0, abs(observed))
    count_lo = int(np.sum(ref >= abs(observed) + tol))
    count_hi = int(np.sum(ref >= abs(observed) - tol))

    def check_exact(code, payload):
        if code != 0 or payload is None:
            return f"exit code {code}"
        bad = _mismatch(payload, {"statistic": observed,
                                  "method": f"exact(count={total})"}, rtol=1e-12)
        if bad:
            return bad
        count = round(float(payload["p_value"]) * total)
        if not count_lo <= count <= count_hi:
            return (f"exact count {count} outside [{count_lo}, {count_hi}] "
                    "(round-off ties may fall either way)")
        return None

    # Monte Carlo Kruskal-Wallis and max rank mean, one reference for both
    sizes = np.array(_even_sizes(n_mc, 3))
    lab = _shuffled_labels(rng, sizes)
    y = rng.normal(size=n_mc)
    mc_path = workdir / "mc.csv"
    _write_csv(mc_path, ["arm", "y"], [lab, y])
    ranks = _ranks(y)
    obs_sums = _arm_rank_sums(lab[None, :], ranks, 3)
    kw_obs = float(_kw_from_sums(obs_sums, sizes, n_mc)[0])
    max_obs = float(np.max(obs_sums[0] / sizes))
    ref_rng = np.random.default_rng([seed, 4])
    template = np.repeat(np.arange(1, 4, dtype=np.int8), sizes)
    kw_hits = max_hits = 0
    for start in range(0, b_ref, 20_000):
        block = np.tile(template, (min(20_000, b_ref - start), 1))
        ref_rng.permuted(block, axis=1, out=block)
        ref_sums = _arm_rank_sums(block, ranks, 3)
        # H within round-off of the observed value counts as a tie
        kw_hits += int(np.sum(_kw_from_sums(ref_sums, sizes, n_mc)
                              >= kw_obs - 1e-9 * kw_obs))
        max_hits += int(np.sum((ref_sums / sizes).max(axis=1) >= max_obs))

    def mc_check(observed_stat, hits):
        def check(code, payload):
            if code != 0 or payload is None:
                return f"exit code {code}"
            return (_mismatch(payload, {"statistic": observed_stat}, rtol=1e-9)
                    or _mc_band(float(payload["p_value"]), hits, b_cli, b_ref))
        return check

    mc_args = ["--method", "mc", "--seed", str(seed), "--reps", str(b_cli)]
    calls = [
        Call("exact_diff", ["test", "--data", str(exact_path), "--stat", "diff",
                            "--method", "exact"], check_exact),
        Call("mc_kw", ["test", "--data", str(mc_path), "--stat", "kw", *mc_args],
             mc_check(kw_obs, kw_hits)),
        Call("mc_max", ["test", "--data", str(mc_path), "--stat", "max", *mc_args],
             mc_check(max_obs, max_hits)),
    ]
    return Workload("randomization", calls,
                    warmup=["test", "--data", str(mc_path), "--stat", "kw",
                            "--method", "mc", "--seed", str(seed), "--reps", "100"],
                    assignments=total + 2 * b_cli)


# ---------------------------------------------------------------------------
# verify_campaigns

# Assignments the oracle suite enumerates: three passes over sizes (2, 2, 2),
# the regression and sharp-null instances at (3, 3), and the (1, 1) instance.
_ORACLE_ENUMERATED = 3 * 90 + 2 * 20 + 2
# Draw campaigns per --reps: the four-size CLT ladder, one rerand size and
# two coverage tables.
_DRAW_CAMPAIGNS = 4 + 1 + 2


# The clt suite's KS ladder runs on the `ranks` population: the treated rank
# sum of a half/half split, a lattice variable whose cdf jumps by about
# phi(0) / sd at its centre. Its true KS distance to the normal cdf is below
# that jump, and a KS distance from B draws is off from the true one by more
# than DKW_EPS(B) with probability at most DKW_ALPHA.
CLT_LADDER = (16, 64, 256, 1024)
DKW_ALPHA = 1e-6
# median of the Kolmogorov distribution: a typical sqrt(B) * KS error
KOLMOGOROV_MEDIAN = 0.8276


def _rank_sum_jump(n_total: int) -> float:
    n1 = n_total // 2
    sd = math.sqrt(n1 * (n_total - n1) * (n_total + 1) / 12.0)
    return 1.0 / (math.sqrt(2.0 * math.pi) * sd)


def _dkw_eps(reps: int) -> float:
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * reps))


def check_clt_ladder(ladder: list[float], reps: int) -> tuple[str | None, str | None]:
    """(problem, notice) for the reported KS distances along CLT_LADDER.

    Every rung must lie within DKW_EPS of its lattice jump. The package gate
    `clt.ks_min_drop` also asks each rung to beat the one before, which
    fails on about half of all seeds (a package defect): from N=256 on, the
    true distances are below a typical Monte Carlo error, so the order of two
    rungs is noise. A rise is accepted, with a notice, only between two such
    rungs; a rise anywhere else is a failed check.
    """
    eps = _dkw_eps(reps)
    noise = KOLMOGOROV_MEDIAN / math.sqrt(reps)
    for n_total, ks in zip(CLT_LADDER, ladder):
        if not 0.0 <= ks <= _rank_sum_jump(n_total) + eps:
            return f"clt.ks_n{n_total} = {ks:.6g} is outside the Monte Carlo band", None
    rises = [(a, b) for (a, ka), (b, kb) in itertools.pairwise(zip(CLT_LADDER, ladder))
             if kb >= ka]
    if not rises:
        return None, None
    resolved = [(a, b) for a, b in rises if _rank_sum_jump(a) >= noise]
    if resolved:
        return f"KS distance rises along the CLT ladder at {resolved}", None
    return None, (f"known package defect: clt.ks_min_drop failed on a rise at {rises}, "
                  f"where the true KS distances are below a typical Monte Carlo error {noise:.4g}")


def verify_campaigns(workdir: Path, seed: int) -> Workload:
    """`verify --suite all` at the workload seed. Every gate must pass, except
    that check_clt_ladder decides on `clt.ks_min_drop`."""
    reps = 100_000
    notices: list[str] = []

    def check(code, payload):
        if payload is None:
            return f"exit code {code} with no report"
        metrics = payload.get("metrics", [])
        values = {m["name"]: m["value"] for m in metrics}
        failed = [m["name"] for m in metrics if not m["passed"]]
        passed = not failed
        if code != (0 if passed else 2) or payload.get("passed") is not passed:
            return (f"exit code {code} and passed={payload.get('passed')!r} "
                    f"with gates failed: {failed}")
        runs = payload["experiment"]["runs"]
        if {r["name"] for r in runs} != {"oracle", "clt", "rerand",
                                         "coverage_additive", "coverage_heterogeneous"}:
            return f"unexpected campaigns {[r['name'] for r in runs]}"
        if any(r["seed"] != seed or r["reps"] != reps for r in runs):
            return "campaign seed or reps differ from the request"
        clt = next(r for r in runs if r["name"] == "clt")
        if clt["population"] != "ranks" or tuple(clt["ns"]) != CLT_LADDER:
            return f"clt ladder ran on {clt['population']!r} at {clt['ns']}"
        ladder = [values[f"clt.ks_n{n}"] for n in CLT_LADDER]
        if values["clt.ks_min_drop"] != -float(np.max(np.diff(ladder))):
            return "clt.ks_min_drop does not match the reported KS ladder"
        if set(failed) - {"clt.ks_min_drop"}:
            return f"exit code {code}, gates failed: {failed}"
        problem, notice = check_clt_ladder(ladder, reps)
        if problem:
            return problem
        if ("clt.ks_min_drop" in failed) != (notice is not None):
            return "clt.ks_min_drop disagrees with the reported KS ladder"
        if notice:
            notices.append(f"verify_all: {notice}")
        return None

    calls = [Call("verify_all", ["verify", "--suite", "all", "--seed", str(seed),
                                 "--reps", str(reps)], check)]
    return Workload("verify_campaigns", calls,
                    warmup=["verify", "--suite", "oracle", "--seed", str(seed)],
                    assignments=_ORACLE_ENUMERATED + _DRAW_CAMPAIGNS * reps,
                    notices=notices)


WORKLOADS = {
    "cli_analysis": cli_analysis,
    "randomization": randomization,
    "verify_campaigns": verify_campaigns,
}


def parse_output(text: str) -> dict | None:
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None
