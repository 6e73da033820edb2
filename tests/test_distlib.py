"""Distribution-layer tests.

Every frozen constant below was computed independently with mpmath at 40
decimal digits (normal quantiles by inverting erf, chi-square tails from the
regularized incomplete gamma, the lower orthant probability by adaptive
quadrature of the conditioned normal integrand, and the max-of-pair critical
value by bisection on that orthant). The literals are the oracle; the code
under test must land on them within the stated tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpop import distlib
from finpop.errors import ValidationError

# mpmath, dps=40
NDTRI_975 = 1.9599639845400542355
NDTRI_95 = 1.6448536269514727149
NDTRI_75 = 0.6744897501960817432
NDTRI_SQRT95 = 1.9545083272139924474  # Phi^-1(sqrt(0.95))
PHI_AT_1 = 0.84134474606854294859
CHI2_Q_1_95 = 3.8414588206941259584
CHI2_Q_2_95 = 5.9914645471079819869
CHI2_Q_2_80 = 3.2188758248682007492
CHI2_SF_24_1 = 0.12133525035848214653
CHI2_SF_24_2 = 0.30119421191220209664
BVN_CASES = [
    (0.0, 0.5, 1.0 / 3.0),  # closed form
    (1.0, 0.3, 0.72814734065268986242),
    (-0.5, -0.7, 0.015152041515459820431),
    (2.0, 0.9, 0.96786099223066087275),
    (0.5, 0.0, 0.47812033535111607105),  # Phi(0.5)^2
]
GAMMA_CASES = [
    (0.0, 0.05, 1.9545083272139924474),
    (0.5, 0.05, 1.9163319446876163742),
    (-0.5, 0.10, 1.6445630968793764185),
]


# =========================================================================
# Normal cdf / quantile
# =========================================================================


def test_normal_quantile_frozen_values():
    assert distlib.std_normal_quantile(0.975) == pytest.approx(NDTRI_975, abs=1e-12)
    assert distlib.std_normal_quantile(0.95) == pytest.approx(NDTRI_95, abs=1e-12)
    assert distlib.std_normal_quantile(0.75) == pytest.approx(NDTRI_75, abs=1e-12)
    assert distlib.std_normal_quantile(0.5) == 0.0


def test_normal_cdf_frozen_values():
    assert distlib.std_normal_cdf(1.0) == pytest.approx(PHI_AT_1, abs=1e-13)
    assert distlib.std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_cdfs_accept_arrays_equal_to_scalar_calls():
    x = np.array([-np.inf, -40.0, -3.0, -0.0, 0.0, 1e-300, 0.3, 2.5, 37.0, np.inf])
    normal = distlib.std_normal_cdf(x)
    assert isinstance(normal, np.ndarray)
    assert np.array_equal(normal, [distlib.std_normal_cdf(float(v)) for v in x])
    for df in (1, 2, 7):
        chi2 = distlib.chi2_cdf(x, df)
        assert isinstance(chi2, np.ndarray)
        assert np.array_equal(chi2, [distlib.chi2_cdf(float(v), df) for v in x])
    assert type(distlib.std_normal_cdf(0.3)) is float
    assert type(distlib.chi2_cdf(0.3, 2)) is float
    assert distlib.chi2_cdf(-1.0, 2) == 0.0


def test_normal_cdf_symmetry():
    for x in (0.3, 1.7, 4.2):
        total = distlib.std_normal_cdf(x) + distlib.std_normal_cdf(-x)
        assert total == pytest.approx(1.0, abs=1e-14)


@given(st.floats(min_value=1e-7, max_value=1.0 - 1e-7))
def test_normal_quantile_cdf_roundtrip(p):
    assert distlib.std_normal_cdf(distlib.std_normal_quantile(p)) == pytest.approx(
        p, abs=1e-10
    )


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
def test_normal_quantile_rejects_boundary(p):
    with pytest.raises(ValidationError):
        distlib.std_normal_quantile(p)


# =========================================================================
# Chi-square cdf / quantile
# =========================================================================


def test_chi2_quantile_frozen_values():
    assert distlib.chi2_quantile(1, 0.95) == pytest.approx(CHI2_Q_1_95, rel=1e-12)
    assert distlib.chi2_quantile(2, 0.95) == pytest.approx(CHI2_Q_2_95, rel=1e-12)
    assert distlib.chi2_quantile(2, 0.80) == pytest.approx(CHI2_Q_2_80, rel=1e-12)


def test_chi2_df1_quantile_is_squared_normal_quantile():
    # P(Z^2 <= z_{1-a/2}^2) = 1 - a ties the two quantile routes together
    for alpha in (0.05, 0.10, 0.32):
        z = distlib.std_normal_quantile(1.0 - alpha / 2.0)
        assert distlib.chi2_quantile(1, 1.0 - alpha) == pytest.approx(z * z, rel=1e-12)


def test_chi2_sf_frozen_values():
    assert distlib.chi2_sf(2.4, 1) == pytest.approx(CHI2_SF_24_1, abs=1e-13)
    assert distlib.chi2_sf(2.4, 2) == pytest.approx(CHI2_SF_24_2, abs=1e-13)


def test_chi2_sf_at_zero_is_one():
    assert distlib.chi2_sf(0.0, 3) == pytest.approx(1.0, abs=1e-15)


@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_chi2_quantile_sf_roundtrip(df, p):
    x = distlib.chi2_quantile(df, p)
    assert distlib.chi2_sf(x, df) == pytest.approx(1.0 - p, abs=1e-9)


@pytest.mark.parametrize("df", [2.5, 3.0, "2", None])
def test_chi2_rejects_non_integer_df(df):
    with pytest.raises(ValidationError):
        distlib.chi2_cdf(1.0, df)
    with pytest.raises(ValidationError):
        distlib.chi2_sf(1.0, df)
    with pytest.raises(ValidationError):
        distlib.chi2_quantile(df, 0.5)


def test_chi2_accepts_numpy_integer_df():
    assert distlib.chi2_sf(2.4, np.int64(2)) == distlib.chi2_sf(2.4, 2)


def test_chi2_edge_arguments():
    for df in (1, 2, 5):
        assert distlib.chi2_sf(-3.0, df) == 1.0
        assert distlib.chi2_sf(np.inf, df) == 0.0
        assert np.isnan(distlib.chi2_sf(np.nan, df))
        assert distlib.chi2_cdf(np.inf, df) == 1.0
        assert np.isnan(distlib.chi2_cdf(np.nan, df))
        assert np.array_equal(distlib.chi2_cdf(np.array([-1.0, 0.0, np.inf]), df),
                              [0.0, 0.0, 1.0])


def test_chi2_rejects_bad_df_and_p():
    with pytest.raises(ValidationError):
        distlib.chi2_quantile(0, 0.5)
    with pytest.raises(ValidationError):
        distlib.chi2_quantile(2, 1.0)
    with pytest.raises(ValidationError):
        distlib.chi2_sf(1.0, -1)


# =========================================================================
# Equicorrelated lower orthant P(X <= c, Y <= c)
# =========================================================================


@pytest.mark.parametrize("c, rho, expected", BVN_CASES)
def test_bvn_frozen_values(c, rho, expected):
    assert distlib.bvn_lower_orthant(c, rho) == pytest.approx(expected, abs=1e-9)


def test_bvn_degenerate_correlations():
    # rho = 1 collapses to one variable, rho = -1 to P(-c <= X <= c)
    for c in (-1.0, 0.0, 0.7, 2.5):
        phi = distlib.std_normal_cdf(c)
        assert distlib.bvn_lower_orthant(c, 1.0) == pytest.approx(phi, abs=1e-12)
        assert distlib.bvn_lower_orthant(c, -1.0) == pytest.approx(
            max(0.0, 2.0 * phi - 1.0), abs=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-0.999, max_value=0.999),
)
def test_bvn_frechet_bounds(c, rho):
    phi = distlib.std_normal_cdf(c)
    value = distlib.bvn_lower_orthant(c, rho)
    assert value <= phi + 1e-9
    assert value >= max(0.0, 2.0 * phi - 1.0) - 1e-9


def test_bvn_monotone_in_rho():
    # the orthant mass of an equal-threshold pair grows with the correlation
    for c in (-1.0, 0.0, 1.5):
        values = [distlib.bvn_lower_orthant(c, r) for r in np.linspace(-0.95, 0.95, 9)]
        assert np.all(np.diff(values) > -1e-9)


def test_bvn_monotone_in_threshold():
    for rho in (-0.6, 0.0, 0.6):
        values = [distlib.bvn_lower_orthant(c, rho) for c in np.linspace(-3.0, 3.0, 13)]
        assert np.all(np.diff(values) > 0.0)


def test_bvn_rejects_bad_rho():
    with pytest.raises(ValidationError):
        distlib.bvn_lower_orthant(0.0, 1.5)


# =========================================================================
# Critical value of the max of a correlated standard-normal pair
# =========================================================================


@pytest.mark.parametrize("rho, alpha, expected", GAMMA_CASES)
def test_gamma_critical_frozen_values(rho, alpha, expected):
    assert distlib.solve_gamma_c(rho, alpha) == pytest.approx(expected, abs=1e-8)


def test_gamma_critical_degenerate_correlations():
    # rho = 1: max is one variable; rho = -1: max of (X, -X) is |X|
    assert distlib.solve_gamma_c(1.0, 0.05) == pytest.approx(NDTRI_95, abs=1e-10)
    assert distlib.solve_gamma_c(-1.0, 0.05) == pytest.approx(NDTRI_975, abs=1e-10)
    assert distlib.solve_gamma_c(-1.0, 0.5) == pytest.approx(NDTRI_75, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-0.99, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.5),
)
def test_gamma_critical_roundtrip_and_bracket(rho, alpha):
    c = distlib.solve_gamma_c(rho, alpha)
    assert distlib.bvn_lower_orthant(c, rho) == pytest.approx(1.0 - alpha, abs=1e-6)
    lo = distlib.std_normal_quantile(1.0 - alpha)
    hi = distlib.std_normal_quantile(1.0 - alpha / 2.0)
    assert lo - 1e-12 <= c <= hi + 1e-12


def test_gamma_critical_rejects_bad_alpha():
    with pytest.raises(ValidationError):
        distlib.solve_gamma_c(0.0, 0.0)
    with pytest.raises(ValidationError):
        distlib.solve_gamma_c(0.0, 1.0)


# =========================================================================
# Optional live recomputation of the oracle
# =========================================================================


def test_oracle_recomputation_with_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    phi_inv = lambda p: float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))
    assert phi_inv(0.975) == pytest.approx(NDTRI_975, abs=1e-15)
    assert phi_inv(0.95) == pytest.approx(NDTRI_95, abs=1e-15)

    def orthant(c, rho):
        c, rho = mpmath.mpf(c), mpmath.mpf(rho)
        ncdf = lambda t: (1 + mpmath.erf(t / mpmath.sqrt(2))) / 2
        npdf = lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
        integrand = lambda t: npdf(t) * ncdf((c - rho * t) / mpmath.sqrt(1 - rho * rho))
        return float(mpmath.quad(integrand, [-mpmath.inf, c]))

    assert orthant(1.0, 0.3) == pytest.approx(0.72814734065268986242, abs=1e-12)
    assert orthant(-0.5, -0.7) == pytest.approx(0.015152041515459820431, abs=1e-12)


# =========================================================================
# Accuracy against mpmath at 40 digits, on grids
# =========================================================================

CHI2_DFS = (1, 2, 3, 7, 40, 1000, 4095)


# below 2^-1021, x / 2 is inexact and a / (x / 2) can overflow
_NEAR_ZERO = (1e-300, 1e-308, 1e-310, 1e-323, 5e-324)


def _chi2_grid(df):
    # lower tail, body and upper tail out to where the sf nears 1e-300, and
    # for small df the lower tail down to the smallest subnormal
    return np.unique(np.concatenate([
        df * np.logspace(-4.0, 0.0, 12),
        df * np.linspace(0.05, 3.0, 40),
        df + np.sqrt(2.0 * df) * np.linspace(0.0, 60.0, 25) + np.linspace(0.0, 1400.0, 25),
        _NEAR_ZERO if df <= 3 else (),
    ]))


def test_normal_cdf_accuracy(mp):
    for x in np.linspace(-8.0, 8.0, 641):
        ref = mp.ncdf(mp.mpf(float(x)))
        assert abs(distlib.std_normal_cdf(float(x)) - ref) <= 1e-15, x
    for x in np.linspace(-37.0, 0.0, 1481):
        ref = mp.ncdf(mp.mpf(float(x)))
        assert abs(distlib.std_normal_cdf(float(x)) - ref) <= 1e-13 * ref, x


def test_normal_quantile_accuracy(mp):
    tail = np.logspace(-12.0, np.log10(0.5), 120)
    for p in np.concatenate([tail, np.linspace(0.01, 0.99, 99), 1.0 - tail]):
        p = float(p)
        ref = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)
        assert abs(distlib.std_normal_quantile(p) - ref) <= 1e-14, p


@pytest.mark.parametrize("df", CHI2_DFS)
def test_chi2_tails_accuracy(mp, df):
    a = mp.mpf(df) / 2
    checked = 0
    for x in _chi2_grid(df):
        x = float(x)
        t = mp.mpf(x) / 2
        sf = mp.gammainc(a, t, mp.inf, regularized=True)
        cdf = mp.gammainc(a, 0, t, regularized=True)
        assert abs(distlib.chi2_cdf(x, df) - cdf) <= 1e-14, x
        if x < df:
            # the lower tail is summed directly: relative accuracy, down to
            # one subnormal step
            assert abs(distlib.chi2_cdf(x, df) - cdf) <= max(1e-12 * cdf, 5e-324), x
        if sf > mp.mpf("1e-300"):
            assert abs(distlib.chi2_sf(x, df) - sf) <= 1e-12 * sf, x
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize("df", CHI2_DFS)
def test_chi2_quantile_accuracy(mp, df):
    # the error in x is (F(x) - p) / f(x), from mpmath's F and density f at x
    a = mp.mpf(df) / 2
    tail = np.logspace(-6.0, np.log10(0.5), 14)
    for p in np.concatenate([tail, np.linspace(0.1, 0.9, 9), 1.0 - tail]):
        p = float(p)
        x = distlib.chi2_quantile(df, p)
        t = mp.mpf(x) / 2
        cdf = mp.gammainc(a, 0, t, regularized=True)
        density = mp.exp((a - 1) * mp.log(t) - t - mp.loggamma(a)) / 2
        assert abs((cdf - p) / (density * x)) <= 1e-10, p


def test_chi2_quantile_below_the_smallest_subnormal():
    # the true quantile, about 1.6e-600, lies between 0 and the smallest
    # subnormal, whose cdf is 1.8e-162
    assert distlib.chi2_quantile(1, 1e-300) == 5e-324


def test_bvn_accuracy(pair_max_sf):
    for rho in np.linspace(-0.999, 0.999, 21):
        for c in np.linspace(-8.0, 8.0, 33):
            ref = 1 - pair_max_sf(c, rho)
            assert abs(distlib.bvn_lower_orthant(float(c), float(rho)) - ref) <= 1e-15, (c, rho)


def test_pair_max_upper_tail_relative_accuracy(pair_max_sf):
    # P(max > c) = 2 Phi(-c) - P(X <= -c, Y <= -c), the form joint_test uses
    for rho in np.linspace(-0.999, 0.999, 21):
        for c in np.linspace(0.0, 12.0, 25):
            ref = pair_max_sf(c, rho)
            orthant = distlib.bvn_lower_orthant(-float(c), float(rho))
            got = 2.0 * distlib.std_normal_cdf(-c) - orthant
            assert abs(got - ref) <= 1e-12 * ref, (c, rho)


def test_gamma_critical_accuracy(mp, pair_max_sf):
    # the distance to the mpmath root is (P(max > c) - alpha) / f(c), f the
    # density of the max, 2 phi(c) Phi(c sqrt((1 - rho) / (1 + rho)))
    for rho in (-0.999, -0.9, -0.5, 0.0, 0.3, 0.9, 0.999):
        a = mp.sqrt((1 - mp.mpf(rho)) / (1 + mp.mpf(rho)))
        for alpha in (1e-6, 0.001, 0.05, 0.5, 0.9):
            c = distlib.solve_gamma_c(rho, alpha)
            density = 2 * mp.npdf(c) * mp.ncdf(c * a)
            assert abs((pair_max_sf(c, rho) - alpha) / density) <= 1e-12, (rho, alpha)
