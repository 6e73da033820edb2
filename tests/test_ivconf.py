"""Instrumental-variable confidence-set tests.

The quadratic classifier is exercised on one constructed coefficient triple
per branch of its case analysis, then cross-validated against a brute-force
sign scan and against direct inversion of the shipped two-arm 'diff' test of
the adjusted outcome on random instances. Worked numeric examples were frozen
from hand computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpop import distlib, ivconf, randtests
from finpop.errors import ValidationError

Z4 = np.array([1, 1, 0, 0])
D4 = np.array([1.0, 0.0, 1.0, 0.0])
Y4 = np.array([3.0, 1.0, 2.0, 0.0])


def _random_instance(seed, n=12, weak=False):
    rng = np.random.default_rng(seed)
    z = np.zeros(n, dtype=int)
    z[rng.choice(n, size=n // 2, replace=False)] = 1
    if weak:
        d = rng.normal(size=n)
    else:
        d = z + rng.normal(scale=0.3, size=n)
    y = 2.0 * d + rng.normal(scale=0.5, size=n)
    return z, d, y


def _adjusted(z, d, y, beta):
    """The normal-calibrated 'diff' test of the adjusted outcome y - beta d,
    arm 1 being z = 1: the statistic the confidence set inverts."""
    return randtests.randomization_test("diff", 2 - np.asarray(z), y - beta * d, "normal")


# =========================================================================
# Summary statistics and the adjusted statistic
# =========================================================================


def test_iv_summary_hand_values():
    s = ivconf.iv_summary(Z4, D4, Y4, 0.05)
    assert s.tau_hat_y == pytest.approx(1.0)
    assert s.tau_hat_d == pytest.approx(0.0)
    assert s.s2_y == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert s.s2_d == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert s.s_yd == pytest.approx(2.0 / 3.0, abs=1e-14)
    z975 = distlib.std_normal_quantile(0.975)
    assert s.eta == pytest.approx(z975 * z975, rel=1e-12)  # n/(n1 n0) = 1 here
    assert (s.n1, s.n0) == (2, 2)


def test_adjusted_stat_hand_values():
    result = _adjusted(Z4, D4, Y4, 0.5)
    stat, var0 = result.statistic, result.null_variance
    assert stat == pytest.approx(1.0, abs=1e-14)
    # s2_Y + 0.25 s2_D - s_YD = 5/3 + 1/12 - 2/3 = 13/12
    assert var0 == pytest.approx(13.0 / 12.0, abs=1e-14)


def test_adjusted_stat_at_zero_beta_is_outcome_difference():
    stat = _adjusted(Z4, D4, Y4, 0.0).statistic
    assert stat == pytest.approx(1.0, abs=1e-14)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_adjusted_stat_forms_agree_on_random_data(seed):
    # the 'diff' test of y - beta d agrees with the summary's moments: its
    # statistic is tau_Y - beta tau_D, its null variance
    # N / (n_1 n_0) (s2_Y + beta^2 s2_D - 2 beta s_YD)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    z = np.zeros(n, dtype=int)
    z[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
    d, y = rng.normal(size=n), rng.normal(size=n)
    beta = float(rng.normal(scale=3.0))
    result = _adjusted(z, d, y, beta)
    stat, var0 = result.statistic, result.null_variance
    a = y - beta * d
    assert stat == pytest.approx(a[z == 1].mean() - a[z == 0].mean(), abs=1e-10)
    assert var0 >= -1e-12
    s = ivconf.iv_summary(z, d, y, 0.05)
    form2 = s.tau_hat_y - beta * s.tau_hat_d
    assert abs(stat - form2) <= 1e-10 * max(1.0, abs(stat), abs(form2))
    s2_a = s.s2_y + beta**2 * s.s2_d - 2.0 * beta * s.s_yd
    assert var0 == pytest.approx(n / (s.n1 * s.n0) * s2_a, rel=1e-12)


def test_iv_inputs_are_validated():
    with pytest.raises(ValidationError):
        ivconf.iv_summary(np.array([1, 2, 0, 0]), D4, Y4, 0.05)  # nonbinary z
    with pytest.raises(ValidationError):
        ivconf.iv_summary(np.ones(4, dtype=int), D4, Y4, 0.05)  # empty group
    with pytest.raises(ValidationError):
        ivconf.iv_summary(Z4, D4, Y4, 1.5)


# =========================================================================
# Quadratic classification: one constructed triple per branch
# =========================================================================


def test_classify_positive_leading_coefficient():
    interval = ivconf.classify_quadratic(1.0, 0.0, -1.0)  # x^2 <= 1
    assert interval.kind == "interval"
    assert interval.endpoints == pytest.approx((-1.0, 1.0))

    point = ivconf.classify_quadratic(1.0, 2.0, 4.0)  # (x - 2)^2 <= 0
    assert point.kind == "point"
    assert point.endpoints == pytest.approx((2.0,))

    empty = ivconf.classify_quadratic(1.0, 0.0, 1.0)  # x^2 + 1 <= 0
    assert empty.kind == "empty"
    assert empty.endpoints == ()


def test_classify_negative_leading_coefficient():
    complement = ivconf.classify_quadratic(-1.0, 0.0, 1.0)  # x^2 >= 1
    assert complement.kind == "complement"
    assert complement.endpoints == pytest.approx((-1.0, 1.0))

    tangent = ivconf.classify_quadratic(-1.0, 1.0, -1.0)  # -(x + 1)^2 <= 0
    assert tangent.kind == "whole_line"

    negative = ivconf.classify_quadratic(-1.0, 0.0, -1.0)  # -x^2 - 1 <= 0
    assert negative.kind == "whole_line"


def test_classify_linear_branches():
    up = ivconf.classify_quadratic(0.0, 1.0, 2.0)  # -2x + 2 <= 0
    assert up.kind == "half_line_up"
    assert up.endpoints == pytest.approx((1.0,))

    down = ivconf.classify_quadratic(0.0, -1.0, 2.0)  # 2x + 2 <= 0
    assert down.kind == "half_line_down"
    assert down.endpoints == pytest.approx((-1.0,))

    assert ivconf.classify_quadratic(0.0, 0.0, 1.0).kind == "empty"
    assert ivconf.classify_quadratic(0.0, 0.0, 0.0).kind == "whole_line"
    assert ivconf.classify_quadratic(0.0, 0.0, -1.0).kind == "whole_line"


def test_classify_collapses_rounding_level_discriminants():
    # disc = b^2 - ac is positive only at rounding level: treated as zero
    result = ivconf.classify_quadratic(1.0, 1.0 + 5e-14, 1.0)
    assert result.kind == "point"
    assert result.endpoints[0] == pytest.approx(1.0, abs=1e-12)


def test_classify_rejects_nonfinite_coefficients():
    with pytest.raises(ValidationError):
        ivconf.classify_quadratic(np.nan, 0.0, 1.0)
    with pytest.raises(ValidationError):
        ivconf.classify_quadratic(1.0, np.inf, 1.0)


def test_contains_honors_kind_and_tolerance():
    point = ivconf.QuadraticSet(kind="point", endpoints=(2.0,))
    assert point.contains(2.0)
    assert not point.contains(2.001)
    assert point.contains(2.001, tol=0.01)
    comp = ivconf.QuadraticSet(kind="complement", endpoints=(-1.0, 1.0))
    assert comp.contains(-5.0) and comp.contains(5.0) and comp.contains(1.0)
    assert not comp.contains(0.0)
    up = ivconf.QuadraticSet(kind="half_line_up", endpoints=(0.5,))
    assert up.contains(0.5) and up.contains(9.0) and not up.contains(0.0)


def test_classify_agrees_with_sign_scan():
    # brute force: evaluate the quadratic on a grid and infer the set shape
    rng = np.random.default_rng(18)
    grid = np.arange(-150.0, 150.0001, 0.025)
    for _ in range(300):
        a = float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(-3.0, 3.0))
        disc = b * b - a * c
        if abs(disc) < 0.05:  # too close to tangency for a 0.025 grid
            continue
        predicted = ivconf.classify_quadratic(a, b, c)
        member = a * grid * grid - 2.0 * b * grid + c <= 0.0
        idx = np.flatnonzero(member)
        if idx.size == 0:
            assert predicted.kind == "empty"
            continue
        contiguous = idx.size == idx[-1] - idx[0] + 1
        touches_left, touches_right = idx[0] == 0, idx[-1] == grid.size - 1
        if touches_left and touches_right:
            assert predicted.kind == ("whole_line" if contiguous else "complement")
            if predicted.kind == "complement":
                gap = np.flatnonzero(~member)
                assert grid[gap[0] - 1] == pytest.approx(
                    predicted.endpoints[0], abs=0.05
                )
                assert grid[gap[-1] + 1] == pytest.approx(
                    predicted.endpoints[1], abs=0.05
                )
        else:
            assert contiguous and not touches_left and not touches_right
            assert predicted.kind == "interval"
            assert grid[idx[0]] == pytest.approx(predicted.endpoints[0], abs=0.05)
            assert grid[idx[-1]] == pytest.approx(predicted.endpoints[1], abs=0.05)


# =========================================================================
# Confidence set for the effect ratio
# =========================================================================


def test_exact_proportionality_pins_the_ratio():
    # y = 2 d with a strong instrument: the set degenerates to the point 2
    z = np.array([1] * 10 + [0] * 10)
    d = z.astype(float)
    y = 2.0 * d
    result = ivconf.iv_summary(z, d, y, 0.05).confidence_set
    assert result.kind == "point"
    assert result.endpoints[0] == pytest.approx(2.0, abs=1e-10)


def test_strong_instrument_gives_interval_around_ratio():
    z, d, y = _random_instance(3, n=40)
    result = ivconf.iv_summary(z, d, y, 0.05).confidence_set
    assert result.kind == "interval"
    s = ivconf.iv_summary(z, d, y, 0.05)
    ratio = s.tau_hat_y / s.tau_hat_d
    assert result.contains(ratio)
    assert result.endpoints[0] < ratio < result.endpoints[1]


def test_weak_instrument_gives_unbounded_set():
    z, d, y = _random_instance(5, n=12, weak=True)
    result = ivconf.iv_summary(z, d, y, 0.05).confidence_set
    assert result.kind in ("complement", "whole_line", "half_line_up", "half_line_down")


def test_ratio_estimate_always_belongs_to_the_set():
    # at beta = tau_Y/tau_D the adjusted statistic vanishes, so the quadratic
    # is - eta * s2_A <= 0 and the ratio can never be excluded
    for seed in range(8):
        z, d, y = _random_instance(seed, n=14, weak=bool(seed % 2))
        s = ivconf.iv_summary(z, d, y, 0.05)
        if s.tau_hat_d == 0.0:
            continue
        result = ivconf.iv_summary(z, d, y, 0.05).confidence_set
        assert result.contains(s.tau_hat_y / s.tau_hat_d, tol=1e-9)


def test_confidence_set_scale_and_shift_equivariance():
    z, d, y = _random_instance(8, n=30)
    base = ivconf.iv_summary(z, d, y, 0.05).confidence_set
    scaled = ivconf.iv_summary(z, d, 3.0 * y, 0.05).confidence_set
    shifted = ivconf.iv_summary(z, d, y + 11.0, 0.05).confidence_set
    assert base.kind == scaled.kind == shifted.kind == "interval"
    assert scaled.endpoints == pytest.approx(
        tuple(3.0 * e for e in base.endpoints), rel=1e-10
    )
    assert shifted.endpoints == pytest.approx(base.endpoints, rel=1e-10)


def test_confidence_set_matches_direct_test_inversion():
    z975 = distlib.std_normal_quantile(0.975)
    for seed in range(5):
        z, d, y = _random_instance(seed + 50, n=24, weak=(seed == 4))
        result = ivconf.iv_summary(z, d, y, 0.05).confidence_set
        for beta in np.linspace(-15.0, 15.0, 301):
            test = _adjusted(z, d, y, float(beta))
            stat, var0 = test.statistic, test.null_variance
            if var0 <= 0.0:
                continue
            margin = abs(stat) - z975 * np.sqrt(var0)
            if abs(margin) < 1e-6:  # skip the boundary itself
                continue
            assert result.contains(float(beta), tol=1e-9) == (margin < 0.0), (
                seed,
                beta,
            )


def test_wider_alpha_nests_the_set():
    z, d, y = _random_instance(9, n=30)
    narrow = ivconf.iv_summary(z, d, y, 0.10).confidence_set
    wide = ivconf.iv_summary(z, d, y, 0.01).confidence_set
    assert narrow.kind == wide.kind == "interval"
    assert wide.endpoints[0] <= narrow.endpoints[0]
    assert wide.endpoints[1] >= narrow.endpoints[1]


# =========================================================================
# Condition diagnostic
# =========================================================================


def test_condition_stat_hand_formula():
    z, d, y = _random_instance(12, n=10)
    result = ivconf.iv_summary(z, d, y, 0.05).condition
    assert result is not None
    s2_y, s2_d = np.var(y, ddof=1), np.var(d, ddof=1)
    s_yd = float((y - y.mean()) @ (d - d.mean()) / (y.size - 1))
    m_y = np.max((y - y.mean()) ** 2)
    m_d = np.max((d - d.mean()) ** 2)
    expected = (
        m_y / (s2_y - s_yd**2 / s2_d) + m_d / (s2_d - s_yd**2 / s2_y)
    ) / 5.0
    assert result == pytest.approx(expected, rel=1e-12)


def test_condition_stat_flags_proportional_series():
    z = np.array([1, 1, 0, 0, 1, 0])
    y = np.array([1.0, 4.0, 2.0, 0.0, 3.0, 5.0])
    assert ivconf.iv_summary(z, 2.0 * y, y, 0.05).condition is None


def test_condition_stat_flags_constant_series():
    z = np.array([1, 0, 1, 0])
    assert ivconf.iv_summary(z, np.ones(4), np.arange(4.0), 0.05).condition is None


def test_classify_refuses_an_overflowing_discriminant():
    # b^2 and a c overflow for finite coefficients; the roots came out as
    # infinities, or as NaN where both did
    for a, b, c in [(-1.0, 1e160, 1.0), (1e160, 0.0, -1e160), (1e160, 1e160, 1e160)]:
        with pytest.raises(ValidationError, match="discriminant .* overflows"):
            ivconf.classify_quadratic(a, b, c)
