import pytest


@pytest.fixture(scope="session")
def mp():
    """mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    return mpmath


@pytest.fixture(scope="session")
def pair_max_sf():
    """P(max(X, Y) > c) for a standard normal pair with correlation rho, in
    mpmath at 20 digits, as an mpf.

    P(max > c) = 2 Phi(-c) - P(X > c, Y > c), and the last term is
    Phi(-c)^2 + (1 / 2 pi) integral_0^{asin rho} exp(-c^2 / (1 + sin t)) dt
    (Plackett's identity with r = sin t), a smooth integral on a finite
    interval and independent of Owen's T. The integrand is scaled by
    exp(c^2 / 2) to at most 1, because mp.quad's tolerance is absolute.
    """
    mpmath = pytest.importorskip("mpmath")

    def sf(c, rho):
        with mpmath.workdps(20):
            c = mpmath.mpf(float(c))
            tail = mpmath.ncdf(-c)
            scaled = mpmath.quad(
                lambda t: mpmath.exp(-c * c * (1 - mpmath.sin(t)) / (2 * (1 + mpmath.sin(t)))),
                [0, mpmath.asin(float(rho))], method="gauss-legendre",
            )
            return 2 * tail - tail**2 - mpmath.exp(-c * c / 2) * scaled / (2 * mpmath.pi)

    return sf
