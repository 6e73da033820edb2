"""Shared fixtures; the scalar reference statistics that the tests compare
the `randtests.sum_statistic` kernel with (each computes one assignment's
statistic directly from masked or per-arm means, and no package path calls
them); and `export_csv`, the CSV writer of the ingest tests."""

import csv

import numpy as np
import pytest

from finpop.errors import ValidationError
from finpop.estimators import arm_sizes, tau_hat
from finpop.harness.ingest import IVData, ObservedData
from finpop.randtests import rank_transform


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


def diff_in_means_stat(labels, y) -> float:
    """Treated-minus-control mean difference (arm 1 minus arm 2)."""
    labels = np.asarray(labels)
    y = np.asarray(y, dtype=float)
    arm_sizes(labels, 2)  # two nonempty arms
    return float(y[labels == 1].mean()) - float(y[labels == 2].mean())


def wilcoxon_stat(labels, y, tie_policy: str = "strict") -> float:
    """Treated-minus-control difference of mean ranks."""
    return diff_in_means_stat(labels, rank_transform(y, tie_policy))


def extreme_rank_stats(labels, ranks) -> tuple[float, float]:
    """(largest arm rank mean, largest minus smallest arm rank mean)."""
    means = tau_hat(labels, ranks, np.eye(arm_sizes(labels).size))
    return float(means.max()), float(means.max() - means.min())


def dose_rank_stat(labels, ranks, doses) -> float:
    """Dose-weighted sum of arm rank means, sum_q dose_q Rbar_q."""
    means = tau_hat(labels, ranks, np.eye(arm_sizes(labels).size))
    doses = np.asarray(doses, dtype=float)
    if doses.shape != means.shape:
        raise ValidationError(f"need one dose per arm ({means.size}), got shape {doses.shape}")
    return float(doses @ means)


def export_csv(data, path: str) -> None:
    """Write a carrier back to CSV so that ingest_csv reproduces it exactly.

    Floats are written in shortest round-trip form (repr), which parses back
    to the identical bit pattern.
    """
    path = str(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if isinstance(data, ObservedData):
            header = ["arm", "y", *data.x_names]
            if data.clusters is not None:
                header.append("cluster")
            writer.writerow(header)
            for i in range(data.n_units):
                row = [str(int(data.labels[i])), repr(float(data.y[i]))]
                if data.x is not None:
                    row.extend(repr(float(v)) for v in data.x[i])
                if data.clusters is not None:
                    row.append(str(int(data.clusters[i])))
                writer.writerow(row)
        elif isinstance(data, IVData):
            writer.writerow(["z", "d", "y"])
            for i in range(data.n_units):
                writer.writerow([
                    str(int(data.z[i])),
                    repr(float(data.d[i])),
                    repr(float(data.y[i])),
                ])
        else:
            raise ValidationError(
                f"export expects ObservedData or IVData, got {type(data).__name__}"
            )
