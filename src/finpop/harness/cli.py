"""Command-line interface.

Thin wiring over the library: each subcommand reads a CSV or a config from
flags, calls the corresponding library routine, and writes one JSON document
to --out (default stdout). Exit codes: 0 success, 1 validation/usage error,
2 verification failure (a `verify` run whose report did not pass).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .. import designs, estimators, ivconf, popstats, randtests
from ..errors import FinpopError, ValidationError
from . import experiments, ingest
from .reports import SCHEMA_VERSION, as_jsonable

__all__ = ["main", "build_parser"]

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, but this tool reserves 2 for
    # verification failures, so usage problems exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _check_design(design: str | None, realized) -> None:
    """--design declares the intended arm sizes; a mismatch with the data is a
    hard error, catching truncated or mislabeled files."""
    if design is None:
        return
    declared = list(_parse_ints(design, "--design"))
    realized = [int(v) for v in realized]
    if declared != realized:
        raise ValidationError(
            f"--design declares arm sizes {declared} but the data realize {realized}"
        )


def _refuse_clusters(data: ingest.ObservedData, command: str) -> None:
    """`test` and `factorial` take units as randomized one by one, so a
    cluster-randomized file would get a reference distribution it never had."""
    if data.clusters is not None:
        raise ValidationError(f"{command} assumes units randomized one by one, but the data "
                              "have a 'cluster' column; use `estimate` for a "
                              "cluster-randomized design")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="finpop",
                     description="finite-population randomization inference")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the JSON result here instead of stdout")
        return p

    p = add("estimate", "contrast estimate with covariance and intervals")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--design", default=None, metavar="N1,N2,...")
    p.add_argument("--alpha", type=float, default=0.05)

    p = add("test", "randomization tests on one realized assignment")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--design", default=None, metavar="N1,N2,...")
    p.add_argument("--stat", required=True, choices=tuple(randtests.TEST_STATISTICS))
    p.add_argument("--method", default="normal", choices=randtests.TEST_METHODS)
    p.add_argument("--alternative", default=None,
                   choices=("two_sided", "greater", "less"))
    p.add_argument("--ties", default="strict", choices=("strict", "midrank"))
    p.add_argument("--doses", default=None, metavar="D1,D2,...")
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=None,
                   help="enumeration cap for --method exact")

    p = add("iv-ci", "confidence set for an effect ratio under encouragement")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--design", default=None, metavar="N1,N0")
    p.add_argument("--alpha", type=float, default=0.05)

    p = add("factorial", "factorial effects and their sharp-null moments")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--design", default=None, metavar="N1,N2,...")
    p.add_argument("--factors", type=int, required=True, metavar="K")

    p = add("verify", "run a verification suite; exit 2 unless every metric passes")
    p.add_argument("--suite", required=True, choices=(*experiments.SUITES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--pop", default=None,
                   help="population or table kind for the experiment")
    p.add_argument("--ns", default=None, metavar="N1,N2,...",
                   help="population-size ladder")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=None)

    return parser


# ---------------------------------------------------------------------------
# estimate

def _pairwise_contrast(q: int) -> np.ndarray:
    contrast = np.zeros((q, q - 1))
    contrast[:q - 1] = np.eye(q - 1)
    contrast[q - 1] = -1.0
    return contrast


def _interval_payload(point, cov, alpha) -> dict:
    return {"ci": list(estimators.normal_interval(float(point[0]), float(cov[0, 0]), alpha))}


def _estimate_plain(data: ingest.ObservedData, alpha: float) -> dict:
    q = data.q_arms
    if q < 2:
        raise ValidationError("estimation needs at least two arms")
    contrast = _pairwise_contrast(q)
    point, cov = estimators.neyman_estimate(data.labels, data.y, contrast)
    payload = {
        "method": "difference_in_means",
        "point": point,
        "cov": cov,
        "sizes": [int(s) for s in estimators.arm_sizes(data.labels)],
        "contrast": contrast,
        "contrast_note": "each arm versus the last",
        "wald_chi2_threshold": estimators.wald_threshold(cov, alpha),
    }
    if q == 2:
        payload.update(_interval_payload(point, cov, alpha))
    return payload


def _estimate_regression(data: ingest.ObservedData, alpha: float) -> dict:
    if data.q_arms != 2:
        raise ValidationError("regression adjustment supports two arms")
    x = data.centered_x()
    beta1, beta0 = estimators.fit_ls_coefs(data.labels, data.y, x)
    point, cov = estimators.regression_adjusted(data.labels, data.y, x, beta1, beta0)
    payload = {
        "method": "regression_adjusted",
        "point": point,
        "cov": cov,
        "sizes": [int(s) for s in estimators.arm_sizes(data.labels)],
        "coefficients": {"arm1": beta1, "arm2": beta0},
        "coefficient_note": "least-squares slopes fitted from the same data; "
                            "the variance is the plug-in form",
    }
    payload.update(_interval_payload(point, cov, alpha))
    return payload


def _cluster_totals(data: ingest.ObservedData):
    # clusters are the arms of one assignment: their totals are arm sums
    clusters = designs.ArmBlock(data.clusters)
    columns = [data.labels, data.labels**2, data.y] + ([] if data.x is None else [data.x])
    totals = clusters.sums(np.column_stack(columns))[0]
    sizes = clusters.counts[0]
    # a cluster lies in one arm when its labels have zero variance
    mixed = np.flatnonzero(totals[:, 0] ** 2 != sizes * totals[:, 1])
    if mixed.size:
        arms = np.unique(data.labels[data.clusters == mixed[0] + 1])
        raise ValidationError(f"cluster {mixed[0] + 1} spans arms {arms.tolist()}")
    x_tot = None if data.x is None else totals[:, 3:] - totals[:, 3:].mean(axis=0)
    return (totals[:, 0] / sizes).astype(np.int64), totals[:, 2], x_tot


def _estimate_cluster(data: ingest.ObservedData, alpha: float) -> dict:
    if data.q_arms != 2:
        raise ValidationError("cluster estimation supports two arms")
    arm_of, y_tot, x_tot = _cluster_totals(data)
    gamma1 = gamma0 = None
    if x_tot is not None:
        gamma1, gamma0 = estimators.fit_ls_coefs(arm_of, y_tot, x_tot)
    point, cov = estimators.cluster_adjusted(arm_of, y_tot, x_tot, data.n_units, gamma1, gamma0)
    payload = {
        "method": "cluster_adjusted",
        "point": point,
        "cov": cov,
        "cluster_sizes_by_arm": [int(s) for s in estimators.arm_sizes(arm_of, 2)],
        "n_units": data.n_units,
    }
    if x_tot is not None:
        payload["coefficients"] = {"arm1": gamma1, "arm2": gamma0}
    payload.update(_interval_payload(point, cov, alpha))
    return payload


def _cmd_estimate(args) -> tuple[dict, int]:
    data = ingest.ingest_csv(args.data, "arm")
    _check_design(args.design, estimators.arm_sizes(data.labels))
    # every estimator path checks alpha (wald_threshold or normal_interval)
    # before the payload is emitted
    if data.clusters is not None:
        payload = _estimate_cluster(data, args.alpha)
    elif data.x is not None:
        payload = _estimate_regression(data, args.alpha)
    else:
        payload = _estimate_plain(data, args.alpha)
    payload["alpha"] = args.alpha
    return payload, 0


# ---------------------------------------------------------------------------
# test

def _cmd_test(args) -> tuple[dict, int]:
    data = ingest.ingest_csv(args.data, "arm")
    _refuse_clusters(data, "test")
    _check_design(args.design, estimators.arm_sizes(data.labels))
    doses = None if args.doses is None else _parse_floats(args.doses, "--doses")
    result = randtests.randomization_test(
        args.stat, data.labels, data.y, args.method, args.alternative, args.ties,
        doses, args.reps, args.seed, args.cap,
    )
    payload = {
        "stat": args.stat,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "method": result.method,
        "alternative": result.alternative,
        "null_mean": result.null_mean,
        "null_variance": result.null_variance,
        "ties": args.ties,
    }
    return payload, 0


# ---------------------------------------------------------------------------
# iv-ci and factorial

def _cmd_iv_ci(args) -> tuple[dict, int]:
    data = ingest.ingest_csv(args.data, "iv")
    n1 = int(data.z.sum())
    _check_design(args.design, (n1, data.n_units - n1))
    summary = ivconf.iv_summary(data.z, data.d, data.y, args.alpha)
    conf_set = summary.confidence_set
    payload = {
        "kind": conf_set.kind,
        "endpoints": list(conf_set.endpoints),
        "eta": summary.eta,
        "alpha": args.alpha,
        "summary": {
            "tau_hat_y": summary.tau_hat_y,
            "tau_hat_d": summary.tau_hat_d,
            "s2_y": summary.s2_y,
            "s2_d": summary.s2_d,
            "s_yd": summary.s_yd,
            "n1": summary.n1,
            "n0": summary.n0,
        },
        "condition": {"value": summary.condition, "degenerate": summary.condition is None},
    }
    return payload, 0


def _cmd_factorial(args) -> tuple[dict, int]:
    data = ingest.ingest_csv(args.data, "arm")
    _refuse_clusters(data, "factorial")
    spec = designs.factorial_contrasts(args.factors)
    if data.q_arms != spec.q_arms:
        raise ValidationError(
            f"{args.factors} factors require {spec.q_arms} arms, "
            f"data has {data.q_arms}"
        )
    sizes = estimators.arm_sizes(data.labels, spec.q_arms)
    _check_design(args.design, sizes)
    effects = estimators.tau_hat(data.labels, data.y, spec.contrast)
    v_n = popstats.pop_moments(data.y).variance
    variances, correlation = estimators.factorial_null_moments(v_n, sizes, spec)
    payload = {
        "factors": args.factors,
        "effect_names": list(spec.names),
        "effects": effects,
        "sharp_null_variances": variances,
        "sharp_null_correlation": correlation,
        "sizes": [int(s) for s in sizes],
        "arm_levels": spec.levels,
    }
    return payload, 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> tuple[dict, int]:
    report = experiments.run_suite(
        args.suite, seed=args.seed, reps=args.reps, alpha=args.alpha,
        population=args.pop,
        ns=None if args.ns is None else _parse_ints(args.ns, "--ns"),
        tol=args.tol,
    )
    return report.to_dict(), 0 if report.passed else 2


_COMMANDS = {
    "estimate": _cmd_estimate,
    "test": _cmd_test,
    "iv-ci": _cmd_iv_ci,
    "factorial": _cmd_factorial,
    "verify": _cmd_verify,
}


def _emit(payload: dict, out_path: str | None) -> None:
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    text = json.dumps(as_jsonable(body), indent=2, sort_keys=True)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValidationError(f"cannot write {out_path}: {exc}") from exc
    else:
        print(text)


def _check_out(out_path: str) -> None:
    """Refuse an --out path that cannot be a file before any work is done.
    The file is opened only once the payload exists, so a failed run leaves
    an earlier report in place; `_emit` still reports a write that fails."""
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise ValidationError(f"cannot write {out_path}: no directory {parent}")
    if os.path.isdir(out_path):
        raise ValidationError(f"cannot write {out_path}: it is a directory")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to whatever `sys.stderr` is when it is emitted, so
    every `main` call in one process logs to its own stderr."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def main(argv=None) -> int:
    logger = logging.getLogger("finpop")
    if not logger.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.out:
            _check_out(args.out)
        payload, code = _COMMANDS[args.command](args)
        _emit(payload, args.out)
    except FinpopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
