"""Machine-readable verification reports.

A Report is a deterministic function of (config, seed) except for the
wall_clock_s field; the CLI writes its dict form with sorted keys, so byte
comparisons work.
Every metric carries the tolerance it was judged against (None marks an
informational value with no gate) and its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SCHEMA_VERSION", "MetricResult", "Report", "as_jsonable"]

SCHEMA_VERSION = 1


def as_jsonable(obj):
    """Recursively convert numpy scalars/arrays to plain JSON-safe types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, np.ndarray):
        return as_jsonable(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return as_jsonable(float(obj))
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): as_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


@dataclass(frozen=True)
class MetricResult:
    """One verified quantity: its value, the tolerance it was held to, the
    verdict, and a sentence describing what was compared."""

    name: str
    value: float
    tolerance: float | None
    passed: bool
    checks: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": as_jsonable(float(self.value)),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "passed": bool(self.passed),
            "checks": self.checks,
        }


@dataclass(frozen=True)
class Report:
    """Outcome of one verification campaign."""

    experiment: dict
    metrics: tuple[MetricResult, ...]
    wall_clock_s: float

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": as_jsonable(self.experiment),
            "metrics": [m.to_dict() for m in self.metrics],
            "passed": self.passed,
            "wall_clock_s": float(self.wall_clock_s),
        }
