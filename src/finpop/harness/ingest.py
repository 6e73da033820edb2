"""CSV ingestion.

Two schemas are understood: `arm` files carry columns arm,y with optional
covariates x1..xk and an optional cluster column; `iv` files carry z,d,y.
Parsed carriers hold the columns exactly as written, so floats written in
shortest round-trip form (repr) ingest bit for bit; covariate centering
happens on access (`centered_x`) with the column means recorded at ingest
and noted in the log, never in the stored arrays.

The file is read once, as bytes, so a pipe serves as well as a regular
file. Its header is parsed by `csv.reader` and its body in one pass by
numpy's C reader. A body that the fast read rejects is parsed again cell by
cell, only to report the line and the column of its first problem.
"""

from __future__ import annotations

import csv
import io
import logging
import re
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

__all__ = ["ObservedData", "IVData", "ingest_csv"]

logger = logging.getLogger(__name__)

_X_COLUMN = re.compile(r"^x([1-9][0-9]*)$")


@dataclass(frozen=True)
class ObservedData:
    """One realized Q-arm experiment: arm labels 1..Q, scalar outcomes, and
    optional covariates / cluster ids, all exactly as read from the file."""

    labels: np.ndarray
    y: np.ndarray
    x: np.ndarray | None = None
    clusters: np.ndarray | None = None
    x_names: tuple[str, ...] = ()

    @property
    def n_units(self) -> int:
        return int(self.y.size)

    @property
    def q_arms(self) -> int:
        return int(self.labels.max())

    def centered_x(self) -> np.ndarray:
        """Covariates minus their column means, as the estimators require."""
        if self.x is None:
            raise ValidationError("no covariate columns were ingested")
        return self.x - self.x.mean(axis=0)


@dataclass(frozen=True)
class IVData:
    """Encouragement data: binary assignment z, dose d, response y."""

    z: np.ndarray
    d: np.ndarray
    y: np.ndarray

    @property
    def n_units(self) -> int:
        return int(self.y.size)


# Integer columns: the least value each accepts, the largest (None: no cap)
# and the complaint about a value outside that range. Other columns are floats.
_INT_COLUMNS = {
    "arm": (1, None, "arm labels start at 1"),
    "cluster": (1, None, "cluster ids start at 1"),
    "z": (0, 1, "column 'z' must be 0 or 1"),
}
_INT64_MAX = np.iinfo(np.int64).max
# a contiguity error lists at most this many of the missing values
_MISSING_SHOWN = 10


def _text(data: bytes) -> io.TextIOWrapper:
    """The file's bytes as text, decoded chunk by chunk as it is read, so
    the whole text is never held at once."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _records(path: str, data: bytes):
    """The non-empty csv records of the file's bytes as (physical line
    number, cells), the line being the last one a record spans."""
    reader = csv.reader(_text(data))
    try:
        yield from ((reader.line_num, row) for row in reader if row)
    except UnicodeError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _column_map(header: list[str], path: str, required: tuple[str, ...],
                optional: tuple[str, ...], allow_x: bool) -> dict[str, int]:
    seen: dict[str, int] = {}
    for idx, name in enumerate(header):
        if name in seen:
            raise ValidationError(f"{path}: duplicate column {name!r}")
        seen[name] = idx
    missing = [c for c in required if c not in seen]
    if missing:
        raise ValidationError(f"{path}: missing required column(s) {missing}")
    known = set(required) | set(optional)
    unknown = [
        name for name in header
        if name not in known and not (allow_x and _X_COLUMN.match(name))
    ]
    if unknown:
        expected = ", ".join(required)
        extras = ", optional x1..xk and cluster" if allow_x else ""
        raise ValidationError(
            f"{path}: unexpected column(s) {unknown}; expected {expected}{extras}"
        )
    return seen


def _x_columns(header: list[str], path: str) -> list[str]:
    found = sorted(
        (int(m.group(1)), name)
        for name in header
        if (m := _X_COLUMN.match(name))
    )
    if not found:
        return []
    indices = [i for i, _ in found]
    if indices != list(range(1, len(indices) + 1)):
        raise ValidationError(
            f"{path}: covariate columns must be named x1..xk consecutively, "
            f"got {[name for _, name in found]}"
        )
    return [name for _, name in found]


def _cell_syntax(cell: str) -> None:
    # Python's int() and float() also take digit-group underscores and
    # non-ASCII digits; the fast reader does not, so neither does this
    core = cell.strip()
    if "_" in core or not core.isascii():
        raise ValueError(cell)


def _float_cell(cell: str, path: str, lineno: int, column: str) -> float:
    try:
        _cell_syntax(cell)
        return float(cell)
    except ValueError:
        raise ValidationError(
            f"{path}: line {lineno}, column {column!r}: "
            f"could not parse {cell!r} as a number"
        ) from None


def _int_cell(cell: str, path: str, lineno: int, column: str) -> int:
    try:
        _cell_syntax(cell)
        value = int(cell)
    except ValueError:
        raise ValidationError(
            f"{path}: line {lineno}, column {column!r}: "
            f"could not parse {cell!r} as an integer"
        ) from None
    low, high, complaint = _INT_COLUMNS[column]
    if value < low or (high is not None and value > high):
        raise ValidationError(f"{path}: line {lineno}: {complaint}, got {value}")
    if value > _INT64_MAX:
        raise ValidationError(
            f"{path}: line {lineno}, column {column!r}: "
            f"{cell!r} does not fit a 64-bit integer"
        )
    return value


def _diagnose(path: str, header: list[str], order: list[str], rows: list) -> None:
    """Raise the first problem of a body that the fast read rejected, with
    the line and the column where it sits.

    `rows` are the body's records, as `_records` yields them. Line numbers
    are physical lines, blank ones included; a record with a quoted cell
    that spans lines is numbered by its last line. Row widths are checked
    first, then the cells of each row in `order`.
    """
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
    index = {name: header.index(name) for name in order}
    for lineno, row in rows:
        for name in order:
            parse = _int_cell if name in _INT_COLUMNS else _float_cell
            parse(row[index[name]], path, lineno, name)


def _read_columns(path: str, required: tuple[str, ...], optional: tuple[str, ...],
                  allow_x: bool) -> tuple[dict[str, np.ndarray], list[str]]:
    """The columns of a validated file as contiguous arrays, int64 for those
    in _INT_COLUMNS and float64 for the rest, and the covariate names x1..xk.

    numpy's C reader parses the body in one pass. Only when it fails, or a
    value is out of range, are the records parsed cell by cell to say where.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    records = _records(path, data)
    skip, header = next(records, (0, None))
    if header is None:
        raise ValidationError(f"{path}: empty file, a header row is required")
    first = next(records, None)
    if first is None:
        raise ValidationError(f"{path}: no data rows after the header")
    cols = _column_map(header, path, required, optional, allow_x)
    x_names = _x_columns(header, path) if allow_x else []
    order = [*required, *x_names, *(name for name in optional if name in cols)]
    dtype = np.dtype([
        (name, np.int64 if name in _INT_COLUMNS else np.float64) for name in header
    ])
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads a non-integer cell of an int column through
            # float, truncating it, and only warns
            warnings.simplefilter("error", DeprecationWarning)
            body = np.loadtxt(_text(data), dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, skiprows=skip, ndmin=1)
        for name, (low, high, complaint) in _INT_COLUMNS.items():
            if name in cols and (body[name].min() < low
                                 or (high is not None and body[name].max() > high)):
                raise ValueError(complaint)
    except (ValueError, DeprecationWarning) as exc:
        _diagnose(path, header, order, [first, *records])
        raise ValidationError(f"{path}: {exc}") from exc
    return {name: np.ascontiguousarray(body[name]) for name in order}, x_names


def _check_contiguous(values: np.ndarray, path: str, what: str) -> None:
    # numpy's plain `unique` imports numpy.ma on its first call; the counts
    # form takes the sorting path and imports nothing
    present = np.unique(values, return_counts=True)[0]
    top = int(present[-1])
    n_missing = top - present.size
    if n_missing:
        # at most present.size of 1..present.size + k are present, so that
        # range holds the first k missing values
        upto = min(top, present.size + _MISSING_SHOWN)
        missing = np.setdiff1d(np.arange(1, upto + 1), present,
                               assume_unique=True)[:_MISSING_SHOWN].tolist()
        more = f" and {n_missing - len(missing)} more" if n_missing > len(missing) else ""
        raise ValidationError(
            f"{path}: {what} must be contiguous 1..{top}; no rows carry {missing}{more}"
        )


def _ingest_arm(path: str) -> ObservedData:
    columns, x_names = _read_columns(path, required=("arm", "y"),
                                     optional=("cluster",), allow_x=True)
    labels, clusters = columns["arm"], columns.get("cluster")
    _check_contiguous(labels, path, "arm labels")
    if clusters is not None:
        _check_contiguous(clusters, path, "cluster ids")
    x = None
    if x_names:
        x = np.column_stack([columns[name] for name in x_names])
        logger.info(
            "%s: covariates %s enter estimation centered; column means %s",
            path, list(x_names), x.mean(axis=0).tolist(),
        )
    return ObservedData(labels=labels, y=columns["y"], x=x, clusters=clusters,
                        x_names=tuple(x_names))


def _ingest_iv(path: str) -> IVData:
    columns, _ = _read_columns(path, required=("z", "d", "y"), optional=(), allow_x=False)
    return IVData(z=columns["z"], d=columns["d"], y=columns["y"])


def ingest_csv(path: str, schema: str):
    """Parse and validate a CSV file.

    schema 'arm' -> ObservedData (columns arm,y[,x1..xk][,cluster]);
    schema 'iv' -> IVData (columns z,d,y). The header row is required and
    column order is free.
    """
    if schema == "arm":
        return _ingest_arm(str(path))
    if schema == "iv":
        return _ingest_iv(str(path))
    raise ValidationError(f"unknown schema {schema!r}; use 'arm' or 'iv'")

