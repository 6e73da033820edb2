"""Harness tests: CSV ingest/export, report serialization, experiment
configs and determinism, and the command-line interface run in process.

File fixtures are written into tmp_path; every CLI call goes through main()
so the exit-code contract (0 ok, 1 invalid input/usage, 2 verification
failed) is asserted directly.
"""

import contextlib
import csv
import io
import json
import logging
import os
import pathlib
import threading

import numpy as np
import pytest

from finpop.errors import DegenerateInputError, ValidationError
from finpop.harness import (
    ExperimentConfig,
    IVData,
    MetricResult,
    ObservedData,
    Report,
    SCHEMA_VERSION,
    ingest_csv,
    run_clt_experiment,
    run_oracle_suite,
    run_suite,
)
from conftest import export_csv
from finpop import designs, distlib, estimators, randtests
from finpop.harness import cli, experiments, ingest
from finpop.harness.cli import main
from finpop.harness.experiments import synthetic_population
from finpop.harness.reports import as_jsonable

_DATA = pathlib.Path(__file__).parent / "data"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _two_arm_csv(tmp_path, name="two.csv"):
    return _write(
        tmp_path / name,
        "arm,y\n"
        "1,10.0\n"
        "1,11.0\n"
        "1,12.5\n"
        "1,13.0\n"
        "2,0.0\n"
        "2,1.0\n"
        "2,2.0\n"
        "2,3.5\n",
    )


# =========================================================================
# Ingest
# =========================================================================


def test_ingest_minimal_two_rows(tmp_path):
    path = _write(tmp_path / "min.csv", "arm,y\n1,1.5\n2,2.5\n")
    data = ingest_csv(path, "arm")
    assert data.n_units == 2
    assert data.q_arms == 2
    assert data.labels.tolist() == [1, 2]
    assert data.y.tolist() == [1.5, 2.5]
    assert data.x is None and data.clusters is None


def test_ingest_column_order_is_free(tmp_path):
    path = _write(tmp_path / "o.csv", "y,arm\n3.5,2\n1.0,1\n")
    data = ingest_csv(path, "arm")
    assert data.labels.tolist() == [2, 1]
    assert data.y.tolist() == [3.5, 1.0]


def test_roundtrip_is_bit_exact(tmp_path):
    # awkward values: non-dyadic decimals, tiny/huge magnitudes
    rng = np.random.default_rng(2)
    y = np.array([0.1, 1.0 / 3.0, 1e300, -1e-300, 2.0**-52, -7.25])
    x = np.column_stack([rng.normal(size=6) * 1e-7, rng.normal(size=6) * 1e7])
    data = ObservedData(
        labels=np.array([1, 1, 1, 2, 2, 2]),
        y=y,
        x=x,
        clusters=np.array([1, 1, 2, 2, 3, 3]),
        x_names=("x1", "x2"),
    )
    path = tmp_path / "rt.csv"
    export_csv(data, str(path))
    back = ingest_csv(str(path), "arm")
    assert back.y.tobytes() == y.tobytes()
    assert back.x.tobytes() == x.tobytes()
    assert np.array_equal(back.labels, data.labels)
    assert np.array_equal(back.clusters, data.clusters)
    assert back.x_names == ("x1", "x2")


def test_iv_roundtrip_is_bit_exact(tmp_path):
    data = IVData(
        z=np.array([1, 0, 1, 0]),
        d=np.array([0.3, 0.0, 1.0 / 7.0, -2.5]),
        y=np.array([1.1, 2.2, -0.1, 4.0 / 3.0]),
    )
    path = tmp_path / "iv.csv"
    export_csv(data, str(path))
    back = ingest_csv(str(path), "iv")
    assert back.d.tobytes() == data.d.tobytes()
    assert back.y.tobytes() == data.y.tobytes()
    assert np.array_equal(back.z, data.z)


def test_covariates_stored_raw_and_centered_on_access(tmp_path, caplog):
    path = _write(tmp_path / "c.csv", "arm,y,x1\n1,1.0,2.0\n1,2.0,4.0\n2,3.0,6.0\n2,4.0,8.0\n")
    with caplog.at_level(logging.INFO, logger="finpop.harness.ingest"):
        data = ingest_csv(path, "arm")
    assert data.x[:, 0].tolist() == [2.0, 4.0, 6.0, 8.0]  # raw as read
    assert data.centered_x()[:, 0].tolist() == [-3.0, -1.0, 1.0, 3.0]
    assert any("enter estimation centered" in rec.message for rec in caplog.records)


def test_centered_x_without_covariates_raises(tmp_path):
    path = _write(tmp_path / "n.csv", "arm,y\n1,1.0\n2,2.0\n")
    with pytest.raises(ValidationError):
        ingest_csv(path, "arm").centered_x()


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("arm,y\n0,1.0\n2,2.0\n", "arm labels start at 1"),
        ("arm,y\n1,1.0\n3,2.0\n", "no rows carry [2]"),
        ("arm,y\n1,oops\n2,2.0\n", "could not parse 'oops'"),
        ("arm,y\n1,1.0\n2,2.0,9.9\n", "line 3"),  # ragged row
        ("arm\n1\n2\n", "missing required column"),
        ("arm,y,weight\n1,1.0,2\n2,2.0,3\n", "unexpected column(s) ['weight']"),
        ("arm,y,y\n1,1.0,1.0\n2,2.0,2.0\n", "duplicate"),
        ("arm,y,x2\n1,1.0,0.1\n2,2.0,0.2\n", "x1"),  # covariates must start at x1
        ("arm,y,cluster\n1,1.0,0\n2,2.0,1\n", "cluster ids start at 1"),
        ("arm,y\n", "no data rows"),
    ],
)
def test_ingest_arm_rejects_malformed_files(tmp_path, body, fragment):
    path = _write(tmp_path / "bad.csv", body)
    with pytest.raises(ValidationError, match=None) as info:
        ingest_csv(path, "arm")
    assert fragment in str(info.value)


def test_ingest_arm_error_names_line_and_column(tmp_path):
    path = _write(tmp_path / "bad.csv", "arm,y\n1,1.0\n2,zap\n")
    with pytest.raises(ValidationError) as info:
        ingest_csv(path, "arm")
    message = str(info.value)
    assert "line 3" in message and "'y'" in message and "'zap'" in message


def test_ingest_iv_requires_binary_assignment(tmp_path):
    path = _write(tmp_path / "iv.csv", "z,d,y\n1,0.5,1.0\n2,0.1,2.0\n")
    with pytest.raises(ValidationError, match="must be 0 or 1"):
        ingest_csv(path, "iv")


def test_ingest_unknown_schema_and_missing_file(tmp_path):
    path = _write(tmp_path / "ok.csv", "arm,y\n1,1.0\n2,2.0\n")
    with pytest.raises(ValidationError, match="unknown schema"):
        ingest_csv(path, "panel")
    with pytest.raises(ValidationError):
        ingest_csv(str(tmp_path / "absent.csv"), "arm")


# Reference reader: csv.reader plus int()/float() per cell, the per-row
# parse that the column reader replaced. The fast reader must give the same
# bits on every file the reference accepts.
_INT_NAMES = ("arm", "cluster", "z")


def _reference_columns(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header, body = rows[0], rows[1:]
    return {
        name: np.array([(int if name in _INT_NAMES else float)(row[k]) for row in body],
                       dtype=np.int64 if name in _INT_NAMES else np.float64)
        for k, name in enumerate(header)
    }


def _ingested_columns(data):
    if isinstance(data, IVData):
        return {"z": data.z, "d": data.d, "y": data.y}
    columns = {"arm": data.labels, "y": data.y}
    columns.update((name, data.x[:, k]) for k, name in enumerate(data.x_names))
    if data.clusters is not None:
        columns["cluster"] = data.clusters
    return columns


_SEVENTEEN = "0.12345678901234568"
_READER_FILES = {
    "bom_crlf": ("arm", "\ufeffarm,y\r\n1,1.5\r\n2,2.5\r\n"),
    "blank_lines": ("arm", "\n\narm,y\n1,0.1\n\n2,0.2\n\n\n1,0.3\n"),
    "quoted": ("arm", '"arm","y"\n"1","0.5"\n2,"-1e-3"\n'),
    "whitespace": ("arm", "arm,y\n 1 ,  2.5\n2\t, -3 \n"),
    "one_row": ("arm", "arm,y\n1,4.25\n"),
    "free_order": ("arm", "x2,cluster,y,x1,arm\n0.5,1,1.0,-0.5,2\n1.5,2,2.0,-1.5,1\n"),
    "values": ("arm", "arm,y\n1,nan\n1,inf\n1,-inf\n2,-0\n2,1e-320\n2,"
                      f"{_SEVENTEEN}\n1,-{_SEVENTEEN}e-300\n2,1.7976931348623157e308\n"
                      "1,NaN\n2,-Infinity\n1,+7\n"),
    "x12_cluster": ("arm", "arm,y," + ",".join(f"x{k}" for k in range(1, 13)) + ",cluster\n"
                    + "".join(f"{1 + i % 2},{i / 7!r},"
                              + ",".join(repr((i + 1) * k / 3.0) for k in range(1, 13))
                              + f",{1 + i // 2}\n" for i in range(6))),
    "iv": ("iv", "\ufeffz,d,y\r\n1,0.3,1.1\r\n\r\n0,-0,nan\r\n1," + _SEVENTEEN + ",1e-320\r\n"),
    "iv_free_order": ("iv", 'y,"z",d\n1.0, 0 ,2\n3.5,1,"4"\n'),
}


@pytest.mark.parametrize("case", sorted(_READER_FILES))
def test_column_reader_is_bit_identical_to_the_per_cell_reference(tmp_path, case):
    schema, text = _READER_FILES[case]
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _reference_columns(path)
    data = ingest_csv(str(path), schema)
    got = _ingested_columns(data)
    assert sorted(got) == sorted(want)
    for name, values in want.items():
        assert got[name].dtype == values.dtype, name
        assert got[name].tobytes() == values.tobytes(), name
    arrays = [v for v in vars(data).values() if isinstance(v, np.ndarray)]
    assert all(a.flags["C_CONTIGUOUS"] for a in arrays)


def test_column_reader_is_bit_identical_on_random_files(tmp_path):
    rng = np.random.default_rng(11)
    n = 2000
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x = rng.standard_normal((n, 2))
    labels = rng.permutation(np.repeat([1, 2, 3], [700, 700, 600]))
    clusters = np.arange(1, n + 1)
    export_csv(ObservedData(labels=labels, y=y, x=x, clusters=clusters,
                            x_names=("x1", "x2")), str(tmp_path / "a.csv"))
    export_csv(IVData(z=labels % 2, d=x[:, 0], y=y), str(tmp_path / "iv.csv"))
    for name, schema in (("a.csv", "arm"), ("iv.csv", "iv")):
        want = _reference_columns(tmp_path / name)
        got = _ingested_columns(ingest_csv(str(tmp_path / name), schema))
        for column, values in want.items():
            assert got[column].tobytes() == values.tobytes(), (name, column)


_BAD_FILES = {
    "arm_zero": ("arm", "arm,y\n0,1.0\n2,2.0\n", "line 2: arm labels start at 1, got 0"),
    "arm_gap": ("arm", "arm,y\n1,1.0\n3,2.0\n",
                "arm labels must be contiguous 1..3; no rows carry [2]"),
    "arm_gaps": ("arm", "arm,y\n1,1\n2,2\n5,3\n9,4\n",
                 "arm labels must be contiguous 1..9; no rows carry [3, 4, 6, 7, 8]"),
    "bad_float": ("arm", "arm,y\n1,oops\n2,2.0\n",
                  "line 2, column 'y': could not parse 'oops' as a number"),
    "ragged": ("arm", "arm,y\n1,1.0\n2,2.0,9.9\n", "line 3: expected 2 fields, got 3"),
    # row widths are checked before any cell
    "ragged_first": ("arm", "arm,y\n1,1.0\n2,2.0\n2,3.0,4\n1,oops\n",
                     "line 4: expected 2 fields, got 3"),
    "cluster_zero": ("arm", "arm,y,cluster\n1,1.0,0\n2,2.0,1\n",
                     "line 2: cluster ids start at 1, got 0"),
    "bad_cluster": ("arm", "arm,y,cluster\n1,1.0,1\n2,2.0,x\n",
                    "line 3, column 'cluster': could not parse 'x' as an integer"),
    "arm_float": ("arm", "arm,y\n1.5,1.0\n2,2.0\n",
                  "line 2, column 'arm': could not parse '1.5' as an integer"),
    # cells are checked in schema order, whatever the column order
    "free_order_bad_arm": ("arm", "y,arm\nfoo,bar\n",
                           "line 2, column 'arm': could not parse 'bar' as an integer"),
    "bad_x_first": ("arm", "arm,y,x1\n1,1.0,a\n0,2.0,0\n",
                    "line 2, column 'x1': could not parse 'a' as a number"),
    "blank_lines_arm_zero": ("arm", "\n\narm,y\n1,1\n\n0,2\n",
                             "line 6: arm labels start at 1, got 0"),
    "no_rows": ("arm", "arm,y\n", "no data rows after the header"),
    "no_header": ("arm", "\n\n", "empty file, a header row is required"),
    "z_two": ("iv", "z,d,y\n1,0.5,1.0\n2,0.1,2.0\n",
              "line 3: column 'z' must be 0 or 1, got 2"),
    "z_negative": ("iv", "z,d,y\n0,0.5,1\n-1,0.1,2.0\n",
                   "line 3: column 'z' must be 0 or 1, got -1"),
    "iv_empty_cell": ("iv", "z,d,y\n0,0.5,\n1,0.1,2.0\n",
                      "line 2, column 'y': could not parse '' as a number"),
    # blank lines count toward the line number of a bad cell after them
    "after_blank_lines": ("arm", "arm,y\n1,1.0\n\n\n2,bad\n",
                          "line 5, column 'y': could not parse 'bad' as a number"),
    "empty_cell": ("arm", "arm,y\n1,1.0\n2,\n",
                   "line 3, column 'y': could not parse '' as a number"),
    "trailing_comma": ("arm", "arm,y\n1,1.0,\n2,2.0,\n", "line 2: expected 2 fields, got 3"),
    # cells that int() and float() accept but the reader does not
    "underscore": ("arm", "arm,y\n1,1_000\n2,2.0\n",
                   "line 2, column 'y': could not parse '1_000' as a number"),
    "non_ascii_digit": ("arm", "arm,y\n1,1.0\n\u0662,2.0\n",
                        "line 3, column 'arm': could not parse '\u0662' as an integer"),
    "overflow": ("arm", "arm,y\n1,1.0\n2,2.0\n99999999999999999999,3.0\n",
                 "line 4, column 'arm': '99999999999999999999' does not fit a 64-bit integer"),
}


@pytest.mark.parametrize("case", list(_BAD_FILES))
def test_ingest_error_messages_are_exact(tmp_path, case):
    schema, body, message = _BAD_FILES[case]
    path = _write(tmp_path / "bad.csv", body)
    with pytest.raises(ValidationError) as info:
        ingest_csv(path, schema)
    assert str(info.value) == f"{path}: {message}"


# a record with a quoted cell that spans lines is numbered by its last
# physical line, and the records after it by theirs
_MULTILINE_FILES = {
    "bad_cell_after": ('arm,y\n1,"2\n"\n2,bad\n',
                       "line 4, column 'y': could not parse 'bad' as a number"),
    "ragged_after": ('arm,y\n1,"2\n"\n2,2.0,9\n', "line 4: expected 2 fields, got 3"),
    "blank_lines_inside": ('arm,y\n1,"2\n\n"\n\n2,bad\n',
                           "line 6, column 'y': could not parse 'bad' as a number"),
    "bad_cell_spanning": ('arm,y\n1,1\n2,"x\ny"\n',
                          "line 4, column 'y': could not parse 'x\\ny' as a number"),
}


@pytest.mark.parametrize("case", list(_MULTILINE_FILES))
def test_ingest_errors_name_physical_lines_after_multiline_cells(tmp_path, case):
    body, message = _MULTILINE_FILES[case]
    path = _write(tmp_path / "bad.csv", body)
    with pytest.raises(ValidationError) as info:
        ingest_csv(path, "arm")
    assert str(info.value) == f"{path}: {message}"


def _ingest_pipe(text, schema="arm"):
    """ingest_csv of `text` written into an anonymous pipe, by its /dev/fd
    path: a file that can be read once."""
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(text.encode("utf-8"))
    try:
        return ingest_csv(f"/dev/fd/{read_end}", schema)
    finally:
        os.close(read_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_ingest_reads_a_pipe_once(tmp_path):
    # the header, the body and the diagnosis of a bad cell all come from one
    # read; a second open of a pipe found it drained, and the body was empty
    text = "\ufeffarm,y,x1\r\n1,1.5,0.25\r\n\r\n2,-2.5,1e-3\r\n1,3.0,7\r\n"
    want = _ingested_columns(ingest_csv(_write(tmp_path / "f.csv", text), "arm"))
    got = _ingested_columns(_ingest_pipe(text))
    assert sorted(got) == sorted(want)
    assert all(got[name].tobytes() == want[name].tobytes() for name in want)
    with pytest.raises(ValidationError, match=r"line 3, column 'y': could not parse 'y'"):
        _ingest_pipe("arm,y\n1,1.5\n2,y\n")


def test_contiguity_error_is_bounded(tmp_path):
    # one label of 5,000,000 leaves 4,999,997 labels unused; the message
    # lists the first few and counts the rest
    path = _write(tmp_path / "gap.csv", "arm,y\n1,1.0\n2,2.0\n5000000,3.0\n")
    with pytest.raises(ValidationError) as info:
        ingest_csv(path, "arm")
    message = str(info.value)
    assert len(message) < 1000
    assert message.endswith(
        "arm labels must be contiguous 1..5000000; "
        "no rows carry [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 4999987 more"
    )


def test_overflowing_integer_cell_is_a_validation_error(tmp_path, capsys):
    path = _write(tmp_path / "big.csv", "arm,y\n1,1.0\n99999999999999999999,2.0\n")
    with pytest.raises(ValidationError, match=r"line 3, column 'arm'"):
        ingest_csv(path, "arm")
    assert main(["estimate", "--data", path]) == 1
    assert "64-bit" in capsys.readouterr().err


def test_valid_files_never_reach_the_per_cell_parsers(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a valid file was parsed cell by cell")

    monkeypatch.setattr(ingest, "_int_cell", refuse)
    monkeypatch.setattr(ingest, "_float_cell", refuse)
    rng = np.random.default_rng(4)
    n = 10_000
    labels = rng.permutation(np.repeat([1, 2], n // 2))
    data = ObservedData(labels=labels, y=rng.normal(size=n), x=rng.normal(size=(n, 2)),
                        clusters=np.arange(1, n + 1), x_names=("x1", "x2"))
    export_csv(data, str(tmp_path / "arm.csv"))
    export_csv(IVData(z=labels - 1, d=rng.normal(size=n), y=rng.normal(size=n)),
               str(tmp_path / "iv.csv"))
    assert ingest_csv(str(tmp_path / "arm.csv"), "arm").n_units == n
    assert ingest_csv(str(tmp_path / "iv.csv"), "iv").n_units == n


# =========================================================================
# Reports
# =========================================================================


def test_as_jsonable_converts_numpy_and_nonfinite():
    payload = as_jsonable(
        {
            "a": np.int64(3),
            "b": np.float64(2.5),
            "c": np.array([1.0, 2.0]),
            "d": np.bool_(True),
            "e": float("nan"),
            "f": (1, 2),
            "g": np.float64("inf"),
            "h": np.float32("nan"),
        }
    )
    assert payload == {"a": 3, "b": 2.5, "c": [1.0, 2.0], "d": True, "e": "nan", "f": [1, 2],
                       "g": "inf", "h": "nan"}
    json.dumps(payload)  # fully serializable


def test_as_jsonable_rejects_foreign_objects():
    with pytest.raises(TypeError):
        as_jsonable(object())


def test_report_json_is_deterministic_and_versioned(tmp_path):
    metric = MetricResult(
        name="gap", value=1e-13, tolerance=1e-10, passed=True, checks="enumerated"
    )
    info = MetricResult(
        name="note", value=0.5, tolerance=None, passed=True, checks="informational"
    )
    texts = []
    for name in ("a.json", "b.json"):
        report = Report(experiment={"kind": "oracle"}, metrics=(metric, info), wall_clock_s=1.0)
        cli._emit(report.to_dict(), str(tmp_path / name))
        texts.append((tmp_path / name).read_text(encoding="utf-8"))
    assert texts[0] == texts[1]
    payload = json.loads(texts[0])
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["passed"] is True
    assert payload["metrics"][0]["tolerance"] == 1e-10
    assert payload["metrics"][1]["tolerance"] is None


def test_report_passed_requires_every_metric():
    good = MetricResult(name="a", value=0.0, tolerance=1.0, passed=True, checks="")
    bad = MetricResult(name="b", value=9.0, tolerance=1.0, passed=False, checks="")
    assert Report(experiment={}, metrics=(good,), wall_clock_s=0.0).passed
    assert not Report(experiment={}, metrics=(good, bad), wall_clock_s=0.0).passed


# =========================================================================
# Experiment configs and runners
# =========================================================================


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="bogus", seed=1)
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="clt", seed=None)
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="clt", seed=1, reps=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="clt", seed=1, alpha=1.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="clt", seed=1, ns=(2,))
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="clt", seed=1, tol=0.0)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("reps", 2.7), ("ns", (16.9,)), ("ns", (16, "32")), ("seed", True),
])
def test_experiment_config_refuses_counts_that_are_not_whole(field, value):
    # seed 1.5, reps 2.7 and ns (16.9,) ran as seed 1, reps 2 and ns (16,)
    settings = {"seed": 1, "reps": 100, "ns": (16,), field: value}
    with pytest.raises(ValidationError, match="must be whole numbers"):
        ExperimentConfig(kind="clt", **settings)


def test_experiment_config_accepts_whole_floats_and_numpy_integers():
    config = ExperimentConfig(kind="clt", seed=np.int64(3), reps=100.0,
                              ns=(np.int32(16), 32.0))
    assert (config.seed, config.reps, config.ns) == (3, 100, (16, 32))
    assert all(type(v) is int for v in (config.seed, config.reps, *config.ns))


def test_experiment_config_rejects_nan_tolerance():
    # a NaN tolerance would fail every gate it reaches
    with pytest.raises(ValidationError, match="tolerance"):
        ExperimentConfig(kind="coverage", seed=1, tol=float("nan"))


def test_experiment_config_echo_lists_settings():
    config = ExperimentConfig(kind="rerand", seed=9, reps=100, ns=(16,))
    echo = config.echo()
    assert echo["kind"] == "rerand" and echo["seed"] == 9
    assert echo["ns"] == [16]
    assert echo["n_covariates"] == 2
    assert echo["accept_target"] == 0.2


def test_synthetic_populations():
    assert synthetic_population("ranks", 6).tolist() == [1, 2, 3, 4, 5, 6]
    two_point = synthetic_population("two_point", 8)
    assert sorted(np.unique(two_point).tolist()) == [0.0, 1.0]
    assert two_point.sum() == 4
    assert np.all(synthetic_population("lognormal", 16) > 0)
    spike = synthetic_population("spike", 16)
    assert spike[-1] == 16.0 and np.all(spike[:-1] == 0.0)
    assert np.all(synthetic_population("constant", 5) == 1.0)
    with pytest.raises(ValidationError):
        synthetic_population("cauchy", 8)


def test_oracle_suite_passes_and_reports_gaps():
    report = run_oracle_suite(ExperimentConfig(kind="oracle", seed=1, reps=1))
    assert report.passed
    names = [m.name for m in report.metrics]
    for expected in (
        "estimator_mean_gap",
        "estimator_cov_gap",
        "vhat_bias_gap",
        "indicator_cov_gap",
        "rank_mean_cov_gap",
        "regression_decomposition_gap",
    ):
        assert expected in names
    for metric in report.metrics:
        if metric.tolerance is not None:
            assert abs(metric.value) <= metric.tolerance


def test_clt_experiment_is_deterministic():
    config = ExperimentConfig(kind="clt", seed=33, reps=400, ns=(16, 32))
    report_a = run_clt_experiment(config)
    report_b = run_clt_experiment(config)
    values_a = [(m.name, m.value) for m in report_a.metrics]
    values_b = [(m.name, m.value) for m in report_b.metrics]
    assert values_a == values_b
    dict_a, dict_b = report_a.to_dict(), report_b.to_dict()
    dict_a.pop("wall_clock_s"), dict_b.pop("wall_clock_s")
    assert dict_a == dict_b
    names = [m.name for m in report_a.metrics]
    assert "ks_n16" in names and "ks_n32" in names
    assert "ks_min_drop" in names and "ks_final" in names


def test_clt_experiment_rejects_constant_population():
    config = ExperimentConfig(kind="clt", seed=1, reps=50, ns=(8,), population="constant")
    with pytest.raises(DegenerateInputError):
        run_clt_experiment(config)


def test_run_suite_prefixes_multi_part_metrics():
    report = run_suite("coverage", seed=5, reps=200)
    names = [m.name for m in report.metrics]
    assert any(n.startswith("coverage_additive.") for n in names)
    assert any(n.startswith("coverage_heterogeneous.") for n in names)
    assert report.experiment["suite"] == "coverage"
    assert [run["name"] for run in report.experiment["runs"]] == [
        "coverage_additive",
        "coverage_heterogeneous",
    ]


def test_run_suite_oracle_single_part_unprefixed():
    report = run_suite("oracle", seed=3)
    assert report.passed
    assert all("." not in m.name for m in report.metrics)


# Seed-26 values of `verify --suite clt|rerand|coverage --reps 2000`. They pin
# the draw streams: a refactor of the campaigns may move the arithmetic by
# round-off, never the assignments drawn.
_FROZEN_SEED26 = {
    "clt": {
        "ks_n16": 0.042787963882353175,
        "condition_n16": 0.3102022058823529,
        "ks_n64": 0.017526798072915184,
        "condition_n64": 0.08944561298076922,
        "ks_n256": 0.016746433216989987,
        "condition_n256": 0.0231642667421571,
        "ks_n1024": 0.019669341454829015,
        "condition_n1024": 0.005842231192239901,
        "ks_min_drop": -0.002922908237839028,
        "ks_final": 0.019669341454829015,
    },
    "rerand": {
        "ks_n256": 0.017848685150193,
        "condition_n256": 0.11789174542475851,
        "acceptance_rate_gap_n256": 0.0050000000000000044,
        "ks_final": 0.017848685150193,
    },
    "coverage": {
        "coverage_additive.true_tau": 1.0000000000000002,
        "coverage_additive.s2_tau": 3.0350333193961668e-33,
        "coverage_additive.neyman_coverage": 0.953,
        "coverage_heterogeneous.true_tau": -1.0658141036401502e-16,
        "coverage_heterogeneous.s2_tau": 2.2468256311990613,
        "coverage_heterogeneous.neyman_coverage": 1.0,
    },
}


def test_coverage_counts_are_offset_invariant():
    # the variance estimate must cancel a common offset before squaring
    table = experiments.coverage_table("additive", 200)
    plain, shifted = experiments._coverage_counts([table, table + 1e8], 100, 4096, 26, 0, 0.05)
    assert shifted[0] == plain[0]
    assert shifted[1] == pytest.approx(plain[1], abs=1e-6)


def test_coverage_suite_draws_each_chunk_once(monkeypatch):
    # both tables are evaluated on one draw of every chunk of reps: the rows
    # drawn add up to reps, not 2 reps, from one generator per chunk
    calls = []
    draw = experiments.designs.draw_partition_batch

    def counted(sizes, b, rng):
        calls.append((b, rng))
        return draw(sizes, b, rng)

    monkeypatch.setattr(experiments.designs, "draw_partition_batch", counted)
    reps = 2 * experiments._CHUNK + 1000
    report = run_suite("coverage", seed=26, reps=reps)
    assert len(report.experiment["runs"]) == 2
    assert sum(b for b, _ in calls) == reps
    assert len({id(rng) for _, rng in calls}) == 3


def _serial_drawn(sizes, reps, seed, n_index, stat):
    # one whole-chunk draw per chunk generator and one stat call per row
    rows = []
    for i in range(-(-reps // experiments._CHUNK)):
        m = min(experiments._CHUNK, reps - i * experiments._CHUNK)
        labels = designs.draw_partition_batch(sizes, m, designs.derive_rng(seed, 1, n_index, i))
        rows.extend(stat(row[np.newaxis]) for row in labels)
    return np.concatenate(rows)


def _label_digest(labels):
    # exact integer columns: a weighted label sum and the first labels
    weights = np.arange(1, labels.shape[1] + 1)
    return np.column_stack([labels @ weights, labels[:, :4]])


@pytest.mark.parametrize("workers", [1, 2])
def test_drawn_equals_a_serial_whole_chunk_reference(monkeypatch, workers):
    # N = 1024 draws each chunk in four sub-batches of eight stat slices
    monkeypatch.setattr(experiments, "_usable_cores", lambda: workers)
    sizes, reps = (512, 512), 2 * experiments._CHUNK + 100
    got = experiments._drawn(sizes, reps, 26, 3, _label_digest)
    assert got.shape == (reps, 5)
    np.testing.assert_array_equal(got, _serial_drawn(sizes, reps, 26, 3, _label_digest))


def test_drawn_pool_is_no_wider_than_cores_or_chunks(monkeypatch):
    widths = []
    pool = experiments.ThreadPoolExecutor

    def recorded(max_workers):
        widths.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", recorded)
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 64)
    experiments._drawn((3, 3), experiments._CHUNK + 1, 1, 0, _label_digest)
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 1)
    experiments._drawn((3, 3), 3 * experiments._CHUNK, 1, 0, _label_digest)
    assert widths == [2, 1]


def test_drawn_propagates_an_exception_raised_by_stat(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 2)
    error = ArithmeticError("stat failed")

    def failing(labels):
        raise error

    with pytest.raises(ArithmeticError) as info:
        experiments._drawn((4, 4), 2 * experiments._CHUNK + 1, 26, 0, failing)
    assert info.value is error


def test_run_suite_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 2)
    baseline = threading.active_count()
    run_suite("coverage", seed=26, reps=2 * experiments._CHUNK + 1)
    assert threading.active_count() == baseline


def test_planted_cov_estimator_defect_fails_oracle_and_moves_coverage(monkeypatch):
    # the campaigns must run the shipped estimator, not a copy of it
    clean = {m.name: m.value for m in run_suite("coverage", seed=26, reps=2000).metrics}
    shipped = experiments.estimators.neyman_estimate

    def drop_last_arm(labels, y, contrast):
        a = np.array(contrast, dtype=float)
        a[-1] = 0.0
        return shipped(labels, y, contrast)[0], shipped(labels, y, a)[1]

    monkeypatch.setattr(experiments.estimators, "neyman_estimate", drop_last_arm)
    oracle = {m.name: m for m in run_oracle_suite(ExperimentConfig(kind="oracle", seed=1)).metrics}
    assert not oracle["vhat_bias_gap"].passed
    planted = {m.name: m.value for m in run_suite("coverage", seed=26, reps=2000).metrics}
    name = "coverage_additive.neyman_coverage"
    assert planted[name] < clean[name] - 0.05


def test_planted_interval_defect_fails_neyman_coverage(monkeypatch):
    # coverage is judged by the interval that ships: a one-sided critical
    # value there must show up in the Neyman count
    def one_sided(point, variance, alpha):
        half = distlib.std_normal_quantile(1.0 - alpha) * np.sqrt(variance)
        return point - half, point + half

    monkeypatch.setattr(experiments.estimators, "normal_interval", one_sided)
    metrics = {m.name: m for m in run_suite("coverage", seed=26, reps=2000).metrics}
    assert not metrics["coverage_additive.neyman_coverage"].passed
    assert metrics["coverage_additive.neyman_coverage"].value < 0.92


def _golden_body(report):
    body = report.to_dict()
    body.pop("wall_clock_s")
    return json.loads(json.dumps(body))


def test_verify_all_seed26_matches_the_golden_report():
    # every metric, tolerance, verdict and echo of `verify --suite all
    # --seed 26`, bit for bit
    golden = json.loads((_DATA / "golden_verify_all_seed26.json").read_text(encoding="utf-8"))
    assert _golden_body(run_suite("all", seed=26)) == golden


def test_clt_lognormal_ladder_matches_the_golden_report():
    # the lognormal sums are not integers, so this pins their summation order
    config = ExperimentConfig(kind="clt", seed=7, reps=3000, population="lognormal",
                              ns=(16, 64, 256))
    golden = json.loads((_DATA / "golden_clt_lognormal_seed7.json").read_text(encoding="utf-8"))
    assert _golden_body(run_clt_experiment(config)) == golden


@pytest.mark.parametrize("suite", sorted(_FROZEN_SEED26))
def test_verify_seed26_values_are_frozen(suite):
    frozen = _FROZEN_SEED26[suite]
    got = {m.name: m.value for m in run_suite(suite, seed=26, reps=2000).metrics}
    assert list(got) == list(frozen)
    for name, want in frozen.items():
        # the clt ladder sums integer ranks, exact in any order; coverage
        # fractions and acceptance rates are counts over the draws
        if suite == "clt" or "coverage" in name.split(".")[-1] or "acceptance" in name:
            assert got[name] == want, name
        else:
            # s2_tau of the additive table and true_tau of the heterogeneous
            # one are zero in exact arithmetic, so only an absolute bound
            # means anything for them
            assert got[name] == pytest.approx(want, rel=1e-12, abs=1e-15), name


# =========================================================================
# Command-line interface
# =========================================================================


def test_cli_estimate_emits_report(tmp_path, capsys):
    path = _two_arm_csv(tmp_path)
    assert main(["estimate", "--data", path, "--alpha", "0.05"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["method"] == "difference_in_means"
    assert payload["point"] == pytest.approx([10.0])  # means 11.625 vs 1.625
    assert payload["ci"][0] < 10.0 < payload["ci"][1]
    assert payload["sizes"] == [4, 4]


def test_cli_interval_is_neyman_ci(tmp_path, capsys):
    path = _two_arm_csv(tmp_path)
    assert main(["estimate", "--data", path, "--alpha", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    data = ingest_csv(path, "arm")
    contrast = [1.0, -1.0]
    assert payload["ci"] == list(estimators.normal_interval(
        estimators.tau_hat(data.labels, data.y, contrast)[0],
        estimators.neyman_estimate(data.labels, data.y, contrast)[1][0, 0], 0.1))


def test_cli_estimate_uses_covariates_when_present(tmp_path, capsys):
    path = _write(
        tmp_path / "cov.csv",
        "arm,y,x1\n"
        "1,10.0,0.4\n"
        "1,11.0,-1.2\n"
        "1,12.5,0.3\n"
        "1,13.0,1.1\n"
        "2,0.0,-0.8\n"
        "2,1.0,0.2\n"
        "2,2.0,0.9\n"
        "2,3.5,-0.9\n",
    )
    assert main(["estimate", "--data", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "regression_adjusted"
    assert "arm1" in payload["coefficients"]
    assert payload["ci"][0] < payload["point"][0] < payload["ci"][1]


def test_cli_estimate_cluster_totals_and_mixed_clusters(tmp_path, capsys):
    rows = [(1, 2.0, 1), (1, 4.0, 1), (2, 1.0, 2), (2, 0.5, 2), (1, 3.0, 3),
            (2, 7.0, 4), (2, 1.5, 4), (1, 6.0, 5), (2, 2.0, 6)]
    path = _write(tmp_path / "cl.csv",
                  "arm,y,cluster\n" + "".join(f"{a},{y},{c}\n" for a, y, c in rows))
    assert main(["estimate", "--data", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    # cluster totals: arm 1 has 6, 3, 6 and arm 2 has 1.5, 8.5, 2, over N = 9 units
    assert payload["point"][0] == pytest.approx(6 / 9 * (5.0 - 4.0), abs=1e-12)
    assert payload["cluster_sizes_by_arm"] == [3, 3]
    rows[3] = (1, 0.5, 2)
    path = _write(tmp_path / "mixed.csv",
                  "arm,y,cluster\n" + "".join(f"{a},{y},{c}\n" for a, y, c in rows))
    assert main(["estimate", "--data", path]) == 1
    assert "cluster 2 spans arms [1, 2]" in capsys.readouterr().err


def test_cli_regression_refuses_an_arm_of_k_plus_one_units(tmp_path, capsys):
    # two units and one covariate per arm: the slopes fit each arm exactly, and
    # the plug-in variance and interval width would be zero
    rows = "arm,y,x1\n1,1,0.5\n1,2,0.1\n2,3,0.2\n2,4,0.9\n"
    assert main(["estimate", "--data", _write(tmp_path / "r.csv", rows)]) == 1
    assert "each arm needs at least K + 2 = 3 observations" in capsys.readouterr().err
    rows += "1,2.5,0.3\n2,3.5,0.4\n"
    assert main(["estimate", "--data", _write(tmp_path / "r3.csv", rows)]) == 0
    assert json.loads(capsys.readouterr().out)["cov"][0][0] > 1e-3


def test_cli_cluster_covariates_refuse_an_arm_of_k_plus_one_clusters(tmp_path, capsys):
    rows = ("arm,y,x1,cluster\n1,1,0.5,1\n1,2,0.1,1\n1,2,0.3,2\n"
            "2,3,0.2,3\n2,4,0.9,3\n2,5,0.4,4\n")
    assert main(["estimate", "--data", _write(tmp_path / "c.csv", rows)]) == 1
    assert "each arm needs at least K + 2 = 3 observations" in capsys.readouterr().err
    rows += "1,4,0.8,5\n2,1,0.6,6\n"
    assert main(["estimate", "--data", _write(tmp_path / "c3.csv", rows)]) == 0
    assert json.loads(capsys.readouterr().out)["cov"][0][0] > 1e-3


def test_cli_regression_refuses_other_than_two_arms(tmp_path, capsys):
    # three arms with a covariate used to fail inside the two-arm fit with
    # "arm labels must lie in 1..2"
    for q in (3, 1):
        rows = "arm,y,x1\n" + "".join(f"{1 + i % q},{i * 1.5},{(7 * i) % 5 - 2.0}\n"
                                      for i in range(12))
        assert main(["estimate", "--data", _write(tmp_path / f"q{q}.csv", rows)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "error: regression adjustment supports two arms"


def test_cli_test_and_factorial_refuse_a_cluster_column(tmp_path, capsys):
    # 6 clusters, 3 per arm, have C(6, 3) = 20 assignments, so no valid
    # p-value is below 1/20; `test` took the 8 units of this file as
    # randomized one by one and printed p = 0.0087
    clusters = (1, 1, 2, 3, 4, 4, 5, 6)
    rows = "arm,y,cluster\n" + "".join(f"{2 - c % 2},{10.0 * (c % 2) + 0.3 * i},{c}\n"
                                       for i, c in enumerate(clusters))
    path = _write(tmp_path / "clustered.csv", rows)
    four = _write(tmp_path / "four.csv", "arm,y,cluster\n" + "".join(
        f"{1 + c % 4},{0.7 * c},{c + 1}\n" for c in range(8)))
    for argv in (["test", "--data", path, "--stat", "diff"],
                 ["factorial", "--data", four, "--factors", "2"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {argv[0]} assumes units randomized one by one, but "
                                "the data have a 'cluster' column; use `estimate` for a "
                                "cluster-randomized design\n")
    assert main(["estimate", "--data", path]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "cluster_adjusted"
    # covariate columns are not a design and stay accepted
    covariates = _write(tmp_path / "x.csv", "arm,y,x1,x2\n" + "".join(
        f"{1 + i % 2},{1.5 * i},{(7 * i) % 5 - 2.0},{i % 3 - 1.0}\n" for i in range(12)))
    assert main(["test", "--data", covariates, "--stat", "wilcoxon"]) == 0
    assert json.loads(capsys.readouterr().out)["stat"] == "wilcoxon"


def test_cli_log_line_goes_to_the_stderr_of_each_call(tmp_path):
    # the handler kept the stderr of the first call, so a second call under
    # another redirect lost the covariate line
    path = _write(tmp_path / "x.csv", "arm,y,x1\n" + "".join(
        f"{1 + i % 2},{1.5 * i + (i % 3)},{(7 * i) % 5 - 2.0}\n" for i in range(12)))
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["estimate", "--data", path]) == 0
        assert f"{path}: covariates ['x1'] enter estimation centered" in err.getvalue()


def test_cli_estimate_refuses_a_singular_three_arm_covariance(tmp_path, capsys):
    path = _write(tmp_path / "flat.csv", "arm,y\n" + "".join(
        f"{arm},1.0\n" for arm in (1, 1, 2, 2, 3, 3)))
    assert main(["estimate", "--data", path]) == 1
    assert "estimated covariance is numerically singular" in capsys.readouterr().err


def test_cli_estimate_design_mismatch_fails(tmp_path, capsys):
    path = _two_arm_csv(tmp_path)
    assert main(["estimate", "--data", path, "--design", "5,3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_test_wilcoxon_exact_pvalue(tmp_path, capsys):
    path = _write(
        tmp_path / "w.csv",
        "arm,y\n" + "".join(f"1,{v}\n" for v in (10.0, 11.0, 12.0, 13.0))
        + "".join(f"2,{v}\n" for v in (0.0, 1.0, 2.0, 3.0)),
    )
    code = main(["test", "--data", path, "--stat", "wilcoxon", "--method", "exact"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # complete separation on (4,4): only the two extreme splits reach |4|
    assert payload["p_value"] == pytest.approx(2.0 / 70.0, abs=1e-12)
    assert payload["method"] == "exact(count=70)"


def test_cli_test_kw_normal(tmp_path, capsys):
    path = _write(
        tmp_path / "k.csv",
        "arm,y\n1,1.0\n1,2.0\n2,3.0\n2,4.0\n",
    )
    assert main(["test", "--data", path, "--stat", "kw"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["statistic"] == pytest.approx(2.4, abs=1e-12)


@pytest.mark.parametrize("method", [["--method", "exact"], ["--method", "mc", "--seed", "3"]])
def test_cli_test_kw_reference_engines_on_tied_outcomes(tmp_path, capsys, method):
    path = _write(tmp_path / "t.csv", "arm,y\n" + "".join(
        f"{arm},5.0\n" for arm in (1, 1, 1, 2, 2, 2, 3, 3)))
    # strict ranks still refuse ties before any assignment is evaluated
    assert main(["test", "--data", path, "--stat", "kw", *method]) == 1
    assert "tied values" in capsys.readouterr().err
    # midranks of an all-tied outcome: statistic 0 and p = 1, not NaN
    assert main(["test", "--data", path, "--stat", "kw", "--ties", "midrank", *method]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["statistic"], payload["p_value"]) == (0.0, 1.0)


def test_cli_test_max_normal_requires_seed(tmp_path, capsys):
    path = _write(tmp_path / "m.csv", "arm,y\n1,1.0\n1,2.0\n2,3.0\n2,4.0\n")
    assert main(["test", "--data", path, "--stat", "max"]) == 1
    assert "seed" in capsys.readouterr().err


def test_cli_test_dose_normal_needs_no_seed(tmp_path, capsys):
    path = _write(tmp_path / "d.csv", "arm,y\n" + "".join(
        f"{arm},{v}\n" for arm, v in zip((1, 1, 2, 2, 3, 3), (4.0, 1.0, 6.0, 2.0, 5.0, 3.0))))
    assert main(["test", "--data", path, "--stat", "dose", "--doses", "0,1,2",
                 "--method", "normal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "normal_approx"
    assert payload["null_variance"] > 0.0


def test_cli_test_hyper_rejects_mc(tmp_path, capsys):
    path = _write(tmp_path / "h.csv", "arm,y\n1,1\n1,0\n2,1\n2,0\n")
    assert main(["test", "--data", path, "--stat", "hyper", "--method", "mc"]) == 1


@pytest.mark.parametrize("stat", list(randtests.TEST_STATISTICS))
def test_cli_statistic_is_the_same_under_every_method(tmp_path, capsys, stat):
    # every reference evaluates one SumStatistic, so the reported statistic
    # does not depend on --method, bit for bit
    kind = randtests.TEST_STATISTICS[stat][0]
    methods = ("normal", "exact") if kind is None else randtests.TEST_METHODS
    rng = np.random.default_rng(41)
    path = tmp_path / "r.csv"
    for sizes in ((5, 4),) if kind in (None, "diff", "joint") else ((5, 4), (3, 3, 3)):
        for _ in range(30):
            labels = rng.permutation(np.repeat(np.arange(1, len(sizes) + 1), sizes))
            y = (rng.integers(0, 2, labels.size).astype(float) if kind is None
                 else rng.normal(50.0, 3.0, labels.size))
            export_csv(ObservedData(labels=labels, y=y), path)
            argv = ["test", "--data", str(path), "--stat", stat, "--seed", "1", "--reps", "20"]
            if stat == "dose":
                argv.append("--doses=" + ",".join(str(d) for d in np.linspace(-1.0, 2.0, len(sizes))))
            statistics = []
            for method in methods:
                assert main([*argv, "--method", method]) == 0
                statistics.append(json.loads(capsys.readouterr().out)["statistic"])
            assert len(set(statistics)) == 1, (sizes, statistics)


@pytest.mark.parametrize("method", ["normal", "exact", "mc"])
@pytest.mark.parametrize("doses", ["nan,1,2", "1,inf,2", "-inf,0,1"])
def test_cli_test_rejects_non_finite_doses(tmp_path, capsys, method, doses):
    path = _write(tmp_path / "d.csv", "arm,y\n" + "".join(
        f"{arm},{v}\n" for arm, v in zip((1, 1, 2, 2, 3, 3), (4.0, 1.0, 6.0, 2.0, 5.0, 3.0))))
    argv = ["test", "--data", path, "--stat", "dose", f"--doses={doses}",
            "--method", method, "--seed", "1", "--reps", "100"]
    assert main(argv) == 1
    assert "doses must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["normal", "exact", "mc"])
@pytest.mark.parametrize("stat", [stat for stat in randtests.TEST_STATISTICS if stat != "dose"])
def test_cli_test_refuses_doses_except_for_dose(tmp_path, capsys, stat, method):
    # every other statistic ignored --doses and exited 0
    path = _write(tmp_path / "d.csv", "arm,y\n" + "".join(
        f"{arm},{v}\n" for arm, v in zip((1, 1, 1, 2, 2, 2), (4.0, 1.0, 0.0, 6.0, 2.0, 5.0))))
    argv = ["test", "--data", path, "--stat", stat, "--doses", "5,7",
            "--method", method, "--seed", "1", "--reps", "99"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: only the 'dose' statistic takes doses, not {stat!r}\n")


@pytest.mark.parametrize("method", ["normal", "exact", "mc"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_test_rejects_non_finite_outcomes(tmp_path, capsys, method, value):
    # the observed assignment counts itself, so a NaN statistic's exact p = 0
    # and Monte Carlo p = 1/(B + 1) were impossible values
    path = _write(tmp_path / "y.csv", "arm,y\n" + "".join(
        f"{arm},{v}\n" for arm, v in zip((1, 1, 1, 2, 2, 2), (4.0, 1.0, value, 6.0, 2.0, 5.0))))
    argv = ["test", "--data", path, "--stat", "diff", "--method", method,
            "--seed", "1", "--reps", "200"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: statistic values must be finite" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("method", ["normal", "exact", "mc"])
@pytest.mark.parametrize("stat", list(randtests.TEST_STATISTICS))
def test_cli_test_refuses_one_arm(tmp_path, capsys, stat, method):
    # max, range and dose under exact and mc gave p = 1 with exit 0
    path = _write(tmp_path / "one.csv", "arm,y\n1,1\n1,0\n1,1\n1,0\n")
    argv = ["test", "--data", path, "--stat", stat, "--method", method,
            "--seed", "1", "--reps", "99", *(["--doses", "1"] if stat == "dose" else [])]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: the test needs at least two arms\n")


def test_cli_test_has_no_alpha(tmp_path, capsys):
    path = _two_arm_csv(tmp_path)
    assert main(["test", "--data", path, "--stat", "diff", "--alpha", "0.1"]) == 1
    assert "--alpha" in capsys.readouterr().err


def test_cli_iv_ci_point_at_exact_ratio(tmp_path, capsys):
    rows = "".join(
        f"{z},{float(z)},{2.0 * z}\n" for z in (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
    )
    path = _write(tmp_path / "iv.csv", "z,d,y\n" + rows)
    assert main(["iv-ci", "--data", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "point"
    assert payload["endpoints"][0] == pytest.approx(2.0, abs=1e-9)
    assert payload["condition"]["degenerate"] is True  # y exactly 2 d


def test_cli_estimate_and_iv_ci_refuse_an_alpha_by_name(tmp_path, capsys):
    # below 2**-53, 1 - alpha/2 rounds to 1: estimate used to fail inside the
    # quantile with a level the user never gave, and iv-ci printed a set
    iv = _write(tmp_path / "iv.csv", "z,d,y\n" + "".join(
        f"{z},{z + 0.1 * i},{0.5 * i * i}\n" for i, z in enumerate((1, 0) * 5)))
    covariates = _write(tmp_path / "x.csv", "arm,y,x1\n" + "".join(
        f"{arm},{0.3 * i * i},{i % 3}\n" for i, arm in enumerate((1, 2) * 5)))
    commands = (["estimate", "--data", _two_arm_csv(tmp_path)],
                ["estimate", "--data", covariates], ["iv-ci", "--data", iv])
    for argv in commands:
        assert main(argv) == 0
        capsys.readouterr()
        for alpha, message in (("1e-17", "alpha must exceed 2**-53, got 1e-17"),
                               ("0", "alpha must be in (0, 1), got 0.0"),
                               ("1.5", "alpha must be in (0, 1), got 1.5")):
            assert main([*argv, "--alpha", alpha]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and f"error: {message}" in captured.err


def test_cli_factorial_effects(tmp_path, capsys):
    y = [5.0, 6.0, 4.0, 4.0, 2.0, 3.0, 1.0, 0.5]
    rows = "".join(f"{arm},{val}\n" for arm, val in zip((1, 1, 2, 2, 3, 3, 4, 4), y))
    path = _write(tmp_path / "f.csv", "arm,y\n" + rows)
    assert main(["factorial", "--data", path, "--factors", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["effect_names"] == ["1", "2", "1:2"]
    assert payload["effects"] == pytest.approx([3.125, 1.625, -0.125])
    corr = np.array(payload["sharp_null_correlation"])
    assert corr == pytest.approx(np.eye(3))  # balanced sizes decorrelate


def test_cli_factorial_rejects_wrong_arm_count(tmp_path, capsys):
    path = _write(tmp_path / "f.csv", "arm,y\n1,1.0\n2,2.0\n3,3.0\n")
    assert main(["factorial", "--data", path, "--factors", "2"]) == 1


# outcomes near 1e200 whose squares overflow; arm 1 of s.csv is above arm 2
_OVERFLOW_FILES = {
    "s.csv": "arm,y\n" + "".join(f"{arm},{sign}{k}e200\n" for arm, sign in ((1, ""), (2, "-"))
                                 for k in range(1, 7)),
    "x.csv": "arm,y,x1\n" + "".join(f"{1 + i % 2},{i + 1}e200,{i % 5 - 2}\n" for i in range(16)),
    "c.csv": "arm,y,cluster\n" + "".join(f"{1 + i // 2 % 2},{i + 1}e200,{i // 2 + 1}\n"
                                         for i in range(16)),
    "f.csv": "arm,y\n" + "".join(f"{1 + i % 4},{i + 1}e200\n" for i in range(16)),
    "iv.csv": "z,d,y\n" + "".join(f"{i % 2},{i // 2 % 2},{i + 1}e200\n" for i in range(12)),
    "big.csv": "arm,y\n" + "".join(f"{1 + i % 2},{'-' if i % 3 else ''}1e308\n"
                                   for i in range(12)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, call", [
    ("s.csv", "test --stat diff"),
    ("s.csv", "test --stat diff --method exact"),
    ("s.csv", "test --stat diff --method mc --seed 1 --reps 99"),
    ("x.csv", "test --stat joint"),
    ("s.csv", "test --stat dose --doses 1e154,-1e154"),
    ("s.csv", "test --stat dose --doses 1e200,0"),
    ("big.csv", "test --stat diff"),
    ("s.csv", "estimate"),
    ("x.csv", "estimate"),
    ("c.csv", "estimate"),
    ("f.csv", "factorial --factors 2"),
    ("iv.csv", "iv-ci"),
])
def test_cli_refuses_outcomes_whose_squares_overflow(tmp_path, capsys, name, call):
    # each printed an infinite variance, a p-value from ranks alone, or a
    # NaN statistic with exit 0, and iv-ci and a dose of 1e200 died with an
    # OverflowError
    command, *options = call.split()
    path = _write(tmp_path / name, _OVERFLOW_FILES[name])
    assert main([command, "--data", path, *options]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = captured.err.splitlines()[-1]
    assert error.startswith("error: ") and "overflow" in error


def test_cli_rank_statistics_run_on_outcomes_whose_squares_overflow(tmp_path, capsys):
    path = _write(tmp_path / "s.csv", _OVERFLOW_FILES["s.csv"])
    assert main(["test", "--data", path, "--stat", "wilcoxon"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_value"] == 0.003947751856903459


def test_cli_verify_oracle_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "oracle", "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["schema_version"] == SCHEMA_VERSION


def test_cli_unwritable_out_is_an_error(tmp_path, capsys):
    # a path under a missing directory is refused with exit 1, not a traceback
    out = tmp_path / "missing" / "r.json"
    assert main(["estimate", "--data", _two_arm_csv(tmp_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == "" and not out.parent.exists()


def test_cli_out_is_checked_before_the_command_runs(tmp_path, monkeypatch, capsys):
    # a missing directory or a directory path is refused before any campaign
    # runs, and a refused run leaves an earlier report as it was
    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._COMMANDS, "verify", never)
    argv = ["verify", "--suite", "all", "--seed", "26", "--out"]
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        assert main([*argv, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""
    monkeypatch.undo()
    earlier = _write(tmp_path / "r.json", "earlier report\n")
    assert main(["verify", "--suite", "clt", "--seed", "1", "--pop", "bogus",
                 "--out", earlier]) == 1
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == "earlier report\n"


@pytest.mark.parametrize("argv, message", [
    (["--suite", "all", "--seed", "26", "--pop", "ranks"], "unknown coverage population 'ranks'"),
    (["--suite", "all", "--seed", "26", "--pop", "additive"],
     "the oracle campaign enumerates its bundled instances and takes no population"),
    (["--suite", "oracle", "--seed", "1", "--pop", "bogus"], "takes no population, got 'bogus'"),
    (["--suite", "oracle", "--seed", "1", "--ns", "5"], "takes no population sizes, got [5]"),
    (["--suite", "clt", "--seed", "1", "--pop", "additive"], "unknown clt population"),
    (["--suite", "oracle", "--seed", "-3"], "a seed must be a non-negative integer, got -3"),
    (["--suite", "all", "--seed", "-1"], "a seed must be a non-negative integer, got -1"),
    (["--suite", "clt", "--seed", "1", "--reps", "200", "--ns", "16,16"],
     "population sizes must be strictly increasing, got [16, 16]"),
    (["--suite", "coverage", "--pop", "additive", "--seed", "1", "--ns", "40,40"],
     "population sizes must be strictly increasing, got [40, 40]"),
    (["--suite", "all", "--seed", "26", "--ns", "64,16"],
     "population sizes must be strictly increasing, got [64, 16]"),
    (["--suite", "all", "--seed", "1", "--reps", "100000", "--alpha", "1e-17"],
     "alpha must exceed 2**-53, got 1e-17"),
])
def test_cli_verify_refuses_a_setting_before_any_campaign_runs(monkeypatch, capsys, argv,
                                                                message):
    # `--suite all --pop ranks` ran oracle, clt and rerand before coverage
    # refused the table, the oracle ignored --pop and --ns and echoed a
    # negative --seed, and `--suite all --seed -1` ran the oracle first
    def never(*args):
        raise AssertionError("a campaign ran")

    for kind in experiments.SUITES:
        monkeypatch.setitem(experiments._RUNNERS, kind, never)
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_suite_all_passes_ns_only_to_the_ladder_suites():
    report = run_suite("all", seed=4, reps=200, ns=(32,))
    runs = {run["name"]: run for run in report.experiment["runs"]}
    assert list(runs) == ["oracle", "clt", "rerand", "coverage_additive",
                          "coverage_heterogeneous"]
    assert "ns" not in runs["oracle"]
    assert all(run["ns"] == [32] for name, run in runs.items() if name != "oracle")


def test_experiment_config_takes_the_defaults_of_its_suite():
    defaults = {
        "oracle": ("ranks", (), 1, 0.02),
        "clt": ("ranks", (16, 64, 256, 1024), 20000, 0.02),
        "rerand": ("ranks", (256,), 20000, 0.02),
        "coverage": ("additive", (200,), 10000, 0.01),
    }
    assert list(experiments.SUITES) == list(defaults)
    for kind, want in defaults.items():
        config = ExperimentConfig(kind=kind, seed=1)
        assert (config.population, config.ns, config.reps, config.tol) == want


def test_cli_verify_failing_suite_returns_two(tmp_path, capsys):
    code = main(
        [
            "verify", "--suite", "clt", "--seed", "3", "--pop", "spike",
            "--ns", "16,64", "--reps", "800",
        ]
    )
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False


def test_cli_verify_reports_are_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "rerand", "--seed", "11", "--reps", "500", "--ns", "32"]
    code_a = main(argv + ["--out", str(out_a)])
    code_b = main(argv + ["--out", str(out_b)])
    assert code_a == code_b
    payload_a, payload_b = json.loads(out_a.read_text()), json.loads(out_b.read_text())
    payload_a.pop("wall_clock_s"), payload_b.pop("wall_clock_s")
    assert payload_a == payload_b


def test_cli_verify_tol_reaches_the_gates(capsys):
    argv = ["verify", "--suite", "coverage", "--seed", "1", "--reps", "200", "--tol", "0.5"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {run["tol"] for run in payload["experiment"]["runs"]} == {0.5}
    gated = [m for m in payload["metrics"] if m["tolerance"] is not None]
    assert gated and {m["tolerance"] for m in gated} == {0.5}


def test_cli_verify_nan_tolerance_is_a_usage_error(capsys):
    argv = ["verify", "--suite", "coverage", "--seed", "1", "--reps", "100", "--tol", "nan"]
    assert main(argv) == 1
    assert "error: tolerance must be positive" in capsys.readouterr().err


def test_cli_negative_seed_is_a_usage_error(tmp_path, capsys):
    data = _two_arm_csv(tmp_path)
    for argv in (
        ["verify", "--suite", "clt", "--seed", "-1", "--reps", "10", "--ns", "16"],
        ["test", "--data", data, "--stat", "diff", "--method", "mc", "--seed", "-3"],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: a seed must be a non-negative integer" in err
        assert "Traceback" not in err


def test_cli_rerand_population_is_a_usage_error(capsys):
    # the rerand campaign draws normal covariates, so a population it would
    # ignore is refused instead of echoed
    for argv in (
        ["verify", "--suite", "rerand", "--seed", "1", "--reps", "200", "--ns", "16",
         "--pop", "lognormal"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: the rerand campaign draws normal covariates" in captured.err
        assert "Traceback" not in captured.err
    with pytest.raises(ValidationError, match="no population"):
        experiments.ExperimentConfig(kind="rerand", seed=1, population="two_point")
    # a wide tolerance, so that the gates of 200 draws at N = 16 pass
    assert main(["verify", "--suite", "rerand", "--seed", "1", "--reps", "200",
                 "--ns", "16", "--tol", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["experiment"]["runs"][0]["population"] == "ranks"


def test_cli_simulate_rejects_cap(capsys):
    for argv in (
        ["verify", "--suite", "oracle", "--seed", "2", "--cap", "10"],
        ["verify", "--suite", "clt", "--seed", "2", "--reps", "300", "--cap", "10"],
    ):
        assert main(argv) == 1
        assert "--cap" in capsys.readouterr().err


def test_cli_simulate_clt(tmp_path, capsys):
    # a gate may fail at 300 replicates; the ladder is reported either way
    code = main(
        ["verify", "--suite", "clt", "--seed", "2", "--reps", "300", "--ns", "16,32"]
    )
    assert code in (0, 2)
    payload = json.loads(capsys.readouterr().out)
    names = [m["name"] for m in payload["metrics"]]
    assert "ks_n16" in names


def _ks_distance_loop(sample, cdf):
    # reference: one scalar cdf call per draw
    x = np.sort(np.asarray(sample, dtype=float))
    b = x.size
    f = np.array([cdf(v) for v in x])
    return float(np.max(np.maximum(f - np.arange(b) / b, np.arange(1, b + 1) / b - f)))


@pytest.mark.parametrize("cdf", [
    distlib.std_normal_cdf,
    lambda v: distlib.chi2_cdf(v, 1),
    lambda v: distlib.chi2_cdf(v, 3),
])
def test_ks_distance_matches_scalar_cdf_loop(cdf):
    sample = np.random.default_rng(7).standard_normal(2000) * 2.0 + 0.5
    assert experiments._ks_distance(sample, cdf) == _ks_distance_loop(sample, cdf)


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert main(["estimate", "--nope"]) == 1
    assert main(["test", "--data", str(tmp_path / "missing.csv"), "--stat", "kw"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert err  # usage text lands on stderr
