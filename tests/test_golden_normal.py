"""Golden outputs of the CLI's analysis commands.

`tests/data/golden_test_normal.json` holds the exit code, stdout and stderr
of one CLI command per case on small fixed CSVs. Each case carries its
command, and each CSV may have any columns.

* `finpop test`, for every statistic of `randtests.TEST_STATISTICS`, on
  untied outcomes (a binary file for 'hyper'). The normal and Monte Carlo
  references run at three `--seed`/`--reps` pairs, the exact one once; the
  two-sided statistics also run each one-sided alternative, and the rank
  statistics also run the binary file's midranks. 'hyper' has no Monte
  Carlo reference, so its golden output there is the error.
* `finpop estimate` on two and three arms, with two covariates, and with
  clusters with and without a covariate; `finpop factorial --factors 2`;
  `finpop iv-ci`.

The CSV text sits in the same file, so each case is self-contained. The
test replays every case in process, from the CSVs' directory so that the
covariate log line names a relative path, and compares the three streams
byte for byte.

Regenerate (only when an output is meant to move) with

    PYTHONPATH=src python tests/test_golden_normal.py

which prints the id of every case whose stored output changed.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from finpop.harness import cli
from finpop.harness.cli import main
from finpop.randtests import TEST_METHODS, TEST_STATISTICS

_GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_test_normal.json"

def _cluster_rows(with_x: bool):
    # eight clusters of 2 or 3 units, the odd ones (of 3) in arm 2
    for c in range(1, 9):
        for j in range(2 + c % 2):
            y = round(1.9 * c - 0.3 * j * j + 2.5 * (c % 2 == 0) + 0.17 * ((5 * c + j) % 4), 3)
            x = (round(0.9 * ((7 * c + 3 * j) % 5) - 0.4 * j, 3),) if with_x else ()
            yield (1 + c % 2, y, *x, c)


def _iv_rows():
    for i in range(20):
        z = i % 2
        d = int((3 * i + 5 * z) % 7 < 1 + 5 * z)
        yield z, d, round(1.0 + 2.0 * d + 0.37 * ((5 * i) % 9), 3)


# (name, header, rows); the test statistics' outcomes are distinct except
# the binary one
_CSVS = (
    ("two_arm", "arm,y", [(1 + i % 2, round(3.7 * i - 0.011 * i * i + (i % 3) * 0.29 + 9 * (i % 2 == 0), 3))
                          for i in range(14)]),
    ("three_arm", "arm,y", [(1 + i % 3, round(5.3 * ((7 * i) % 17) + 0.13 * i + 21 * (i % 3 == 2), 3))
                            for i in range(15)]),
    ("binary", "arm,y", [(1 + i % 2, int((3 * i) % 7 < 3 + i % 2)) for i in range(18)]),
    ("covariates", "arm,y,x1,x2",
     [(1 + i % 2,
       round(2.0 + 1.5 * ((5 * i) % 11) - 0.8 * ((3 * i) % 7) + 0.41 * ((7 * i) % 5)
             + 1.2 * (i % 2 == 0), 3),
       round(0.7 * ((5 * i) % 11) - 3.1, 3), round(1.3 * ((3 * i) % 7) - 2.2 + 0.05 * i, 3))
      for i in range(16)]),
    ("clusters", "arm,y,cluster", list(_cluster_rows(False))),
    ("clusters_x", "arm,y,x1,cluster", list(_cluster_rows(True))),
    ("four_arm", "arm,y", [(1 + i % 4, round(4.1 * ((11 * i) % 13) - 0.07 * i * i + 3.3 * (i % 4 == 1), 3))
                           for i in range(16)]),
    ("iv", "z,d,y", list(_iv_rows())),
)
_DATA_OF = {"diff": "two_arm", "wilcoxon": "two_arm", "hyper": "binary",
            "kw": "three_arm", "max": "three_arm", "range": "three_arm",
            "dose": "three_arm", "joint": "two_arm"}
_SEED_REPS = ((1, 999), (7, 2000), (26, 4000))
# the rank statistics, run on the tied binary file with --ties midrank
_MIDRANK_STATS = ("wilcoxon", "kw", "max", "range", "dose", "joint")
# (id, command, data, argv) of the cases of the other analysis commands
_OTHER_CASES = (
    ("estimate-two_arm", "estimate", "two_arm", []),
    ("estimate-three_arm", "estimate", "three_arm", []),
    ("estimate-covariates", "estimate", "covariates", []),
    ("estimate-clusters", "estimate", "clusters", []),
    ("estimate-clusters-covariates", "estimate", "clusters_x", []),
    ("factorial-2", "factorial", "four_arm", ["--factors", "2"]),
    ("iv-ci", "iv-ci", "iv", []),
)


def _cases() -> list[dict]:
    cases = []
    for method in TEST_METHODS:
        tag = "" if method == "normal" else f"-{method}"
        for stat, data in _DATA_OF.items():
            extra = ["--method", method, "--stat", stat]
            extra += ["--doses", "0,1,2"] if stat == "dose" else []
            runs = (("", []),) if method == "exact" else tuple(
                (f"-seed{seed}-reps{reps}", ["--seed", str(seed), "--reps", str(reps)])
                for seed, reps in _SEED_REPS)
            for suffix, argv in runs:
                cases.append({"id": f"{stat}{tag}{suffix}", "command": "test", "data": data,
                              "argv": extra + argv})
            if stat in ("diff", "wilcoxon", "hyper"):
                for alternative in ("greater", "less"):
                    cases.append({"id": f"{stat}{tag}-{alternative}", "command": "test",
                                  "data": data,
                                  "argv": [*extra, "--alternative", alternative,
                                           *(runs[0][1] if method == "mc" else [])]})
    for method in TEST_METHODS:
        for stat in _MIDRANK_STATS:
            extra = ["--doses", "0,1"] if stat == "dose" else []
            cases.append({"id": f"{stat}-midrank-{method}", "command": "test", "data": "binary",
                          "argv": ["--method", method, "--stat", stat, "--ties", "midrank",
                                   *extra, "--seed", "3", "--reps", "999"]})
    cases += [{"id": case_id, "command": command, "data": data, "argv": argv}
              for case_id, command, data, argv in _OTHER_CASES]
    return cases


def _csv_text(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _run(case: dict) -> dict:
    """Run one case on `<data>.csv` in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([case["command"], "--data", f"{case['data']}.csv", *case["argv"]])
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    return json.loads(_GOLDEN.read_text(encoding="utf-8"))


def test_every_statistic_has_golden_cases():
    assert set(_DATA_OF) == set(TEST_STATISTICS)


def test_every_analysis_command_has_golden_cases():
    assert {case["command"] for case in _cases()} == set(cli._COMMANDS) - {"verify"}


def test_golden_file_covers_every_case_and_csv():
    golden = _golden()
    assert list(golden["expected"]) == [case["id"] for case in _cases()]
    assert golden["csv"] == {name: _csv_text(header, rows) for name, header, rows in _CSVS}


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["id"])
def test_normal_reference_outputs_match_the_golden_file(case, tmp_path, monkeypatch):
    golden = _golden()
    (tmp_path / f"{case['data']}.csv").write_text(golden["csv"][case["data"]], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert _run(case) == golden["expected"][case["id"]]


def _regenerate() -> None:
    csvs = {name: _csv_text(header, rows) for name, header, rows in _CSVS}
    with tempfile.TemporaryDirectory() as workdir, contextlib.chdir(workdir):
        for name, text in csvs.items():
            pathlib.Path(f"{name}.csv").write_text(text, encoding="utf-8")
        expected = {case["id"]: _run(case) for case in _cases()}
    stored = _golden()["expected"] if _GOLDEN.exists() else {}
    for case_id, output in expected.items():
        if stored.get(case_id) != output:
            print(case_id)
    _GOLDEN.write_text(json.dumps({"csv": csvs, "expected": expected}, indent=1) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
