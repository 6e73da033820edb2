"""Golden outputs of `finpop test` under every `--method`.

`tests/data/golden_test_normal.json` holds, for every statistic of
`randtests.TEST_STATISTICS`, the exit code, stdout and stderr of the CLI on
small fixed CSVs (untied outcomes, and a binary one for 'hyper'). The
normal and Monte Carlo references run at three `--seed`/`--reps` pairs, the
exact one once; the two-sided statistics also run each one-sided
alternative, and the rank statistics also run the binary file's midranks.
'hyper' has no Monte Carlo reference, so its golden output there is the
error. The CSV text sits in the same file, so each case is
self-contained. The test replays every case in process and compares the
three streams byte for byte.

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

from finpop.harness.cli import main
from finpop.randtests import TEST_METHODS, TEST_STATISTICS

_GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_test_normal.json"

# (name, header, rows): every outcome distinct except the binary one
_CSVS = (
    ("two_arm", "arm,y", [(1 + i % 2, round(3.7 * i - 0.011 * i * i + (i % 3) * 0.29 + 9 * (i % 2 == 0), 3))
                          for i in range(14)]),
    ("three_arm", "arm,y", [(1 + i % 3, round(5.3 * ((7 * i) % 17) + 0.13 * i + 21 * (i % 3 == 2), 3))
                            for i in range(15)]),
    ("binary", "arm,y", [(1 + i % 2, int((3 * i) % 7 < 3 + i % 2)) for i in range(18)]),
)
_DATA_OF = {"diff": "two_arm", "wilcoxon": "two_arm", "hyper": "binary",
            "kw": "three_arm", "max": "three_arm", "range": "three_arm",
            "dose": "three_arm", "joint": "two_arm"}
_SEED_REPS = ((1, 999), (7, 2000), (26, 4000))
# the rank statistics, run on the tied binary file with --ties midrank
_MIDRANK_STATS = ("wilcoxon", "kw", "max", "range", "dose", "joint")


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
                cases.append({"id": f"{stat}{tag}{suffix}", "data": data, "argv": extra + argv})
            if stat in ("diff", "wilcoxon", "hyper"):
                for alternative in ("greater", "less"):
                    cases.append({"id": f"{stat}{tag}-{alternative}", "data": data,
                                  "argv": [*extra, "--alternative", alternative,
                                           *(runs[0][1] if method == "mc" else [])]})
    for method in TEST_METHODS:
        for stat in _MIDRANK_STATS:
            extra = ["--doses", "0,1"] if stat == "dose" else []
            cases.append({"id": f"{stat}-midrank-{method}", "data": "binary",
                          "argv": ["--method", method, "--stat", stat, "--ties", "midrank",
                                   *extra, "--seed", "3", "--reps", "999"]})
    return cases


def _csv_text(header: str, rows) -> str:
    return "\n".join([header, *(f"{arm},{y!r}" for arm, y in rows)]) + "\n"


def _run(case: dict, csv_path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["test", "--data", str(csv_path), *case["argv"]])
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    return json.loads(_GOLDEN.read_text(encoding="utf-8"))


def test_every_statistic_has_golden_cases():
    assert set(_DATA_OF) == set(TEST_STATISTICS)


def test_golden_file_covers_every_case_and_csv():
    golden = _golden()
    assert list(golden["expected"]) == [case["id"] for case in _cases()]
    assert golden["csv"] == {name: _csv_text(header, rows) for name, header, rows in _CSVS}


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["id"])
def test_normal_reference_outputs_match_the_golden_file(case, tmp_path):
    golden = _golden()
    path = tmp_path / f"{case['data']}.csv"
    path.write_text(golden["csv"][case["data"]], encoding="utf-8")
    assert _run(case, path) == golden["expected"][case["id"]]


def _regenerate() -> None:
    csvs = {name: _csv_text(header, rows) for name, header, rows in _CSVS}
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in csvs.items():
            (pathlib.Path(workdir) / f"{name}.csv").write_text(text, encoding="utf-8")
        expected = {case["id"]: _run(case, pathlib.Path(workdir) / f"{case['data']}.csv")
                    for case in _cases()}
    stored = _golden()["expected"] if _GOLDEN.exists() else {}
    for case_id, output in expected.items():
        if stored.get(case_id) != output:
            print(case_id)
    _GOLDEN.write_text(json.dumps({"csv": csvs, "expected": expected}, indent=1) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
