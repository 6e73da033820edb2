"""Golden outputs of `finpop test --method normal`.

`tests/data/golden_test_normal.json` holds, for every statistic of
`randtests.TEST_STATISTICS`, the exit code, stdout and stderr of the CLI on
small fixed CSVs (untied outcomes, and a binary one for 'hyper') at three
`--seed`/`--reps` pairs. The CSV text sits in the same file, so each case is
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
            "dose": "three_arm"}
_SEED_REPS = ((1, 999), (7, 2000), (26, 4000))


def _cases() -> list[dict]:
    cases = []
    for stat, data in _DATA_OF.items():
        extra = ["--doses", "0,1,2"] if stat == "dose" else []
        for seed, reps in _SEED_REPS:
            cases.append({"id": f"{stat}-seed{seed}-reps{reps}", "data": data,
                          "argv": ["--stat", stat, *extra, "--seed", str(seed),
                                   "--reps", str(reps)]})
        if stat in ("diff", "wilcoxon", "hyper"):
            for alternative in ("greater", "less"):
                cases.append({"id": f"{stat}-{alternative}", "data": data,
                              "argv": ["--stat", stat, "--alternative", alternative]})
    return cases


def _csv_text(header: str, rows) -> str:
    return "\n".join([header, *(f"{arm},{y!r}" for arm, y in rows)]) + "\n"


def _run(case: dict, csv_path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["test", "--data", str(csv_path), "--method", "normal", *case["argv"]])
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    return json.loads(_GOLDEN.read_text(encoding="utf-8"))


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
