"""Tests of the benchmark itself, on the real workloads with --seconds 1
(one pass, or the minimum of three traced rounds; about ten minutes in all).

    python3 -m pytest perfbench/test_bench.py -q

The package's own suite (testpaths = tests) does not collect this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from workloads import check_clt_ladder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5
# counts that must repeat exactly between two traced runs of the same seed
REPEATED_COUNTS = ("designs.enum.assignments", "designs.draw.assignments",
                   "randtests.stat.calls", "ingest.rows", "import.modules")


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def spec_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_reported_with_its_unit(workload):
    result = result_of(run_bench(workload, 0))
    assert units(result) == spec_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_metric_and_repeat_counts(workload):
    first, second = (result_of(run_bench(workload, 1)) for _ in range(2))
    assert units(first) == units(second) == spec_units("per_layer")
    for name in REPEATED_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    record = json.loads((BENCH / ".work" / f"{workload}-{SEED}" / "result-trace1.json")
                        .read_text(encoding="utf-8"))
    assert record["extra"]["counts_repeat"]
    # the assignment count quoted for assignments_per_s is what the engines did
    traced = sum(second["metrics"][f"designs.{kind}.assignments"]["value"]
                 for kind in ("enum", "draw"))
    assert traced == record["extra"]["assignments_per_pass"]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        ".work", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# KS ladders at --reps 100000 for N = 16, 64, 256, 1024
@pytest.mark.parametrize("ladder, problem, notice", [
    ([0.0257, 0.0067, 0.0031, 0.0025], False, False),   # strictly decreasing
    ([0.0257, 0.0067, 0.0031, 0.0041], False, True),    # verify seed 1201404162
    ([0.0257, 0.0040, 0.0060, 0.0030], True, False),    # rise at N=64 is resolvable
    ([0.0257, 0.0067, 0.0031, 0.0120], True, False),    # N=1024 outside its band
])
def test_clt_ladder_check_accepts_only_unresolvable_rises(ladder, problem, notice):
    found, note = check_clt_ladder(ladder, 100_000)
    assert (found is not None, note is not None) == (problem, notice)
