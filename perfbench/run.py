"""End-to-end benchmark of the finpop CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package need not be installed).
One client drives the CLI as a closed loop: each call is a child
`python -m finpop.harness.cli ...` with PYTHONPATH=src, started only after
the previous one exits, so at most one child runs at a time. A pass is one
run of the workload's call list; passes repeat until about --seconds have
been measured (at least one; with --trace 1 at least TRACED_MIN_ROUNDS
untraced/traced pairs). Output checks run after each pass, outside its
timing.

Set-up (write the seeded inputs, compute the references, one warm-up call)
is repeated SETUP_REPEATS times and its median reported as setup_s; a traced
run sets up once.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
passes with passes traced through perfbench/traced_cli.py, and reports the
per-layer metrics computed from the spans. Everything is single-threaded
with no queues, so no layer waits on another and no wait time is recorded.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Earlier lines give any failed check, any check that
passed on a known package defect (NOTICE), a readable summary, the pinned child
environment and metrics that only some workloads define (failed_frac,
assignments_per_s, call_p90_s); the full record is also written to
perfbench/.work/<workload>-<seed>/result-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, parse_output

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
CALL_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# call_p90_s is reported only with at least this many timed calls
P90_MIN_CALLS = 100
# per-layer times are medians over at least this many traced passes, and
# trace.overhead_frac a median over as many traced/untraced pairs
TRACED_MIN_ROUNDS = 3


# ---------------------------------------------------------------------------
# child processes

@dataclass
class CallResult:
    seconds: float
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


@dataclass
class PassResult:
    wall: float
    results: list[CallResult] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)


def child_env() -> dict[str, str]:
    """The environment every CLI child runs in: the source tree on
    PYTHONPATH, no FINPOP_ENUM_CAP override, and single-threaded BLAS (at or
    below the core count, and steadier than letting a one-client loop
    oversubscribe a shared machine)."""
    env = {k: v for k, v in os.environ.items() if k != "FINPOP_ENUM_CAP"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict[str, str], out_dir: Path) -> CallResult:
    """Spawn one child, wait for it with wait4 to read its peak RSS, and kill
    it if it outlives CALL_TIMEOUT_S. Timed from spawn to exit."""
    out_path, err_path = out_dir / "call.stdout", out_dir / "call.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            seconds = time.perf_counter() - start
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CallResult(seconds, proc.returncode,
                      out_path.read_text(encoding="utf-8", errors="replace"),
                      err_path.read_text(encoding="utf-8", errors="replace"),
                      usage.ru_maxrss)


# ---------------------------------------------------------------------------
# environment record

def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def describe_environment(env: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "child_env": {"PYTHONPATH": env["PYTHONPATH"], "FINPOP_ENUM_CAP": None,
                      **{var: env[var] for var in BLAS_THREAD_VARS}},
    }


# ---------------------------------------------------------------------------
# passes

class Bench:
    def __init__(self, env: dict[str, str], work_dir: Path):
        self.workload = None
        self.env = env
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def cli_cmd(self, argv: list[str]) -> list[str]:
        return [sys.executable, "-m", "finpop.harness.cli", *argv]

    def traced_cmd(self, argv: list[str], spans: Path) -> list[str]:
        return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *argv]

    def warm_up(self) -> None:
        result = run_child(self.cli_cmd(self.workload.warmup), self.env, self.work_dir)
        self.attempted += 1
        if result.code != 0:
            self.fail("warm-up", f"exit code {result.code}: {result.stderr[-500:]}")

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {reason}")

    def one_pass(self, traced: bool, index: int) -> PassResult:
        done = PassResult(wall=0.0)
        start = time.perf_counter()
        for k, call in enumerate(self.workload.calls):
            if traced:
                spans = self.work_dir / f"spans-{index}-{k}.npz"
                spans.unlink(missing_ok=True)
                cmd = self.traced_cmd(call.argv, spans)
                done.spans.append(spans)
            else:
                cmd = self.cli_cmd(call.argv)
            done.results.append(run_child(cmd, self.env, self.work_dir))
        done.wall = time.perf_counter() - start
        for call, result in zip(self.workload.calls, done.results):
            self.attempted += 1
            problem = call.check(result.code, parse_output(result.stdout))
            if problem:
                self.fail(call.label, problem + (f"; stderr: {result.stderr[-300:]}"
                                                 if result.code else ""))
        return done

    def rounds(self, modes: tuple[bool, ...], budget: float,
               min_rounds: int) -> list[list[PassResult]]:
        """Rounds of one pass per mode (traced or not), until the next round
        would end more than half a round past the budget; at least
        min_rounds."""
        out: list[list[PassResult]] = []
        elapsed = 0.0
        while len(out) < min_rounds or elapsed + 0.5 * elapsed / len(out) <= budget:
            out.append([self.one_pass(traced, len(out)) for traced in modes])
            elapsed += sum(p.wall for p in out[-1])
        return out


# ---------------------------------------------------------------------------
# metrics

def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(setup_times, passes, labels, assignments) -> tuple[dict, dict]:
    calls = [r.seconds for p in passes for r in p.results]
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (_median([p.wall for p in passes]), "s"),
        "call_p50_s": (_median(calls), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for p in passes for r in p.results) / 1024.0, "MB"),
    }
    extra = {"samples": {"setup_s": len(setup_times), "wall_s": len(passes),
                         "call_p50_s": len(calls), "peak_rss_mb": len(calls)},
             "call_s_by_label": {label: _median([p.results[k].seconds for p in passes])
                                 for k, label in enumerate(labels)}}
    if len(calls) >= P90_MIN_CALLS:
        extra["call_p90_s"] = statistics.quantiles(calls, n=10)[-1]
    if assignments:
        extra["assignments_per_s"] = assignments / metrics["wall_s"][0]
    return metrics, extra


def layer_profile(spans_path: Path) -> tuple[dict, dict, dict]:
    """Self time and span count per layer of one traced call, plus its meta."""
    import numpy as np

    with np.load(spans_path) as data:
        layer, parent = data["layer"].astype(np.int64), data["parent"].astype(np.int64)
        dur = data["end"] - data["start"]
        meta = json.loads(str(data["meta"]))
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_time = np.bincount(layer, weights=dur - covered, minlength=len(meta["layers"]))
    calls = np.bincount(layer, minlength=len(meta["layers"]))
    names = meta["layers"]
    return (dict(zip(names, self_time.tolist())), dict(zip(names, calls.tolist())), meta)


# per-layer metric -> the layer whose self time it reports
SELF_TIME_METRICS = {
    "ingest.self_s": "ingest",
    "reports.self_s": "reports",
    "cli.self_s": "cli",
    "estimators.self_s": "estimators",
    "popstats.self_s": "popstats",
    "ivconf.self_s": "ivconf",
    "randtests.engine.self_s": "randtests.engine",
    "randtests.stat.self_s": "randtests.stat",
    "designs.enum.self_s": "designs.enum",
    "designs.draw.self_s": "designs.draw",
    "distlib.self_s": "distlib",
    "experiments.oracle_s": "experiments.oracle",
    "experiments.clt_s": "experiments.clt",
    "experiments.rerand_s": "experiments.rerand",
    "experiments.coverage_s": "experiments.coverage",
}
# per-layer metric -> the layer whose spans it counts
CALL_COUNT_METRICS = {
    "estimators.calls": "estimators",
    "popstats.calls": "popstats",
    "distlib.calls": "distlib",
}


def per_layer_metrics(rounds) -> tuple[dict, dict]:
    traced_passes = [traced for _, traced in rounds]
    per_pass = []
    import_times = []
    for p in traced_passes:
        self_sum: dict[str, float] = {}
        calls_sum: dict[str, int] = {}
        counters: dict[str, int] = {}
        modules = 0
        # a traced child that died without writing spans is already a failed call
        for spans in filter(Path.exists, p.spans):
            self_t, calls, meta = layer_profile(spans)
            for name, value in self_t.items():
                self_sum[name] = self_sum.get(name, 0.0) + value
            for name, value in calls.items():
                calls_sum[name] = calls_sum.get(name, 0) + value
            for name, value in meta["counters"].items():
                counters[name] = counters.get(name, 0) + value
            modules = max(modules, meta["modules"])
            import_times.append(self_t["import"])
        per_pass.append((self_sum, calls_sum, counters, modules))

    metrics: dict[str, tuple[float, str]] = {
        "import.cli_s": (_median(import_times), "s"),
    }
    for metric, layer in SELF_TIME_METRICS.items():
        metrics[metric] = (_median([s.get(layer, 0.0) for s, *_ in per_pass]), "s")
    # counts are identical in every pass; report the first and flag drift
    self_sum, calls_sum, counters, modules = per_pass[0]
    metrics["import.modules"] = (modules, "count")
    metrics["ingest.rows"] = (counters["ingest.rows"], "count")
    for metric, layer in CALL_COUNT_METRICS.items():
        metrics[metric] = (calls_sum.get(layer, 0), "count")
    metrics["randtests.stat.calls"] = (counters["randtests.stat.calls"], "count")
    metrics["randtests.stat_calls_per_assignment"] = (
        counters["engine.stat_calls"] / counters["engine.assignments"]
        if counters["engine.assignments"] else 0.0, "ratio")
    metrics["randtests.rank_transforms_per_call"] = (
        counters["randtests.rank_transforms"] / counters["randtests.stat.calls"]
        if counters["randtests.stat.calls"] else 0.0, "ratio")
    metrics["designs.enum.assignments"] = (counters["designs.enum.assignments"], "count")
    metrics["designs.draw.assignments"] = (counters["designs.draw.assignments"], "count")
    metrics["trace.overhead_frac"] = (
        _median([traced.wall / untraced.wall for untraced, traced in rounds]) - 1.0, "ratio")
    extra = {
        "traced_passes": len(traced_passes),
        "traced_wall_s": [p.wall for p in traced_passes],
        "untraced_wall_s": [untraced.wall for untraced, _ in rounds],
        "counts_repeat": all(pp[2] == counters and pp[3] == modules for pp in per_pass),
        "self_s_by_layer": self_sum,
        "spans_by_layer": calls_sum,
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds through run_child, which kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "finpop" / "harness" / "cli.py").is_file():
        print(f"error: no finpop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work_dir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    environment = describe_environment(env)

    bench = Bench(env, work_dir)
    setup_times = []
    # setup_s is an end-to-end metric, so a traced run sets up only once
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        bench.workload = workload = WORKLOADS[args.workload](work_dir, args.seed)
        bench.warm_up()
        setup_times.append(time.perf_counter() - start)
    if args.trace:
        # untraced and traced passes alternate, so drift in machine speed
        # cancels out of the tracing overhead
        metrics, extra = per_layer_metrics(
            bench.rounds((False, True), args.seconds, TRACED_MIN_ROUNDS))
    else:
        passes = [r[0] for r in bench.rounds((False,), args.seconds, 1)]
        metrics, extra = end_to_end_metrics(
            setup_times, passes, [c.label for c in workload.calls], workload.assignments)

    extra["assignments_per_pass"] = workload.assignments
    extra["failed_frac"] = bench.failed / bench.attempted
    extra["known_defect_notices"] = len(workload.notices)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment,
        "setup_s_samples": setup_times, "extra": extra, "failures": bench.failures,
        "notices": workload.notices,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for failure in bench.failures:
        print(f"FAILED {failure}")
    for notice in workload.notices:
        print(f"NOTICE {notice}")
    print(f"environment {json.dumps(environment, sort_keys=True)}")
    print(f"extra {json.dumps(extra, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
