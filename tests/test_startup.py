"""Start-up tests: what importing the CLI loads, checked in fresh interpreters.

Every CLI call pays the import once, so the package needs nothing beyond
numpy at run time: the normal and chi-square functions come from the standard
library, midranks from numpy, and the orthant probability of the joint
statistic's normal reference and its critical value from Owen's T function on
a fixed Gauss-Legendre rule. Nothing is imported lazily, and the package and
every reference of `finpop test --stat joint` run with scipy blocked.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import finpop
from finpop import distlib, randtests

_SRC = str(Path(finpop.__file__).resolve().parents[1])


def _fresh_python(code: str) -> str:
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # no scipy module at all, not only the heavy subpackages
    loaded = _fresh_python(
        "import sys\n"
        "import finpop.harness.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert loaded == "[]"


def test_lazily_imported_solvers_match_in_process_values():
    labels = [1, 2, 1, 2, 1, 2, 2, 1]
    y = [0.3, 1.1, 2.4, 0.2, 1.7, 0.9, 0.4, 3.0]
    out = _fresh_python(
        "import sys\n"
        "from finpop import distlib, randtests\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
        "print(repr(distlib.solve_gamma_c(0.3, 0.05)))\n"
        f"print(repr(randtests.randomization_test('joint', {labels!r}, {y!r}).p_value))"
    )
    assert out.splitlines() == [
        repr(distlib.solve_gamma_c(0.3, 0.05)),
        repr(randtests.randomization_test("joint", labels, y).p_value),
    ]


def test_cli_calls_without_the_joint_test_load_no_scipy(tmp_path):
    three_arm = tmp_path / "three.csv"
    three_arm.write_text("arm,y\n" + "".join(
        f"{arm},{0.7 * i + arm}\n" for i, arm in enumerate((1, 2, 3) * 4)
    ))
    two_arm = tmp_path / "two.csv"
    two_arm.write_text("arm,y\n" + "".join(
        f"{arm},{0.3 * i - arm}\n" for i, arm in enumerate((1, 2) * 4)
    ))
    iv = tmp_path / "iv.csv"
    iv.write_text("z,d,y\n" + "".join(
        f"{z},{d},{1.5 * d + 0.1 * i}\n"
        for i, (z, d) in enumerate(((1, 1), (1, 1), (1, 0), (0, 0), (0, 1), (0, 0)) * 2)
    ))
    calls = [
        ["estimate", "--data", str(three_arm)],
        ["test", "--data", str(three_arm), "--stat", "kw", "--method", "normal"],
        ["test", "--data", str(two_arm), "--stat", "diff", "--method", "exact"],
        ["iv-ci", "--data", str(iv)],
    ]
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "from finpop.harness import cli\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert out == "[]"


def test_ingesting_cli_calls_leave_numpy_ma_unloaded(tmp_path):
    # numpy's plain `unique` imports numpy.ma, 8-13 ms on every call that
    # checked its arm labels that way
    three_arm = tmp_path / "three.csv"
    three_arm.write_text("arm,y\n" + "".join(
        f"{arm},{0.7 * i + arm}\n" for i, arm in enumerate((1, 2, 3) * 4)
    ))
    two_arm = tmp_path / "two.csv"
    two_arm.write_text("arm,y\n" + "".join(
        f"{arm},{0.3 * i - arm}\n" for i, arm in enumerate((1, 2) * 5)
    ))
    calls = [
        ["estimate", "--data", str(three_arm)],
        ["estimate", "--data", str(two_arm)],
        ["test", "--data", str(three_arm), "--stat", "kw", "--method", "normal"],
        ["test", "--data", str(two_arm), "--stat", "diff", "--method", "normal"],
        ["test", "--data", str(three_arm), "--stat", "kw", "--method", "exact"],
        ["test", "--data", str(two_arm), "--stat", "diff", "--method", "exact"],
    ]
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "from finpop.harness import cli\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print('numpy.ma' in sys.modules)"
    )
    assert out.splitlines() == ["False"] * len(calls)


def test_library_and_cli_run_with_scipy_blocked(tmp_path):
    two_arm = tmp_path / "two.csv"
    two_arm.write_text("arm,y\n" + "".join(
        f"{arm},{0.3 * i - arm}\n" for i, arm in enumerate((1, 2) * 5)
    ))
    four_arm = tmp_path / "four.csv"
    four_arm.write_text("arm,y\n" + "".join(
        f"{arm},{0.5 * i + arm}\n" for i, arm in enumerate((1, 2, 3, 4) * 2)
    ))
    iv = tmp_path / "iv.csv"
    iv.write_text("z,d,y\n" + "".join(
        f"{z},{d},{1.5 * d + 0.1 * i}\n"
        for i, (z, d) in enumerate(((1, 1), (1, 1), (1, 0), (0, 0), (0, 1), (0, 0)) * 2)
    ))
    calls = [
        ["estimate", "--data", str(two_arm)],
        *(["test", "--data", str(two_arm), "--stat", stat, "--method", method,
           "--reps", "200", "--seed", "1"]
          for stat in ("diff", "joint") for method in ("normal", "exact", "mc")),
        ["iv-ci", "--data", str(iv)],
        ["factorial", "--data", str(four_arm), "--factors", "2"],
        ["verify", "--suite", "oracle", "--seed", "7", "--out", str(tmp_path / "oracle.json")],
    ]
    labels = [1, 2, 1, 2, 1, 2, 2, 1]
    y = [0.3, 1.1, 2.4, 0.2, 1.7, 0.9, 0.4, 3.0]
    pair = [[v, (v - 1.0) ** 2] for v in y]
    # two outcome columns reach the joint normal reference only through the library
    joint = randtests.sum_statistic("joint", pair)
    # a None entry in sys.modules makes every import of scipy raise ImportError
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from finpop import distlib, randtests\n"
        "from finpop.harness import cli\n"
        "print(repr(distlib.solve_gamma_c(-0.4, 0.01)))\n"
        f"print(repr(randtests.randomization_test('joint', {labels!r}, {y!r}).p_value))\n"
        f"pair = randtests.sum_statistic('joint', {pair!r})\n"
        f"print(repr(pair._normal_tail(pair({labels!r}), np.array([4.0, 4.0]), 'greater', 1, None).p_value))\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m, module in sys.modules.items()\n"
        "             if module and m.startswith(('scipy', 'numpy.polynomial'))))"
    )
    assert out.splitlines() == [
        repr(distlib.solve_gamma_c(-0.4, 0.01)),
        repr(randtests.randomization_test("joint", labels, y).p_value),
        repr(joint._normal_tail(joint(labels), np.array([4.0, 4.0]), "greater", 1, None).p_value),
        "[]",
    ]
