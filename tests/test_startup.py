"""Start-up tests: what importing the CLI loads, checked in fresh interpreters.

Every CLI call pays the import once, so the heavy scipy subpackages stay off
that path: scipy.stats is not used at all, and scipy.integrate and
scipy.optimize load on the first call that needs them.
"""

import os
import subprocess
import sys
from pathlib import Path

import finpop
from finpop import distlib, randtests

_SRC = str(Path(finpop.__file__).resolve().parents[1])
_LAZY = ("scipy.stats", "scipy.integrate", "scipy.optimize")


def _fresh_python(code: str) -> str:
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    loaded = _fresh_python(
        "import sys\n"
        "import finpop.harness.cli\n"
        f"print(sorted(m for m in sys.modules if m.startswith({_LAZY!r})))"
    )
    assert loaded == "[]"


def test_lazily_imported_solvers_match_in_process_values():
    labels = [1, 2, 1, 2, 1, 2, 2, 1]
    y = [0.3, 1.1, 2.4, 0.2, 1.7, 0.9, 0.4, 3.0]
    out = _fresh_python(
        "import sys\n"
        "from finpop import distlib, randtests\n"
        f"assert not any(m.startswith({_LAZY!r}) for m in sys.modules)\n"
        "print(repr(distlib.solve_gamma_c(0.3, 0.05)))\n"
        f"print(repr(randtests.joint_test({labels!r}, {y!r}).p_value))"
    )
    assert out.splitlines() == [
        repr(distlib.solve_gamma_c(0.3, 0.05)),
        repr(randtests.joint_test(labels, y).p_value),
    ]
