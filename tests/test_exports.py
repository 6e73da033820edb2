"""Export tests: every module declares `__all__`, and every name it lists
exists, so that `from finpop.<module> import *` cannot fail on a name that
was deleted or renamed without its export; every name a package re-exports
from one of its modules is in that module's `__all__` too, so the two lists
cannot drift apart; and every callable any module exports is used by the
package itself, so that public code no CLI command or campaign reaches is
surfaced or removed."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import finpop
import finpop.harness

# Exported callables that no module of the package uses, each with the reason
# it stays; an entry goes when its name is reached or no longer exported.
_UNREACHED = {
    "cre_condition_stats": "the paper's finite-N condition for contrast estimates, "
                           "due in the diagnostics of `estimate` (ROADMAP item 7)",
    "solve_gamma_c": "the joint statistic's level-alpha critical value, checked by "
                     "acceptance criterion 12 and due as the critical value of the "
                     "joint size suite (ROADMAP item 4)",
}


def _modules():
    walked = pkgutil.walk_packages(finpop.__path__, "finpop.")
    return [finpop] + [importlib.import_module(info.name)
                       for info in sorted(walked, key=lambda info: info.name)]


def test_every_module_declares_its_exports():
    assert [module.__name__ for module in _modules() if not hasattr(module, "__all__")] == []


def test_every_exported_name_resolves():
    modules = _modules()
    names = {module.__name__ for module in modules}
    assert {"finpop.designs", "finpop.estimators", "finpop.harness.cli"} <= names
    missing = {}
    for module in modules:
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if stale:
            missing[module.__name__] = stale
    assert missing == {}


def test_package_exports_are_listed_by_their_modules():
    packages = [module for module in _modules() if hasattr(module, "__path__")]
    assert {"finpop", "finpop.harness"} <= {package.__name__ for package in packages}
    unlisted = {}
    for package in packages:
        exported = set(getattr(package, "__all__", ()))
        for node in ast.parse(inspect.getsource(package)).body:
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            module = importlib.import_module(f"{package.__name__}.{node.module}")
            if not hasattr(module, "__all__"):
                continue
            imported = {alias.name for alias in node.names}
            names = sorted((imported & exported) - set(module.__all__))
            if names:
                unlisted[module.__name__] = names
    assert unlisted == {}


def _names_used_by_the_package() -> set:
    """Every Name and Attribute referenced in the package's modules, the
    `__init__` files (which only re-export) aside."""
    used = set()
    for path in pathlib.Path(finpop.__file__).parent.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_callable_is_used_by_the_package():
    exported = {name for module in _modules() for name in module.__all__
                if callable(getattr(module, name))}
    unreached = exported - _names_used_by_the_package()
    assert sorted(unreached - set(_UNREACHED)) == []
    # a stale entry would let its name go unreached again unnoticed
    assert sorted(set(_UNREACHED) - unreached) == []
