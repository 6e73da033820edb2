"""Export tests: every name a module lists in `__all__` exists, so that
`from finpop.<module> import *` cannot fail on a name that was deleted or
renamed without its export; and every name a package re-exports from one of
its modules is in that module's `__all__` too, so the two lists cannot drift
apart."""

import ast
import importlib
import inspect
import pkgutil

import finpop


def _modules():
    walked = pkgutil.walk_packages(finpop.__path__, "finpop.")
    return [finpop] + [importlib.import_module(info.name)
                       for info in sorted(walked, key=lambda info: info.name)]


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
