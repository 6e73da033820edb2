"""Export tests: every name a module lists in `__all__` exists, so that
`from finpop.<module> import *` cannot fail on a name that was deleted or
renamed without its export."""

import importlib
import pkgutil

import finpop


def test_every_exported_name_resolves():
    walked = pkgutil.walk_packages(finpop.__path__, "finpop.")
    modules = ["finpop"] + sorted(info.name for info in walked)
    assert {"finpop.designs", "finpop.estimators", "finpop.harness.cli"} <= set(modules)
    missing = {}
    for module_name in modules:
        module = importlib.import_module(module_name)
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if stale:
            missing[module_name] = stale
    assert missing == {}
