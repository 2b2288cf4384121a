"""The public surface: every name a module lists in `__all__` exists."""
import importlib
import pkgutil

import stochcover


def test_every_exported_name_resolves():
    stale = []
    for info in pkgutil.iter_modules(stochcover.__path__, "stochcover."):
        if info.name == "stochcover.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        stale += [f"{info.name}.{x}" for x in module.__all__ if not hasattr(module, x)]
    assert not stale
