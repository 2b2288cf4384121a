"""The public surface: every name a module lists in `__all__` exists, and
the program itself uses it."""
import ast
import importlib
import pkgutil
from pathlib import Path

import stochcover

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src/stochcover", "scripts", "perfbench")

# Exported with no program caller, and why that is fine.
UNUSED_EXPORTS = {
    "stochcover.partition.outcome_from_text": (
        "reads back the artifacts that `stochcover partition` writes"
    ),
}


def _public_modules():
    for info in pkgutil.iter_modules(stochcover.__path__, "stochcover."):
        if info.name == "stochcover.__main__":  # importing it runs the CLI
            continue
        yield importlib.import_module(info.name)


def _used_names() -> set[str]:
    """Names read anywhere in the program, as a bare name or an attribute.

    A definition, an assignment, an `__all__` string and an import
    statement (so also the `__init__` re-exports) are not reads.
    """
    used: set[str] = set()
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    used.add(node.attr)
    return used


def test_every_exported_name_resolves():
    stale = []
    for module in _public_modules():
        stale += [f"{module.__name__}.{x}" for x in module.__all__ if not hasattr(module, x)]
    assert not stale


def test_every_exported_name_has_a_program_caller():
    used = _used_names()
    unused = {
        f"{module.__name__}.{x}"
        for module in _public_modules()
        for x in module.__all__
        if x not in used
    }
    assert unused == set(UNUSED_EXPORTS)


def test_only_graphs_reads_the_adjacency():
    # neighbour lists come from `Graph.neighbours` and incident edges from
    # `Graph.incidence`, so their formats stay behind `Graph`; the
    # (neighbour, edge) lists called `adjacency` live in tests/oracles.py
    readers = set()
    for path in sorted((ROOT / "src/stochcover").glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "adjacency":
                readers.add(path.name)
    assert not readers
