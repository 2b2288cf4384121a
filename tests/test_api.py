"""The public surface: every name a module lists in `__all__` exists, and
the program itself uses it, as it uses every function, method and class
the package defines."""
import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import stochcover

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src/stochcover", "scripts", "perfbench")


def _public_modules():
    for info in pkgutil.iter_modules(stochcover.__path__, "stochcover."):
        if info.name == "stochcover.__main__":  # importing it runs the CLI
            continue
        yield importlib.import_module(info.name)


def _reads(tree: ast.AST) -> Counter:
    """Names read in `tree`, as a bare name or an attribute, with their counts.

    A definition, an assignment, an `__all__` string and an import
    statement (so also the `__init__` re-exports) are not reads.
    """
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            reads[node.attr] += 1
    return reads


def _program_trees():
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).glob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _program_reads() -> Counter:
    """Names read anywhere in the program, with their counts."""
    return sum((_reads(tree) for _path, tree in _program_trees()), Counter())


def test_every_exported_name_resolves():
    stale = []
    for module in _public_modules():
        stale += [f"{module.__name__}.{x}" for x in module.__all__ if not hasattr(module, x)]
    assert not stale


def test_every_exported_name_has_a_program_caller():
    used = _program_reads()
    unused = {
        f"{module.__name__}.{x}"
        for module in _public_modules()
        for x in module.__all__
        if x not in used
    }
    assert not unused


def test_every_definition_is_read_by_the_program():
    """Every function, method and class in the package is read by name
    somewhere in the program, outside its own definition.

    Code that only tests run has no place in the package.  The scan
    compares bare names, not the objects they resolve to, so a definition
    whose name the program reads for something else passes unseen: a
    method `match` counts as read wherever a regular expression's
    `re.match` is called.  Dunder methods run implicitly and are skipped.
    """
    total = _program_reads()
    unread = []
    for path, tree in _program_trees():
        if path.parent.name != "stochcover":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # reads inside its own body are recursion, not callers
            if total[name] == _reads(node)[name]:
                unread.append(f"{path.name}:{name}")
    assert not unread


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
