"""Guard against module-level imports that the importing module never uses,
against private package names that nothing in the package uses, against
private test and bench names that nothing in their own file uses, and against
``assert`` in the package, whose invariants raise the typed errors in
``errors.py`` (an ``assert`` vanishes under ``python -O``).

No linter ships with the project, so this walks the syntax tree of every
Python file in the package, the tests and the benchmark with the standard
library's ``ast``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/eitprobe", "tests", "bench")
               for p in (ROOT / d).glob("*.py"))
PACKAGE = sorted((ROOT / "src/eitprobe").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_the_guard_sees_every_tree():
    dirs = {p.parent.name for p in FILES}
    assert {"eitprobe", "tests", "bench"} <= dirs


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})"
              for name, line in _imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} never uses: {unused}"


def _private_definitions(tree: ast.Module):
    """Each module-level ``_``-prefixed function, class or constant, with
    the statement that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST) -> Counter:
    """Names read, attributes taken and names imported within ``node``."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name] += 1
    return refs


def _unused_private_names(paths) -> list[str]:
    """Module-level private names of ``paths`` that nothing in ``paths``
    reads beyond their own definitions."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    everywhere = sum((_references(t) for t in trees.values()), Counter())
    return [f"{path.relative_to(ROOT)}: {name} (line {node.lineno})"
            for path, tree in trees.items()
            for name, node in _private_definitions(tree)
            if everywhere[name] == _references(node)[name]]


def test_every_private_package_name_is_used_in_the_package():
    unused = _unused_private_names(PACKAGE)
    assert not unused, f"only their definitions use: {unused}"


def test_every_private_test_and_bench_name_is_used_in_its_file():
    # a test or bench helper is private to its file, so its file must read it
    unused = [name for path in FILES if path not in PACKAGE
              for name in _unused_private_names([path])]
    assert not unused, f"only their definitions use: {unused}"


def test_package_checks_raise_typed_errors_not_assert():
    found = [f"{p.relative_to(ROOT)}:{n.lineno}" for p in PACKAGE
             for n in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(n, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
