"""Guard against module-level imports that the importing module never uses.

No linter ships with the project, so this walks the syntax tree of every
Python file in the package, the tests and the benchmark with the standard
library's ``ast``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/eitprobe", "tests", "bench")
               for p in (ROOT / d).glob("*.py"))


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
