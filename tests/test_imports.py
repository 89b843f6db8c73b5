"""Every imported name is used: a stdlib-only stand-in for a linter's
unused-import check over the package, the tests and the benchmark, whose
files are only read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [path for d in ("src/mpcadapter", "tests", "inferbench")
         for path in sorted((ROOT / d).glob("*.py"))]


def _exported(tree) -> set:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | _exported(tree))


def test_scan_finds_an_unused_import():
    src = "import os\nfrom a import b, c as d\nimport x.y\n__all__ = ['b']\nx.y\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
