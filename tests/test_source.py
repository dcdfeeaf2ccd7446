"""Checks on the package source itself, made with the standard library."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "infdiag").glob("*.py"))


def unused_imports(text: str) -> list[str]:
    """The names an import statement of `text` binds and nothing reads, in
    source order.  An import with `# noqa: F401` on one of its lines is
    exempt, and so is `from __future__`."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"{name} (line {line})" for line, name in unused]


def test_the_check_sees_an_unused_import():
    text = "from operator import contains, or_\nimport os\n\nx = or_(1, 2)\n"
    assert unused_imports(text) == ["contains (line 1)", "os (line 2)"]
    assert unused_imports("from a import (  # noqa: F401\n    b,\n)\n") == []
    assert unused_imports("import os.path\n\nos.sep\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
