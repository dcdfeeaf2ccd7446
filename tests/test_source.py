"""Checks on the package source itself, made with the standard library."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "infdiag").glob("*.py"))


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


def private_definitions(text: str) -> list[str]:
    """The private names `text` defines at module level: functions,
    classes and assignment targets, dunders excluded."""
    names = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def reads(text: str) -> set[str]:
    """The names `text` reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unread_private_names(texts: dict[str, str]) -> list[str]:
    """The private module-level names defined in `texts` (module name to
    source) that no text reads."""
    read = set().union(*map(reads, texts.values()))
    return [f"{module}.{name}" for module, text in texts.items()
            for name in private_definitions(text) if name not in read]


def test_the_check_sees_an_unread_private_name():
    texts = {"a": "_T = {}\n_U: int = 1\n\n\ndef _f():\n    return _T\n\n\nclass _C:\n    pass\n",
             "b": "from . import a\n\n__all__ = [a._C]\n"}
    assert unread_private_names(texts) == ["a._U", "a._f"]


def test_every_private_name_is_read():
    texts = {path.stem: path.read_text() for path in SOURCES}
    assert len([n for t in texts.values() for n in private_definitions(t)]) > 50
    assert unread_private_names(texts) == []


def holders(text: str, names: set[str]) -> list[str]:
    """The module-level statements of `text` that name one of `names`, bare
    or as an attribute: a function or class by its name, any other by its line."""
    return [getattr(node, "name", f"line {node.lineno}") for node in ast.parse(text).body
            if any(getattr(n, "attr", getattr(n, "id", None)) in names
                   for n in ast.walk(node))]


def test_the_check_sees_a_setbufsize_call():
    text = "import numpy as np\n\nnp.setbufsize(64)\n\n\ndef f():\n    return setbufsize\n"
    assert holders(text, {"setbufsize"}) == ["line 3", "f"]


def test_only_small_buffers_sets_the_ufunc_buffer():
    # numpy's ufunc buffer size is process state: the passes set it through
    # `factors.small_buffers` alone, which gives the caller's size back.
    found = {path.name: holders(path.read_text(), {"setbufsize"}) for path in SOURCES}
    assert {name: h for name, h in found.items() if h} == {"factors.py": ["small_buffers"]}


def test_only_no_cyclic_gc_switches_the_collector():
    # The collector is process state too: parse and solve pause it through
    # `factors.no_cyclic_gc` alone, which gives the caller's state back, and
    # nothing tunes or freezes it.
    names = {"disable", "enable", "set_threshold", "freeze", "unfreeze"}
    found = {path.name: holders(path.read_text(), names) for path in SOURCES}
    assert {name: h for name, h in found.items() if h} == {"factors.py": ["no_cyclic_gc"]}


def unread_parameters(text: str) -> list[str]:
    """The parameters that the function or lambda declaring them never
    reads, as "function.parameter (line n)", in source order.  `self`,
    `cls` and names that start with `_` are exempt; a read in a nested
    function counts."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        out += [(p.lineno, p.col_offset, f"{name}.{p.arg} (line {p.lineno})")
                for p in params if p is not None and p.arg not in read
                and p.arg not in ("self", "cls") and not p.arg.startswith("_")]
    return [entry for *_, entry in sorted(out)]


def test_the_check_sees_an_unread_parameter():
    text = ("def f(a, b, /, c, *args, d, _e, **kw):\n    return a + kw['x']\n\n\n"
            "class C:\n    def m(self, x):\n        return lambda y: x\n\n    "
            "@classmethod\n    def g(cls, z):\n        def h():\n            return z\n"
            "        return h\n")
    assert unread_parameters(text) == ["f.b (line 1)", "f.c (line 1)", "f.args (line 1)",
                                       "f.d (line 1)", "lambda.y (line 7)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def undeclared_imports(texts: dict[str, str], dependencies: list[str]) -> list[str]:
    """The top-level modules that `texts` (module name to source) import
    from outside the standard library and the package and that no
    requirement in `dependencies` names, as "module: import", sorted.  A
    requirement's distribution name is taken as its import name, as it is
    for numpy and orjson."""
    declared = {re.match(r"[\w.-]+", dep)[0].lower().replace("-", "_") for dep in dependencies}
    out = set()
    for module, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in (name.split(".")[0] for name in names):
                if top not in sys.stdlib_module_names and top != "infdiag" \
                        and top.lower() not in declared:
                    out.add(f"{module}: {top}")
    return sorted(out)


def test_the_check_sees_an_undeclared_import():
    texts = {"a": "import os\nimport numpy.linalg\nfrom yaml import load\n"
                  "from . import b\nfrom infdiag.c import d\n",
             "b": "def f():\n    import Levenshtein, toml.decoder\n"}
    assert undeclared_imports(texts, ["numpy>=1.24", "levenshtein"]) == ["a: yaml", "b: toml"]


def test_every_import_outside_the_standard_library_is_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    texts = {path.stem: path.read_text() for path in SOURCES}
    assert undeclared_imports(texts, deps) == []
    # The check fails when orjson is left out.
    assert undeclared_imports(texts, [d for d in deps if not d.startswith("orjson")]) \
        == ["diagram: orjson"]


def python_floor() -> tuple[int, int]:
    """The lowest Python version `pyproject.toml` admits, as (major, minor)."""
    spec = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"',
                     (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    return int(spec[1]), int(spec[2])


def newer_syntax(text: str, version: tuple[int, int]) -> str | None:
    """The first syntax error `text` gives when read as the grammar of
    Python `version`, or None when it reads cleanly."""
    try:
        ast.parse(text, feature_version=version)
    except SyntaxError as e:
        return e.msg
    return None


def test_the_check_sees_syntax_newer_than_the_floor():
    text = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert newer_syntax(text, (3, 10)).startswith("Exception groups are only supported")
    assert newer_syntax(text, (3, 11)) is None
    assert python_floor() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_parses_at_the_declared_python_floor(path):
    assert newer_syntax(path.read_text(), python_floor()) is None
