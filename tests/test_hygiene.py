"""Source hygiene: no module of the package imports a name it never uses,
and no private module-level function or class goes unused."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hjoints"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Module-level import names that no Name node of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_detector_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nfrom json import dumps, loads\n"
              "def f(x: os.PathLike) -> None:\n    return dumps(x)\n")
    assert unused_imports(source) == ["osp (line 3)", "loads (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _names_read(tree) -> list[str]:
    """Every name a tree reads: Name ids, attribute names, imported names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.extend(alias.name for alias in node.names)
    return out


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level `_name` functions and classes that nothing outside their
    own body reads, anywhere in the given modules."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = [n for tree in trees.values() for n in _names_read(tree)]
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and reads.count(node.name)
                    == _names_read(node).count(node.name)):
                out.append(f"{module}:{node.name}")
    return out


def test_private_detector_flags_unused_and_accepts_used():
    sources = {"a.py": "def _dead(n):\n    return _dead(n - 1)\n"
                       "def _used():\n    pass\n"
                       "class _Kept:\n    pass\n",
               "b.py": "from .a import _used\nimport a\nx = a._Kept\n"}
    assert unused_private_definitions(sources) == ["a.py:_dead"]


def test_no_unused_private_definitions():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unused_private_definitions(sources) == []
