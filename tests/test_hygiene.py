"""Source hygiene: no module of the package imports a name it never uses,
no private module-level function or class goes unused, and every public
function, class or method has a caller in the package or a README mention."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hjoints"
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


def readme_names(text: str) -> set[str]:
    """Identifiers inside the inline backtick spans of a markdown text
    (fenced code blocks excluded)."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return {name for span in re.findall(r"`([^`]+)`", text)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def unused_public_definitions(sources: dict[str, str], readme: str
                              ) -> list[str]:
    """Public module-level functions and classes, and public methods of
    module-level classes, that no module but __init__.py reads outside
    their own body and that the README does not name in backticks."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = [n for module, tree in trees.items() if module != "__init__.py"
             for n in _names_read(tree)]
    named = readme_names(readme)
    out = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
            for qualname, d in defs:
                if (not d.name.startswith("_") and d.name not in named
                        and reads.count(d.name)
                        == _names_read(d).count(d.name)):
                    out.append(f"{module}:{qualname}")
    return out


def test_public_detector_flags_unused_and_accepts_used():
    sources = {"a.py": "def dead(n):\n    return dead(n - 1)\n"
                       "def used():\n    pass\n"
                       "def documented():\n    pass\n"
                       "class Kept:\n"
                       "    def stale(self):\n        pass\n"
                       "    def _private(self):\n        pass\n",
               "b.py": "from .a import used\nx = Kept\n",
               "__init__.py": "from .a import dead, Kept\nKept.stale\n"}
    readme = ("Call `documented(x)`.\n```\nstale()\n```\n")
    assert unused_public_definitions(sources, readme) == [
        "a.py:dead", "a.py:Kept.stale"]


def test_every_public_definition_has_a_caller():
    sources = {p.name: p.read_text() for p in PACKAGE}
    readme = (ROOT / "README.md").read_text()
    assert unused_public_definitions(sources, readme) == []
