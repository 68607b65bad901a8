import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "confrel").glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    """Each name a module's imports bind, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Each name the module reads, in code or in a quoted annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        else:
            continue
        for part in ast.walk(note) if note is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _used(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_use_every_name_they_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [(name, line) for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_check_sees_code_and_quoted_annotations():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom typing import Iterator, Optional\n"
                     "def f(x: 'Optional[int]') -> int:\n    return os.sep\n")
    used = _used(tree)
    assert [name for name, _ in _imported(tree) if name not in used] == ["Iterator"]
