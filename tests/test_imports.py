import ast
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "confrel").glob("*.py")
                 if p.name != "__init__.py")
SOURCES = sorted([*(ROOT / "src" / "confrel").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_sources_compile_without_warnings(path):
    # an invalid escape in a string literal warns only when the source is
    # compiled (a SyntaxWarning from Python 3.12 on), which cached bytecode
    # hides; compile() reads the source afresh and writes no bytecode
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


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


def _pass_throughs(tree):
    """Each private function whose body, after its docstring, is only
    `return g(p1, ..., pk)` on its own parameters in order, with its line."""
    for node in ast.walk(tree):
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if (isinstance(call, ast.Call) and not call.keywords
                and not (node.args.vararg or node.args.kwonlyargs
                         or node.args.kwarg)
                and [getattr(a, "id", None) for a in call.args] == params):
            yield node.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_function_only_passes_its_arguments_on(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = list(_pass_throughs(tree))
    assert not found, f"{path.name} has bare pass-through functions: {found}"


def test_pass_through_check_needs_the_same_parameters_in_order():
    tree = ast.parse(
        "def _a(x, y):\n    '''Doc.'''\n    return g(x, y)\n"
        "def _b(x, y):\n    return g(y, x)\n"
        "def _c(x):\n    return g(x, 1)\n"
        "def _d(x, *, k=0):\n    return g(x)\n"
        "def _e(x):\n    x += 1\n    return g(x)\n"
        "def f(x):\n    return g(x)\n"
        "class C:\n    def _m(self, x):\n        return self.g(x)\n"
        "    def _n(self):\n        return g(self)\n")
    assert [name for name, _ in _pass_throughs(tree)] == ["_a", "_n"]
