"""Import layering of the library modules.

ridges sits below squeeze: squeeze imports ridges at module top for the
maxima counts and the bisection, so ridges must not import squeeze back. No
module defers an import into a function body, where a cycle would hide.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "twotone"
MODULES = sorted(SRC.glob("*.py"))


def _imported_modules(tree: ast.AST) -> set[str]:
    """Last dotted component of every imported module and imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            names.add(node.module.rsplit(".", 1)[-1])
    return names


def test_ridges_does_not_import_squeeze():
    tree = ast.parse((SRC / "ridges.py").read_text())
    assert "squeeze" not in _imported_modules(tree)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_level_import(path):
    tree = ast.parse(path.read_text())
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(func):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{path.name}:{node.lineno} imports inside {getattr(func, 'name', 'lambda')}")
