"""Only polygon.polygon_from_rows constructs a ConvexPolygon."""

import ast
from pathlib import Path

import pytest

import hypwidth

MODULES = sorted(Path(hypwidth.__file__).parent.glob("*.py"))


def constructor_calls(path: Path) -> list[str]:
    """Qualified names of the scopes in path that call ConvexPolygon(...)."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call) and "ConvexPolygon" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(scope)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_modules_found():
    assert {"polygon.py", "polyio.py", "reduced.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_polygon_from_rows_constructs(path):
    expected = ["polygon.polygon_from_rows"] if path.name == "polygon.py" else []
    assert constructor_calls(path) == expected
