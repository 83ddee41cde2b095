"""Only the module that owns a type writes into its instances' __dict__.

A cached property keeps its value in the instance ``__dict__``, so a write
there from another module stands in for a table the owning property never
computed.
"""

import ast
from pathlib import Path

import pytest

import hypwidth

MODULES = sorted(Path(hypwidth.__file__).parent.glob("*.py"))

# The one scope allowed to write into a __dict__: the validated line builder.
OWNERS = {"hcore.py": ["hcore.lines_from_normals"]}

MUTATORS = {"update", "setdefault"}


def _is_dict(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def dict_writes(source: str, module: str) -> list[str]:
    """Qualified names of the scopes in source that write into some x.__dict__."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and _is_dict(node.value):
            found.append(scope)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS and _is_dict(node.func.value):
            found.append(scope)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_modules_found():
    assert set(OWNERS) | {"reduced.py"} <= {p.name for p in MODULES}


def test_detects_both_forms():
    src = "def f(P):\n    P.__dict__['k'] = 1\n    P.__dict__.update(k=2)\n"
    assert dict_writes(src, "m") == ["m.f", "m.f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_owners_write_instance_dicts(path):
    assert dict_writes(path.read_text(), path.stem) == OWNERS.get(path.name, [])
