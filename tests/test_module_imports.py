"""Modules of the package use only each other's public names."""

import ast
from pathlib import Path

import pytest

import hypwidth

MODULES = sorted(Path(hypwidth.__file__).parent.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that path imports from another hypwidth module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("hypwidth"):
            continue
        found += [f"{node.module}.{a.name}" for a in node.names
                  if a.name.startswith("_") and not a.name.startswith("__")]
    return found


def test_modules_found():
    assert {"hcore.py", "polygon.py", "width.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []
