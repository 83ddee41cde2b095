"""Only ``hcore.scale_rows`` splits floats into mantissa and exponent.

The exact power-of-two rescaling that keeps a kernel's products finite has
one rule, ``hcore.scale_rows``; a ``frexp`` call anywhere else, in hcore or
in another module, would be a second copy of it.
"""

import ast
from pathlib import Path

import pytest

import hypwidth

MODULES = sorted(Path(hypwidth.__file__).parent.glob("*.py"))

OWNERS = {"hcore.py"}


def frexp_calls(source: str) -> int:
    """Number of calls to a function named frexp, as np.frexp(...) or frexp(...)."""
    return sum(isinstance(node, ast.Call)
               and (isinstance(node.func, ast.Attribute) and node.func.attr == "frexp"
                    or isinstance(node.func, ast.Name) and node.func.id == "frexp")
               for node in ast.walk(ast.parse(source)))


def test_modules_found():
    assert OWNERS | {"polygon.py", "reduced.py"} <= {p.name for p in MODULES}


def test_detects_both_forms():
    assert frexp_calls("import numpy as np\nnp.frexp(x)\nfrexp(y)\nmath.ldexp(z, 1)\n") == 2


def test_owner_calls_frexp():
    tree = ast.parse((Path(hypwidth.__file__).parent / "hcore.py").read_text())
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "scale_rows")
    assert frexp_calls(ast.unparse(tree)) == frexp_calls(ast.unparse(rule)) == 1


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in OWNERS],
                         ids=lambda p: p.name)
def test_no_frexp_outside_hcore(path):
    assert frexp_calls(path.read_text()) == 0
