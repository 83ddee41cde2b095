"""Only ``hcore.dist_pp`` turns a point pair into a distance.

acosh of a cosh loses about eps/d^2 relative on a small distance d, so a
point-to-point distance taken that way is a second, worse copy of
``dist_pp``.  acosh (or arccosh) is left only for line-to-line distances,
along the common perpendicular of two ultraparallel lines.
"""

import ast
from pathlib import Path

import pytest

import hypwidth

MODULES = sorted(Path(hypwidth.__file__).parent.glob("*.py"))

# The functions allowed to call acosh, by module.
LINE_DISTANCES = {"hcore.py": {"line_relation"}, "width.py": {"width_ultraparallel_oracle"}}


def acosh_calls(tree: ast.AST) -> int:
    """Number of calls to a function named acosh or arccosh, in any spelling."""
    names = {"acosh", "arccosh"}
    return sum(isinstance(node, ast.Call)
               and (isinstance(node.func, ast.Attribute) and node.func.attr in names
                    or isinstance(node.func, ast.Name) and node.func.id in names)
               for node in ast.walk(tree))


def test_modules_found():
    assert set(LINE_DISTANCES) | {"extremal.py", "reduced.py"} <= {p.name for p in MODULES}


def test_detects_every_form():
    source = "import math\nmath.acosh(x)\nnp.arccosh(y)\nacosh(z)\nmath.asinh(w)\n"
    assert acosh_calls(ast.parse(source)) == 3


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_acosh_only_in_line_distances(path):
    tree = ast.parse(path.read_text())
    allowed = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in LINE_DISTANCES.get(path.name, set())]
    assert len(allowed) == len(LINE_DISTANCES.get(path.name, set()))
    assert acosh_calls(tree) == sum(acosh_calls(node) for node in allowed)
