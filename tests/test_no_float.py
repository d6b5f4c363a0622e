"""The library computes exactly: no float literal and no call to float(),
math.sqrt, math.floor or math.ceil anywhere in src/echtk, the figure of
toric.svg included: its user units are integers."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "echtk"
BANNED_MATH = {"sqrt", "floor", "ceil"}


def float_uses(source: str, filename: str) -> list[str]:
    """One 'file:line: what' entry per float literal or banned call."""
    tree = ast.parse(source, filename)
    math_modules = {"math"}
    banned_names = {"float"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_modules.update(a.asname or a.name for a in node.names if a.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            banned_names.update(a.asname or a.name for a in node.names if a.name in BANNED_MATH)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{filename}:{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in banned_names:
                found.append(f"{filename}:{node.lineno}: call {fn.id}()")
            elif (
                isinstance(fn, ast.Attribute)
                and fn.attr in BANNED_MATH
                and isinstance(fn.value, ast.Name)
                and fn.value.id in math_modules
            ):
                found.append(f"{filename}:{node.lineno}: call {fn.value.id}.{fn.attr}()")
    return found


def test_library_has_no_floating_point():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f for path in files for f in float_uses(path.read_text(), path.name)]
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5\n",
        "x = float(3)\n",
        "import math\nx = math.sqrt(2)\n",
        "import math as m\nx = m.floor(7 / 2)\n",
        "from math import ceil\nx = ceil(7 / 2)\n",
        "def svg_helper():\n    return 1e3\n",
    ],
)
def test_guard_flags_floats(source):
    assert len(float_uses(source, "indices.py")) == 1
