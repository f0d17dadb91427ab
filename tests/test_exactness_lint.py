"""Static exactness check: no floating point anywhere in the library source.

Walks the AST of every module under src/ramify and rejects float (and
complex) literals, calls of ``float``, and the inexact ``math`` functions
(``log*``, ``sqrt``, ``exp``, ``pow``, ``fsum``), whether reached as
``math.name``, through an alias of the module, or imported by name.

It also rejects ``assert`` statements: ``python -O`` strips them, so a check
written as one would silently disappear.  And it keeps each value to one
checked constructor: ``__new__`` is called only by the two unchecked
builders whose callers prove their inputs.
"""

import ast
from pathlib import Path

import pytest

import ramify

SOURCE = Path(ramify.__file__).parent
INEXACT_MATH = {"sqrt", "exp", "pow", "fsum"}


def _inexact(name: str) -> bool:
    return name.startswith("log") or name in INEXACT_MATH


def exactness_violations(source: str, filename: str = "<source>") -> list[str]:
    """One message per float literal, float() call or inexact math use."""
    tree = ast.parse(source, filename)
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []

    def report(node, what):
        found.append(f"{filename}:{node.lineno}: {what}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            report(node, f"float literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            report(node, "float() call")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and _inexact(node.attr)
        ):
            report(node, f"math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name == "*" or _inexact(alias.name):
                    report(node, f"from math import {alias.name}")
    return found


def test_library_source_has_no_floating_point():
    files = sorted(SOURCE.rglob("*.py"))
    assert files
    found = [v for path in files for v in exactness_violations(path.read_text(), path.name)]
    assert found == []


@pytest.mark.parametrize(
    "snippet",
    [
        "import math\nx = math.log(8, 2)\n",
        "import math as m\nx = m.log2(8)\n",
        "import math\nx = math.sqrt(2)\n",
        "from math import exp\n",
        "from math import *\n",
        "x = float(3)\n",
        "x = 0.5\n",
        "x = 1e3\n",
    ],
)
def test_lint_rejects_inexact_code(snippet):
    assert exactness_violations(snippet)


@pytest.mark.parametrize(
    "snippet",
    [
        "import math\nx = math.gcd(4, 6) + math.isqrt(10) + math.factorial(5)\n",
        "x = pow(3, 5, 7)\n",
        "ok = isinstance(1, float)\n",
        "from fractions import Fraction\nx = Fraction(1, 3)\n",
    ],
)
def test_lint_accepts_exact_code(snippet):
    assert exactness_violations(snippet) == []


def test_library_source_has_no_assert():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), path.name))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _new_calls(node, scope=()):
    """``Class.function`` around each ``__new__`` call below ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "__new__":
            yield ".".join(scope)
        yield from _new_calls(child, inner)


def test_only_the_two_proved_builders_skip_the_constructor():
    """``cls.__new__(cls)`` skips ``__init__``'s checks; only the keyed matrix
    builder and the representation restricted in a pullback may do that."""
    found = sorted(
        where
        for path in SOURCE.rglob("*.py")
        for where in _new_calls(ast.parse(path.read_text(), path.name))
    )
    assert found == ["MatrixFF.from_keys", "Representation._proved"]
