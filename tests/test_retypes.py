"""No library call rebuilds a subspace from another subspace's ``matrix``.

``matrix`` is a ``Fraction`` view of a subspace's integer echelon form, so
``Subalgebra(g, sub.matrix)`` would send canonical rows through ``Fraction``
and a fresh elimination; ``Subalgebra(g, sub)`` retypes with neither.
Standard library only: each module under ``src/cartankit`` is parsed with
``ast``, and the rows argument of every ``Subspace``, ``Subalgebra`` and
``Ideal`` call is checked, through ``+`` and ``list``/``tuple`` wrappers.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cartankit"
MODULES = sorted(PACKAGE.glob("*.py"))
CLASSES = {"Subspace", "Subalgebra", "Ideal"}


def _reads_matrix(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "matrix"
    if isinstance(node, ast.BinOp):
        return _reads_matrix(node.left) or _reads_matrix(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple"):
        return any(_reads_matrix(a) for a in node.args)
    return False


def matrix_retypes(source: str) -> list[int]:
    """Lines of calls that pass ``<expr>.matrix`` as the rows of a subspace."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name not in CLASSES:
            continue
        rows = node.args[1:2] + [k.value for k in node.keywords if k.arg == "rows"]
        if any(_reads_matrix(r) for r in rows):
            lines.append(node.lineno)
    return lines


def test_matrix_retypes_are_found():
    source = (
        "Subalgebra(g, sub.matrix)\n"
        "algebra.Ideal(g, rows=x.y.matrix)\n"
        "Subspace(g, a.matrix + list(b.matrix))\n"
        "Subspace(g, [r for r in sub.matrix])\n"
        "Subalgebra(g, sub)\n"
        "Subspace._from_ints(g, sub._rows_ints())\n"
        "other(g, sub.matrix)\n"
    )
    assert matrix_retypes(source) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_retypes_subspaces_directly(path):
    assert matrix_retypes(path.read_text(encoding="utf-8")) == []
