"""Every package name the benchmark reads resolves on ``cartankit``.

``bench/tracer.py`` wraps each ``(module, name)`` of its ``TRACED`` list
with ``getattr``, and ``bench/workloads.py`` calls ``kit.<module>.<name>``
on a freshly imported package.  A rename or deletion in ``src/`` would
break those runs rather than a test, so both files are read here with
``ast`` (without importing them) and each name is looked up.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def traced_names(source: str) -> list[tuple[str, str]]:
    """The literal ``TRACED`` list, plus the constructor the tracer wraps."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [tuple(pair) for pair in ast.literal_eval(node.value)] + [("algebra", "LieAlgebra")]
    raise AssertionError("no TRACED list")


def kit_names(source: str) -> list[tuple[str, str]]:
    """Every ``kit.<module>.<name>`` and ``self.kit.<module>.<name>``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            base = node.value.value
            if (isinstance(base, ast.Name) and base.id == "kit") or (
                isinstance(base, ast.Attribute) and base.attr == "kit"
            ):
                found.add((node.value.attr, node.attr))
    return sorted(found)


TRACED = traced_names((BENCH / "tracer.py").read_text(encoding="utf-8"))
KIT = kit_names((BENCH / "workloads.py").read_text(encoding="utf-8"))


def test_scans_find_the_names():
    assert ("linalg", "solve") in TRACED and ("levi", "levi_decomposition") in TRACED
    assert ("cli", "main") in KIT and ("verify", "verify_fixture") in KIT
    source = "def f(kit, self):\n    kit.a.b()\n    self.kit.c.d\n    other.e.f\n    kit.g\n"
    assert kit_names(source) == [("a", "b"), ("c", "d")]


@pytest.mark.parametrize("module, name", sorted(set(TRACED + KIT)), ids=lambda x: x)
def test_benchmark_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"cartankit.{module}"), name)
