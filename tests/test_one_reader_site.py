"""masterlq reads a Riccati solution between its nodes in one place.

riccati.eval_at interpolates every block of a solution, at one time or at
an array of times; the verifiers, the simulator and the PDE cross-check
call it.  A module that called the private _interp itself would be a
second reader, which eval_at's callers, counters and tests do not see.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "masterlq"
PRIVATE = "_interp"
READER_MODULE = "riccati.py"


def _names(tree: ast.AST) -> list[int]:
    """Line numbers that name PRIVATE: as a name, an attribute or an import."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == PRIVATE)
                  or (isinstance(node, ast.Attribute) and node.attr == PRIVATE)
                  or (isinstance(node, ast.ImportFrom)
                      and any(a.name == PRIVATE for a in node.names)))


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != READER_MODULE),
                         ids=lambda p: p.name)
def test_interpolator_named_only_in_riccati(path):
    assert _names(ast.parse(path.read_text(), str(path))) == []


def test_reader_module_defines_the_interpolator():
    tree = ast.parse((SRC / READER_MODULE).read_text())
    assert any(isinstance(f, ast.FunctionDef) and f.name == PRIVATE for f in tree.body)


def test_detector_sees_each_form():
    src = ("def f(sol, t):\n    return sol.P\n"
           "x = ric._interp(v, g, t)\n"
           "from .riccati import _interp\n"
           "from .riccati import _interp as at\n"
           "y = _interp\n"
           "z = '_interp'\n")
    assert _names(ast.parse(src)) == [3, 4, 5, 6]
