"""No module of masterlq or of its tests binds one top-level def or class
name twice (pyflakes' F811): the later definition silently replaces the
earlier one, and every use of the name, the earlier ones included, runs it.
"""
from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _redefined(source: str) -> list[str]:
    """The top-level def and class names that source binds more than once."""
    counts = collections.Counter(node.name for node in ast.parse(source).body
                                 if isinstance(node, DEFINITIONS))
    return sorted(name for name, count in counts.items() if count > 1)


def test_no_top_level_name_defined_twice():
    paths = sorted([*(ROOT / "src" / "masterlq").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(paths) > 10
    found = {path.name: names for path in paths if (names := _redefined(path.read_text()))}
    assert found == {}


def test_redefinition_detector_sees_each_kind():
    source = ("def f(): pass\nclass C: pass\nasync def g(): pass\ndef h(): pass\n"
              "def f(): pass\nclass C: pass\nasync def g(): pass\n"
              "class D:\n    def h(self): pass\n    def h(self): pass\n")
    assert _redefined(source) == ["C", "f", "g"]
