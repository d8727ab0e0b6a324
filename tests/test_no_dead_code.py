"""Every public top-level function and class of masterlq is used by masterlq.

A public name that the package names nowhere but at its own definition is
code that only tests run, or nothing does.  ALLOWED lists the exceptions,
each with its reason.
"""
from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "masterlq"
ALLOWED = {
    "scalar_model": "the n = d = 1 constructor that tests and interactive use build models with",
}


def _definitions(tree: ast.Module) -> list[str]:
    """The module's public top-level functions and classes."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names(tree: ast.AST) -> set[str]:
    """Every name the code mentions: as a variable, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _unused(sources: list[str]) -> list[str]:
    trees = [ast.parse(src) for src in sources]
    used = set().union(*map(_names, trees))
    return sorted(name for tree in trees for name in _definitions(tree) if name not in used)


def test_every_public_definition_is_named_in_the_package():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert _unused(sources) == sorted(ALLOWED)


def test_detector_sees_each_use():
    used = ("def f(): pass\ndef g(): pass\ndef h(): pass\nclass C: pass\n"
            "def _private(): pass\n")
    assert _unused([used]) == ["C", "f", "g", "h"]
    callers = "from .a import f\nimport a\nx = a.g\ny = h()\nz: C\n"
    assert _unused([used, callers]) == []
