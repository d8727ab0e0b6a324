"""Every module masterlq imports is in the standard library or declared.

An import of an undeclared package works on a machine that happens to have
it and fails on a clean install; pyproject.toml's [project] dependencies
must name each one.
"""
from __future__ import annotations

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "masterlq"


def _top_level_imports(tree: ast.AST) -> set[str]:
    """First components of the absolute imports anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _third_party(names: set[str]) -> set[str]:
    return {m for m in names if m not in sys.stdlib_module_names and m != "masterlq"}


def _declared() -> set[str]:
    """Import names of pyproject.toml's [project] dependencies."""
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in doc["project"]["dependencies"]}


def test_every_third_party_import_is_declared():
    used = set()
    for path in sorted(SRC.glob("*.py")):
        used |= _third_party(_top_level_imports(ast.parse(path.read_text(), str(path))))
    assert used - _declared() == set()
    assert {"numpy", "scipy", "orjson"} <= used


def test_detector_sees_each_form():
    src = ("import os, numpy.linalg\nfrom scipy.linalg import cho_factor\n"
           "from . import riccati\nfrom .lq_model import SYM_TOL\n"
           "def f():\n    import orjson\n")
    tree = ast.parse(src)
    assert _top_level_imports(tree) == {"os", "numpy", "scipy", "orjson"}
    assert _third_party(_top_level_imports(tree)) == {"numpy", "scipy", "orjson"}
