"""masterlq derives a simulation step's noise in one place.

The idiosyncratic and common draws of a step come from
mkv_simulator.simulate alone, which hands the idiosyncratic one to its
observer; a second function keyed on the same streams would draw the same
numbers again, or different ones from what the particles saw.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "masterlq"
STEP_STREAMS = {"STREAM_IDIOSYNCRATIC", "STREAM_COMMON"}
DRAW_SITE = "simulate"


def _stray_uses(tree: ast.AST) -> list[int]:
    """Line numbers naming a step stream anywhere but as the target of its
    module-level definition and inside the function DRAW_SITE (its nested
    functions included)."""
    lines = []

    def visit(node, in_site):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_site = in_site or node.name == DRAW_SITE
        named = ((isinstance(node, ast.Name) and node.id in STEP_STREAMS)
                 or (isinstance(node, ast.Attribute) and node.attr in STEP_STREAMS)
                 or (isinstance(node, ast.ImportFrom)
                     and any(a.name in STEP_STREAMS for a in node.names)))
        if named and not in_site:
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_site)

    for stmt in tree.body:
        definition = (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                      and isinstance(stmt.targets[0], ast.Name)
                      and stmt.targets[0].id in STEP_STREAMS)
        visit(stmt.value if definition else stmt, False)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_step_streams_named_only_where_drawn(path):
    assert _stray_uses(ast.parse(path.read_text(), str(path))) == []


def test_detector_sees_each_form():
    src = ("STREAM_IDIOSYNCRATIC = 0\nSTREAM_COMMON = 1\n"
           "def simulate():\n    def noise():\n        return STREAM_COMMON\n"
           "    return STREAM_IDIOSYNCRATIC\n"
           "def check():\n    return _normals(0, STREAM_IDIOSYNCRATIC, 0, 1)\n"
           "x = mkv.STREAM_COMMON\n"
           "from .mkv_simulator import STREAM_COMMON as c\n"
           "STREAM_COMMON = STREAM_IDIOSYNCRATIC\n")
    assert _stray_uses(ast.parse(src)) == [8, 9, 10, 11]
