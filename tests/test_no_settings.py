"""masterlq reads no environment variable.

Results are functions of the command line and the model file alone; a
setting read from the environment would be a second, invisible input.
"""
from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "masterlq"
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(tree: ast.AST) -> list[int]:
    """Line numbers of os.environ / os.getenv uses and of their from-imports."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in ENV_READERS for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert _env_reads(ast.parse(path.read_text(), str(path))) == []


def test_detector_sees_each_form():
    src = ("import os\nos.environ.get('X')\nos.getenv('X')\n"
           "from os import environ\nos.environ['X']\n")
    assert _env_reads(ast.parse(src)) == [2, 3, 4, 5]
