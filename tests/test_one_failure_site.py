"""The CLI decides in one place what a numerical failure is.

cli.NUMERICAL lists the exceptions that exit 2, and cli._run is the one
except clause that catches them, writes the failed run's JSON and prints
"<command>: <error>".  A second clause would be a second policy: a command
that catches a different set, or main catching one after --out exists and
writing nothing.  So main catches bad input only.
"""
from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "masterlq" / "cli.py"
# NUMERICAL, its three classes, and the broad clauses that would catch them too
NUMERICAL_NAMES = {"NUMERICAL", "RiccatiBlowUp", "NumericalFailure", "CFLViolation",
                   "RuntimeError", "Exception", "BaseException"}
BAD_INPUT = {"OSError", "ValueError", "json.JSONDecodeError", "MemoryError"}


def _caught(handler: ast.ExceptHandler) -> list[str]:
    """The exceptions an except clause names, as written; a bare except catches BaseException."""
    if handler.type is None:
        return ["BaseException"]
    elts = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [ast.unparse(e) for e in elts]


def _numerical_handlers(tree: ast.AST) -> list[int]:
    """Line numbers of the except clauses that catch a numerical failure."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type or ast.Name("BaseException")   # a bare except
            named = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(caught)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & NUMERICAL_NAMES:
                lines.append(node.lineno)
    return sorted(lines)


def _main_catches(tree: ast.Module) -> set[str]:
    """Every exception an except clause inside the module-level main names."""
    main = next(s for s in tree.body if isinstance(s, ast.FunctionDef) and s.name == "main")
    return {name for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)
            for name in _caught(node)}


def test_one_except_catches_numerical_failures():
    assert len(_numerical_handlers(ast.parse(SRC.read_text(), str(SRC)))) == 1


def test_main_catches_only_bad_input():
    assert _main_catches(ast.parse(SRC.read_text(), str(SRC))) == BAD_INPUT


def test_detector_sees_each_form():
    src = ("def _run():\n    try: pass\n    except NUMERICAL as e: pass\n"           # 3
           "def a():\n    try: pass\n    except (ric.RiccatiBlowUp, X): pass\n"      # 6
           "    except hj.NonConvergence: pass\n"
           "def b():\n    try: pass\n    except NUMERICAL + (KeyError,): pass\n"     # 10
           "    except: pass\n"                                                     # 11
           "def main():\n    try: pass\n    except (OSError, json.JSONDecodeError): pass\n"
           "    except Exception:\n        try: pass\n        except ValueError: pass\n")  # 15
    tree = ast.parse(src)
    assert _numerical_handlers(tree) == [3, 6, 10, 11, 15]
    assert _main_catches(tree) == {"OSError", "json.JSONDecodeError", "Exception", "ValueError"}
