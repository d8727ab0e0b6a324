"""The HJB-FP problem alone decides MFC or MFG.

hjbfp_1d.problem_from_lq turns a kind into a Problem1D, whose measure term
dHdm_coeff is set exactly for MFC; the solver reads the problem.  A second
function taking a kind would make the decision twice, and a mismatched pair
(an MFG problem solved as MFC, or the reverse) would converge silently.
"""
from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "masterlq" / "hjbfp_1d.py"
KIND_SITE = "problem_from_lq"


def _kind_takers(tree: ast.AST) -> list[str]:
    """Names of the functions (methods, lambdas and nested functions
    included) with a parameter named kind, in source order."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == "kind" for p in params):
                names.append((node.lineno, getattr(node, "name", "<lambda>")))
    return [name for _, name in sorted(names)]


def test_problem_from_lq_alone_takes_a_kind():
    assert _kind_takers(ast.parse(SRC.read_text(), str(SRC))) == [KIND_SITE]


def test_detector_sees_each_form():
    src = ("def problem_from_lq(model, kind='MFG'):\n    pass\n"
           "def picard_solve(prob, *, kind):\n    pass\n"
           "class C:\n    def m(self, kind, /):\n        f = lambda kind: kind\n"
           "def ok(model, kinds):\n    return kind\n")
    assert _kind_takers(ast.parse(src)) == ["problem_from_lq", "picard_solve", "m", "<lambda>"]
