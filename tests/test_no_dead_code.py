"""Every public top-level function and class of masterlq is used by masterlq,
and every defaulted parameter of its public functions is set by a call in it.

A public name that the package names nowhere but at its own definition is
code that only tests run, or nothing does; so is a default that no call
overrides.  ALLOWED and ALLOWED_UNSET list the exceptions, each with its
reason.
"""
from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "masterlq"
ALLOWED = {
    "scalar_model": "the n = d = 1 constructor that tests and interactive use build models with",
}
# Defaults no package call sets, as "function(parameters)", or the bare name
# for a function that no package code calls.
ALLOWED_UNSET = {
    "main(argv)": "the console entry reads sys.argv; tests pass an argument list",
    "scalar_model": "its defaults are the zero model that tests and interactive use amend",
    "gaussian_ensemble(mean)": "the CLI draws standard ensembles; tests shift them",
    "check_optimality_gap(eps_list)": "tests pass eps = 1e150 to reach the non-finite-cost path",
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


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(position, name) of each defaulted parameter of fn, position None for
    a keyword-only one; a method's positions do not count self."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in fn.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _functions(tree: ast.Module):
    """(name, node, is a method) for each public function and each public
    method of a public class at the module's top level."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item, True


def _calls(trees) -> dict[str, list[tuple[float, set | None]]]:
    """For each called name, (positional count, keyword names) of each call;
    a *args call counts as every position, a **kwargs call (None) as every
    keyword."""
    calls: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in keywords else keywords))
    return calls


def _unset(sources: list[str]) -> list[str]:
    """Each public function with a defaulted parameter that no call sets, as
    "name(parameters)", or its bare name when no call names it at all."""
    trees = [ast.parse(src) for src in sources]
    calls = _calls(trees)
    found = []
    for tree in trees:
        for name, fn, method in _functions(tree):
            params = _defaulted(fn, method)
            if params and name not in calls:
                found.append(name)
                continue
            unset = [p for i, p in params if not any(
                (i is not None and i < n) or kw is None or p in kw for n, kw in calls[name])]
            if unset:
                found.append(f"{name}({', '.join(unset)})")
    return sorted(found)


def test_every_default_is_set_by_a_caller():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert _unset(sources) == sorted(ALLOWED_UNSET)


def test_default_detector_sees_each_use():
    defs = ("def f(a, b=1, c=2, *, d=3): pass\n"
            "class C:\n    def m(self, x=1, y=2): pass\n"
            "    @staticmethod\n    def s(x=1): pass\n"
            "def g(a=1): pass\ndef h(a): pass\ndef _p(a=1): pass\n"
            "class _D:\n    def m2(self, x=1): pass\n")
    assert _unset([defs]) == ["f", "g", "m", "s"]
    some = "f(0, 5)\nf(0, d=4)\nobj.m(y=3)\nC.s()\n"
    assert _unset([defs, some]) == ["f(c)", "g", "m(x)", "s(x)"]
    rest = "g(*args)\nobj.m(1)\nf(**kw)\nC.s(2)\n"
    assert _unset([defs, some, rest]) == []
