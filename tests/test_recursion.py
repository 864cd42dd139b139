"""Recursion depth must never grow with graph order, so no function in
the graph-handling modules, or in the test oracles that search graphs of
order 91, may call itself."""

import ast
from pathlib import Path

import pqham

# residues is left out: the inner helpers of _exceptional_sequences and
# _primes_with_radical recurse once per prime of a sequence, at most 9
# deep, a bound set by the sequence length rather than the graph order
MODULES = ("graphs", "quotients", "actions", "families", "engine")
REFERENCES = ("reference_graphs", "reference_quotients")


def self_calls(tree):
    """Names of the functions in tree that call themselves by name, or as
    self.name / cls.name when they are methods."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name \
                    or isinstance(f, ast.Attribute) and f.attr == fn.name \
                    and isinstance(f.value, ast.Name) \
                    and f.value.id in ("self", "cls"):
                out.append(fn.name)
                break
    return out


def test_self_calls_detects_recursion():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class A:\n    def g(self):\n        return self.g()\n"
                     "def h():\n    def rec():\n        rec()\n    rec()\n")
    assert self_calls(tree) == ["f", "g", "rec"]


def test_graph_modules_do_not_recurse():
    src, tests = Path(pqham.__file__).parent, Path(__file__).parent
    paths = [src / (name + ".py") for name in MODULES] + \
        [tests / (name + ".py") for name in REFERENCES]
    found = {path.name: self_calls(ast.parse(path.read_text()))
             for path in paths}
    assert found == {path.name: [] for path in paths}
