"""Graph._from_rows checks nothing, so only a builder that proves its
rows sorted, symmetric and loop-free may use it. That is
graphs.orbit_graph, which the orbital, quadric and metacirculant graph
builders call."""

import ast
from pathlib import Path

import pqham

ALLOWED = {"graphs.py"}


def uses_of(tree, name):
    """Line numbers in tree that name `name`, as a bare name or as an
    attribute, called or not."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == name
                  or isinstance(node, ast.Attribute) and node.attr == name)


def test_uses_of_finds_calls_and_references():
    tree = ast.parse("g = Graph._from_rows(rows)\n"
                     "make = Graph._from_rows\n"
                     "_from_rows(rows)\n"
                     "def _from_rows(rows):\n    return rows\n")
    assert uses_of(tree, "_from_rows") == [1, 2, 3]


def test_from_rows_used_only_by_graphs():
    src = Path(pqham.__file__).parent
    found = {path.name for path in src.glob("*.py")
             if uses_of(ast.parse(path.read_text()), "_from_rows")}
    assert found == ALLOWED
