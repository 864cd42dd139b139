"""Graph._from_rows checks nothing, so only a builder that proves its
rows sorted, symmetric and loop-free may use it. That is
graphs.orbit_graph, which the orbital, quadric, metacirculant and Fermat
graph builders call; families.py and actions.py build no graph any
other way. The automorphisms a graph records in _automorphisms skip the
check in quotients.quotient, so they too are set only in graphs.py, by
_from_rows for the generators orbit_graph has proven. Besides quotient,
only engine.build_instance reads them, taking the first as rho, so rho
is picked in one place."""

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


def test_families_and_actions_never_name_graph():
    # their graphs come only from orbit_graph, which proves what it builds
    src = Path(pqham.__file__).parent
    for name in ("families.py", "actions.py"):
        assert uses_of(ast.parse((src / name).read_text()), "Graph") == [], \
            name


def stores_of(tree, name):
    """Line numbers in tree that bind `name`, as a bare name or as an
    attribute, or that spell it as a string, as setattr would take it."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Store)
                  and name in (getattr(node, "id", None),
                               getattr(node, "attr", None))
                  or isinstance(node, ast.Constant) and node.value == name)


def test_stores_of_finds_bindings_only():
    tree = ast.parse("_automorphisms = ()\n"
                     "g._automorphisms = gens\n"
                     "setattr(g, '_automorphisms', gens)\n"
                     "seen = g._automorphisms\n")
    assert stores_of(tree, "_automorphisms") == [1, 2, 3]


def test_recorded_automorphisms_set_only_by_graphs():
    src = Path(pqham.__file__).parent
    found = {path.name for path in src.glob("*.py")
             if stores_of(ast.parse(path.read_text()), "_automorphisms")}
    assert found == ALLOWED


def test_recorded_automorphisms_read_only_by_quotients_and_engine():
    src = Path(pqham.__file__).parent
    found = {path.name for path in src.glob("*.py")
             if uses_of(ast.parse(path.read_text()), "_automorphisms")}
    assert found == ALLOWED | {"quotients.py", "engine.py"}
