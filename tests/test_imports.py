"""No module of the package or of its tests imports a name that it never
reads. No lint tool is a dependency, so this is the check."""

import ast
from pathlib import Path

import pqham

DIRECTORIES = (Path(pqham.__file__).parent, Path(__file__).parent)


def unused_imports(tree):
    """(line, name) for each name an import in tree binds that no
    expression in tree reads."""
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_unused_imports_finds_names_never_read():
    tree = ast.parse("import os\n"
                     "import a.b\n"
                     "from c import d as e, f\n"
                     "f(a.b)\n"
                     "e = 1\n")
    assert unused_imports(tree) == [(1, "os"), (3, "e")]


def test_no_unused_imports():
    found = {}
    for directory in DIRECTORIES:
        for path in sorted(directory.glob("*.py")):
            unused = unused_imports(ast.parse(path.read_text()))
            if unused:
                found[path.name] = unused
    assert found == {}
