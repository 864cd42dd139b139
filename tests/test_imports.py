"""No module of the package or of its tests imports a name that it never
reads, and no module of the package touches the environment: every
setting is a flag. No lint tool is a dependency, so these are the
checks."""

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


ENVIRONMENT_NAMES = {"environ", "getenv", "putenv"}


def environment_uses(tree):
    """(line, name) for each os.environ, os.getenv or os.putenv in tree,
    read as an attribute of os or imported from os."""
    found = [(node.lineno, "os." + node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ENVIRONMENT_NAMES
             and isinstance(node.value, ast.Name) and node.value.id == "os"]
    found += [(node.lineno, "os." + alias.name) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              for alias in node.names if alias.name in ENVIRONMENT_NAMES]
    return sorted(found)


def test_environment_uses_finds_each_form():
    tree = ast.parse("import os\n"
                     "from os import getenv as g, path\n"
                     "os.environ.get('X')\n"
                     "os.putenv('X', '1')\n"
                     "os.path.join('a')\n")
    assert environment_uses(tree) == [(2, "os.getenv"), (3, "os.environ"),
                                      (4, "os.putenv")]


def test_package_reads_no_environment():
    found = {}
    for path in sorted(DIRECTORIES[0].glob("*.py")):
        uses = environment_uses(ast.parse(path.read_text()))
        if uses:
            found[path.name] = uses
    assert found == {}
