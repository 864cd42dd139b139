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


CACHE_DECORATORS = {"lru_cache", "cache"}


def caches(tree):
    """(function, bound) for each function in tree decorated with
    functools' lru_cache or cache, the bound as source text: "None" for
    an unbounded cache, "128" for a bare lru_cache."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            name = func.attr if isinstance(func, ast.Attribute) else func.id
            if name not in CACHE_DECORATORS:
                continue
            if name == "cache":
                bound = "None"
            elif call and (call.args or call.keywords):
                bound = ast.unparse(call.args[0] if call.args
                                    else call.keywords[0].value)
            else:
                bound = "128"
            found.append((node.name, bound))
    return found


def test_caches_finds_each_form():
    tree = ast.parse("@lru_cache(maxsize=None)\ndef a(): pass\n"
                     "@functools.lru_cache(4)\ndef b(): pass\n"
                     "@lru_cache\ndef c(): pass\n"
                     "@cache\ndef d(): pass\n"
                     "@property\ndef e(): pass\n")
    assert caches(tree) == [("a", "None"), ("b", "4"), ("c", "128"),
                            ("d", "None")]


def test_caches_are_bounded_but_the_engine_space_builders():
    # the engine's builders are keyed by family parameters, so a run holds
    # a handful of them; field keeps one table per prime under a fixed bound
    found = {}
    for path in sorted(DIRECTORIES[0].glob("*.py")):
        for name, bound in caches(ast.parse(path.read_text())):
            found["%s.%s" % (path.stem, name)] = bound
    assert sorted(n for n, b in found.items() if b == "None") == [
        "engine._dihedral_model", "engine._omega_model", "engine._psl2_space",
        "engine._triple_space"]
    in_field = [b for n, b in found.items() if n.startswith("field.")]
    assert len(in_field) == 1 and in_field[0].isdigit()
