"""Import hygiene: no module of the library or of its tests imports a name
it never uses, and ``WittScalar`` stays at its boundary.

No linter ships with the project, so this reads each module with ``ast``.
``__init__.py`` is exempt from the unused-import check: its imports are
the public re-exports."""

import ast
import pathlib

import dieudonne

SRC = pathlib.Path(dieudonne.__file__).parent
TESTS = pathlib.Path(__file__).parent


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[f"{path.parent.name}/{path.name}"] = unused
    assert found == {}


# the modules that may name WittScalar: its home, the raw-coefficient
# boundary (``raw_col``/``wrap_col``) and the public re-exports
SCALAR_MODULES = {"witt.py", "matrix.py", "__init__.py"}


def names_used(tree):
    """Every identifier the code uses: names, attributes and imported
    names (docstrings and comments are not code)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def test_witt_scalar_stays_at_the_boundary():
    found = sorted(
        path.name for path in SRC.glob("*.py")
        if path.name not in SCALAR_MODULES
        and "WittScalar" in names_used(
            ast.parse(path.read_text(encoding="utf-8"))))
    assert found == []


def test_scalar_use_is_reported():
    tree = ast.parse("from .witt import WittScalar as W\n"
                     "x = witt.WittScalar\n\"\"\"WittScalar\"\"\"\n")
    assert {"WittScalar", "W"} <= names_used(tree)
    assert "WittScalar" not in names_used(ast.parse('"""WittScalar"""'))


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(d)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "b")]
