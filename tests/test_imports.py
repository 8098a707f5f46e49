"""Import hygiene of the library: no module imports a name it never uses.

No linter ships with the project, so this reads each module with ``ast``.
``__init__.py`` is exempt: its imports are the public re-exports."""

import ast
import pathlib

import dieudonne

SRC = pathlib.Path(dieudonne.__file__).parent


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
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(d)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "b")]
