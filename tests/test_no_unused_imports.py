"""No module of bioperad and no test module imports a name it never reads.

An import binds a name: ``import a.b`` binds ``a`` and ``from m import x as
y`` binds ``y``.  The name counts as read when the file refers to it
anywhere as a bare name; an attribute access ``a.b`` reads ``a``.
"""

import ast
import pathlib

import bioperad

PACKAGE = pathlib.Path(bioperad.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _unused_imports(path):
    """'file imports name' for each name that the file at path imports and
    never reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                found.append(f"{path.parent.name}/{path.name} imports {name}")
    return found


def test_every_imported_name_is_read():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = [line for path in paths for line in _unused_imports(path)]
    assert found == []
