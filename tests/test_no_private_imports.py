"""No bioperad module imports another bioperad module's private name.

A name that starts with an underscore belongs to its module; a second
module that imports it ties itself to a convention the owner may change.
Such a name is made public, or the work that needs it moves to its owner.
"""

import ast
import pathlib

import bioperad

PACKAGE = pathlib.Path(bioperad.__file__).parent


def _private_imports(path):
    """'module imports name from source' for each underscore name that the
    module at path imports from a bioperad module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0 and source.split(".")[0] != "bioperad":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.stem} imports {alias.name} from "
                             f"{'.' * node.level}{source}")
    return found


def test_no_module_imports_a_private_name_of_another():
    found = [line for path in sorted(PACKAGE.glob("*.py"))
             for line in _private_imports(path)]
    assert found == []
