"""No ``assert`` statement in bioperad.

``python -O`` strips asserts, so a check written as one is silently skipped
there; every check of input or of an invariant raises an exception instead.
"""

import ast
import pathlib

import bioperad


def test_no_assert_statements():
    root = pathlib.Path(bioperad.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.glob("**/*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
