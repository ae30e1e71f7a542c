"""Every function, class and method of bioperad has a caller.

A definition in ``src/bioperad`` counts as used when ``src/bioperad`` or a
``perfbench/*.py`` script refers to it outside its own body: by name, as an
attribute, in an import, or in an identifier-like string (the benchmark's
tracer names its targets so, as in ``"Derivation.apply_tree"``).  Tests do
not count, so code kept alive only by its own unit test shows up here.
Dunder methods are called by the language and are not scanned.
"""

import ast
import pathlib
import re
from collections import Counter

import bioperad

PACKAGE = pathlib.Path(bioperad.__file__).parent
BENCH = PACKAGE.parents[1] / "perfbench"

ALLOWED = {
    "models.lp_formula_genmap":
        "the oracle that checks the printed unshuffle formulas",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree):
    """Counter of the names that the syntax tree refers to."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _IDENTIFIER.fullmatch(node.value)):
            found.update(node.value.split("."))
    return found


def _definitions(module):
    """(qualified name, node) of each top-level function and class and of
    each method that is not a dunder."""
    for node in module.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, _DEFS[:2])
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_is_referenced():
    package = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    scripts = [ast.parse(path.read_text())
               for path in sorted(BENCH.glob("*.py"))]
    total = Counter()
    for tree in [*package.values(), *scripts]:
        total.update(_references(tree))
    dead = []
    for stem, module in package.items():
        for qualname, node in _definitions(module):
            if total[node.name] - _references(node)[node.name] <= 0:
                dead.append(f"{stem}.{qualname}")
    assert sorted(dead) == sorted(ALLOWED)
