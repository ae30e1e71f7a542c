"""No bioperad module keeps a cache in a module-level dict or set.

Memos belong on the Collection or Presentation they describe, so they are
freed with it; a module dict keyed by id() can answer for a freed object
whose id was reused.  Interned tree nodes likewise live on their
VertexSpace, so no module holds a set of them.
"""

import importlib
import pkgutil

import bioperad


def _module_globals():
    for info in pkgutil.iter_modules(bioperad.__path__):
        mod = importlib.import_module(f"bioperad.{info.name}")
        for name, value in vars(mod).items():
            yield f"{info.name}.{name}", name, value


def test_no_module_level_cache_dicts():
    found = [qual for qual, name, value in _module_globals()
             if "cache" in name.lower() and isinstance(value, (dict, set))]
    assert found == []


def test_no_module_level_sets():
    found = [qual for qual, _, value in _module_globals()
             if isinstance(value, set)]
    assert found == []
