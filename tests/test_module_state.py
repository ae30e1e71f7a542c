"""No bioperad module keeps a cache in a module-level dict or set.

Memos belong on the Collection or Presentation they describe, so they are
freed with it; a module dict keyed by id() can answer for a freed object
whose id was reused.
"""

import importlib
import pkgutil

import bioperad


def test_no_module_level_cache_dicts():
    found = []
    for info in pkgutil.iter_modules(bioperad.__path__):
        mod = importlib.import_module(f"bioperad.{info.name}")
        for name, value in vars(mod).items():
            if "cache" in name.lower() and isinstance(value, (dict, set)):
                found.append(f"{info.name}.{name}")
    assert found == []
