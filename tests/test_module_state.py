"""No bioperad module keeps a cache in a module-level dict or set.

Memos belong on the Collection or Presentation they describe, so they are
freed with it; a module dict keyed by id() can answer for a freed object
whose id was reused.  Interned tree nodes likewise live on their
VertexSpace, so no module holds a set of them.  A memo under any other name
shows up as a module-level dict or list that grows during a run.
"""

import importlib
import pkgutil

import bioperad
from bioperad import verify


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


def test_no_module_level_container_grows_during_a_run():
    # a memo kept in a module-level dict or list, whatever its name, grows
    # when the checks run; the lru_cache model builders are not containers
    before = {qual: len(value) for qual, _, value in _module_globals()
              if type(value) in (dict, list)}
    results = verify.run_checks(bounds=dict.fromkeys(verify.DEFAULT_BOUNDS, 3),
                                notes=False)
    assert all(r.status == "pass" for r in results)
    after = {qual: len(value) for qual, _, value in _module_globals()
             if type(value) in (dict, list)}
    assert before and after == before
