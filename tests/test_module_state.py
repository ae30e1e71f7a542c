"""No bioperad module keeps a cache in a module-level dict or set.

Memos belong on the Collection or Presentation they describe, so they are
freed with it; a module dict keyed by id() can answer for a freed object
whose id was reused.  Interned tree nodes likewise live on their
VertexSpace, so no module holds a set of them.  A memo under any other name
shows up as a module-level dict or list that grows during a run.  The
class-level tables that intern leaves and signatures hold one entry per
label or signature met, so they fill on a first run and a second run at the
same bound adds nothing to them, nor to any other class-level container.
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


def _class_containers():
    """qualname -> size of each dict or list held by a bioperad class."""
    sizes = {}
    for qual, _, value in _module_globals():
        home = "bioperad." + qual.split(".")[0]
        if isinstance(value, type) and value.__module__ == home:
            for attr, held in vars(value).items():
                if type(held) in (dict, list):
                    sizes[f"{qual}.{attr}"] = len(held)
    return sizes


def test_no_module_level_container_grows_during_a_run():
    # a memo kept in a module-level dict or list, whatever its name, grows
    # when the checks run; the lru_cache model builders are not containers
    before = {qual: len(value) for qual, _, value in _module_globals()
              if type(value) in (dict, list)}
    bounds = dict.fromkeys(verify.DEFAULT_BOUNDS, 3)
    results = verify.run_checks(bounds=bounds, notes=False)
    assert all(r.status == "pass" for r in results)
    after = {qual: len(value) for qual, _, value in _module_globals()
             if type(value) in (dict, list)}
    assert before and after == before
    # the interning tables are full now; a second run finds every entry
    filled = _class_containers()
    assert filled["trees.Leaf._interned"]
    assert filled["trees.Signature._interned"]
    results = verify.run_checks(bounds=bounds, notes=False)
    assert all(r.status == "pass" for r in results)
    assert _class_containers() == filled
