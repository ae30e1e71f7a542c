"""Every name the benchmark's tracer wraps exists in bioperad.

``perfbench/tracer.py`` lists its targets as (module, attribute path)
pairs in ``HOT`` and ``SPANS`` and looks them up only when it is
installed, so a renamed or deleted function would surface only in a traced
run.  The lists are read here from the script itself, without installing
the tracer: each path resolves to a function of its module, and a method is
defined on its class, where the tracer replaces it.
"""

import importlib
import importlib.util
import pathlib

import pytest

import bioperad

TRACER = pathlib.Path(bioperad.__file__).parents[2] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("traced_names_tracer",
                                                  TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOT + tracer.SPANS


TARGETS = _targets()


@pytest.mark.parametrize("module, path", TARGETS,
                         ids=[f"{m}.{p}" for m, p in TARGETS])
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"bioperad.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    assert attr in vars(owner), f"bioperad.{module}.{path} is not defined"
    target = vars(owner)[attr]
    assert callable(getattr(target, "__func__", target))
    if not classes:
        assert target.__module__ == f"bioperad.{module}"
