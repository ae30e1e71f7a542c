"""Tests of the benchmark itself: self-time arithmetic, wrapper removal,
seeded input generation and the gate count.

    python3 -m pytest perfbench/tests
"""

import os
import subprocess
import sys

from bioperad import linalg, models, presentation, specfile
from tracer import Tracer
from workloads import WORKLOADS, gate, seeded_lp_spec

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_nested_call():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf()
        clock.now += 0.5
        leaf()

    def outer(depth):
        clock.now += 3.0
        middle()
        if depth:
            outer(depth - 1)  # recursion: total counts the outermost call once

    leaf = tr.wrap("leaf", leaf)
    middle = tr.wrap("middle", middle)
    outer = tr.wrap("outer", outer, span=True)
    outer(1)

    m = tr.layer_metrics()
    assert m["leaf.calls"] == 4 and m["leaf.self_s"] == 8.0
    assert m["middle.calls"] == 2 and m["middle.self_s"] == 3.0
    assert m["outer.calls"] == 2 and m["outer.self_s"] == 6.0
    assert m["outer.s"] == 17.0 and m["middle.s"] == 11.0
    assert m["leaf.s"] == 8.0
    # self times partition the outermost call
    assert m["leaf.self_s"] + m["middle.self_s"] + m["outer.self_s"] == \
        m["outer.s"]
    assert [(s["name"], s["start"], s["end"], s["parent"])
            for s in tr.spans] == [("outer", 0.0, 17.0, None),
                                   ("outer", 8.5, 17.0, 0)]


def _bindings():
    """Every attribute of every bioperad module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if not name.startswith("bioperad"):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_wrappers_removed_after_traced_run():
    import bioperad.verify  # noqa: F401  (loads every module)
    before = _bindings()
    tr = Tracer()
    tr.install()
    assert models.lp_presentation is not before[("bioperad.models",
                                                 "lp_presentation")]
    table = presentation.quotient_dims(models.lp_presentation(), 3)
    tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    m = tr.layer_metrics()
    calls = m["linalg.Echelon.add.calls"]
    assert calls > 0 and m["presentation.quotient_dims.calls"] == 1
    assert presentation.quotient_dims(models.lp_presentation(), 3) == table
    ech = linalg.Echelon()
    ech.add({0: 1})
    assert tr.layer_metrics()["linalg.Echelon.add.calls"] == calls


def test_untraced_child_never_loads_the_tracer(tmp_path):
    inputs = WORKLOADS["ideal-lp4"].prepare(1, str(tmp_path))
    code = ("import runpy, sys\n"
            f"sys.argv = ['child.py', 'ideal-lp4', 'run', {inputs[0]!r}]\n"
            f"runpy.run_path({os.path.join(BENCH, 'child.py')!r}, "
            "run_name='__main__')\n"
            "print('tracer' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [BENCH, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_same_seed_same_operad_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wl = WORKLOADS["ideal-lp4"]
    pa, = wl.prepare(11, str(a))
    pb, = wl.prepare(11, str(b))
    with open(pa) as fa, open(pb) as fb:
        text = fa.read()
        assert text == fb.read()
    assert text == seeded_lp_spec(11)
    assert seeded_lp_spec(12) != text


def test_seeded_presentation_has_the_builtin_ideal():
    builtin = presentation.quotient_dims(models.lp_presentation(), 3)
    for seed in (1, 2):
        pres = specfile.parse_spec(seeded_lp_spec(seed))
        assert presentation.quotient_dims(pres, 3) == builtin


def test_gate_counts_every_cell():
    golden = {"n": 0, "table": {"a": 1, "b": 2}}
    assert gate({"n": 0, "table": {"a": 1, "b": 2}}, golden) == (3, 0, [])
    attempted, failed, mism = gate({"n": 1, "table": {"a": 1, "c": 5}},
                                   golden)
    assert (attempted, failed) == (4, 3)
    assert [m["at"] for m in mism] == ["n", "table[b]", "table[c]"]
