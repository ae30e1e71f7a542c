import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import bioperad
from bioperad import cli
from bioperad.cli import main
from bioperad.models import PRESENTATION_BUILDERS, h0sc_dual_dg

BIN = [sys.executable, "-m", "bioperad.cli"]
# the child imports the bioperad this process imported, installed or not
SRC = os.path.dirname(os.path.dirname(bioperad.__file__))


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(BIN + args, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_dims_lp_includes_21():
    code, out, _ = run_cli(["dims", "LP", "--inputs", "3"])
    assert code == 0
    assert "(2,1;o)" in out and "     2" in out


def test_dims_counts_trees_with_a_unary_vertex_on_every_edge(tmp_path,
                                                             capsys):
    # h takes open inputs into a closed output, so al(h(al(c1),al(c2))) and
    # its swap have weight 4 on two inputs, above 2 * 2 - 1
    f = tmp_path / "exotic.operad"
    f.write_text("generator h : (o,o) -> c degree 0 symmetry regular\n"
                 "generator al : (c) -> o degree 0\n")
    assert main(["dims", str(f), "--inputs", "2", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert {"signature": "(2,0;o)", "degree": 0, "dim": 2} in records


def test_dims_json():
    code, out, _ = run_cli(["dims", "Com", "--inputs", "3", "--json"])
    assert code == 0
    records = json.loads(out)
    assert {"signature": "(3,0;c)", "degree": 0, "dim": 1} in records


def test_dual_emits_spec(tmp_path):
    code, out, _ = run_cli(["dual", "Lie"])
    assert code == 0
    assert "generator l2v" in out
    # and the emitted dual parses back
    f = tmp_path / "dual.operad"
    f.write_text(out)
    code2, out2, _ = run_cli(["dims", str(f), "--inputs", "3"])
    assert code2 == 0
    assert "(3,0;c)" in out2


def test_span_command():
    code, out, _ = run_cli(["span", "LP", "--sig", "2,1,o", "--weight", "2"])
    assert code == 0
    assert "dim 1" in out


def test_d2_ok():
    code, out, _ = run_cli(["d2", "LPinf", "--inputs", "3"])
    assert code == 0
    assert "OK: 0 violations" in out


def test_homology_table():
    code, out, _ = run_cli(["homology", "OCinf", "--inputs", "2", "--json"])
    assert code == 0
    records = json.loads(out)
    cell = [r for r in records
            if r["signature"] == "(1,1;o)" and r["degree"] == -1]
    assert cell and cell[0]["homDim"] == 1


QUADRATIC_BUILTINS = sorted(set(PRESENTATION_BUILDERS) - {"H0SC"})


@pytest.mark.parametrize("model", QUADRATIC_BUILTINS)
def test_gk_command(model, capsys):
    # each quadratic builtin against its quadratic dual
    assert main(["gk", model, "--order", "4"]) == 0
    assert capsys.readouterr().out == "functional equation holds\n"


def test_gk_command_fails_on_the_anti_associative_operad(tmp_path, capsys):
    f = tmp_path / "anti.operad"
    f.write_text("operad anti\n"
                 "generator m : (o,o) -> o degree 0 symmetry regular\n"
                 "relation m(m(o1,o2),o3) + m(o1,m(o2,o3))\n")
    assert main(["gk", str(f), "--order", "5", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "model": str(f), "order": 5, "ok": False,
        "mismatches": [{"cell": "(0,5;o)", "got": "4", "want": 0}]}


def test_ql_check_builtin():
    code, out, _ = run_cli(["ql-check", "H0SC"])
    assert code == 0
    assert "ql1: pass" in out and "ql2: pass" in out


def test_ql_check_fails_on_a_weight_one_relation(tmp_path):
    f = tmp_path / "weight1.operad"
    f.write_text("operad weight1\n"
                 "generator e11 : (c,o) -> o degree 0 symmetry none\n"
                 "relation e11(c1,o1)\n")
    code, out, err = run_cli(["ql-check", str(f)])
    assert (code, err) == (1, "")
    assert out.startswith("ql1: fail\nql2: fail\n")
    assert "  witness: {'condition': 'ql1', 'signature': '(1,1;o)', " \
        "'dim': 1}" in out


def test_shlp_check_file(tmp_path):
    f = tmp_path / "pair.tensors"
    f.write_text("""
closed x 0
closed y 0
open a 0
open b 0
l 2: x,y -> y
n 0 2: | a,a -> b
n 1 1: x | a -> a
n 1 1: x | b -> 2*b
""")
    code, out, _ = run_cli(["shlp-check", str(f), "-N", "3"])
    assert code == 0 and "PASS" in out


def test_shlp_check_bad_file(tmp_path):
    f = tmp_path / "bad.tensors"
    f.write_text("closed x 0\nl 2: x,z -> x\n")
    code, out, err = run_cli(["shlp-check", str(f)])
    assert code != 0
    assert "unknown" in err


def test_malformed_spec_file_location(tmp_path):
    f = tmp_path / "bad.operad"
    f.write_text("operad broken\ngenerator m : (o,o) -> o degree 0 "
                 "symmetry regular\nrelation m(m(o1,o2)\n")
    code, out, err = run_cli(["dims", str(f)])
    assert code == 2
    assert "line 3" in err


def test_unknown_flag_rejected():
    code, _, err = run_cli(["dims", "LP", "--bogus"])
    assert code != 0


def test_verify_paper_selection():
    code, out, _ = run_cli(["verify-paper", "--only", "duality", "--json"])
    assert code == 0
    records = json.loads(out)
    ids = {r["id"] for r in records}
    assert ids == {"duality-dims", "koszul-dual"}
    assert all(r["status"] == "pass" for r in records)


@pytest.mark.parametrize("argv, bounds", [
    ([], {"dims": 5, "d2": 5, "homology": 4, "laws": 4}),
    (["--dims-bound", "3", "--d2-bound", "2"],
     {"dims": 3, "d2": 2, "homology": 4, "laws": 4}),
    (["--homology-bound", "2"], {"dims": 5, "d2": 5, "homology": 2, "laws": 2}),
    (["--homology-bound", "6"], {"dims": 5, "d2": 5, "homology": 6, "laws": 4}),
], ids=["defaults", "dims-d2", "homology-below-laws", "homology-above-laws"])
def test_verify_paper_bounds_reach_run_checks(argv, bounds, monkeypatch,
                                              capsys):
    seen = []
    monkeypatch.setattr(cli, "run_checks",
                        lambda selection, b: seen.append((selection, b)) or [])
    assert main(["verify-paper", "--only", "quotient-dims"] + argv) == 0
    assert seen == [({"quotient-dims"}, bounds)]


def test_verify_paper_runs_at_a_smaller_dims_bound():
    code, out, err = run_cli(["verify-paper", "--only", "quotient-dims",
                              "--dims-bound", "3", "--json"])
    assert (code, err) == (0, "")
    (record,) = json.loads(out)
    assert (record["id"], record["status"]) == ("quotient-dims", "pass")


def test_verify_paper_unknown_selection_exits_2(capsys):
    # unknown names are refused before any check runs, with the known list
    assert main(["verify-paper", "--only", "no-such-check"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown check or group no-such-check;")
    assert "duality-dims" in err and "homology" in err
    assert main(["verify-paper", "--only", "duality", "nope", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unknown check or group nope;" in err


def test_main_callable_directly():
    assert main(["dims", "Com", "--inputs", "2"]) == 0


@pytest.mark.parametrize("argv", [
    ["dims", "LP", "--inputs", "0"],
    ["d2", "OCinf", "--inputs", "-1"],
    ["homology", "OCinf", "--inputs", "0"],
    ["gk", "Com", "--order", "0"],
    ["shlp-check", "pair.tensors", "-N", "-2"],
    ["verify-paper", "--dims-bound", "0"],
    ["verify-paper", "--d2-bound", "-3"],
    ["verify-paper", "--homology-bound", "two"],
    ["span", "LP", "--sig", "2,1,o", "--weight", "0"],
])
def test_nonpositive_bound_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def test_empty_input_files_rejected(tmp_path, capsys):
    spec = tmp_path / "empty.operad"
    spec.write_text("# no declaration\n")
    tensors = tmp_path / "empty.tensors"
    tensors.write_text("")
    for argv in (["dims", str(spec)], ["shlp-check", str(tensors)]):
        assert main(argv) == 2
        assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dims", "no-such-file"],
    ["ql-check", "no-such-file"],
    ["d2", "NoSuchDg"],
    ["homology", "NoSuchDg"],
    ["gk", "H0SC"],
    ["span", "LP", "--sig", "2,1"],
    ["span", "LP", "--sig", "2,x,o"],
    ["span", "LP", "--sig", "2,1,z"],
    ["span", "LP", "--sig", "1,-1,o"],
    ["span", "LP", "--sig", "0,0,c"],
    ["span", "H0SC", "--sig", "1,1,o"],
    ["dual", "H0SC"],
    ["shlp-check", "no-such-file"],
    ["dims", "."],
    ["shlp-check", "."],
    ["dims", "utf16.txt"],
    ["shlp-check", "utf16.txt"],
])
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "utf16.txt").write_bytes("operad x\n".encode("utf-16"))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unreadable_files_exit_2_from_process(tmp_path):
    # a directory or a non-UTF-8 file is refused at the boundary
    utf16 = tmp_path / "utf16.operad"
    utf16.write_bytes(b"\xff\xfe" + "operad x\n".encode("utf-16-le"))
    for command in ("dims", "shlp-check"):
        for path in (tmp_path, utf16):
            code, out, err = run_cli([command, str(path)])
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "Traceback" not in err


def test_dg_commands_keep_the_requested_bound(monkeypatch, capsys):
    # no silent clamp: d2 H0SCdual --inputs 5 builds the dual at 5 inputs
    asked = []

    def stub(inputs):
        asked.append(inputs)
        return h0sc_dual_dg(2)

    monkeypatch.setitem(cli.DG_MODELS, "H0SCdual", stub)
    assert main(["d2", "H0SCdual", "--inputs", "5"]) == 0
    assert asked == [5]
    assert capsys.readouterr().out.startswith("OK")


def test_missing_file_exit_code_from_process(tmp_path):
    code, _, err = run_cli(["dims", str(tmp_path / "no-such-file")])
    assert code == 2
    assert "missing file" in err


@pytest.mark.parametrize("relation, message", [
    ("f2(f2(c1,c2),c4) - f2(c1,f2(c2,c4))", "not labelled 1..n"),
    ("f2(c1,c1)", "not labelled 1..n"),
    ("f2(c1,c2) - f2(f2(c1,c2),c3)", "mixes signatures"),
])
def test_malformed_relation_exits_2_with_its_line(relation, message,
                                                  tmp_path, capsys):
    spec = tmp_path / "bad.operad"
    spec.write_text("operad Bad\n"
                    "generator f2 : (c,c) -> c degree 0 symmetry trivial\n"
                    f"relation {relation}\n")
    assert main(["dims", str(spec)]) == 2
    err = capsys.readouterr().err
    assert message in err and "(line 3)" in err


MALFORMED_SPECS = {
    "closed-regular": ("generator m : (c,c) -> c degree 0 symmetry regular\n"
                       "relation m(m(c1,c2),c3) - m(c1,m(c2,c3))\n",
                       "closed block of size 2", 2),
    "identity-signature": ("generator m : (o) -> o degree 0 symmetry none\n"
                           "relation m(o1)\n", "identity", 2),
    "nullary": ("generator m : () -> o degree 0 symmetry none\n",
                "nullary", 2),
    "duplicate-name": ("generator m : (o,o) -> o degree 0 symmetry regular\n"
                       "generator m : (c,c) -> c degree 0 symmetry trivial\n",
                       "duplicate space name m", 3),
    "opposite-unary": ("generator a : (c) -> o degree 0 symmetry none\n"
                       "generator b : (o) -> c degree 0 symmetry none\n",
                       "opposite unary generators", 3),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
def test_malformed_generators_exit_2_with_their_line(name, tmp_path):
    text, message, line = MALFORMED_SPECS[name]
    f = tmp_path / f"{name}.operad"
    f.write_text(f"operad {name}\n{text}")
    code, _, err = run_cli(["dims", str(f), "--inputs", "3"])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err and f"(line {line})" in err


MALFORMED_TENSORS = {
    "repeated-symbol": "closed x 0\nclosed x 0\n",
    "wrong-degree": "closed x 1\nl 2: x,x -> x\n",
    "open-closed-under-shlp": "closed x 0\nopen a -1\nn 1 0: x | -> a\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TENSORS))
def test_malformed_tensor_file_exits_2(name, tmp_path, capsys):
    f = tmp_path / f"{name}.tensors"
    f.write_text(MALFORMED_TENSORS[name])
    assert main(["shlp-check", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_tensor_file_exit_code_from_process(tmp_path):
    f = tmp_path / "wrong-degree.tensors"
    f.write_text(MALFORMED_TENSORS["wrong-degree"])
    code, _, err = run_cli(["shlp-check", str(f)])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_bad_tensor_coefficient_exit_code_from_process(tmp_path):
    f = tmp_path / "zero-denominator.tensors"
    f.write_text("open a 0\nn 0 2: | a,a -> 1/0*a\n")
    code, _, err = run_cli(["shlp-check", str(f)])
    assert code == 2
    assert err.startswith("error: bad coefficient") and "(line 2" in err
    assert "Traceback" not in err


PAIR_TENSORS = """
closed x 0
closed y 0
open a 0
open b 0
l 2: x,y -> y
n 0 2: | a,a -> b
n 1 1: x | a -> a
n 1 1: x | b -> 2*b
"""

# tensors whose mixed relations fail at 3 inputs
FAILING_TENSORS = """
closed x 0
closed y 0
open a 0
l 2: x,y -> x
n 0 2: | a,a -> a
n 1 1: x | a -> a
n 1 1: y | a -> 3*a
"""

# (exit code, one cheap call) for every subcommand, passing, failing and
# refused; "{pair}" and "{failing}" are the tensor files above
EVERY_COMMAND = [
    (0, ["dims", "Com", "--inputs", "2"]),
    (0, ["dual", "Lie"]),
    (0, ["span", "LP", "--sig", "2,1,o"]),
    (0, ["d2", "LPinf", "--inputs", "2"]),
    (0, ["homology", "OCinf", "--inputs", "2"]),
    (0, ["gk", "Com", "--order", "3"]),
    (0, ["ql-check", "LP"]),
    (0, ["shlp-check", "{pair}", "-N", "2"]),
    (1, ["shlp-check", "{failing}", "-N", "3"]),
    (2, ["verify-paper", "--only", "no-such-check"]),
    (0, ["verify-paper", "--only", "koszul-dual"]),
]


def test_every_command_is_exercised():
    commands = {name[4:].replace("_", "-") for name in vars(cli)
                if name.startswith("cmd_")}
    assert {argv[0] for _, argv in EVERY_COMMAND} == commands


@pytest.mark.parametrize("code, argv", EVERY_COMMAND,
                         ids=[" ".join(argv) for _, argv in EVERY_COMMAND])
def test_text_and_json_agree(code, argv, tmp_path, capsys):
    files = {"pair": PAIR_TENSORS, "failing": FAILING_TENSORS}
    for name, text in files.items():
        (tmp_path / f"{name}.tensors").write_text(text)
    argv = [a.format(**{name: tmp_path / f"{name}.tensors" for name in files})
            for a in argv]
    assert main(argv) == code
    text = capsys.readouterr().out
    assert main(argv + ["--json"]) == code
    out = capsys.readouterr().out
    if code == 2:
        assert text == out == ""
    else:
        assert text and json.loads(out) is not None


def test_only_main_prints():
    # every cmd_* returns its record and text; main is the one writer
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())

    def prints(node):
        return {n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "print"}

    main_def = next(f for f in tree.body
                    if isinstance(f, ast.FunctionDef) and f.name == "main")
    assert prints(main_def) and prints(tree) == prints(main_def)


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, a cost paid at
    # every cold start of the CLI; the tree values are plain slotted classes
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bioperad.cli; print(sorted("
         "{'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
