import json
import subprocess
import sys

import pytest

from bioperad.cli import main

BIN = [sys.executable, "-m", "bioperad.cli"]


def run_cli(args):
    proc = subprocess.run(BIN + args, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_dims_lp_includes_21():
    code, out, _ = run_cli(["dims", "LP", "--inputs", "3"])
    assert code == 0
    assert "(2,1;o)" in out and "     2" in out


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


def test_gk_command():
    code, out, _ = run_cli(["gk", "LP", "--order", "5"])
    assert code == 0
    assert "holds" in out


def test_ql_check_builtin():
    code, out, _ = run_cli(["ql-check", "H0SC"])
    assert code == 0
    assert "ql1: pass" in out and "ql2: pass" in out


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
