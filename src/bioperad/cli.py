"""Command-line interface.

Subcommands: dims, dual, span, d2, homology, gk, ql-check, shlp-check,
verify-paper.  Models are builtin names or paths to operad files; output is
deterministic, and --json switches every subcommand to machine-readable
records.
"""

import argparse
import json
import os
import sys

from .algebraside import TensorFileError, parse_tensor_file, shlp_ocha_check
from .dgcalc import homology_dims, verify_d_squared
from .duality import quadratic_dual
from .models import (PRESENTATION_BUILDERS, builtin_presentation,
                     h0sc_dual_dg, lpinf_dg, ocinf_dg)
from .presentation import (check_ql_conditions, quotient_dims, relation_span,
                           signatures_within)
from .specfile import SpecFileError, emit_spec, parse_spec
from .trees import Signature
from .verify import DEFAULT_BOUNDS, closed_dim_table, run_checks
from .dgcalc import hilbert_series_gk_check

DG_MODELS = {
    "OCinf": ocinf_dg,
    "LPinf": lpinf_dg,
    "H0SCdual": h0sc_dual_dg,
}


def bound(text):
    """argparse type of every size bound: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive bound")
    return value


def _load_presentation(source):
    if os.path.exists(source):
        with open(source, encoding="utf-8") as f:
            return parse_spec(f.read())
    if source in PRESENTATION_BUILDERS:
        return builtin_presentation(source)
    known = ", ".join(sorted(PRESENTATION_BUILDERS))
    raise SystemExit(f"error: unknown model or missing file {source!r}; "
                     f"builtin models: {known}")


def _parse_sig(text):
    try:
        n, m, x = text.split(",")
        return Signature(int(n), int(m), x.strip())
    except Exception:
        raise SystemExit(f"error: bad signature {text!r}; use n,m,c or n,m,o")


def _emit(records, as_json, text_lines):
    if as_json:
        print(json.dumps(records, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def cmd_dims(args):
    pres = _load_presentation(args.model)
    dims = quotient_dims(pres, args.inputs)
    records = []
    lines = [f"{'signature':12s} {'degree':>6s} {'dim':>5s}"]
    for s in signatures_within(args.inputs):
        per = sorted((d, v) for (s2, d), v in dims.items() if s2 == s)
        for d, v in per:
            records.append({"signature": str(s), "degree": d, "dim": v})
            lines.append(f"{str(s):12s} {d:6d} {v:5d}")
    _emit(records, args.json, lines)
    return 0


def cmd_dual(args):
    pres = _load_presentation(args.model)
    dual = quadratic_dual(pres, rename=lambda n: n + "v",
                          name=f"{pres.name}_dual")
    text = emit_spec(dual)
    if args.json:
        print(json.dumps({"operad": dual.name, "spec": text}))
    else:
        print(text, end="")
    return 0


def cmd_span(args):
    pres = _load_presentation(args.model)
    s = _parse_sig(args.sig)
    span = relation_span(pres, s, args.weight)
    records = {"signature": str(s), "weight": args.weight, "dim": span.dim,
               "basis": [[str(x) for x in row] for row in span.basis]}
    lines = [f"relation span at {s}, weight {args.weight}: dim {span.dim}"]
    for row in span.basis:
        lines.append("  [" + ", ".join(str(x) for x in row) + "]")
    _emit(records, args.json, lines)
    return 0


def _load_dg(name, inputs):
    if name not in DG_MODELS:
        known = ", ".join(sorted(DG_MODELS))
        raise SystemExit(f"error: unknown dg model {name!r}; known: {known}")
    if name == "H0SCdual":
        inputs = min(inputs, 4)
    return DG_MODELS[name](inputs)


def cmd_d2(args):
    dg = _load_dg(args.model, args.inputs)
    bad = verify_d_squared(dg)
    extra = dg.ideal_respected() if dg.trunc is not None else []
    n = len(bad) + len(extra)
    if args.json:
        print(json.dumps({"model": args.model, "violations": n,
                          "details": [str(b)[:200] for b in (bad + extra)[:5]]}))
    else:
        print(f"{'OK' if n == 0 else 'FAIL'}: {n} violations")
        for b in (bad + extra)[:5]:
            print(f"  {str(b)[:200]}")
    return 0 if n == 0 else 1


def cmd_homology(args):
    dg = _load_dg(args.model, args.inputs)
    h = homology_dims(dg)
    records = []
    lines = [f"{'signature':12s} {'degree':>6s} {'chainDim':>9s} {'homDim':>7s}"]
    for s in signatures_within(dg.max_inputs):
        for d in dg.cell_degrees(s):
            rec = {"signature": str(s), "degree": d,
                   "chainDim": dg.chain_dim(s, d),
                   "homDim": h.get((s, d), 0)}
            records.append(rec)
            lines.append(f"{str(s):12s} {d:6d} {rec['chainDim']:9d} "
                         f"{rec['homDim']:7d}")
    _emit(records, args.json, lines)
    return 0


def cmd_gk(args):
    tables = {"Com": "Com", "H0SCvor": "Com", "Lie": "Lie", "LP": "Lie"}
    if args.model not in tables:
        raise SystemExit("error: gk supports the closed parts of "
                         "Com, Lie, H0SCvor, LP")
    which = tables[args.model]
    dual = "Lie" if which == "Com" else "Com"
    gp = closed_dim_table(which, args.order)
    gd = closed_dim_table(dual, args.order)
    report = hilbert_series_gk_check(gp, gd, args.order)
    if args.json:
        print(json.dumps({"model": args.model, "order": args.order,
                          "ok": report["ok"],
                          "g": [str(c) for c in report["g_p"]],
                          "g_dual": [str(c) for c in report["g_dual"]],
                          "composed": [str(c) for c in report["composed"]]}))
    else:
        print(f"g(t) coefficients: {[str(c) for c in report['g_p']]}")
        print(f"g!(t) coefficients: {[str(c) for c in report['g_dual']]}")
        print("functional equation " + ("holds" if report["ok"] else "FAILS"))
    return 0 if report["ok"] else 1


def cmd_ql_check(args):
    pres = _load_presentation(args.model)
    report = check_ql_conditions(pres)
    if args.json:
        print(json.dumps({"ql1": report["ql1"], "ql2": report["ql2"],
                          "witnesses": [str(w) for w in report["witnesses"]]}))
    else:
        print(f"ql1: {'pass' if report['ql1'] else 'fail'}")
        print(f"ql2: {'pass' if report['ql2'] else 'fail'}")
        for w in report["witnesses"]:
            print(f"  witness: {w}")
    return 0 if report["ql1"] and report["ql2"] else 1


def cmd_shlp_check(args):
    try:
        with open(args.tensorfile, encoding="utf-8") as f:
            data = parse_tensor_file(f.read())
    except FileNotFoundError:
        raise SystemExit(f"error: no such file {args.tensorfile!r}")
    report = shlp_ocha_check(data, args.mode, args.N)
    if args.json:
        print(json.dumps({"mode": args.mode, "arity": args.N,
                          "passed": report.passed,
                          "violations": [str(v)[:200]
                                         for v in report.violations[:10]],
                          "discrepancies": [str(v)[:200] for v in
                                            report.discrepancies[:10]]}))
    else:
        print("PASS" if report.passed else "FAIL")
        for v in report.violations[:10]:
            print(f"  violated: {str(v)[:200]}")
        for v in report.discrepancies[:10]:
            print(f"  method discrepancy: {str(v)[:200]}")
    return 0 if report.passed else 1


def cmd_verify_paper(args):
    bounds = dict(DEFAULT_BOUNDS)
    if args.dims_bound is not None:
        bounds["dims"] = args.dims_bound
    if args.d2_bound is not None:
        bounds["d2"] = args.d2_bound
    if args.homology_bound is not None:
        bounds["homology"] = args.homology_bound
        bounds["laws"] = min(bounds["laws"], args.homology_bound)
    selection = set(args.only) if args.only else None
    results = run_checks(selection, bounds)
    ok = all(r.status != "fail" for r in results)
    if args.json:
        print(json.dumps([r.record() for r in results], indent=2,
                         default=str))
    else:
        for r in results:
            mark = {"pass": "PASS", "fail": "FAIL", "note": "NOTE"}[r.status]
            t = f" [{r.seconds:.1f}s]" if r.seconds else ""
            print(f"{mark} {r.id}: {r.claim}{t}")
            if r.status == "fail" and r.witness is not None:
                print(f"     witness: {str(r.witness)[:400]}")
        print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="bioperad",
        description="exact computer algebra for 2-colored operads")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dims", help="quotient dimensions per signature")
    d.add_argument("model")
    d.add_argument("--inputs", type=bound, default=4)
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_dims)

    d = sub.add_parser("dual", help="quadratic dual presentation")
    d.add_argument("model")
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_dual)

    d = sub.add_parser("span", help="relation span at a signature")
    d.add_argument("model")
    d.add_argument("--sig", required=True, help="n,m,c or n,m,o")
    d.add_argument("--weight", type=int, default=2)
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_span)

    d = sub.add_parser("d2", help="verify the differential squares to zero")
    d.add_argument("model", help="OCinf, LPinf or H0SCdual")
    d.add_argument("--inputs", type=bound, default=4)
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_d2)

    d = sub.add_parser("homology", help="per-cell homology dimensions")
    d.add_argument("model", help="OCinf, LPinf or H0SCdual")
    d.add_argument("--inputs", type=bound, default=3)
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_homology)

    d = sub.add_parser("gk", help="generating-series functional equation")
    d.add_argument("model")
    d.add_argument("--order", type=bound, default=7)
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_gk)

    d = sub.add_parser("ql-check", help="quadratic-linear conditions")
    d.add_argument("model")
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_ql_check)

    d = sub.add_parser("shlp-check", help="strong homotopy structure check")
    d.add_argument("tensorfile")
    d.add_argument("-N", type=bound, default=4)
    d.add_argument("--mode", choices=["SHLP", "OCHA"], default="SHLP")
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_shlp_check)

    d = sub.add_parser("verify-paper", help="run the whole claim suite")
    d.add_argument("--only", nargs="*", help="check ids or groups")
    d.add_argument("--json", action="store_true")
    d.add_argument("--dims-bound", type=bound)
    d.add_argument("--d2-bound", type=bound)
    d.add_argument("--homology-bound", type=bound)
    d.set_defaults(fn=cmd_verify_paper)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecFileError, TensorFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
