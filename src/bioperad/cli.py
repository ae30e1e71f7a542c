"""Command-line interface.

Subcommands: dims, dual, span, d2, homology, gk, ql-check, shlp-check,
verify-paper.  Models are builtin names or paths to operad files.  Each
``cmd_*`` returns ``(record, text_lines, exit_code)`` and prints nothing;
``main`` prints the record as JSON under --json and the text lines
otherwise, so output is deterministic and has one writer.
"""

import argparse
import json
import os
import sys

from .algebraside import shlp_ocha_check
from .dgcalc import gk_mismatches, homology_dims, verify_d_squared
from .duality import quadratic_dual
from .models import PRESENTATION_BUILDERS, h0sc_dual_dg, lpinf_dg, ocinf_dg
from .presentation import (check_ql_conditions, quotient_dims, relation_span,
                           signatures_within)
from .specfile import (FileFormatError, emit_spec, parse_spec,
                       parse_tensor_file)
from .trees import COLORS, Signature
from .verify import DEFAULT_BOUNDS, run_checks

DG_MODELS = {
    "OCinf": ocinf_dg,
    "LPinf": lpinf_dg,
    "H0SCdual": h0sc_dual_dg,
}


class UsageError(Exception):
    """A bad argument found after parsing: printed, then exit 2."""


def bound(text):
    """argparse type of every size bound: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive bound")
    return value


def _read(path):
    """The text of a file; an unreadable or non-UTF-8 file is a UsageError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path!r} is not UTF-8 text: {exc.reason} at "
                         f"byte {exc.start}") from exc


def _load_presentation(source):
    if os.path.exists(source):
        return parse_spec(_read(source))
    if source in PRESENTATION_BUILDERS:
        return PRESENTATION_BUILDERS[source]()
    known = ", ".join(sorted(PRESENTATION_BUILDERS))
    raise UsageError(f"unknown model or missing file {source!r}; "
                     f"builtin models: {known}")


def _parse_sig(text):
    parts = [p.strip() for p in text.split(",")]
    if (len(parts) != 3 or not (parts[0].isdigit() and parts[1].isdigit())
            or parts[2] not in COLORS):
        raise UsageError(f"bad signature {text!r}; use n,m,c or n,m,o")
    n, m = int(parts[0]), int(parts[1])
    if n + m == 0:
        raise UsageError(f"signature {text!r} has no inputs")
    return Signature(n, m, parts[2])


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
    return records, lines, 0


def cmd_dual(args):
    pres = _load_presentation(args.model)
    if not pres.is_quadratic():
        raise UsageError(f"{pres.name} is not quadratic; dual takes a "
                         "quadratic presentation")
    dual = quadratic_dual(pres, rename=lambda n: n + "v",
                          name=f"{pres.name}_dual")
    text = emit_spec(dual)
    return {"operad": dual.name, "spec": text}, text.splitlines(), 0


def cmd_span(args):
    pres = _load_presentation(args.model)
    s = _parse_sig(args.sig)
    try:
        span = relation_span(pres, s, args.weight)
    except ValueError as exc:  # a mixed-weight ideal has no weight slice
        raise UsageError(f"{args.model} at {s}: {exc}") from exc
    record = {"signature": str(s), "weight": args.weight, "dim": span.dim,
              "basis": [[str(x) for x in row] for row in span.basis]}
    lines = [f"relation span at {s}, weight {args.weight}: dim {span.dim}"]
    for row in record["basis"]:
        lines.append("  [" + ", ".join(row) + "]")
    return record, lines, 0


def _load_dg(name, inputs):
    if name not in DG_MODELS:
        known = ", ".join(sorted(DG_MODELS))
        raise UsageError(f"unknown dg model {name!r}; known: {known}")
    return DG_MODELS[name](inputs)


def cmd_d2(args):
    dg = _load_dg(args.model, args.inputs)
    bad = verify_d_squared(dg)
    details = [str(b)[:200] for b in bad[:5]]
    lines = [f"{'OK' if not bad else 'FAIL'}: {len(bad)} violations"]
    lines += [f"  {d}" for d in details]
    return ({"model": args.model, "violations": len(bad), "details": details},
            lines, 1 if bad else 0)


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
    return records, lines, 0


def cmd_gk(args):
    pres = _load_presentation(args.model)
    if not pres.is_quadratic():
        raise UsageError(f"{pres.name} is not quadratic; gk takes a "
                         "quadratic presentation")
    bad = gk_mismatches(quotient_dims(pres, args.order),
                        quotient_dims(quadratic_dual(pres), args.order),
                        args.order)
    lines = ["functional equation " + ("FAILS" if bad else "holds")]
    lines += [f"  {w['cell']}: got {w['got']}, want {w['want']}" for w in bad]
    return ({"model": args.model, "order": args.order, "ok": not bad,
             "mismatches": bad}, lines, 1 if bad else 0)


def cmd_ql_check(args):
    report = check_ql_conditions(_load_presentation(args.model))
    record = {"ql1": report["ql1"], "ql2": report["ql2"],
              "witnesses": [str(w) for w in report["witnesses"]]}
    lines = [f"{q}: {'pass' if record[q] else 'fail'}" for q in ("ql1", "ql2")]
    lines += [f"  witness: {w}" for w in record["witnesses"]]
    return record, lines, 0 if record["ql1"] and record["ql2"] else 1


def cmd_shlp_check(args):
    data = parse_tensor_file(_read(args.tensorfile))
    if args.mode == "SHLP" and data.has_open_closed_extension():
        raise UsageError("the file has q = 0 tensors; they need --mode OCHA")
    report = shlp_ocha_check(data, args.mode, args.N)
    record = {"mode": args.mode, "arity": args.N, "passed": report.passed,
              "violations": [str(v)[:200] for v in report.violations[:10]],
              "discrepancies": [str(v)[:200]
                                for v in report.discrepancies[:10]]}
    lines = ["PASS" if report.passed else "FAIL"]
    lines += [f"  violated: {v}" for v in record["violations"]]
    lines += [f"  method discrepancy: {v}" for v in record["discrepancies"]]
    return record, lines, 0 if report.passed else 1


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
    try:
        results = run_checks(selection, bounds)
    except ValueError as exc:  # an unknown check id or group
        raise UsageError(str(exc)) from exc
    ok = all(r.status != "fail" for r in results)
    lines = []
    for r in results:
        mark = {"pass": "PASS", "fail": "FAIL", "note": "NOTE"}[r.status]
        t = f" [{r.seconds:.1f}s]" if r.seconds else ""
        lines.append(f"{mark} {r.id}: {r.claim}{t}")
        if r.status == "fail" and r.witness is not None:
            lines.append(f"     witness: {str(r.witness)[:400]}")
    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    return [r.record() for r in results], lines, 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="bioperad",
        description="exact computer algebra for 2-colored operads")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        d = sub.add_parser(name, help=help)
        d.set_defaults(fn=fn)
        return d

    d = command("dims", cmd_dims, "quotient dimensions per signature")
    d.add_argument("model")
    d.add_argument("--inputs", type=bound, default=4)

    d = command("dual", cmd_dual, "quadratic dual presentation")
    d.add_argument("model")

    d = command("span", cmd_span, "relation span at a signature")
    d.add_argument("model")
    d.add_argument("--sig", required=True, help="n,m,c or n,m,o")
    d.add_argument("--weight", type=bound, default=2)

    d = command("d2", cmd_d2, "verify the differential squares to zero")
    d.add_argument("model", help="OCinf, LPinf or H0SCdual")
    d.add_argument("--inputs", type=bound, default=4)

    d = command("homology", cmd_homology, "per-cell homology dimensions")
    d.add_argument("model", help="OCinf, LPinf or H0SCdual")
    d.add_argument("--inputs", type=bound, default=3)

    d = command("gk", cmd_gk, "GK series equation against the dual")
    d.add_argument("model")
    d.add_argument("--order", type=bound, default=4)

    d = command("ql-check", cmd_ql_check, "quadratic-linear conditions")
    d.add_argument("model")

    d = command("shlp-check", cmd_shlp_check,
                "strong homotopy structure check")
    d.add_argument("tensorfile")
    d.add_argument("-N", type=bound, default=4)
    d.add_argument("--mode", choices=["SHLP", "OCHA"], default="SHLP")

    d = command("verify-paper", cmd_verify_paper, "run the whole claim suite")
    d.add_argument("--only", nargs="*", help="check ids or groups")
    d.add_argument("--dims-bound", type=bound)
    d.add_argument("--d2-bound", type=bound)
    d.add_argument("--homology-bound", type=bound)

    for d in sub.choices.values():
        d.add_argument("--json", action="store_true",
                       help="print the record as JSON")
    return p


def main(argv=None):
    """Run one subcommand: print its record as JSON under --json and its
    text lines otherwise; a usage or file error prints `error: ...` on
    stderr and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        record, lines, code = args.fn(args)
    except (UsageError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(record, indent=2, default=str))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
