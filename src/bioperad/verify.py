"""The end-to-end verification suite.

Each check re-derives one finite claim about the builtin operads and
reports {id, claim, status, witness}.  Statuses: pass / fail for checks,
note for recorded discrepancies that the engine resolves by convention.
The runner is deterministic and order-stable; any fail makes the suite
exit nonzero.
"""

import random
import time
from fractions import Fraction
from itertools import permutations as _perms
from math import factorial

from .algebraside import (CofreePair, GradedPair, HomotopyAlgebraData,
                          LeibnizPairData, _graded_multisets, _tensor_words,
                          ce_hochschild_homology, check_coderivation_laws,
                          free_algebra, shlp_ocha_check, strict_pair_tensors)
from .dgcalc import (DgTruncation, extend_derivation, hilbert_series_gk_check,
                     homology_dims, verify_d_squared)
from .duality import (QLFailure, cobar_truncate, ql_koszul_data,
                      quadratic_dual, weight2_signatures)
from .models import (LawFailure, alpha_distributive_law,
                     apply_distributive_law, boundary_identities,
                     com_presentation, h0sc_dual_dg, h0sc_dual_n11_image,
                     h0sc_dual_presentation, h0sc_presentation,
                     h0scvor_presentation, identity_distributive_law,
                     lambda_c_oc_presentation, lie_presentation,
                     lp_presentation, lpinf_dg, ocinf_dg, palpha_presentation,
                     psi_commutes_with_differentials,
                     whistle_distributive_law)
from .presentation import (Presentation, ambient_basis, project_q,
                           quotient_dims, relation_span, signatures_within)
from .trees import CLOSED, OPEN, Element, parse_term, sig

DEFAULT_BOUNDS = {"dims": 5, "d2": 5, "homology": 4, "laws": 4}


class CheckResult:
    def __init__(self, check_id, group, claim, status, witness=None,
                 seconds=None):
        self.id = check_id
        self.group = group
        self.claim = claim
        self.status = status
        self.witness = witness
        self.seconds = seconds

    def record(self):
        out = {"id": self.id, "claim": self.claim, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.seconds is not None:
            out["seconds"] = round(self.seconds, 2)
        return out


def _ok(condition, witness=None):
    return ("pass" if condition else "fail",
            None if condition else witness)


# ---------------------------------------------------------------------------
# Checks.  Each returns (status, witness).


def check_duality_dims(bounds):
    lp = lp_presentation()
    facts = []
    ab21 = ambient_basis(lp.collection, sig(2, 1, OPEN)).dim
    ab12 = ambient_basis(lp.collection, sig(1, 2, OPEN)).dim
    s21 = relation_span(lp, sig(2, 1, OPEN), 2).dim
    s12 = relation_span(lp, sig(1, 2, OPEN), 2).dim
    facts += [ab21 == 3, s21 == 1, ab12 == 6, s12 == 2]
    # orthogonal complements through the pairing
    dual = quadratic_dual(lp, rename=lambda n: n + "v")
    o21 = relation_span(dual, sig(2, 1, OPEN), 2).dim
    o12 = relation_span(dual, sig(1, 2, OPEN), 2).dim
    facts += [o21 == 2, o12 == 4]
    return _ok(all(facts),
               {"ambient": [ab21, ab12], "span": [s21, s12],
                "orthogonal": [o21, o12]})


def check_koszul_dual_identification(bounds):
    lp = lp_presentation()
    vor = h0scvor_presentation()
    ren = {"l2": "f2", "n02": "e02", "n11": "e11"}
    dual = quadratic_dual(lp, rename=lambda n: ren[n])
    back = quadratic_dual(vor, rename=lambda n: {v: k for k, v in
                                                 ren.items()}[n])
    bad = []
    for s in weight2_signatures(lp.collection):
        if relation_span(dual, s, 2) != relation_span(vor, s, 2):
            bad.append(("dual(LP)", str(s)))
        if relation_span(back, s, 2) != relation_span(lp, s, 2):
            bad.append(("dual(H0SCvor)", str(s)))
    return _ok(not bad, bad)


# H0SC generator -> its dual generator in H0SCdual
H0SC_DUAL_NAMES = {"f2": "l2", "e02": "n02", "e11": "n11", "al": "n10"}


def check_ql_and_projection(bounds):
    h = h0sc_presentation()
    try:
        data = ql_koszul_data(h, rename=H0SC_DUAL_NAMES.__getitem__)
    except QLFailure as exc:
        return "fail", exc.witnesses
    bad = _ql_dual_mismatches(data)
    q = project_q(h)
    coll = h.collection
    stated = list(h0scvor_presentation().relations)
    stated = [_relabel_into(coll, r) for r in stated]
    stated += [
        parse_term(coll, "e02(al(c1),o1)"),
        parse_term(coll, "e02(o1,al(c1))"),
        parse_term(coll, "e11(c1,al(c2))") - parse_term(coll, "al(f2(c1,c2))"),
    ]
    alt = Presentation(coll, stated, "stated-qR")
    for s in weight2_signatures(coll):
        if relation_span(q, s, 2) != relation_span(alt, s, 2):
            bad.append(("qR", str(s)))
    return _ok(not bad, bad)


def _ql_dual_mismatches(data):
    """Where the derived ql dual of H0SC differs from the hand-coded
    H0SCdual: the differential on generators, then the weight-2 relation
    spans."""
    dual = data.dual_presentation
    bad = []
    want = {"n11": {0: h0sc_dual_n11_image(dual.collection)}}
    if data.dual_genmap != want:
        bad.append(("differential",
                    {name: {dec: str(img) for dec, img in images.items()}
                     for name, images in data.dual_genmap.items()}))
    stated = h0sc_dual_presentation()
    for s in weight2_signatures(dual.collection):
        if relation_span(dual, s, 2) != relation_span(stated, s, 2):
            bad.append(("dual relations", str(s)))
    return bad


def _relabel_into(collection, relation):
    from .trees import Leaf, Node

    def conv(t):
        if isinstance(t, Leaf):
            return t
        return Node(collection[t.space.name], t.dec,
                    tuple(conv(c) for c in t.children))

    return Element({conv(t): c for t, c in relation.terms.items()})


def check_d_squared(bounds):
    n = bounds["d2"]
    bad = verify_d_squared(ocinf_dg(n))
    bad += verify_d_squared(lpinf_dg(n))
    dual = h0sc_dual_dg(min(bounds["homology"], 4))
    bad_ideal = dual.ideal_respected()
    bad += verify_d_squared(dual)
    witness = [str(b)[:200] for b in (bad + bad_ideal)[:3]]
    return _ok(not bad and not bad_ideal, witness)


def check_koszulity_evidence(bounds):
    n = bounds["homology"]
    coll, genmap = cobar_truncate(lp_presentation(), n, tag="lpbar_")
    dg = DgTruncation(coll, extend_derivation(coll, genmap), n,
                      name="cobar-LP")
    h = homology_dims(dg)
    vor = quotient_dims(h0scvor_presentation(), n)
    bad = []
    for s in signatures_within(n):
        expected = vor.get((s, 0), 0)
        got_zero = h.get((s, 0), 0)
        others = {d: v for (s2, d), v in h.items() if s2 == s and d != 0}
        if got_zero != expected or others:
            bad.append({"signature": str(s), "degree0": got_zero,
                        "expected": expected, "higher": others})
    return _ok(not bad, bad)


def check_homology_is_suspended_top(bounds):
    n = bounds["homology"]
    h = homology_dims(ocinf_dg(n))
    target = quotient_dims(lambda_c_oc_presentation(), n)
    table_h = {(str(s), d): v for (s, d), v in h.items()}
    table_t = {(str(s), d): v for (s, d), v in target.items()}
    mismatches = []
    for key in sorted(set(table_h) | set(table_t)):
        if table_h.get(key, 0) != table_t.get(key, 0):
            mismatches.append({"cell": key, "homology": table_h.get(key, 0),
                               "presentation": table_t.get(key, 0)})
    # the two cells called out explicitly
    spot = (h.get((sig(1, 1, OPEN), -1), 0) == 1
            and h.get((sig(2, 0, OPEN), -1), 0) == 1
            and h.get((sig(2, 0, OPEN), -2), 0) == 1)
    return _ok(not mismatches and spot, mismatches)


def check_nonformality(bounds):
    oc = ocinf_dg(3)
    h = homology_dims(oc, 3)
    chain_deg0 = oc.chain_dim(sig(1, 1, OPEN), 0)
    h0 = h.get((sig(1, 1, OPEN), 0), 0)
    target = quotient_dims(lambda_c_oc_presentation(), 3)
    degrees = {d for (s, d) in target if s == sig(1, 1, OPEN)}
    return _ok(chain_deg0 == 1 and h0 == 0 and degrees == {-1},
               {"chain_deg0": chain_deg0, "H0": h0,
                "target_degrees": sorted(degrees)})


def check_ce_hochschild(bounds):
    fa = free_algebra("LP", GradedPair.ungraded(2, 1), 3)
    data = LeibnizPairData.from_free_algebra(fa)
    h = ce_hochschild_homology(data, 3)
    good = (h.get(("c", 1, 1)) == 2 and h.get(("o", 1, 1)) == 1
            and all((w, n) == (1, 1) for (color, w, n) in h))
    return _ok(good, {str(k): v for k, v in h.items()})


def check_coderivation_lift(bounds):
    rng = random.Random(101)
    pair = GradedPair.ungraded(2, 2)
    cofree = CofreePair(pair, 3, 3)
    psi, phi = {}, {}
    for m in cofree.closed_basis:
        img = {i: Fraction(rng.randint(-2, 2)) for i in range(2)
               if rng.random() < 0.6}
        img = {k: v for k, v in img.items() if v}
        if img:
            psi[m] = img
    for key in cofree.mixed_basis:
        if rng.random() < 0.5:
            continue
        img = {i: Fraction(rng.randint(-2, 2)) for i in range(2)
               if rng.random() < 0.6}
        img = {k: v for k, v in img.items() if v}
        if img:
            phi[key] = img
    bad = check_coderivation_laws(cofree, psi, phi, -1)
    return _ok(not bad, bad[:3])


def _random_homotopy_data(rng):
    pair = GradedPair([("x", 0), ("y", 1)], [("a", 0), ("b", 1)])
    cdeg, odeg = [0, 1], [0, 1]
    l_tensors = {}
    for n in (1, 2, 3):
        table = {}
        for key in _graded_multisets([d + 1 for d in cdeg], n):
            din = sum(cdeg[i] for i in key)
            img = {i: Fraction(rng.randint(-1, 1)) for i in range(2)
                   if cdeg[i] == din + n - 2 and rng.random() < 0.5}
            img = {k: v for k, v in img.items() if v}
            if img:
                table[key] = img
        if table:
            l_tensors[n] = table
    n_tensors = {}
    for p in range(0, 3):
        for q in range(1, 3):
            table = {}
            for ck in _graded_multisets([d + 1 for d in cdeg], p):
                for ok in _tensor_words(2, q):
                    din = sum(cdeg[i] for i in ck) + sum(odeg[i] for i in ok)
                    img = {i: Fraction(rng.randint(-1, 1)) for i in range(2)
                           if odeg[i] == din + p + q - 2
                           and rng.random() < 0.4}
                    img = {k: v for k, v in img.items() if v}
                    if img:
                        table[(ck, ok)] = img
            if table:
                n_tensors[(p, q)] = table
    return HomotopyAlgebraData(pair, l_tensors, n_tensors)


def check_shlp_equivalence(bounds):
    rng = random.Random(2024)
    n_pass = n_fail = 0
    discrepancies = []
    # a valid strict pair and a perturbed one
    pair = GradedPair.ungraded(2, 2)
    bracket = {(0, 1): {1: Fraction(1)}}
    mult = {(0, 0): {1: Fraction(1)}}
    action = {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(2)}}
    valid = strict_pair_tensors(pair, bracket, mult, action)
    rep = shlp_ocha_check(valid, "SHLP", 4)
    if not rep.passed or rep.discrepancies:
        return "fail", {"strict-pair": str(rep)}
    perturbed = strict_pair_tensors(
        pair, bracket, mult,
        {**action, (0, 1): {1: Fraction(-2)}})
    rep2 = shlp_ocha_check(perturbed, "SHLP", 4)
    if rep2.passed or rep2.discrepancies:
        return "fail", {"perturbed-pair": str(rep2)}
    for trial in range(20):
        data = _random_homotopy_data(rng)
        report = shlp_ocha_check(data, "SHLP", 4)
        discrepancies.extend(report.discrepancies)
        if report.passed:
            n_pass += 1
        else:
            n_fail += 1
    return _ok(not discrepancies,
               {"passes": n_pass, "fails": n_fail,
                "discrepancies": discrepancies[:3]})


def check_distributive_laws(bounds):
    n = bounds["laws"]
    try:
        apply_distributive_law(alpha_distributive_law(n), n)
        apply_distributive_law(whistle_distributive_law(n), n)
        apply_distributive_law(identity_distributive_law(
            palpha_presentation(), 3), 3)
    except LawFailure as exc:
        return "fail", exc.witnesses[:3]
    return "pass", None


def closed_dim_table(which, order, cross_check_bound=5):
    """dim P(n) for the closed parts, engine-computed.

    Quotient dimensions up to the cross-check bound; beyond it the
    multilinear basis counts of the free algebra (multisets for the
    commutative side, multilinear Lyndon words for the Lie side), which are
    asserted to agree on the overlap.
    """
    pres = com_presentation() if which == "Com" else lie_presentation()
    dims = {}
    table = quotient_dims(pres, min(order, cross_check_bound))
    for n in range(2, min(order, cross_check_bound) + 1):
        dims[n] = table.get((sig(n, 0, CLOSED), 0), 0)
    dims[1] = 1  # the identity component
    for n in range(2, order + 1):
        if which == "Com":
            count = 1
        else:
            count = sum(1 for p in _perms(range(1, n + 1))
                        if p[0] == 1)  # multilinear Lyndon words
        if n in dims:
            if dims[n] != count:
                raise ValueError(f"{which}({n}): quotient {dims[n]} "
                                 f"!= multilinear count {count}")
        else:
            dims[n] = count
    return dims


def _lp_open_multilinear(p, q):
    """Multilinear open dimension of the free Lie-acting algebra: words of
    q decorated letters, each closed generator prepended into one letter in
    some order.  Brute-force enumeration."""
    from itertools import product as _product
    if q == 0:
        return 0
    total = 0
    for assignment in _product(range(q), repeat=p):
        fibers = [sum(1 for a in assignment if a == j) for j in range(q)]
        ways = 1
        for f in fibers:
            ways *= factorial(f)
        total += ways
    return total * factorial(q)


def check_quotient_dims(bounds):
    """Quotient tables against the free-algebra descriptions at the dims
    bound: commutative-acting open parts are q!, Lie-acting open parts are
    the decorated-word counts, closed parts are 1 and the multilinear
    Lyndon count."""
    n = bounds["dims"]
    vor = quotient_dims(h0scvor_presentation(), n)
    lp = quotient_dims(lp_presentation(), n)
    bad = []
    for total in range(2, n + 1):
        want_lie = sum(1 for p in _perms(range(1, total + 1)) if p[0] == 1)
        if vor.get((sig(total, 0, CLOSED), 0), 0) != 1:
            bad.append(("vor", str(sig(total, 0, CLOSED))))
        if lp.get((sig(total, 0, CLOSED), 0), 0) != want_lie:
            bad.append(("lp", str(sig(total, 0, CLOSED))))
    for p in range(0, n + 1):
        for q in range(0, n - p + 1):
            if p + q < 2:
                continue
            s = sig(p, q, OPEN)
            want_vor = factorial(q) if q >= 1 else 0
            if vor.get((s, 0), 0) != want_vor:
                bad.append(("vor", str(s), vor.get((s, 0), 0), want_vor))
            want_lp = _lp_open_multilinear(p, q)
            if lp.get((s, 0), 0) != want_lp:
                bad.append(("lp", str(s), lp.get((s, 0), 0), want_lp))
    return _ok(not bad, bad[:5])


def check_gk_series(bounds):
    com = closed_dim_table("Com", 7)
    lie = closed_dim_table("Lie", 7)
    report = hilbert_series_gk_check(com, lie, 7)
    other = hilbert_series_gk_check(lie, com, 7)
    return _ok(report["ok"] and other["ok"],
               {"composed": [str(c) for c in report["composed"]]})


def check_psi_and_boundaries(bounds):
    n = min(bounds["homology"], 4)
    bad = psi_commutes_with_differentials(n)
    fails = boundary_identities(n)
    return _ok(not bad and not fails,
               {"psi": [str(b)[:120] for b in bad[:2]],
                "boundaries": fails[:2]})


NOTES = [
    ("note-whistle-degree",
     "the degree -1 unary generator: the alternative degree +1 stated "
     "alongside the second distributive law is not adopted (homological "
     "convention, degree p+q-2 throughout)"),
    ("note-distributive-differential",
     "the differential displayed with the second distributive law maps "
     "(1,1;o) into (2,0;o) and is signature-inconsistent; the "
     "homotopy-centrality form d(n11) = n02 o1 n10 - n02 o2 n10 is used, "
     "and the quadratic-linear dual pipeline confirms it"),
    ("note-unshuffle-signs",
     "the printed unshuffle-formula signs for the strong homotopy "
     "differentials are complete only up to the operadic-suspension "
     "factor; the engine differential is the dualized-composition one and "
     "matches the printed formulas on binary shapes up to one global sign"),
]


CHECKS = [
    ("duality-dims", "duality",
     "dim F(E_lp)(2,1;o) = 3 with relation span 1 and orthogonal 2; "
     "dim F(E_lp)(1,2;o) = 6 with span 2 and orthogonal 4",
     check_duality_dims),
    ("koszul-dual", "duality",
     "the quadratic dual of the Lie-acting presentation equals the "
     "commutative-acting one span for span, and conversely",
     check_koszul_dual_identification),
    ("ql-conditions", "ql",
     "(ql1) and (ql2) hold for the unital presentation, its quadratic "
     "projection spans the stated relation list, and its quadratic-linear "
     "dual has the relations and the n11 differential of H0SCdual",
     check_ql_and_projection),
    ("d-squared", "dg",
     "d^2 = 0 for the strong homotopy truncations at the d2 bound and for "
     "the dual dg quotient at <= 4 inputs (ideal respected)",
     check_d_squared),
    ("koszulity", "homology",
     "the cobar of the dual of the Lie-acting operad has homology "
     "concentrated in degree 0 with the commutative-acting dimensions",
     check_koszulity_evidence),
    ("homology-top", "homology",
     "the homology of the open-closed truncation equals the "
     "color-suspended top operad, cell by cell and degree by degree",
     check_homology_is_suspended_top),
    ("non-formality", "homology",
     "the degree-0 homology of the (1,1;o) cell vanishes while its chain "
     "generator has degree 0 and every target class there has degree -1",
     check_nonformality),
    ("ce-hochschild", "algebras",
     "the pair complex of the free Lie-acting algebra on dims (2,1) at "
     "weight <= 3 is concentrated on the generators",
     check_ce_hochschild),
    ("coderivation-lift", "algebras",
     "lifted corestrictions satisfy both coalgebra compatibilities on the "
     "exhaustive (3,3) truncation",
     check_coderivation_lift),
    ("shlp-equivalence", "algebras",
     "[D,D] = 0 componentwise agrees with the unshuffle relations on "
     "every instance over 20 randomized tensor sets plus strict pairs",
     check_shlp_equivalence),
    ("distributive-laws", "laws",
     "composite collection dimensions match the quotient truncations for "
     "the unary-layer laws and the identity law",
     check_distributive_laws),
    ("quotient-dims", "dims",
     "quotient dimension tables match the free-algebra descriptions at the "
     "dims bound: q! open words over the commutative action, decorated-word "
     "counts over the Lie action, multilinear Lyndon words on the closed "
     "side",
     check_quotient_dims),
    ("gk-series", "series",
     "the closed generating series compose to the identity through order "
     "7, both ways",
     check_gk_series),
    ("psi-boundaries", "models",
     "the counit comparison map commutes with the differentials on "
     "generators, and the iterated-element boundary identities hold",
     check_psi_and_boundaries),
]


def run_checks(selection=None, bounds=None, notes=True):
    bounds = {**DEFAULT_BOUNDS, **(bounds or {})}
    results = []
    for check_id, group, claim, fn in CHECKS:
        if selection and not (check_id in selection or group in selection):
            continue
        t0 = time.time()
        try:
            status, witness = fn(bounds)
        except Exception as exc:  # a crashed check is a failed check
            status, witness = "fail", f"exception: {exc!r}"
        results.append(CheckResult(check_id, group, claim, status, witness,
                                   time.time() - t0))
    if notes and not selection:
        for note_id, text in NOTES:
            results.append(CheckResult(note_id, "notes", text, "note"))
    return results

