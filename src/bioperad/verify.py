"""The end-to-end verification suite.

Each check re-derives one finite claim about the builtin operads and
reports {id, claim, status, witness}.  Statuses: pass / fail for checks,
note for recorded discrepancies that the engine resolves by convention.
The runner is deterministic and order-stable; any fail makes the suite
exit nonzero.
"""

import random
import time
from itertools import product
from math import factorial

from .algebraside import (CofreePair, FreeAlgebra, GradedPair,
                          HomotopyAlgebraData, LeibnizPairData,
                          ce_hochschild_homology, check_coderivation_laws,
                          graded_multisets, shlp_ocha_check,
                          strict_pair_tensors)
from .dgcalc import gk_mismatches, homology_dims, verify_d_squared
from .duality import (QLFailure, cobar_truncate, ql_koszul_data,
                      quadratic_dual, weight2_signatures)
from .models import (UNIT_COMPOSITE_DIMS, alpha_composite_dims,
                     boundary_identities, h0sc_dual_dg, h0sc_dual_n11_image,
                     h0sc_dual_presentation, h0sc_presentation,
                     h0scvor_presentation, lambda_c_oc_presentation,
                     lp_presentation, lpinf_dg, ocinf_dg, palpha_presentation,
                     psi_commutes_with_differentials, qh0sc_presentation,
                     whistle_composite_dims)
from .presentation import (Presentation, ambient_basis, project_q,
                           quotient_dims, relation_span, signatures_within)
from .trees import CLOSED, OPEN, parse_term, sig

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


def dim_mismatches(got, want):
    """The cells where two {(signature, degree): dim} tables differ, a
    missing cell counting as 0: [{"cell": "<sig> <degree>", "got": x,
    "want": y}], in signatures_within order and then by degree."""
    cells = set(got) | set(want)
    bound = max((s.total for s, _ in cells), default=0)
    order = {s: i for i, s in enumerate(signatures_within(bound))}
    out = []
    for s, d in sorted(cells, key=lambda cell: (order[cell[0]], cell[1])):
        x, y = got.get((s, d), 0), want.get((s, d), 0)
        if x != y:
            out.append({"cell": f"{s} {d}", "got": x, "want": y})
    return out


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
    bad = (_span_mismatches("dual(LP)", dual, vor)
           + _span_mismatches("dual(H0SCvor)", back, lp))
    return _ok(not bad, bad)


def _span_mismatches(label, a, b):
    """(label, signature) at every weight-2 signature of a's generators
    where the weight-2 relation spans of a and b differ."""
    return [(label, str(s)) for s in weight2_signatures(a.collection)
            if relation_span(a, s, 2) != relation_span(b, s, 2)]


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
    # H0SCvor's relations, read into H0SC's collection, and qR's three more
    stated = [parse_term(coll, repr(r))
              for r in h0scvor_presentation().relations]
    stated += [parse_term(coll, text) for text in (
        "e02(al(c1),o1)", "e02(o1,al(c1))", "e11(c1,al(c2)) - al(f2(c1,c2))")]
    bad += _span_mismatches("qR", q, Presentation(coll, stated, "stated-qR"))
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
    return bad + _span_mismatches("dual relations", dual,
                                  h0sc_dual_presentation())


def check_d_squared(bounds):
    n = bounds["d2"]
    bad = verify_d_squared(ocinf_dg(n))
    bad += verify_d_squared(lpinf_dg(n))
    bad += verify_d_squared(h0sc_dual_dg(min(bounds["homology"], 4)))
    return _ok(not bad, [str(b)[:200] for b in bad[:3]])


def check_koszulity_evidence(bounds):
    n = bounds["homology"]
    h = homology_dims(cobar_truncate(lp_presentation(), n))
    # H0SCvor's table lies in degree 0, so equality is concentration there
    bad = dim_mismatches(h, quotient_dims(h0scvor_presentation(), n))
    return _ok(not bad, bad)


def check_homology_is_suspended_top(bounds):
    n = bounds["homology"]
    h = homology_dims(ocinf_dg(n))
    bad = dim_mismatches(h, quotient_dims(lambda_c_oc_presentation(), n))
    # the two cells called out explicitly
    spot = (h.get((sig(1, 1, OPEN), -1), 0) == 1
            and h.get((sig(2, 0, OPEN), -1), 0) == 1
            and h.get((sig(2, 0, OPEN), -2), 0) == 1)
    return _ok(not bad and spot, bad)


def check_nonformality(bounds):
    oc = ocinf_dg(3)
    h = homology_dims(oc)
    chain_deg0 = oc.chain_dim(sig(1, 1, OPEN), 0)
    h0 = h.get((sig(1, 1, OPEN), 0), 0)
    target = quotient_dims(lambda_c_oc_presentation(), 3)
    degrees = {d for (s, d) in target if s == sig(1, 1, OPEN)}
    return _ok(chain_deg0 == 1 and h0 == 0 and degrees == {-1},
               {"chain_deg0": chain_deg0, "H0": h0,
                "target_degrees": sorted(degrees)})


def check_ce_hochschild(bounds):
    fa = FreeAlgebra(GradedPair.ungraded(2, 1), 3)
    data = LeibnizPairData.from_free_algebra(fa)
    h = ce_hochschild_homology(data, 3)
    good = (h.get(("c", 1, 1)) == 2 and h.get(("o", 1, 1)) == 1
            and all((w, n) == (1, 1) for (color, w, n) in h))
    return _ok(good, {str(k): v for k, v in h.items()})


def _random_image(rng, outputs, bound, p):
    """A sparse image {i: c} on the outputs: each is kept when rng.random()
    < p, with c drawn from -bound..bound; zeros are dropped."""
    img = {i: rng.randint(-bound, bound) for i in outputs if rng.random() < p}
    return {i: c for i, c in img.items() if c}


def check_coderivation_lift(bounds):
    rng = random.Random(101)
    pair = GradedPair.ungraded(2, 2)
    cofree = CofreePair(pair, 3, 3)
    psi, phi = {}, {}
    for m in cofree.closed_basis:
        img = _random_image(rng, range(2), 2, 0.6)
        if img:
            psi[m] = img
    for key in cofree.mixed_basis:
        if rng.random() < 0.5:
            continue
        img = _random_image(rng, range(2), 2, 0.6)
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
        for key in graded_multisets([d + 1 for d in cdeg], n):
            din = sum(cdeg[i] for i in key)
            img = _random_image(
                rng, [i for i in range(2) if cdeg[i] == din + n - 2], 1, 0.5)
            if img:
                table[key] = img
        if table:
            l_tensors[n] = table
    n_tensors = {}
    for p in range(0, 3):
        for q in range(1, 3):
            table = {}
            for ck in graded_multisets([d + 1 for d in cdeg], p):
                for ok in product(range(2), repeat=q):
                    din = sum(cdeg[i] for i in ck) + sum(odeg[i] for i in ok)
                    img = _random_image(
                        rng, [i for i in range(2)
                              if odeg[i] == din + p + q - 2], 1, 0.4)
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
    bracket = {(0, 1): {1: 1}}
    mult = {(0, 0): {1: 1}}
    action = {(0, 0): {0: 1}, (0, 1): {1: 2}}
    valid = strict_pair_tensors(pair, bracket, mult, action)
    rep = shlp_ocha_check(valid, "SHLP", 4)
    if not rep.passed or rep.discrepancies:
        return "fail", {"strict-pair": str(rep)}
    perturbed = strict_pair_tensors(pair, bracket, mult,
                                    {**action, (0, 1): {1: -2}})
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
    laws = [("alpha", quotient_dims(qh0sc_presentation(), n),
             alpha_composite_dims(n)),
            ("whistle", quotient_dims(h0sc_dual_presentation(), n),
             whistle_composite_dims(n)),
            ("unit", quotient_dims(palpha_presentation(), 3),
             UNIT_COMPOSITE_DIMS)]
    bad = [{"law": law, **w} for law, got, want in laws
           for w in dim_mismatches(got, want)]
    return _ok(not bad, bad[:3])


def _stated_dims(n):
    """The free-algebra descriptions of the two degree-0 quotients over
    signatures with 2..n inputs: commutative-acting open parts are q!,
    Lie-acting open parts are the decorated-word counts, closed parts are 1
    and the multilinear Lyndon count.  Returns (H0SCvor's table, LP's)."""
    vor, lp = {}, {}
    for total in range(2, n + 1):
        vor[(sig(total, 0, CLOSED), 0)] = 1
        # multilinear Lyndon words
        lp[(sig(total, 0, CLOSED), 0)] = factorial(total - 1)
        for q in range(1, total + 1):
            p = total - q
            vor[(sig(p, q, OPEN), 0)] = factorial(q)
            # words of q decorated letters, the p closed generators
            # prepended into the letters in some order: q! orders of the
            # letters times (p+q-1)!/(q-1)! ways to fill them
            lp[(sig(p, q, OPEN), 0)] = q * factorial(p + q - 1)
    return vor, lp


def check_quotient_dims(bounds):
    """Quotient tables against the stated tables at the dims bound."""
    n = bounds["dims"]
    vor, lp = _stated_dims(n)
    bad = []
    for name, pres, want in (("H0SCvor", h0scvor_presentation(), vor),
                             ("LP", lp_presentation(), lp)):
        bad += [{"operad": name, **w}
                for w in dim_mismatches(quotient_dims(pres, n), want)]
    return _ok(not bad, bad[:5])


def check_gk_series(bounds):
    """Both Koszul pairs, both ways: the degree-0 pair from its stated
    tables (gated by quotient-dims), the unital pair from its composite
    tables (gated by distributive-laws)."""
    n = bounds["laws"]
    vor, lp = _stated_dims(7)
    alpha, whistle = alpha_composite_dims(n), whistle_composite_dims(n)
    pairs = [("LP/H0SCvor", lp, vor, 7), ("H0SCvor/LP", vor, lp, 7),
             ("qH0SC/H0SCdual", alpha, whistle, n),
             ("H0SCdual/qH0SC", whistle, alpha, n)]
    bad = [{"pair": name, **w} for name, p, dual, order in pairs
           for w in gk_mismatches(p, dual, order)]
    return _ok(not bad, bad[:5])


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
     "the two-color generating series of each swiss-cheese version and its "
     "Koszul dual compose to the identity, both ways: the degree-0 pair "
     "through order 7, the unital pair at the laws bound",
     check_gk_series),
    ("psi-boundaries", "models",
     "the counit comparison map commutes with the differentials on "
     "generators, and the iterated-element boundary identities hold",
     check_psi_and_boundaries),
]


def run_checks(selection=None, bounds=None, notes=True):
    """Run the checks whose id or group is in selection (all by default).

    Raises ValueError, before any check runs, when the selection holds a
    name that is neither a check id nor a group (naming the known ones), or
    when a bound is below 1 (naming it).
    """
    known = {cid for cid, _, _, _ in CHECKS} | {g for _, g, _, _ in CHECKS}
    unknown = set(selection or ()) - known
    if unknown:
        raise ValueError(f"unknown check or group "
                         f"{', '.join(sorted(unknown))}; "
                         f"known: {', '.join(sorted(known))}")
    bounds = {**DEFAULT_BOUNDS, **(bounds or {})}
    for name, value in bounds.items():
        if value < 1:
            raise ValueError(f"bound {name} must be at least 1, not {value}")
    results = []
    for check_id, group, claim, fn in CHECKS:
        if selection and not (check_id in selection or group in selection):
            continue
        t0 = time.perf_counter()
        try:
            status, witness = fn(bounds)
        except Exception as exc:  # a crashed check is a failed check
            status, witness = "fail", f"exception: {exc!r}"
        results.append(CheckResult(check_id, group, claim, status, witness,
                                   time.perf_counter() - t0))
    if notes and not selection:
        for note_id, text in NOTES:
            results.append(CheckResult(note_id, "notes", text, "note"))
    return results

