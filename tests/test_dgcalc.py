import hashlib
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioperad import duality, models
from bioperad.dgcalc import (Derivation, DgTruncation, gk_mismatches,
                             homology_dims, verify_d_squared)
from bioperad.models import (alpha_composite_dims, h0sc_dual_dg,
                             h0sc_dual_presentation, lp_formula_genmap,
                             lpinf_dg, ocinf_dg, whistle_composite_dims)
from bioperad.presentation import (Presentation, group_elements, ideal_spans,
                                   signatures_within)
from bioperad.trees import (CLOSED, OPEN, Element, enumerate_basis, graft,
                            parse_term, sig, symmetric_act, text_form,
                            text_form_signed)


def test_zero_genmap_zero_differential():
    dg = ocinf_dg(3)
    zero = DgTruncation(dg.collection, lambda s: [Element()] * s.dim,
                        3).derivation
    for t in dg.chain_basis(sig(2, 1, OPEN), 1):
        assert zero.apply_tree(t).is_zero()


def test_substitution_plans_are_owned_by_the_image_trees_and_built_once():
    # a fresh dg, so that no other test has compiled plans on its nodes
    dg = ocinf_dg.__wrapped__(3)
    images = dg.derivation.images

    def plans_after_a_pass():
        d = Derivation(images)
        for s in dg.signatures():
            for degree in dg.cell_degrees(s):
                for t in dg.chain_basis(s, degree):
                    d.apply_tree(t)
        return {u: u._plan for space in dg.collection
                for u in space.nodes.values() if u._plan is not None}

    first = plans_after_a_pass()
    assert set(first) == {u for per_space in images.values()
                          for image in per_space for u in image.terms}
    second = plans_after_a_pass()
    assert second.keys() == first.keys()
    assert all(second[u] is first[u] for u in first)


def test_dg_truncation_checks_the_genmap_contract():
    coll = lpinf_dg(3).collection
    l3 = parse_term(coll, "l3(c1,c2,c3)")
    # l2 -> l3 changes the signature; l3 -> l3 keeps the degree
    with pytest.raises(ValueError, match="changes the signature of l2"):
        DgTruncation(coll, lambda s: [l3 if s.name == "l2" else
                                      Element()] * s.dim, 3)
    with pytest.raises(ValueError, match="lower degree by 1 on l3"):
        DgTruncation(coll, lambda s: [l3 if s.name == "l3" else
                                      Element()] * s.dim, 3)
    # one image per basis element: n12 has two
    assert coll["n12"].dim == 2
    with pytest.raises(ValueError, match="1 images for the 2 basis "
                                         "elements of n12"):
        DgTruncation(coll, lambda s: [Element()] * (
            1 if s.name == "n12" else s.dim), 3)


@pytest.mark.parametrize("build", [
    lambda: models.ocinf_dg.__wrapped__(3),
    lambda: duality.cobar_truncate(models.lp_presentation(), 3)],
    ids=["OCinf(3)", "cobar(LP,3)"])
def test_cobar_genmap_reads_each_two_vertex_tree_once(monkeypatch, build):
    # the coordinates callback sees each weight-2 tree of each vertex
    # space exactly once while the dg is built
    seen = Counter()
    real = duality.cobar_genmap

    def counting(coll, coordinates):
        def counted(space, tau, slot):
            seen[space, tau] += 1
            return coordinates(space, tau, slot)
        return real(coll, counted)

    monkeypatch.setattr(duality, "cobar_genmap", counting)
    monkeypatch.setattr(models, "cobar_genmap", counting)
    dg = build()
    want = Counter((space, tau) for space in dg.collection
                   for tau in enumerate_basis(dg.collection,
                                              space.signature, 2))
    assert want and seen == want


def test_l3_expansion_three_terms():
    dg = lpinf_dg(4)
    coll = dg.collection
    img = dg.derivation.apply_tree(
        next(iter(parse_term(coll, "l3(c1,c2,c3)").terms)))
    assert len(img) == 3
    texts = {text_form(t): c for t, c in img}
    # global convention: the identity unshuffle term carries -1
    assert texts["l2(l2(c1,c2),c3)"] == -1
    assert texts["l2(l2(c1,c3),c2)"] == 1
    assert texts["l2(c1,l2(c2,c3))"] == 1


def test_formula_oracle_matches_up_to_global_sign():
    # On generators whose expansions are all binary-into-binary the printed
    # unshuffle formulas and the dualized-composition differential agree up
    # to one global sign.  On higher-arity shapes the printed signs leave
    # the arity-dependent operadic-suspension factor implicit, so the
    # engine's convention is pinned by d^2 = 0 and the dual comparison map
    # instead (see the decisions notes).
    dg = lpinf_dg(4)
    coll = dg.collection
    oracle = lp_formula_genmap(coll)
    for name in ("l3", "n21", "n12", "n03"):
        space = coll[name]
        theirs = oracle(space)
        assert len(theirs) == space.dim
        for dec, mine in enumerate(dg.derivation.images[space]):
            assert mine == theirs[dec].scale(-1), (space.name, dec)


def test_d_squared_lp_small():
    assert verify_d_squared(lpinf_dg(4)) == []


def test_d_squared_oc_small():
    assert verify_d_squared(ocinf_dg(4)) == []


def _flipped_lpinf4_genmap():
    """LPinf(4)'s generator images with the sign of one term of d(n12)
    flipped."""
    dg = lpinf_dg(4)
    (t, _), = parse_term(dg.collection, "n02(o1,n11(c1,o2))")

    def flipped(space):
        images = list(dg.derivation.images[space])
        if space.name == "n12":
            assert t in images[0].terms
            images[0] = Element({u: -c if u is t else c
                                 for u, c in images[0]})
        return images

    return flipped


def test_flipped_sign_breaks_d_squared():
    # the engine's generator images with the sign of one term of d(n12)
    # flipped; the unflipped images square to zero
    dg = lpinf_dg(4)
    broken = DgTruncation(dg.collection, _flipped_lpinf4_genmap(), 4)
    bad = verify_d_squared(broken)
    assert len(bad) == 7
    assert {(b["signature"], b["degree"]) for b in bad} == {
        ("(1,3;o)", 2), ("(2,2;o)", 2)}
    first = bad[0]
    assert (first["signature"], first["degree"]) == ("(1,3;o)", 2)
    assert text_form(first["basis"]) == "n13(c1,o1,o2,o3)"
    with pytest.raises(ValueError, match=r"d\^2 != 0"):
        homology_dims(broken)
    same = DgTruncation(dg.collection, dg.derivation.images.__getitem__, 4)
    assert verify_d_squared(same) == []


def test_d_squared_verdict_is_kept_on_its_dg():
    coll, flipped = lpinf_dg(4).collection, _flipped_lpinf4_genmap()
    # the homology gate computes the verdict when no call did before it
    with pytest.raises(ValueError, match=r"d\^2 != 0"):
        homology_dims(DgTruncation(coll, flipped, 4))
    broken = DgTruncation(coll, flipped, 4)
    assert all(type(images) is tuple
               for images in broken.derivation.images.values())
    first = verify_d_squared(broken)
    assert len(first) == 7
    passes = []
    broken.differential = lambda e: passes.append(e) or Element()
    # a caller's edits of the answer do not reach the kept verdict
    first.append(first[0])
    first[0]["degree"] = None
    again = verify_d_squared(broken)
    assert len(again) == 7 and again[0]["degree"] == 2
    with pytest.raises(ValueError, match=r"d\^2 != 0"):
        homology_dims(broken)
    assert passes == []
    # another dg over the same collection keeps its own verdict
    assert verify_d_squared(lpinf_dg(4)) == []
    assert len(verify_d_squared(DgTruncation(coll, flipped, 4))) == 7
    assert verify_d_squared(DgTruncation(
        coll, lpinf_dg(4).derivation.images.__getitem__, 4)) == []


def _d_digest(dg):
    """sha256 over each chain basis tree's signed text and the signed
    texts of the terms of its image, the terms sorted."""
    h = hashlib.sha256()
    for s in dg.signatures():
        for degree in dg.cell_degrees(s):
            for t in dg.chain_basis(s, degree):
                terms = sorted(f"{c * sign} {text}"
                               for u, c in dg.image(t).terms.items()
                               for sign, text in [text_form_signed(u)])
                h.update(f"{text_form_signed(t)[1]}: {'; '.join(terms)}\n"
                         .encode())
    return h.hexdigest()


@pytest.mark.parametrize("build, digest", [
    (lambda: ocinf_dg(4),
     "d2b1e76fc1b5933f5422f1367632b646fac443d867f02c8adc62000a322360ae"),
    (lambda: lpinf_dg(4),
     "1716e9521ff8a2476ba1e432927d12a1285489e2a9a5f373e060b82ca6e8b58b"),
    (lambda: duality.cobar_truncate(models.lp_presentation(), 4),
     "aaf72591e48681886ea5b0d964f6f5c87c06e100ab40403487f2a9db8ae8e30d"),
], ids=["OCinf4", "LPinf4", "cobar-LP4"])
def test_differential_is_pinned(build, digest):
    # d on every chain basis tree, text for text: a change of the
    # derivation or of the re-sort that moves a term or a sign moves this
    assert _d_digest(build()) == digest


def test_leibniz_rule():
    dg = ocinf_dg(4)
    coll = dg.collection
    d = dg.derivation
    n11 = parse_term(coll, "n11(c1,o1)")
    n02 = parse_term(coll, "n02(o1,o2)")
    n20 = parse_term(coll, "n20(c1,c2)")
    n10 = parse_term(coll, "n10(c1)")
    cases = [(n11, OPEN, 1, n02), (n02, OPEN, 2, n11), (n02, OPEN, 1, n10),
             (n11, OPEN, 1, n20), (n20, CLOSED, 1, parse_term(coll, "l2(c1,c2)"))]
    for a, color, idx, b in cases:
        lhs = d.apply(graft(a, color, idx, b))
        rhs = graft(d.apply(a), color, idx, b) + graft(
            a, color, idx, d.apply(b)).scale((-1) ** (a.degree() & 1))
        assert lhs == rhs, (a, b)


def test_differential_commutes_with_action():
    dg = ocinf_dg(3)
    d = dg.derivation
    for s in [sig(2, 1, OPEN), sig(1, 2, OPEN), sig(3, 0, CLOSED),
              sig(2, 0, OPEN)]:
        for degree in dg.cell_degrees(s):
            for t in dg.chain_basis(s, degree):
                e = Element({t: Fraction(1)})
                for pc in permutations(range(1, s.n_closed + 1)):
                    for po in permutations(range(1, s.n_open + 1)):
                        assert symmetric_act((pc, po), d.apply(e)) == \
                            d.apply(symmetric_act((pc, po), e))


_DG_BUILDERS = {"OCinf": ocinf_dg, "LPinf": lpinf_dg,
                "H0SCdual": h0sc_dual_dg}


@lru_cache(maxsize=None)
def _dg3_chain_trees(name):
    """OCinf(3), LPinf(3) or H0SCdual(3) and its chain trees as (signature,
    degree, tree), so that a draw is uniform over trees, not cells."""
    dg = _DG_BUILDERS[name](3)
    return dg, [(s, d, t) for s in dg.signatures()
                for d in dg.cell_degrees(s) for t in dg.chain_basis(s, d)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_differential_is_equivariant(data):
    # d(g.x) = g.d(x) for random x and g in S_n x S_m; for the quotient
    # both sides are reduced to coset representatives
    dg, trees = _dg3_chain_trees(
        data.draw(st.sampled_from(sorted(_DG_BUILDERS))))
    s, degree, t = data.draw(st.sampled_from(trees))
    coeff = st.fractions(-2, 2, max_denominator=2).filter(bool)
    terms = {t: data.draw(coeff)}
    terms.update(data.draw(st.dictionaries(
        st.sampled_from(dg.chain_basis(s, degree)), coeff, max_size=2)))
    x = Element(terms)
    g = data.draw(st.sampled_from(group_elements(s)))
    reduce = (lambda e: e) if dg.trunc is None else \
        dg.trunc.reduce_to_element
    assert dg.differential(symmetric_act(g, x)) == \
        reduce(symmetric_act(g, dg.differential(x)))


def _h0sc_dual_with_n11_image(a, b, max_inputs):
    """H0SCdual's dg quotient at max_inputs with d(n11) =
    a n02(n10(c1),o1) + b n02(o1,n10(c1)); the true image is a = 1,
    b = -1."""
    pres = h0sc_dual_presentation()
    image = (parse_term(pres.collection, "n02(n10(c1),o1)").scale(a)
             + parse_term(pres.collection, "n02(o1,n10(c1))").scale(b))
    return DgTruncation(
        pres.collection,
        lambda s: [image if s.name == "n11" else Element()] * s.dim,
        max_inputs, trunc=ideal_spans(pres, max_inputs))


def _ideal_rows_left(dg):
    """The reference check: every finalised ideal row within the bound
    whose derivative does not reduce to 0."""
    bad = []
    for s in signatures_within(dg.max_inputs):
        ab, ech = dg.trunc.ambient(s), dg.trunc.span(s)
        for p in sorted(ech.rows):
            row = ab.element(dict(ech.rows[p]))
            if not dg.differential(row).is_zero():
                bad.append(row)
    return bad


def _relation_entries(dg):
    return [v for v in verify_d_squared(dg) if "relation" in v]


# the + sign, and the lone term n02(n10(c1),o1)
_N11_MUTANTS = [(1, 1), (1, 0)]


@pytest.mark.parametrize("a, b", [(a, b) for a in range(-2, 3)
                                  for b in range(-2, 3)])
def test_relation_check_agrees_with_the_row_loop_at_3(a, b):
    dg = _h0sc_dual_with_n11_image(a, b, 3)
    assert bool(_relation_entries(dg)) == bool(_ideal_rows_left(dg))
    assert bool(_relation_entries(dg)) == (a + b != 0)


@pytest.mark.parametrize("a, b", [(1, -1), *_N11_MUTANTS])
def test_relation_check_agrees_with_the_row_loop_at_4(a, b):
    dg = _h0sc_dual_with_n11_image(a, b, 4)
    bad = _relation_entries(dg)
    assert bool(bad) == bool(_ideal_rows_left(dg))
    assert bool(bad) == ((a, b) != (1, -1))
    for v in bad:
        assert v["relation"] in dg.trunc.relations
        assert v["residual"] == dg.differential(v["relation"])
        assert not v["residual"].is_zero()


def test_quotient_refuses_a_genmap_that_breaks_the_symmetric_action():
    dg = ocinf_dg(3)
    coll, images = dg.collection, dg.derivation.images
    free_quotient = ideal_spans(Presentation(coll, []), 3)

    def negated(space):
        imgs = list(images[space])
        if space.name == "n03":
            imgs[1] = imgs[1].scale(-1)
        return imgs

    with pytest.raises(ValueError, match="symmetric action on n03"):
        DgTruncation(coll, negated, 3, trunc=free_quotient)
    assert verify_d_squared(DgTruncation(coll, images.__getitem__, 3,
                                         trunc=free_quotient)) == []
    # a free dg does not check the action
    DgTruncation(coll, negated, 3)


def test_relations_beyond_the_bound_are_not_checked(monkeypatch):
    # H0SCdual has 3-input relations; at 2 inputs they lie outside the dg.
    # A fresh presentation, so that no larger saturation answers for 2
    monkeypatch.setattr(models, "h0sc_dual_presentation",
                        models.h0sc_dual_presentation.__wrapped__)
    dg = h0sc_dual_dg.__wrapped__(2)
    assert dg.trunc.max_inputs == 2
    assert any(r.signature().total > 2 for r in dg.trunc.relations)
    assert verify_d_squared(dg) == []


def test_h0sc_dual_dg_respects_ideal_and_squares_to_zero():
    dg = h0sc_dual_dg(4)
    assert dg.trunc.relations
    assert verify_d_squared(dg) == []
    # at 2 inputs a mutant squares to zero, and only its relation entry
    # (the 2-input relation n10(l2(c1,c2)) - ...) refuses the homology
    for a, b in _N11_MUTANTS:
        mutant = _h0sc_dual_with_n11_image(a, b, 2)
        bad = verify_d_squared(mutant)
        assert len(bad) == 1 and bad == _relation_entries(mutant)
        with pytest.raises(ValueError, match="leaves the ideal"):
            homology_dims(mutant)


def test_homology_of_zero_differential_is_chains():
    dg3 = ocinf_dg(3)
    free = DgTruncation(dg3.collection, lambda s: [Element()] * s.dim, 3)
    h = homology_dims(free)
    for s in [sig(2, 1, OPEN), sig(3, 0, CLOSED)]:
        for degree in free.cell_degrees(s):
            assert h.get((s, degree), 0) == free.chain_dim(s, degree)


def test_oc_homology_cells_from_the_paper_examples():
    dg = ocinf_dg(3)
    h = homology_dims(dg)
    # (1,1;o): chains are n11 in degree 0 and the two whistle trees in -1
    assert dg.chain_dim(sig(1, 1, OPEN), 0) == 1
    assert dg.chain_dim(sig(1, 1, OPEN), -1) == 2
    assert h.get((sig(1, 1, OPEN), 0), 0) == 0
    assert h.get((sig(1, 1, OPEN), -1), 0) == 1
    # (2,0;o): homology 1 in degree -1 and 1 in degree -2
    assert h.get((sig(2, 0, OPEN), -1), 0) == 1
    assert h.get((sig(2, 0, OPEN), -2), 0) == 1
    assert h.get((sig(2, 0, OPEN), 0), 0) == 0


COM = {(sig(n, 0, CLOSED), 0): 1 for n in range(2, 8)}
LIE = {(sig(n, 0, CLOSED), 0): factorial(n - 1) for n in range(2, 8)}


def _coefficients(dims):
    """The closed series coefficients of a table beyond x_c, read off by
    composing with the trivial operad, whose series is the identity."""
    return [Fraction(w["got"]) for w in gk_mismatches(dims, {}, 7)]


def test_series_classical_com_lie():
    assert gk_mismatches(COM, LIE, 7) == []
    assert gk_mismatches(LIE, COM, 7) == []
    # e^t - 1 and -log(1-t)
    assert _coefficients(COM) == [Fraction(1, factorial(n))
                                  for n in range(2, 8)]
    assert _coefficients(LIE) == [Fraction(1, n) for n in range(2, 8)]


def test_series_corrupted_table_fails():
    lie = {**LIE, (sig(5, 0, CLOSED), 0): LIE[(sig(5, 0, CLOSED), 0)] + 1}
    bad = gk_mismatches(COM, lie, 7)
    assert bad[0] == {"cell": "(5,0;c)", "got": "1/120", "want": 0}
    assert gk_mismatches(lie, COM, 7)[0]["cell"] == "(5,0;c)"


def test_trivial_operad_series_fixed_point():
    assert gk_mismatches({}, {}, 1) == []
    assert gk_mismatches({}, {}, 5) == []


def test_unital_pair_series_needs_the_degree_sign():
    # the whistle has degree -1: its Euler characteristic supplies the sign
    alpha, whistle = alpha_composite_dims(4), whistle_composite_dims(4)
    assert gk_mismatches(alpha, whistle, 4) == []
    assert gk_mismatches(whistle, alpha, 4) == []
    flat = {}
    for (s, _), dim in whistle.items():
        flat[(s, 0)] = flat.get((s, 0), 0) + dim
    assert gk_mismatches(alpha, flat, 4) == [
        {"cell": "(1,0;o)", "got": "2", "want": 0}]
