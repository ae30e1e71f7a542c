from bioperad.models import (UNIT_COMPOSITE_DIMS, _LP_RELS, _relations,
                             alpha_composite_dims, boundary_identities,
                             h0sc_dual_presentation, h0sc_presentation,
                             lambda_c_oc_presentation, lpinf_dg, ocinf_dg,
                             palpha_presentation,
                             psi_commutes_with_differentials,
                             qh0sc_presentation, whistle_composite_dims)
from bioperad.presentation import (Presentation, ideal_spans, quotient_dims,
                                   relation_span)
from bioperad.trees import CLOSED, OPEN, parse_term, sig
from bioperad.verify import dim_mismatches


def test_h0sc_has_four_generators_and_ql_relations():
    pres = h0sc_presentation()
    assert sorted(s.name for s in pres.collection) == ["al", "e02", "e11", "f2"]
    mixed = [r for r in pres.relations if r.weights() == [1, 2]]
    assert len(mixed) == 2


def test_ocinf_generators_include_whistles():
    dg = ocinf_dg(4)
    names = {s.name for s in dg.collection}
    assert {"l2", "l3", "l4", "n10", "n20", "n30", "n11", "n02"} <= names
    lp = lpinf_dg(4)
    lp_names = {s.name for s in lp.collection}
    assert "n10" not in lp_names and "n20" not in lp_names


def test_h0sc_dual_quotient_dims():
    tr = ideal_spans(h0sc_dual_presentation(), 3)
    def dims_by_degree(s):
        return {d: len(trees) for d, trees in tr.cells(s).items()}

    assert dims_by_degree(sig(1, 1, OPEN)) == {0: 1, -1: 2}
    assert dims_by_degree(sig(2, 0, OPEN)) == {-1: 2, -2: 2}
    assert dims_by_degree(sig(1, 0, OPEN)) == {-1: 1}


def test_lambda_c_oc_dims():
    dims = quotient_dims(lambda_c_oc_presentation(), 3)
    assert dims[(sig(1, 1, OPEN), -1)] == 1
    assert (sig(1, 1, OPEN), 0) not in dims
    assert dims[(sig(2, 0, OPEN), -1)] == 1
    assert dims[(sig(2, 0, OPEN), -2)] == 1


def _cell(table, signature):
    """{degree: dim} of one signature of a dimension table."""
    return {d: v for (s, d), v in table.items() if s == signature}


def test_alpha_law_matches_composite():
    got = quotient_dims(qh0sc_presentation(), 3)
    assert dim_mismatches(got, alpha_composite_dims(3)) == []
    assert _cell(got, sig(2, 0, OPEN)) == {0: 1}


def test_whistle_law_matches_composite():
    got = quotient_dims(h0sc_dual_presentation(), 3)
    assert dim_mismatches(got, whistle_composite_dims(3)) == []
    assert _cell(got, sig(1, 1, OPEN)) == {0: 1, -1: 2}


def test_identity_law():
    got = quotient_dims(palpha_presentation(), 3)
    assert dim_mismatches(got, UNIT_COMPOSITE_DIMS) == []
    assert _cell(got, sig(1, 0, OPEN)) == {0: 1}


def test_identity_law_refuses_a_collapsed_unary_map():
    # the relation al(c1) kills the one tree the composite states
    coll = palpha_presentation().collection
    collapsed = Presentation(coll, _relations(coll, ["al(c1)"]), "collapsed")
    assert dim_mismatches(quotient_dims(collapsed, 3), UNIT_COMPOSITE_DIMS) \
        == [{"cell": "(1,0;o) 0", "got": 0, "want": 1}]


def test_broken_law_reports_witness():
    # drop the eye relation: the quotient is too big for the composite
    from bioperad.models import _lp_generators
    from bioperad.trees import Collection
    coll = Collection(_lp_generators(with_whistle=True))
    broken = Presentation(coll, _relations(coll, _LP_RELS), "broken")
    bad = dim_mismatches(quotient_dims(broken, 3), whistle_composite_dims(3))
    assert bad[0] == {"cell": "(2,0;o) -1", "got": 3, "want": 2}


def test_psi_commutes():
    assert psi_commutes_with_differentials(3) == []


def test_boundary_identities():
    assert boundary_identities(3) == []


def test_tampered_builtin_detected():
    # corrupt one sign in the derivation relation: the dual no longer
    # matches the commutative-acting presentation
    from bioperad.duality import quadratic_dual
    from bioperad.models import _lp_generators, h0scvor_presentation
    from bioperad.trees import Collection
    coll = Collection(_lp_generators())
    rels = _relations(coll, _LP_RELS)
    tampered_rels = rels[:2] + [
        parse_term(coll, "n11(c1,n02(o1,o2))")
        - parse_term(coll, "n02(n11(c1,o1),o2)")
        + parse_term(coll, "n02(o1,n11(c1,o2))")  # flipped sign
    ] + rels[3:]
    tampered = Presentation(coll, tampered_rels, "tampered")
    ren = {"l2": "f2", "n02": "e02", "n11": "e11"}
    dual = quadratic_dual(tampered, rename=lambda n: ren[n])
    vor = h0scvor_presentation()
    assert any(relation_span(dual, s, 2) != relation_span(vor, s, 2)
               for s in [sig(1, 2, OPEN)])


def test_homology_composition_matches_target_representatives():
    # products of homology classes of the open-closed truncation behave
    # like the color-suspended top operad: the two whistle products at
    # (2,0;o) agree up to a boundary, and the whistle of a bracket is a
    # nonzero class
    from bioperad.linalg import Echelon
    from bioperad.trees import corolla_element, graft, parse_term

    dg = ocinf_dg(3)
    coll = dg.collection
    s = sig(2, 0, OPEN)

    def chain_vector(elem, degree):
        basis = dg.chain_basis(s, degree)
        index = {t: i for i, t in enumerate(basis)}
        return {index[t]: c for t, c in elem.terms.items()}

    # boundaries into degree -2
    boundaries = Echelon()
    for t in dg.chain_basis(s, -1):
        img = dg.derivation.apply_tree(t)
        if not img.is_zero():
            boundaries.add(chain_vector(img, -2))
    boundaries.finalize()

    n10 = corolla_element(coll["n10"])
    # the two whistle products; the second parses with a crossing sign, so
    # the class identity [f(c1)f(c2)] = [f(c2)f(c1)] is their SUM
    prod1 = parse_term(coll, "n02(n10(c1),n10(c2))")
    prod2 = parse_term(coll, "n02(n10(c2),n10(c1))")
    diff = prod1 + prod2
    assert boundaries.reduce(chain_vector(diff, -2)) == {}
    assert boundaries.reduce(chain_vector(prod1, -2)) != {}

    # the whistle of a bracket: a nonzero degree -1 class
    l2 = corolla_element(coll["l2"])
    eye_cycle = graft(n10, CLOSED, 1, l2)
    d_img = dg.derivation.apply(eye_cycle)
    assert d_img.is_zero()
    b1 = Echelon()
    for t in dg.chain_basis(s, 0):
        img = dg.derivation.apply_tree(t)
        if not img.is_zero():
            b1.add(chain_vector(img, -1))
    b1.finalize()
    assert b1.reduce(chain_vector(eye_cycle, -1)) != {}
