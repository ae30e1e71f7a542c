import pytest

from bioperad import verify
from bioperad.dgcalc import DgTruncation, extend_derivation, homology_dims, \
    verify_d_squared
from bioperad.duality import (cobar_truncate, dual_collection,
                              pairing_matrix, ql_koszul_data, quadratic_dual,
                              weight2_signatures)
from bioperad.models import (com_presentation, h0sc_presentation,
                             h0scvor_presentation, lie_presentation,
                             lp_presentation, ocinf_dg)
from bioperad.presentation import Presentation, ambient_basis, relation_span
from bioperad.trees import (CLOSED, OPEN, Collection, corolla_element, graft,
                            sig)


def _pairing_entry(com, dual, a, b):
    """The pairing matrix entry of two single-tree weight-2 elements."""
    (t,), (u,) = a.terms, b.terms
    m, prim, dua = pairing_matrix(com.collection, dual, a.signature())
    return m[prim.index(t), dua.index(u)]


def test_gk_pair_anchor_value():
    com = com_presentation()
    dual = dual_collection(com.collection, rename=lambda n: "l2")
    f2 = com.collection["f2"]
    l2 = dual["l2"]
    a = graft(corolla_element(f2), CLOSED, 1, corolla_element(f2))
    b = graft(corolla_element(l2), CLOSED, 1, corolla_element(l2))
    assert abs(_pairing_entry(com, dual, a, b)) == 1


def test_gk_pair_shape_orthogonality():
    com = com_presentation()
    dual = dual_collection(com.collection, rename=lambda n: "l2")
    f2 = corolla_element(com.collection["f2"])
    l2 = corolla_element(dual["l2"])
    a = graft(f2, CLOSED, 1, f2)   # inner carries labels {1,2}
    b2 = graft(l2, CLOSED, 2, l2)  # inner carries labels {2,3}
    assert _pairing_entry(com, dual, a, b2) == 0


def test_gk_pair_assoc_against_jacobi():
    # associativity and Jacobi are each other's orthogonal complement
    com = com_presentation()
    lie = lie_presentation()
    s = sig(3, 0, CLOSED)
    lie_dual = quadratic_dual(com, rename=lambda n: "l2")
    assert relation_span(lie_dual, s, 2) == relation_span(lie, s, 2)
    com_dual = quadratic_dual(lie, rename=lambda n: "f2")
    assert relation_span(com_dual, s, 2) == relation_span(com, s, 2)


def test_pairing_nondegenerate_every_signature():
    lp = lp_presentation()
    dual = dual_collection(lp.collection)
    for s in weight2_signatures(lp.collection):
        m, prim, dua = pairing_matrix(lp.collection, dual, s)
        assert m.rank() == len(prim) == len(dua)


def test_quadratic_dual_rejects_ql():
    with pytest.raises(ValueError):
        quadratic_dual(h0sc_presentation())


def test_orthogonality_dimension_count():
    lp = lp_presentation()
    dual = quadratic_dual(lp, rename=lambda n: n + "v")
    for s in weight2_signatures(lp.collection):
        amb = ambient_basis(lp.collection, s)
        w2 = sum(1 for w in amb.weights if w == 2)
        r = relation_span(lp, s, 2).dim
        o = relation_span(dual, s, 2).dim
        assert r + o == w2, s


def test_cobar_of_trivial_operad():
    trivial = Presentation(Collection([]), [], "I")
    coll, genmap = cobar_truncate(trivial, 3, tag="triv_")
    assert len(coll.spaces) == 0


def test_cobar_generator_spaces_of_vor():
    coll, _ = cobar_truncate(h0scvor_presentation(), 4, tag="vb_")
    from math import factorial
    by_sig = {s.signature: s for s in coll}
    for n in range(2, 5):
        sp = by_sig[sig(n, 0, CLOSED)]
        assert sp.dim == 1 and sp.degrees == (n - 2,)
    for p in range(0, 5):
        for q in range(0, 5 - p):
            s = sig(p, q, OPEN)
            if p + q < 2 and not (p + q == 1 and q == 0):
                continue
            if q == 0:
                assert s not in by_sig  # no whistles without the unary map
            elif p + q >= 2:
                sp = by_sig[s]
                assert sp.dim == factorial(q)
                assert set(sp.degrees) == {p + q - 2}


def test_cobar_of_unital_model_has_whistles():
    coll, _ = cobar_truncate(h0sc_presentation(), 3, tag="hb_")
    by_sig = {s.signature: s for s in coll}
    assert by_sig[sig(1, 0, OPEN)].degrees == (-1,)
    assert by_sig[sig(2, 0, OPEN)].degrees == (0,)


def test_cobar_matches_expansion_model_homology():
    # the dualized-composition differential and the planar-word expansion
    # differential present the same dg operad: equal homology cell by cell
    coll, genmap = cobar_truncate(h0sc_presentation(), 3, tag="cmp_")
    dg = DgTruncation(coll, extend_derivation(coll, genmap), 3, name="cobar")
    assert verify_d_squared(dg) == []
    h_cobar = homology_dims(dg)
    h_fusion = homology_dims(ocinf_dg(3))
    table_a = {(str(s), d): v for (s, d), v in h_cobar.items()}
    table_b = {(str(s), d): v for (s, d), v in h_fusion.items()}
    assert table_a == table_b


def test_cobar_chain_dims_match_expansion_model():
    coll, _ = cobar_truncate(h0sc_presentation(), 3, tag="cd_")
    oc = ocinf_dg(3)
    from bioperad.trees import component_basis, tree_degree
    for s in [sig(1, 1, OPEN), sig(2, 0, OPEN), sig(2, 1, OPEN),
              sig(3, 0, CLOSED), sig(1, 2, OPEN)]:
        mine = {}
        for t in component_basis(coll, s):
            mine[tree_degree(t)] = mine.get(tree_degree(t), 0) + 1
        theirs = {d: oc.chain_dim(s, d) for d in oc.cell_degrees(s)}
        assert mine == {k: v for k, v in theirs.items() if v}, s


def test_ql_check_reports_sign_flipped_dual_differential(monkeypatch):
    def flipped(presentation, rename=None, name=None):
        data = ql_koszul_data(presentation, rename, name)
        data.dual_genmap = {n: {dec: -img for dec, img in images.items()}
                            for n, images in data.dual_genmap.items()}
        return data

    monkeypatch.setattr(verify, "ql_koszul_data", flipped)
    status, witness = verify.check_ql_and_projection(verify.DEFAULT_BOUNDS)
    assert status == "fail"
    assert [w[0] for w in witness] == ["differential"]
