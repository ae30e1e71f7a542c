import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioperad import verify
from bioperad.dgcalc import homology_dims, verify_d_squared
from bioperad.duality import (QLFailure, cobar_truncate, dual_collection,
                              pairing_matrix, ql_koszul_data, quadratic_dual,
                              weight2_signatures)
from bioperad.models import (com_presentation, h0sc_dual_n11_image,
                             h0sc_dual_presentation, h0sc_presentation,
                             h0scvor_presentation, lie_presentation,
                             lp_presentation, ocinf_dg, qh0sc_presentation)
from bioperad.presentation import (Presentation, adjacent_transpositions,
                                   ambient_basis, ideal_spans, quotient_dims,
                                   relation_span)
from bioperad.specfile import emit_spec, parse_spec
from bioperad.trees import (CLOSED, NONE, OPEN, REGULAR, SIGN, TRIVIAL,
                            Collection, corolla_element,
                            enumerate_basis, generator, graft, parse_term,
                            sig, symmetric_act, text_form, tree_element)


def _pairing_entry(com, dual, a, b):
    """The pairing of two single-tree weight-2 elements."""
    (t,), (u,) = a.terms, b.terms
    pairing, prim, dua = pairing_matrix(com.collection, dual, a.signature())
    j, v = pairing[prim.index(t)]
    return v if j == dua.index(u) else 0


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
        pairing, prim, dua = pairing_matrix(lp.collection, dual, s)
        assert len(prim) == len(dua)
        assert sorted(j for j, _ in pairing) == list(range(len(dua)))
        assert {v for _, v in pairing} <= {1, -1}


def test_quadratic_dual_rejects_ql():
    with pytest.raises(ValueError):
        quadratic_dual(h0sc_presentation())


def test_orthogonality_dimension_count():
    lp = lp_presentation()
    dual = quadratic_dual(lp, rename=lambda n: n + "v")
    for s in weight2_signatures(lp.collection):
        amb = ambient_basis(lp.collection, s)
        w2 = sum(1 for t in amb.trees if t.weight == 2)
        r = relation_span(lp, s, 2).dim
        o = relation_span(dual, s, 2).dim
        assert r + o == w2, s


def test_cobar_of_trivial_operad():
    trivial = Presentation(Collection([]), [], "I")
    dg = cobar_truncate(trivial, 3)
    assert len(dg.collection.spaces) == 0


def test_cobar_refuses_a_graded_operad():
    with pytest.raises(ValueError, match="cobar input must be a degree-0"):
        cobar_truncate(h0sc_dual_presentation(), 3)


def test_named_generator_formats_refuse_a_cobar_collection():
    coll = cobar_truncate(lp_presentation(), 3).collection
    assert all(s.arrangements is None and s.symmetry is None for s in coll)
    with pytest.raises(ValueError, match="needs named generators"):
        dual_collection(coll)
    with pytest.raises(ValueError, match="named-generator presentations"):
        emit_spec(Presentation(coll, [], "cobar-LP"))


_COBAR_INPUTS = [lp_presentation, qh0sc_presentation, h0scvor_presentation]


@pytest.mark.parametrize("builder", _COBAR_INPUTS[:2])
def test_cobar_swap_coefficients_are_ints(builder):
    coll = cobar_truncate(builder(), 4).collection
    coeffs = [c for space in coll
              for swap in space.closed_swaps + space.open_swaps
              for col in swap for _, c in col]
    assert coeffs and all(type(c) is int for c in coeffs)


@pytest.mark.parametrize("builder", _COBAR_INPUTS)
def test_cobar_swaps_are_the_dual_action_on_classes(builder):
    # reference: act on each class representative by symmetric_act and
    # reduce again; the cobar space holds the transpose, sgn-twisted
    P = builder()
    trunc = ideal_spans(P, 4)
    for space in cobar_truncate(P, 4).collection:
        s = space.signature
        basis = trunc.basis(s)
        position = {i: b for b, i in enumerate(basis)}
        for pair, swap in zip(adjacent_transpositions(s),
                              space.closed_swaps + space.open_swaps):
            want = {}
            for b, i in enumerate(basis):
                image = symmetric_act(pair, tree_element(
                    trunc.ambient(s).trees[i]))
                for i2, c in trunc.residue(image).items():
                    want[position[i2], b] = -c
            got = {(b2, b): c for b2, col in enumerate(swap)
                   for b, c in col}
            assert got == want, (space, pair)


def test_cobar_generator_spaces_of_vor():
    coll = cobar_truncate(h0scvor_presentation(), 4).collection
    from math import factorial
    by_sig = {s.signature: s for s in coll}
    for n in range(2, 5):
        sp = by_sig[sig(n, 0, CLOSED)]
        assert sp.dim == 1 and sp.degree == n - 2
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
                assert sp.degree == p + q - 2


def test_cobar_of_unital_model_has_whistles():
    coll = cobar_truncate(h0sc_presentation(), 3).collection
    by_sig = {s.signature: s for s in coll}
    assert by_sig[sig(1, 0, OPEN)].degree == -1
    assert by_sig[sig(2, 0, OPEN)].degree == 0


def test_cobar_matches_expansion_model_homology():
    # the dualized-composition differential and the planar-word expansion
    # differential present the same dg operad: equal homology cell by cell
    dg = cobar_truncate(h0sc_presentation(), 3)
    assert verify_d_squared(dg) == []
    h_cobar = homology_dims(dg)
    h_fusion = homology_dims(ocinf_dg(3))
    table_a = {(str(s), d): v for (s, d), v in h_cobar.items()}
    table_b = {(str(s), d): v for (s, d), v in h_fusion.items()}
    assert table_a == table_b


def test_cobar_chain_dims_match_expansion_model():
    coll = cobar_truncate(h0sc_presentation(), 3).collection
    oc = ocinf_dg(3)
    from bioperad.trees import component_basis
    for s in [sig(1, 1, OPEN), sig(2, 0, OPEN), sig(2, 1, OPEN),
              sig(3, 0, CLOSED), sig(1, 2, OPEN)]:
        mine = {}
        for t in component_basis(coll, s):
            mine[t.degree] = mine.get(t.degree, 0) + 1
        theirs = {d: oc.chain_dim(s, d) for d in oc.cell_degrees(s)}
        assert mine == {k: v for k, v in theirs.items() if v}, s


# a relation of weight 1 alone: it meets F^(1) and its grafts leave R
WEIGHT_ONE_SPEC = ("operad weight1\n"
                   "generator e11 : (c,o) -> o degree 0 symmetry none\n"
                   "relation e11(c1,o1)\n")


def test_ql_koszul_data_refuses_a_weight_one_relation():
    with pytest.raises(QLFailure) as err:
        ql_koszul_data(parse_spec(WEIGHT_ONE_SPEC))
    assert [{k: str(v) for k, v in w.items()} for w in err.value.witnesses] \
        == [{"condition": "ql1", "signature": "(1,1;o)", "dim": "1"},
            {"condition": "ql2", "signature": "(2,1;o)",
             "vector": "e11(c1,e11(c2,o1))"},
            {"condition": "ql2", "signature": "(2,1;o)",
             "vector": "e11(c2,e11(c1,o1))"}]


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


def _beside(presentation, extra):
    """presentation's relations read into its generators plus extra."""
    coll = Collection([generator(s.name, s.signature, s.degree,
                                 s.symmetry) for s in presentation.collection]
                      + [extra])
    return Presentation(coll, [parse_term(coll, repr(r))
                               for r in presentation.relations],
                        f"{presentation.name}+{extra.name}")


def _assert_dual_spans(dual, stated, free_name):
    """dual spans stated's relations and every weight-2 tree through the
    free generator, signature by signature."""
    coll = dual.collection
    relations = [parse_term(coll, repr(r)) for r in stated.relations]
    for s in weight2_signatures(coll):
        relations += [tree_element(t) for t in enumerate_basis(coll, s, 2)
                      if f"{free_name}(" in text_form(t)]
    want = Presentation(coll, relations, "stated")
    for s in weight2_signatures(coll):
        assert relation_span(dual, s, 2) == relation_span(want, s, 2), s


def test_dual_pairs_two_generators_of_one_signature_apart():
    # a free m11 beside n11 at (1,1;o): each tree pairs with its own mirror
    big = _beside(lp_presentation(), generator("m11", sig(1, 1, OPEN), 0,
                                               NONE))
    ren = {"l2": "f2", "n02": "e02", "n11": "e11", "m11": "m11v"}
    dual = quadratic_dual(big, rename=ren.__getitem__)
    assert len(dual.relations) == 27
    _assert_dual_spans(dual, h0scvor_presentation(), "m11v")


def test_ql_dual_pairs_two_generators_of_one_signature_apart():
    # a free b11 beside e11 at (1,1;o): the derivative stays on n11 alone
    big = _beside(h0sc_presentation(), generator("b11", sig(1, 1, OPEN), 0,
                                                 NONE))
    ren = {**verify.H0SC_DUAL_NAMES, "b11": "b11v"}
    data = ql_koszul_data(big, rename=ren.__getitem__)
    dual = data.dual_presentation
    assert data.dual_genmap == {
        "n11": {0: h0sc_dual_n11_image(dual.collection)}}
    _assert_dual_spans(dual, h0sc_dual_presentation(), "b11v")


# Degree-0 binary shapes and the symmetry tags generator() accepts on each.
_BINARY_SHAPES = [(sig(2, 0, CLOSED), (TRIVIAL, SIGN)),
                  (sig(0, 2, OPEN), (TRIVIAL, SIGN, REGULAR)),
                  (sig(1, 1, OPEN), (TRIVIAL, SIGN, REGULAR, NONE)),
                  (sig(2, 0, OPEN), (TRIVIAL, SIGN))]


@st.composite
def _quadratic_presentations(draw):
    """A quadratic presentation: degree-0 generators on some of the binary
    shapes, each with an allowed symmetry tag, and relations that are small
    integer combinations of the weight-2 trees of each ambient basis."""
    shapes = sorted(draw(st.sets(st.integers(0, 3), min_size=1)))
    coll = Collection([
        generator(f"m{k}", _BINARY_SHAPES[k][0], 0,
                  draw(st.sampled_from(_BINARY_SHAPES[k][1])))
        for k in shapes])
    relations = []
    for s in weight2_signatures(coll):
        ab = ambient_basis(coll, s)
        weight2 = [i for i, t in enumerate(ab.trees) if t.weight == 2]
        for vec in draw(st.lists(
                st.dictionaries(st.sampled_from(weight2),
                                st.integers(-2, 2).filter(bool),
                                min_size=1, max_size=3), max_size=2)):
            relations.append(ab.element(vec))
    return Presentation(coll, relations, "random")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_quadratic_presentations())
def test_random_quadratic_presentations_satisfy_koszul_duality(P):
    # P!! = P span by span, with the double dual renamed back
    dual = quadratic_dual(P)
    double = quadratic_dual(dual, rename=lambda n: n[:-1])
    for s in weight2_signatures(P.collection):
        assert relation_span(double, s, 2) == relation_span(P, s, 2), s
    # d^2 = 0 on the cobar, whose degree-0 homology is the dual, Koszul or
    # not: the diagonal of the Koszul complex (Loday-Vallette, 7.3-7.4)
    dg = cobar_truncate(P, 4)
    assert verify_d_squared(dg) == []
    h0 = {cell: v for cell, v in homology_dims(dg).items() if cell[1] == 0}
    assert h0 == quotient_dims(dual, 4)
