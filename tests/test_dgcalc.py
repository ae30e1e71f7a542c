from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from bioperad.dgcalc import (DgTruncation, compose_series, extend_derivation,
                             hilbert_series_gk_check, homology_dims,
                             series_from_dims, verify_d_squared)
from bioperad.models import (h0sc_dual_dg, lp_formula_genmap, lpinf_dg,
                             ocinf_dg)
from bioperad.trees import (CLOSED, OPEN, Element, component_basis,
                            enumerate_basis, graft, parse_term, sig,
                            symmetric_act, text_form, tree_degree)


def test_zero_genmap_zero_differential():
    dg = ocinf_dg(3)
    zero = extend_derivation(dg.collection, lambda s, d: Element.zero())
    for t in dg.chain_basis(sig(2, 1, OPEN), 1):
        assert zero.apply_tree(t).is_zero()


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
        for dec in range(space.dim):
            mine = dg.derivation.genmap(space, dec)
            theirs = oracle(space, dec)
            assert mine == theirs.scale(-1), (space.name, dec)


def test_d_squared_lp_small():
    assert verify_d_squared(lpinf_dg(4)) == []


def test_d_squared_oc_small():
    assert verify_d_squared(ocinf_dg(4)) == []


def test_flipped_sign_breaks_d_squared():
    from bioperad.dgcalc import Derivation
    dg = lpinf_dg(4)
    bad = Derivation(dg.collection, lp_formula_genmap(dg.collection,
                                                      flip_one_sign=True))
    broken = DgTruncation(dg.collection, bad, 4, name="broken")
    assert verify_d_squared(broken) != []


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


def test_h0sc_dual_dg_respects_ideal_and_squares_to_zero():
    dg = h0sc_dual_dg(4)
    assert dg.ideal_respected() == []
    assert verify_d_squared(dg) == []


def test_homology_of_zero_differential_is_chains():
    dg3 = ocinf_dg(3)
    zero = extend_derivation(dg3.collection, lambda s, d: Element.zero())
    free = DgTruncation(dg3.collection, zero, 3, name="zero")
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


def test_series_classical_com_lie():
    com = {n: 1 for n in range(1, 8)}
    lie = {n: factorial(n - 1) for n in range(1, 8)}
    report = hilbert_series_gk_check(com, lie, 7)
    assert report["ok"]
    # e^t - 1 and -log(1-t)
    assert report["g_p"] == [Fraction(1, factorial(n)) for n in range(1, 8)]
    assert report["g_dual"] == [Fraction(1, n) for n in range(1, 8)]


def test_series_corrupted_table_fails():
    com = {n: 1 for n in range(1, 8)}
    lie = {n: factorial(n - 1) for n in range(1, 8)}
    lie[5] += 1
    report = hilbert_series_gk_check(com, lie, 7)
    assert not report["ok"]


def test_trivial_operad_series_fixed_point():
    report = hilbert_series_gk_check({1: 1}, {1: 1}, 1)
    assert report["ok"]

