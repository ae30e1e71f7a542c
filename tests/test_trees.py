from fractions import Fraction
from itertools import permutations

import pytest

from bioperad.signs import compose
from bioperad.trees import (CLOSED, OPEN, REGULAR, SIGN, TRIVIAL, NONE,
                            Collection, CompositionError, Element, Leaf,
                            corolla, corolla_element, enumerate_basis,
                            generator, graft, parse_term, sig,
                            suspend_collection, symmetric_act, text_form,
                            text_form_signed, tree_degree, tree_element,
                            tree_signature, tree_weight, LAMBDA,
                            LAMBDA_INVERSE, LAMBDA_C, LINEAR_DUAL)


def ev_collection():
    return Collection([
        generator("f2", sig(2, 0, CLOSED), 0, TRIVIAL),
        generator("e02", sig(0, 2, OPEN), 0, REGULAR),
        generator("e11", sig(1, 1, OPEN), 0, NONE),
    ])


def elp_collection():
    return Collection([
        generator("l2", sig(2, 0, CLOSED), 0, SIGN),
        generator("n02", sig(0, 2, OPEN), 0, REGULAR),
        generator("n11", sig(1, 1, OPEN), 0, NONE),
    ])


def hsc_dual_collection():
    return Collection([
        generator("l2", sig(2, 0, CLOSED), 0, SIGN),
        generator("n02", sig(0, 2, OPEN), 0, REGULAR),
        generator("n11", sig(1, 1, OPEN), 0, NONE),
        generator("n10", sig(1, 0, OPEN), -1, NONE),
    ])


def test_enumerate_counts_scvor():
    ev = ev_collection()
    assert len(enumerate_basis(ev, sig(2, 0, CLOSED), 1)) == 1
    assert len(enumerate_basis(ev, sig(3, 0, CLOSED), 2)) == 3
    assert len(enumerate_basis(ev, sig(0, 3, OPEN), 2)) == 12
    assert len(enumerate_basis(ev, sig(2, 0, CLOSED), 2)) == 0


def test_enumerate_counts_lp_duality_lemma():
    elp = elp_collection()
    # dimensions 3 and 6 of the weight-2 mixed components
    assert len(enumerate_basis(elp, sig(2, 1, OPEN), 2)) == 3
    assert len(enumerate_basis(elp, sig(1, 2, OPEN), 2)) == 6


def test_enumerate_relabel_invariance():
    # counts only depend on the signature, not which labels sit where
    ev = ev_collection()
    n = len(enumerate_basis(ev, sig(1, 2, OPEN), 2))
    perms = [(p, q) for p in permutations((1,)) for q in permutations((1, 2))]
    for pair in perms:
        for t in enumerate_basis(ev, sig(1, 2, OPEN), 2):
            img = symmetric_act(pair, tree_element(t))
            assert len(img) == 1
            assert abs(next(iter(img))[1]) == 1
    assert n == 6


def test_normalize_idempotent():
    for coll in (ev_collection(), elp_collection(), hsc_dual_collection()):
        for s in (sig(2, 1, OPEN), sig(1, 2, OPEN), sig(3, 0, CLOSED)):
            for w in (1, 2, 3):
                for t in enumerate_basis(coll, s, w):
                    e = symmetric_act((tuple(range(1, s.n_closed + 1)),
                                       tuple(range(1, s.n_open + 1))),
                                      tree_element(t))
                    assert e == tree_element(t)


def test_symmetry_of_generators():
    ev = ev_collection()
    elp = elp_collection()
    f2 = corolla_element(ev["f2"])
    assert symmetric_act(((2, 1), ()), f2) == f2
    l2 = corolla_element(elp["l2"])
    assert symmetric_act(((2, 1), ()), l2) == l2.scale(-1)
    e02 = corolla_element(ev["e02"])
    swapped = symmetric_act(((), (2, 1)), e02)
    assert swapped != e02
    assert len(swapped) == 1
    assert symmetric_act(((), (2, 1)), swapped) == e02


def test_action_is_a_group_action():
    elp = elp_collection()
    s = sig(1, 2, OPEN)
    basis = enumerate_basis(elp, s, 2)
    perms = [((1,), q) for q in permutations((1, 2))]
    for t in basis:
        e = tree_element(t)
        for pc1, po1 in perms:
            for pc2, po2 in perms:
                twice = symmetric_act((pc2, po2), symmetric_act((pc1, po1), e))
                combined = symmetric_act((compose(pc2, pc1), compose(po2, po1)), e)
                assert twice == combined


def test_graft_color_mismatch():
    ev = ev_collection()
    f2 = corolla_element(ev["f2"])
    e02 = corolla_element(ev["e02"])
    with pytest.raises(CompositionError):
        graft(f2, CLOSED, 1, e02)  # open output into a closed slot


def test_graft_degrees_add():
    hd = hsc_dual_collection()
    n02 = corolla_element(hd["n02"])
    n10 = corolla_element(hd["n10"])
    out = graft(n02, OPEN, 1, n10)
    assert len(out) == 1
    t = next(iter(out.terms))
    assert tree_degree(t) == -1
    assert tree_weight(t) == 2
    assert tree_signature(t) == sig(1, 1, OPEN)


def test_graft_f2_f2():
    ev = ev_collection()
    f2 = corolla_element(ev["f2"])
    out = graft(f2, CLOSED, 1, f2)
    assert len(out) == 1
    t, c = next(iter(out))
    assert c == 1
    assert text_form(t) == "f2(f2(c1,c2),c3)"


def _all_slots(e):
    s = e.signature()
    return ([(CLOSED, i) for i in range(1, s.n_closed + 1)]
            + [(OPEN, i) for i in range(1, s.n_open + 1)])


def _inner_slot_after_graft(outer_sig, slot, inner_sig, inner_slot):
    """Where inner's slot (color, j) lands inside outer o_slot inner."""
    dcol, i = slot
    col, j = inner_slot
    if dcol == CLOSED:
        return (col, i + j - 1) if col == CLOSED else (col, j)
    return (col, outer_sig.n_closed + j) if col == CLOSED else (col, i + j - 1)


def _outer_slot_after_graft(outer_sig, slot, inner_sig, other):
    """Where outer's slot `other` lands after grafting into `slot`."""
    dcol, i = slot
    col, j = other
    n2, m2 = inner_sig.n_closed, inner_sig.n_open
    if dcol == CLOSED:
        if col == CLOSED:
            return (col, j if j < i else j + n2 - 1)
        return (col, j + m2)
    if col == CLOSED:
        return (col, j)
    return (col, j if j < i else j + m2 - 1)


def test_sequential_axiom():
    # (a o b) o c == a o (b o c) where c lands inside b
    coll = hsc_dual_collection()
    gens = [corolla_element(coll[n], d) for n in ("l2", "n11", "n10")
            for d in range(coll[n].dim)]
    gens += [corolla_element(coll["n02"], d) for d in range(2)]
    for a in gens:
        for b in gens:
            for slot in _all_slots(a):
                if b.signature().out != slot[0]:
                    continue
                ab = graft(a, slot[0], slot[1], b)
                for c in gens:
                    for bslot in _all_slots(b):
                        if c.signature().out != bslot[0]:
                            continue
                        inner = _inner_slot_after_graft(
                            a.signature(), slot, b.signature(), bslot)
                        lhs = graft(ab, inner[0], inner[1], c)
                        rhs = graft(a, slot[0], slot[1],
                                    graft(b, bslot[0], bslot[1], c))
                        assert lhs == rhs, (a, b, c, slot, bslot)


def test_parallel_axiom():
    # For slots x before y of a corolla a (linear order):
    # (a o_x b) o_y' c == (-1)^{|b||c|} [(a o_y c) o_x' b] . pi
    # where pi is the identity except when both slots are open: there the
    # two inner closed blocks are appended in grafting order and pi swaps
    # them back (the Fin-set identification in skeleton coordinates).
    coll = hsc_dual_collection()
    gens = [corolla_element(coll[n]) for n in ("l2", "n11", "n10", "n02")]
    for a in gens:
        slots = _all_slots(a)
        for x in slots:
            for y in slots:
                xa = a.signature().slot_of(*x)
                ya = a.signature().slot_of(*y)
                if xa >= ya:
                    continue
                for b in gens:
                    if b.signature().out != x[0]:
                        continue
                    for c in gens:
                        if c.signature().out != y[0]:
                            continue
                        y2 = _outer_slot_after_graft(a.signature(), x,
                                                     b.signature(), y)
                        x2 = _outer_slot_after_graft(a.signature(), y,
                                                     c.signature(), x)
                        lhs = graft(graft(a, x[0], x[1], b), y2[0], y2[1], c)
                        rhs = graft(graft(a, y[0], y[1], c), x2[0], x2[1], b)
                        sign = (-1) ** (b.degree() * c.degree())
                        na = a.signature().n_closed
                        nb = b.signature().n_closed
                        nc = c.signature().n_closed
                        if x[0] == OPEN and y[0] == OPEN and nb and nc:
                            total = lhs.signature()
                            pi = list(range(1, total.n_closed + 1))
                            for k in range(1, nc + 1):
                                pi[na + k - 1] = na + nb + k
                            for k in range(1, nb + 1):
                                pi[na + nc + k - 1] = na + k
                            rhs = symmetric_act(
                                (tuple(pi), tuple(range(1, total.n_open + 1))),
                                rhs)
                        assert lhs == rhs.scale(sign), (a, b, c, x, y)


def _embed_perm(perm, offset, total):
    img = list(range(1, total + 1))
    for i, v in enumerate(perm):
        img[offset + i] = offset + v
    return tuple(img)


def test_inner_action_equivariance():
    # a o_i (b . tau) == (a o_i b) . tau-embedded-in-the-inner-window
    elp = elp_collection()
    gens = [corolla_element(elp[n]) for n in ("l2", "n02", "n11")]
    for a in gens:
        for b in gens:
            sb = b.signature()
            for col, i in _all_slots(a):
                if sb.out != col:
                    continue
                base = graft(a, col, i, b)
                sc = base.signature()
                sa = a.signature()
                for pc in permutations(range(1, sb.n_closed + 1)):
                    for po in permutations(range(1, sb.n_open + 1)):
                        lhs = graft(a, col, i, symmetric_act((pc, po), b))
                        if col == CLOSED:
                            pc2 = _embed_perm(pc, i - 1, sc.n_closed)
                            po2 = _embed_perm(po, 0, sc.n_open)
                        else:
                            pc2 = _embed_perm(pc, sa.n_closed, sc.n_closed)
                            po2 = _embed_perm(po, i - 1, sc.n_open)
                        rhs = symmetric_act((pc2, po2), base)
                        assert lhs == rhs, (a, b, col, i, pc, po)


def test_suspensions_degrees():
    ev = ev_collection()
    lam = suspend_collection(ev, LAMBDA)
    assert lam["f2"].degrees == (-1,)
    assert lam["e11"].degrees == (-1,)
    back = suspend_collection(lam, LAMBDA_INVERSE)
    assert back["f2"].degrees == ev["f2"].degrees
    dual = suspend_collection(lam, LINEAR_DUAL)
    # dual of the color-blind suspension: degree k-1, the Koszul-dual
    # cooperad convention (binary degree 0 -> 1)
    assert dual["f2"].degrees == (1,)
    dd = suspend_collection(dual, LINEAR_DUAL)
    assert dd["f2"].degrees == lam["f2"].degrees


def test_lambda_twists_symmetry():
    ev = ev_collection()
    lam = suspend_collection(ev, LAMBDA)
    f2s = corolla_element(lam["f2"])
    assert symmetric_act(((2, 1), ()), f2s) == f2s.scale(-1)


def test_lambda_c_degrees():
    # closed-output binary: 1-n = -1 shift; open (1,0;o): -n = -1 shift
    coll = Collection([
        generator("x2", sig(2, 0, CLOSED), 1, TRIVIAL),
        generator("w", sig(1, 0, OPEN), 0, NONE),
        generator("m2", sig(0, 2, OPEN), 0, REGULAR),
    ])
    lc = suspend_collection(coll, LAMBDA_C)
    assert lc["x2"].degrees == (0,)
    assert lc["w"].degrees == (-1,)
    assert lc["m2"].degrees == (0, 0)


def test_parse_and_text_roundtrip():
    coll = hsc_dual_collection()
    for s, w in [(sig(2, 1, OPEN), 2), (sig(1, 2, OPEN), 2),
                 (sig(3, 0, CLOSED), 2), (sig(2, 0, OPEN), 2),
                 (sig(2, 0, OPEN), 3)]:
        for t in enumerate_basis(coll, s, w):
            sign, txt = text_form_signed(t)
            parsed = parse_term(coll, txt)
            assert parsed == tree_element(t, sign), txt


def test_parse_reorders_children():
    elp = elp_collection()
    e = parse_term(elp, "l2(c2,c1)")
    assert e == corolla_element(elp["l2"]).scale(-1)
    f = parse_term(elp, "n02(o2,o1)")
    assert len(f) == 1
    t, c = next(iter(f))
    assert c == 1 and text_form(t) == "n02(o2,o1)"


def test_parse_errors():
    ev = ev_collection()
    with pytest.raises(ValueError):
        parse_term(ev, "f2(c1,c2")
    with pytest.raises(ValueError):
        parse_term(ev, "bogus(c1)")
    with pytest.raises(ValueError):
        parse_term(ev, "f2(c1,c2))")
