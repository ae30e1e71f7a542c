from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bioperad.algebraside import (CofreePair, FreeAlgebra, GradedPair,
                                  coproduct_open, lift_phi, lift_psi)
from bioperad.dgcalc import verify_d_squared
from bioperad.duality import cobar_truncate
from bioperad.models import (PRESENTATION_BUILDERS, h0sc_dual_dg,
                             h0sc_presentation, lp_presentation, lpinf_dg,
                             ocinf_dg)
from bioperad.presentation import (ambient_basis, group_elements,
                                   ideal_spans, signatures_within)
from bioperad.signs import koszul_sign, sort_key_perm
from bioperad.specfile import emit_spec, parse_spec
from bioperad.trees import (CLOSED, COLORS, OPEN, REGULAR, SIGN, TRIVIAL,
                            NONE, Collection, CompositionError, Element,
                            Leaf, Node, Signature, TermSyntaxError,
                            accumulate, assemble, component_basis,
                            corolla_element, enumerate_basis, generator,
                            graft, make_node, max_weight, parse_term, sig,
                            substitute, substitute_element, symmetric_act,
                            text_form, text_form_signed, tree_element,
                            tree_signature)


def compose(p, q):
    """p after q: compose(p, q)(i) = p(q(i)), in image notation."""
    return tuple(p[i - 1] for i in q)


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


@lru_cache(maxsize=None)
def _compositions(total, parts):
    """Every tuple of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _compositions(total - first, parts - 1))


def _naive_trees(collection, closed_labels, open_labels, out, weight, memo):
    """Every block-sorted decorated tree, found by trying every ordered
    split of the labels and the weight over the slots of every vertex."""
    key = (closed_labels, open_labels, out, weight)
    if key in memo:
        return memo[key]
    found = []
    if weight == 0:
        labels = closed_labels if out == CLOSED else open_labels
        others = open_labels if out == CLOSED else closed_labels
        if len(labels) == 1 and not others:
            found.append(Leaf(out, labels[0]))
    for space in collection.by_out[out] if weight else ():
        s = space.signature
        slots = [CLOSED] * s.n_closed + [OPEN] * s.n_open
        if not slots:
            continue
        for c_at in product(range(len(slots)), repeat=len(closed_labels)):
            for o_at in product(range(len(slots)), repeat=len(open_labels)):
                parts = [(tuple(l for l, i in zip(closed_labels, c_at) if i == j),
                          tuple(l for l, i in zip(open_labels, o_at) if i == j),
                          color) for j, color in enumerate(slots)]
                if not all(c or o for c, o, _ in parts):
                    continue  # every vertex space takes an input
                by_weight = [_naive_below(collection, c, o, color, weight, memo)
                             for c, o, color in parts]
                if not all(any(trees) for trees in by_weight):
                    continue  # some slot can hold no subtree at all
                for ws in _compositions(weight - 1, len(slots)):
                    options = [trees[w] for trees, w in zip(by_weight, ws)]
                    for children in product(*options):
                        keys = [c.min_key for c in children]
                        closed_keys = keys[:s.n_closed]
                        open_keys = keys[s.n_closed:]
                        if (closed_keys == sorted(set(closed_keys))
                                and open_keys == sorted(set(open_keys))):
                            found.extend(Node(space, b, children)
                                         for b in range(space.dim))
    memo[key] = found
    return found


def _naive_below(collection, closed_labels, open_labels, out, weight, memo):
    """The _naive_trees of every weight below `weight`, in weight order."""
    key = ("below", closed_labels, open_labels, out, weight)
    if key not in memo:
        memo[key] = [_naive_trees(collection, closed_labels, open_labels, out,
                                  w, memo) for w in range(weight)]
    return memo[key]


BUILTIN_MODELS = {**PRESENTATION_BUILDERS,
                  "OCinf": lambda: ocinf_dg(4),
                  "LPinf": lambda: lpinf_dg(4),
                  "H0SCdual_dg": lambda: h0sc_dual_dg(4)}

# a closed-output space with open inputs beside a unary map closed to open:
# al(h(al(c1),al(c2))) has weight 4 on two inputs
EXOTIC_SPEC = ("generator h : (o,o) -> c degree 0 symmetry regular\n"
               "generator al : (c) -> o degree 0\n")

# name -> (collection builder, input bound of the naive comparison)
NAIVE_CASES = {**{name: (build, 4) for name, build in BUILTIN_MODELS.items()},
               "exotic": (lambda: parse_spec(EXOTIC_SPEC), 3)}


@pytest.mark.parametrize("name", sorted(NAIVE_CASES))
def test_enumerate_basis_matches_a_naive_enumerator(name):
    # weights up to 3 * total - 2, the bound of any collection: each edge
    # of the non-unary vertices carries at most one unary vertex
    build, bound = NAIVE_CASES[name]
    collection = build().collection
    memo = {}
    cells = 0
    for s in signatures_within(bound):
        for w in range(1, 3 * s.total - 1):
            naive = _naive_trees(collection, tuple(range(1, s.n_closed + 1)),
                                 tuple(range(1, s.n_open + 1)), s.out, w, memo)
            assert len(set(naive)) == len(naive)
            assert enumerate_basis(collection, s, w) == sorted(naive,
                                                                key=text_form)
            assert w <= max_weight(collection, s) or not naive
            cells += bool(naive)
    assert cells


def test_enumeration_interns_decorated_nodes_only():
    for name in sorted(BUILTIN_MODELS):
        collection = BUILTIN_MODELS[name]().collection
        for s in signatures_within(4):
            component_basis(collection, s)
        decs = {type(dec) for space in collection for dec, _ in space.nodes}
        assert decs == {int}, name


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
    assert t.degree == -1
    assert t.weight == 2
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


def _linear_slot(sig_, color, index):
    """Linear slot of the index-th input of the given color (1-based)."""
    return index if color == CLOSED else sig_.n_closed + index


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


def _parallel_sides(a, x, y, b, c):
    """Both sides of the parallel axiom for slots x before y of a (linear
    order):  (a o_x b) o_y' c == (-1)^{|b||c|} [(a o_y c) o_x' b] . pi
    where pi is the identity except when both slots are open: there the
    two inner closed blocks are appended in grafting order and pi swaps
    them back (the Fin-set identification in skeleton coordinates)."""
    y2 = _outer_slot_after_graft(a.signature(), x, b.signature(), y)
    x2 = _outer_slot_after_graft(a.signature(), y, c.signature(), x)
    lhs = graft(graft(a, x[0], x[1], b), y2[0], y2[1], c)
    rhs = graft(graft(a, y[0], y[1], c), x2[0], x2[1], b)
    sign = -1 if b.degree() * c.degree() & 1 else 1
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
            (tuple(pi), tuple(range(1, total.n_open + 1))), rhs)
    return lhs, rhs.scale(sign)


def test_parallel_axiom():
    coll = hsc_dual_collection()
    gens = [corolla_element(coll[n]) for n in ("l2", "n11", "n10", "n02")]
    for a in gens:
        slots = _all_slots(a)
        for x in slots:
            for y in slots:
                xa = _linear_slot(a.signature(), *x)
                ya = _linear_slot(a.signature(), *y)
                if xa >= ya:
                    continue
                for b in gens:
                    if b.signature().out != x[0]:
                        continue
                    for c in gens:
                        if c.signature().out != y[0]:
                            continue
                        lhs, rhs = _parallel_sides(a, x, y, b, c)
                        assert lhs == rhs, (a, b, c, x, y)


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


_BAD_SIGNATURES = {
    (-1, 0, CLOSED):
        "negative input count in Signature(n_closed=-1, n_open=0, out='c')",
    (0, -1, OPEN):
        "negative input count in Signature(n_closed=0, n_open=-1, out='o')",
    (1, 0, "x"): "unknown output color 'x'",
}


@pytest.mark.parametrize("args", list(_BAD_SIGNATURES))
def test_signature_rejects_bad_counts_and_colors(args):
    with pytest.raises(ValueError) as info:
        Signature(*args)
    assert str(info.value) == _BAD_SIGNATURES[args]
    # a refused signature is not interned, so it is refused again
    with pytest.raises(ValueError):
        Signature(*args)


def test_leaves_and_signatures_are_interned():
    for color, label in product(COLORS, range(1, 5)):
        assert Leaf(color, label) is Leaf(color, label)
        assert repr(Leaf(color, label)) == f"{color}{label}"
    for n, m, out in product(range(4), range(4), COLORS):
        s = Signature(n, m, out)
        assert s is Signature(n, m, out) and s is sig(n, m, out)
        assert s.total == n + m
    # messages embed the repr, so it keeps the dataclass form
    assert (repr(Signature(2, 1, OPEN))
            == "Signature(n_closed=2, n_open=1, out='o')")
    assert str(Signature(2, 1, OPEN)) == "(2,1;o)"


def _reference_attributes(t):
    """(out, min_key, degree, weight) of t, recomputed from its leaves and
    vertices."""
    if isinstance(t, Leaf):
        return t.color, (0 if t.color == CLOSED else 1, t.label), 0, 0
    kids = [_reference_attributes(c) for c in t.children]
    return (t.space.signature.out, min(k[1] for k in kids),
            t.space.degree + sum(k[2] for k in kids),
            1 + sum(k[3] for k in kids))


@pytest.mark.parametrize("build", [
    lambda: ocinf_dg(4), lambda: lpinf_dg(4),
    lambda: cobar_truncate(lp_presentation(), 4)],
    ids=["OCinf", "LPinf", "cobar-LP"])
def test_tree_attributes_are_fixed_at_interning(build):
    # every chain basis tree, then every node interned once d^2 has been
    # taken: the derivation builds its Leibniz terms straight as nodes
    dg = build()
    basis = [t for s in signatures_within(4) for d in dg.cell_degrees(s)
             for t in dg.chain_basis(s, d)]
    assert verify_d_squared(dg) == []
    nodes = [u for space in dg.collection for u in space.nodes.values()]
    assert len(nodes) > len(basis) > 0
    for t in basis + nodes:
        assert (t.out, t.min_key, t.degree, t.weight) == \
            _reference_attributes(t), t


def test_parse_and_text_roundtrip():
    coll = hsc_dual_collection()
    for s, w in [(sig(2, 1, OPEN), 2), (sig(1, 2, OPEN), 2),
                 (sig(3, 0, CLOSED), 2), (sig(2, 0, OPEN), 2),
                 (sig(2, 0, OPEN), 3)]:
        for t in enumerate_basis(coll, s, w):
            sign, txt = text_form_signed(t)
            parsed = parse_term(coll, txt)
            assert parsed == Element({t: sign}), txt


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


# ---------------------------------------------------------------------------
# Properties over small random trees of the builtin collections

_DG_MODELS = {"OCinf": ocinf_dg, "LPinf": lpinf_dg}
_COLLECTION_NAMES = sorted(PRESENTATION_BUILDERS) + sorted(_DG_MODELS)
# the collections with odd-degree generators, where Koszul signs show
_GRADED_NAMES = ["H0SCdual", "LPinf", "OCinf"]
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


# cobar collections: vertex spaces of quotient classes, printed name[k]
_COBARS = {"cobar-LP": lp_presentation, "cobar-H0SC": h0sc_presentation}


def _collection(name):
    if name in _DG_MODELS:
        return _DG_MODELS[name](3).collection
    if name in _COBARS:
        return _cobar(name)
    return PRESENTATION_BUILDERS[name]().collection


@lru_cache(maxsize=None)
def _cobar(name):
    return cobar_truncate(_COBARS[name](), 3).collection


def _signatures(coll, max_inputs, out=None):
    return [s for s in signatures_within(max_inputs)
            if (out is None or s.out == out) and ambient_basis(coll, s).dim]


def _draw_tree(draw, coll, max_inputs, out=None):
    s = draw(st.sampled_from(_signatures(coll, max_inputs, out)))
    return draw(st.sampled_from(ambient_basis(coll, s).trees))


def _draw_element(draw, coll, max_inputs, out=None):
    """A nonzero combination of up to three trees of one signature with
    small rational coefficients, so that products and sums can be
    integral."""
    s = draw(st.sampled_from(_signatures(coll, max_inputs, out)))
    trees = ambient_basis(coll, s).trees
    coeff = st.fractions(-2, 2, max_denominator=2).filter(bool)
    return Element(draw(st.dictionaries(st.sampled_from(trees), coeff,
                                        min_size=1, max_size=3)))


def _draw_slot(draw, coll, e, max_inputs):
    """A slot of e that some tree of at most max_inputs inputs can fill."""
    colors = {s.out for s in _signatures(coll, max_inputs)}
    slots = [slot for slot in _all_slots(e) if slot[0] in colors]
    assume(slots)
    return draw(st.sampled_from(slots))


def _exact(coefficients):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in coefficients)


@_PROPERTY
@given(st.data())
def test_parse_of_signed_text_returns_the_same_node(data):
    coll = _collection(data.draw(st.sampled_from(_COLLECTION_NAMES)))
    t = _draw_tree(data.draw, coll, 4)
    sign, txt = text_form_signed(t)
    ((u, c),) = parse_term(coll, txt).terms.items()
    assert u is t and c == sign and type(c) is int


@_PROPERTY
@given(st.data())
def test_repr_reads_back(data):
    # repr prints what parse_term reads: terms sorted by text, the reparse
    # sign of crossing odd-degree children folded into the coefficient
    coll = _collection(data.draw(st.sampled_from(
        _COLLECTION_NAMES + sorted(_COBARS))))
    t = _draw_tree(data.draw, coll, 4)
    same = [u for u in ambient_basis(coll, tree_signature(t)).trees
            if u.degree == t.degree]
    coeff = st.one_of(st.integers(-3, 3),
                      st.fractions(-2, 2, max_denominator=3)).filter(bool)
    e = Element(data.draw(st.dictionaries(st.sampled_from(same), coeff,
                                          min_size=1, max_size=4)))
    assert parse_term(coll, repr(e)) == e


def test_indexed_vertices_read_back_and_refuse_bad_indices():
    coll = _collection("cobar-LP")
    assert coll["g3_0c"].dim == 2
    trees = [t for s in signatures_within(3)
             for t in ambient_basis(coll, s).trees]
    assert "g3_0c[1](c1,c2,c3)" in {text_form(t) for t in trees}
    for t in trees:
        assert parse_term(coll, repr(tree_element(t))) == tree_element(t)
    for name, text, message in [
            ("cobar-LP", "g3_0c[2](c1,c2,c3)", "no basis element '2'"),
            ("cobar-LP", "g3_0c[](c1,c2,c3)", "no basis element ''"),
            ("cobar-LP", "g3_0c[1(c1,c2,c3)", "no basis element"),
            ("cobar-LP", "g2_0c[0](c1,c2)", "takes no basis index"),
            ("LP", "n02[0](o1,o2)", "takes no basis index")]:
        with pytest.raises(TermSyntaxError, match=message):
            parse_term(_collection(name), text)


def test_zero_reads_back():
    coll = _collection("LP")
    assert repr(Element()) == "0"
    assert parse_term(coll, "0").is_zero()
    assert parse_term(coll, "n02(o1,o2) - n02(o1,o2)").is_zero()


def _blocks_ascend(u):
    """u's children ascend by min_key within each color block."""
    keys = [c.min_key for c in u.children]
    n = u.space.signature.n_closed
    return all(keys[i - 1] <= keys[i]
               for i in range(1, len(keys)) if i != n)


def _slot_leaves(closed, open_):
    """Leaves with the given closed and open labels, in slot order."""
    return ([Leaf(CLOSED, k) for k in closed]
            + [Leaf(OPEN, k) for k in open_])


def _identity_leaves(s):
    """The leaves of signature s in slot order: substituting them into a
    tree of s gives the tree back."""
    return _slot_leaves(range(1, s.n_closed + 1), range(1, s.n_open + 1))


def _leaf_labels(t):
    """{color: the ascending leaf labels of t of that color}."""
    labels = {CLOSED: [], OPEN: []}
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Leaf):
            labels[x.color].append(x.label)
        else:
            stack.extend(x.children)
    for block in labels.values():
        block.sort()
    return labels


def _relabelled(t, new):
    """t with leaf (c, k) relabelled new[c][k], built node by node; an
    ascending relabelling keeps a canonical tree canonical."""
    if isinstance(t, Leaf):
        return Leaf(t.color, new[t.color][t.label])
    return Node(t.space, t.dec, tuple(_relabelled(c, new)
                                      for c in t.children))


@_PROPERTY
@given(st.data())
def test_identity_substitution_is_idempotent(data):
    coll = _collection(data.draw(st.sampled_from(_COLLECTION_NAMES)))
    t = _draw_tree(data.draw, coll, 4)
    s = tree_signature(t)
    assert substitute(t, _identity_leaves(s)).terms == {t: 1}
    pc = data.draw(st.permutations(range(1, s.n_closed + 1)))
    po = data.draw(st.permutations(range(1, s.n_open + 1)))
    once = substitute(t, _slot_leaves(pc, po)).terms
    assert once
    index = ambient_basis(coll, s).index
    for u in once:
        assert _blocks_ascend(u) and u in index
        assert substitute(u, _identity_leaves(s)).terms == {u: 1}


def _same_leaves(coll, t):
    """Every tree of coll on the leaves and output color of t: the
    standard-labelled trees relabelled in order onto t's leaf labels, which
    keeps them canonical."""
    labels = _leaf_labels(t)
    s = Signature(len(labels[CLOSED]), len(labels[OPEN]),
                  t.space.signature.out)
    leaves = _slot_leaves(labels[CLOSED], labels[OPEN])
    return [v for u in ambient_basis(coll, s).trees
            for v in substitute(u, leaves).terms]


@_PROPERTY
@given(st.data())
def test_assemble_is_the_make_node_expansion(data):
    coll = _collection(data.draw(st.sampled_from(["H0SC", "LPinf", "OCinf"])))
    t = _draw_tree(data.draw, coll, 3)
    assume(isinstance(t, Node))
    coeff = st.fractions(-2, 2, max_denominator=3).filter(bool)
    parts = []
    for child in t.children:
        options = _same_leaves(coll, child) if isinstance(child, Node) \
            else [child]
        chosen = data.draw(st.lists(st.sampled_from(options), min_size=1,
                                    max_size=3, unique=True))
        parts.append(Element({u: data.draw(coeff) for u in chosen}).terms)
    # permute each color block, so that the children need re-sorting
    n = t.space.signature.n_closed
    order = (data.draw(st.permutations(range(n)))
             + data.draw(st.permutations(range(n, len(parts)))))
    parts = [parts[i] for i in order]
    expected = {}
    for combo in product(*(p.items() for p in parts)):
        scale = 1
        for _, c in combo:
            scale *= c
        accumulate(expected, make_node(t.space, t.dec, [u for u, _ in combo]
                                       ).terms.items(), scale)
    assert assemble(t.space, t.dec, parts) == expected


def _naive_substitute(pattern, subs):
    """Reference for substitute: each leaf replaced by its subtree, the tree
    rebuilt bottom-up through make_node, and the sign of the Koszul rule
    for moving the word (pattern vertices in pre-order, then the subtrees
    in slot order) to the depth-first word of the substituted tree."""
    n = tree_signature(pattern).n_closed

    def slot(lf):
        return lf.label - 1 if lf.color == CLOSED else n + lf.label - 1

    def build(t):
        if isinstance(t, Leaf):
            return {subs[slot(t)]: 1}
        acc = {}
        for combo in product(*(build(c).items() for c in t.children)):
            scale = 1
            for _, c in combo:
                scale *= c
            accumulate(acc, make_node(t.space, t.dec, [u for u, _ in combo]
                                      ).terms.items(), scale)
        return acc

    source, target, degree = [], [], {}

    def word(t):
        if isinstance(t, Leaf):
            target.append(("sub", slot(t)))
            return
        letter = ("vertex", len(source))
        source.append(letter)
        target.append(letter)
        degree[letter] = t.space.degree
        for c in t.children:
            word(c)

    word(pattern)
    for i, u in enumerate(subs):
        source.append(("sub", i))
        degree[("sub", i)] = u.degree
    where = {letter: i for i, letter in enumerate(target)}
    flips = sum(degree[a] * degree[b] for i, a in enumerate(source)
                for b in source[i + 1:] if where[a] > where[b])
    return Element(build(pattern)).scale(-1 if flips & 1 else 1)


@lru_cache(maxsize=None)
def _trees_within(name, max_inputs, out=None):
    """Every tree of a collection with at most max_inputs inputs."""
    coll = _collection(name)
    return [t for s in _signatures(coll, max_inputs, out)
            for t in ambient_basis(coll, s).trees]


def _draw_disjoint_subs(draw, name, s):
    """A subtree for each slot of s, in slot order: half of the time an
    odd-degree tree of at most three inputs if there is one, else a leaf or
    any such tree.  Their labels are a random ascending share of one
    standard labelling, so that the substituted tree is standard-labelled."""
    subs = []
    for color in [CLOSED] * s.n_closed + [OPEN] * s.n_open:
        trees = _trees_within(name, 3, color)
        odd = [t for t in trees if t.degree & 1]
        if odd and draw(st.booleans()):
            subs.append(draw(st.sampled_from(odd)))
        elif trees and draw(st.booleans()):
            subs.append(draw(st.sampled_from(trees)))
        else:
            subs.append(Leaf(color, 1))
    counts = [_leaf_labels(u) for u in subs]
    pool = {c: draw(st.permutations(range(1, sum(len(k[c]) for k in counts)
                                          + 1)))
            for c in (CLOSED, OPEN)}
    out = []
    for u, labels in zip(subs, counts):
        new = {}
        for c in (CLOSED, OPEN):
            share, pool[c] = pool[c][:len(labels[c])], pool[c][len(labels[c]):]
            new[c] = dict(zip(labels[c], sorted(share)))
        out.append(_relabelled(u, new))
    return out


@settings(_PROPERTY, max_examples=150)
@given(st.data())
def test_substitute_matches_a_naive_reference(data):
    # patterns drawn tree by tree, so mostly of four inputs, where odd
    # vertices follow leaves in the word; the extra examples reach a tail
    # sign at each leaf and slot that can carry one
    name = data.draw(st.sampled_from(["H0SC", "LPinf", "OCinf"]))
    pattern = data.draw(st.sampled_from(_trees_within(name, 4)))
    subs = _draw_disjoint_subs(data.draw, name, tree_signature(pattern))
    assert substitute(pattern, subs) == _naive_substitute(pattern, subs)


def _spreading_corollas():
    """(space, dec, closed word) with the g3_0c corolla of the cobar of LP
    relabelled by the word re-sorting to more than one term."""
    space = _cobar("cobar-LP")["g3_0c"]
    return [(space, dec, word) for dec in range(space.dim)
            for word in permutations((1, 2, 3))
            if len(make_node(space, dec, _slot_leaves(word, ())).terms) > 1]


@_PROPERTY
@given(st.data())
def test_symmetric_act_spreads_through_assemble(data):
    # a g3_0c corolla grafted under a vertex and relabelled so that it
    # re-sorts to several terms, which the vertex above assembles
    coll = _cobar("cobar-LP")
    g3, dec, word = data.draw(st.sampled_from(_spreading_corollas()))
    above = data.draw(st.sampled_from(
        [space for space in coll if space.signature.n_closed]))
    i = data.draw(st.integers(1, above.signature.n_closed))
    pattern = graft(corolla_element(above, data.draw(
        st.integers(0, above.dim - 1))), CLOSED, i, corolla_element(g3, dec))
    s = pattern.signature()
    cperm = list(data.draw(st.permutations(range(1, s.n_closed + 1))))
    block = sorted(cperm[i - 1:i + 2])
    cperm[i - 1:i + 2] = [block[k - 1] for k in word]
    operm = data.draw(st.permutations(range(1, s.n_open + 1)))
    acted = symmetric_act((tuple(cperm), tuple(operm)), pattern)
    assert len(acted) > 1
    expected = Element()
    for t, c in pattern:
        expected += _naive_substitute(t, _slot_leaves(cperm, operm)).scale(c)
    assert acted == expected


def _make_node_reference(space, dec, children):
    """make_node as a direct re-sort: each color block sorted by
    min_key, the Koszul sign of its crossings of odd-degree children,
    then the block action on dec."""
    n = space.signature.n_closed
    degrees = [c.degree for c in children]
    kids, perms, sign = list(children), [], 1
    for lo, hi in ((0, n), (n, len(children))):
        perm = sort_key_perm([c.min_key for c in children[lo:hi]])
        sign *= koszul_sign(perm, degrees[lo:hi])
        for i, p in enumerate(perm):
            kids[lo + p - 1] = children[lo + i]
        perms.append(perm)
    kids = tuple(kids)
    return Element({Node(space, b, kids): c * sign
                    for b, c in space.act_block(dec, *perms)})


@settings(_PROPERTY, max_examples=80)
@given(st.data())
@pytest.mark.parametrize("case", ["vertex", "spreading"])
def test_make_node_matches_a_direct_re_sort(case, data):
    # shuffled children, odd ones among them, under a vertex of H0SC,
    # LPinf or OCinf, or under a g3_0c corolla of the cobar of LP in an
    # order that re-sorts to several terms
    if case == "spreading":
        name = "cobar-LP"
        space, dec, word = data.draw(st.sampled_from(_spreading_corollas()))
    else:
        name = data.draw(st.sampled_from(["H0SC", "LPinf", "OCinf"]))
        space = data.draw(st.sampled_from(_collection(name).spaces))
        dec = data.draw(st.integers(0, space.dim - 1))
    subs = _draw_disjoint_subs(data.draw, name, space.signature)
    n = space.signature.n_closed
    if case == "spreading":
        ascending = sorted(subs[:n], key=lambda c: c.min_key)
        closed = [ascending[k - 1] for k in word]
    else:
        closed = data.draw(st.permutations(subs[:n]))
    children = [*closed, *data.draw(st.permutations(subs[n:]))]
    expected = _make_node_reference(space, dec, children)
    assert len(expected) > 1 or case == "vertex"
    # the second call reads what the space kept from the first
    for _ in range(2):
        assert make_node(space, dec, children) == expected


def test_node_refuses_children_out_of_order():
    coll = ev_collection()
    space = coll["f2"]
    with pytest.raises(ValueError, match="canonical order"):
        Node(space, 0, (Leaf(CLOSED, 2), Leaf(CLOSED, 1)))
    with pytest.raises(CompositionError, match="slot 1 of f2 is c"):
        Node(space, 0, (Leaf(OPEN, 1), Leaf(OPEN, 2)))
    with pytest.raises(CompositionError, match="takes 2 children"):
        Node(space, 0, (Leaf(CLOSED, 1),))
    assert not space.nodes
    # so a vertex read from text never finds a malformed node interned
    with pytest.raises(TermSyntaxError, match="slot 1 of f2 is c"):
        parse_term(coll, "f2(o1,o2)")
    # equal keys pass, so a repeated label reaches tree_signature's message
    t = Node(space, 0, (Leaf(CLOSED, 1), Leaf(CLOSED, 1)))
    with pytest.raises(ValueError, match="not labelled 1..n"):
        tree_signature(t)


def test_only_canonical_nodes_are_interned():
    # a fresh spec-file presentation, so no other test has built its nodes
    P = parse_spec(emit_spec(PRESENTATION_BUILDERS["H0SCdual"]()))
    coll = P.collection
    for rel in P.relations:
        s = rel.signature()
        for g in group_elements(s):
            symmetric_act(g, rel)
        for space in coll:
            cor = corolla_element(space)
            for color, i in _all_slots(rel):
                if space.signature.out == color:
                    graft(rel, color, i, cor)
            for color, i in _all_slots(cor):
                if s.out == color:
                    graft(cor, color, i, rel)
        substitute_element(rel, _slot_leaves(range(s.n_closed, 0, -1),
                                             range(s.n_open, 0, -1)))
    nodes = [u for space in coll for u in space.nodes.values()]
    assert len(nodes) > 100
    for u in nodes:
        # u from the standard-labelled tree of its shape and its own leaves
        labels = _leaf_labels(u)
        standard = {c: {k: i for i, k in enumerate(ks, start=1)}
                    for c, ks in labels.items()}
        assert substitute(_relabelled(u, standard),
                          _slot_leaves(labels[CLOSED], labels[OPEN])
                          ).terms == {u: 1}


@_PROPERTY
@given(st.data())
def test_sequential_graft_is_associative(data):
    # (a o_slot b) o_inner c == a o_slot (b o_bslot c), Koszul signs included
    coll = _collection(data.draw(st.sampled_from(_GRADED_NAMES)))
    a = tree_element(_draw_tree(data.draw, coll, 3))
    slot = _draw_slot(data.draw, coll, a, 2)
    b = tree_element(_draw_tree(data.draw, coll, 2, out=slot[0]))
    bslot = _draw_slot(data.draw, coll, b, 2)
    c = tree_element(_draw_tree(data.draw, coll, 2, out=bslot[0]))
    inner = _inner_slot_after_graft(a.signature(), slot, b.signature(), bslot)
    lhs = graft(graft(a, *slot, b), *inner, c)
    rhs = graft(a, *slot, graft(b, *bslot, c))
    assert lhs == rhs


@_PROPERTY
@given(st.data())
def test_parallel_graft_of_two_odd_trees_is_associative(data):
    # the parallel axiom for a random tree a and odd-degree b and c, so the
    # Koszul sign (-1)^{|b||c|} is -1 and a graft sign of +1 fails it
    coll = _collection(data.draw(st.sampled_from(_GRADED_NAMES)))
    odd = {color: [t for s in _signatures(coll, 3, color)
                   for t in ambient_basis(coll, s).trees if t.degree & 1]
           for color in (CLOSED, OPEN)}
    a = tree_element(_draw_tree(data.draw, coll, 3))
    slots = [slot for slot in _all_slots(a) if odd[slot[0]]]
    assume(len(slots) >= 2)
    x, y = sorted(data.draw(st.lists(st.sampled_from(slots), min_size=2,
                                     max_size=2, unique=True)),
                  key=lambda slot: _linear_slot(a.signature(), *slot))
    b = tree_element(data.draw(st.sampled_from(odd[x[0]])))
    c = tree_element(data.draw(st.sampled_from(odd[y[0]])))
    lhs, rhs = _parallel_sides(a, x, y, b, c)
    assert not lhs.is_zero() and lhs == rhs


def _perm_pair(draw, s, identity):
    """A (closed, open) permutation pair for s, the identity if asked."""
    return tuple(tuple(range(1, k + 1)) if identity
                 else tuple(draw(st.permutations(range(1, k + 1))))
                 for k in (s.n_closed, s.n_open))


def _graft_relabelling(sa, slot, sb, sigma, tau):
    """The pair rho with (a.sigma) o_(sigma(slot)) (b.tau) equal to
    (a o_slot b).rho: each leaf of a o_slot b moves to where its leaf of a,
    relabelled by sigma, or of b, relabelled by tau, lands in the graft
    on the left."""
    color, j = slot
    moved = (color, sigma[color == OPEN][j - 1])
    rho = {CLOSED: {}, OPEN: {}}
    for s, where, perm, grafted in ((sa, _outer_slot_after_graft, sigma, slot),
                                    (sb, _inner_slot_after_graft, tau, None)):
        for c, count in ((CLOSED, s.n_closed), (OPEN, s.n_open)):
            for lab in range(1, count + 1):
                if (c, lab) != grafted:
                    src = where(sa, slot, sb, (c, lab))
                    dst = where(sa, moved, sb, (c, perm[c == OPEN][lab - 1]))
                    rho[c][src[1]] = dst[1]
    return tuple(tuple(rho[c][k] for k in sorted(rho[c]))
                 for c in (CLOSED, OPEN))


@_PROPERTY
@given(st.data())
@pytest.mark.parametrize("acted", ["outer", "inner"])
def test_graft_is_equivariant(acted, data):
    # (a.sigma) o_sigma(j) b == (a o_j b).rho and a o_j (b.tau) ==
    # (a o_j b).rho', Koszul signs included; saturation grows only the spin
    # seeds because of this
    coll = _collection(data.draw(st.sampled_from(_COLLECTION_NAMES)))
    a = _draw_element(data.draw, coll, 3)
    slot = _draw_slot(data.draw, coll, a, 2)
    b = _draw_element(data.draw, coll, 2, out=slot[0])
    sa, sb = a.signature(), b.signature()
    sigma = _perm_pair(data.draw, sa, acted != "outer")
    tau = _perm_pair(data.draw, sb, acted != "inner")
    i = sigma[slot[0] == OPEN][slot[1] - 1]
    lhs = graft(symmetric_act(sigma, a), slot[0], i, symmetric_act(tau, b))
    rho = _graft_relabelling(sa, slot, sb, sigma, tau)
    assert lhs == symmetric_act(rho, graft(a, *slot, b))


def test_float_coefficients_are_refused():
    coll = ev_collection()
    (t,) = enumerate_basis(coll, sig(2, 0, CLOSED), 1)
    with pytest.raises(TypeError):
        Element({t: 0.1})
    with pytest.raises(TypeError):
        Element({t: 1 / 3})
    assert Element({t: Fraction(1, 3)}).terms == {t: Fraction(1, 3)}


@_PROPERTY
@given(st.data())
def test_tree_layer_coefficients_are_ints_or_proper_fractions(data):
    name = data.draw(st.sampled_from(sorted(PRESENTATION_BUILDERS)))
    P = PRESENTATION_BUILDERS[name]()
    e = _draw_element(data.draw, P.collection, 3)
    slot = _draw_slot(data.draw, P.collection, e, 2)
    f = _draw_element(data.draw, P.collection, 2, out=slot[0])
    s = e.signature()
    g = (tuple(data.draw(st.permutations(range(1, s.n_closed + 1)))),
         tuple(data.draw(st.permutations(range(1, s.n_open + 1)))))
    dg = _DG_MODELS[data.draw(st.sampled_from(sorted(_DG_MODELS)))](3)
    outs = [e, graft(e, *slot, f), symmetric_act(g, e),
            ideal_spans(P, 3).reduce_to_element(e),
            dg.derivation.apply(_draw_element(data.draw, dg.collection, 3))]
    assert all(_exact(out.terms.values()) for out in outs)


@_PROPERTY
@given(st.data())
def test_algebra_side_coefficients_are_ints_or_proper_fractions(data):
    # random corestrictions with small rational coefficients on a graded
    # pair, so that the lifted sums can be integral
    cofree = CofreePair(GradedPair([("x", 0), ("y", 1)],
                                   [("a", 0), ("b", 1)]), 3, 3)
    coeff = st.fractions(-2, 2, max_denominator=2).filter(bool)
    image = st.dictionaries(st.sampled_from(range(2)), coeff, min_size=1)
    psi = data.draw(st.dictionaries(st.sampled_from(cofree.closed_basis),
                                    image, max_size=8))
    phi = data.draw(st.dictionaries(st.sampled_from(cofree.mixed_basis),
                                    image, max_size=12))
    m = data.draw(st.sampled_from(cofree.closed_basis))
    mm, w = data.draw(st.sampled_from(cofree.mixed_basis))
    fa = FreeAlgebra(GradedPair.ungraded(2, 1), 4)
    x, y = data.draw(st.lists(st.sampled_from(fa.l_basis), min_size=2,
                              max_size=2))
    a = data.draw(st.sampled_from(
        [b for b in fa.a_basis if fa.open_weight(b) <= 3]))
    outs = [lift_psi(cofree.cdeg, psi)(m),
            lift_phi(cofree.cdeg, cofree.odeg, psi, phi, -1)((mm, w)),
            coproduct_open(cofree, mm, w), fa.bracket(x, y), fa.action(x, a)]
    assert all(_exact(out.values()) for out in outs)
