import gc
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioperad import presentation
from bioperad.linalg import Echelon
from bioperad.models import (PRESENTATION_BUILDERS, h0sc_presentation,
                             h0scvor_presentation, lp_presentation,
                             qh0sc_presentation, com_presentation,
                             lie_presentation)
from bioperad.presentation import (Presentation, Truncation, _grow_once,
                                   adjacent_transpositions,
                                   check_ql_conditions, ambient_basis,
                                   group_elements, ideal_spans, project_q,
                                   quotient_dims, relation_span,
                                   signatures_within, spin)
from bioperad.specfile import emit_spec, parse_spec
from bioperad.trees import (CLOSED, OPEN, REGULAR, SIGN, TRIVIAL, Collection,
                            Element, VertexSpace, enumerate_basis, generator,
                            graft, make_node, parse_term, sig, symmetric_act,
                            tree_element)


def test_ambient_dims_duality_lemma():
    lp = lp_presentation()
    assert ambient_basis(lp.collection, sig(2, 1, OPEN)).dim == 3
    assert ambient_basis(lp.collection, sig(1, 2, OPEN)).dim == 6


def test_relation_span_dims_lp():
    lp = lp_presentation()
    # (M) spans dimension 1, (D) spans dimension 2
    assert relation_span(lp, sig(2, 1, OPEN), 2).dim == 1
    assert relation_span(lp, sig(1, 2, OPEN), 2).dim == 2
    # Jacobi orbit spans dimension 1 of the 3-dim closed component
    assert relation_span(lp, sig(3, 0, CLOSED), 2).dim == 1


def test_relation_span_dims_scvor():
    v = h0scvor_presentation()
    assert relation_span(v, sig(2, 1, OPEN), 2).dim == 2
    assert relation_span(v, sig(1, 2, OPEN), 2).dim == 4
    # associativity orbit of f2 spans dim 2 inside the 3-dim ambient
    assert relation_span(v, sig(3, 0, CLOSED), 2).dim == 2
    assert relation_span(v, sig(0, 3, OPEN), 2).dim == 6


def test_relation_span_monotone_and_recombination():
    lp = lp_presentation()
    fewer = Presentation(lp.collection, lp.relations[:3], "partial")
    full_span = relation_span(lp, sig(2, 1, OPEN), 2)
    part_span = relation_span(fewer, sig(2, 1, OPEN), 2)
    assert part_span.dim <= full_span.dim
    # rescaling and translating relations preserves the generated submodule
    recombined = Presentation(
        lp.collection,
        [lp.relations[0].scale(2),
         symmetric_act(((), (2, 1, 3)), lp.relations[1]),
         lp.relations[2].scale(Fraction(-1, 3)),
         symmetric_act(((2, 1), (1,)), lp.relations[3])],
        "recombined")
    assert relation_span(recombined, sig(2, 1, OPEN), 2) == full_span
    assert (relation_span(recombined, sig(1, 2, OPEN), 2)
            == relation_span(lp, sig(1, 2, OPEN), 2))


def test_quotient_dims_com_lie():
    com = quotient_dims(com_presentation(), 5)
    lie = quotient_dims(lie_presentation(), 5)
    fact = [1, 1, 2, 6, 24]
    for n in range(2, 6):
        assert com[(sig(n, 0, CLOSED), 0)] == 1
        assert lie[(sig(n, 0, CLOSED), 0)] == fact[n - 1]


def test_quotient_dims_scvor():
    dims = quotient_dims(h0scvor_presentation(), 4)
    # closed part is Com
    for n in range(2, 5):
        assert dims[(sig(n, 0, CLOSED), 0)] == 1
    # open part: multilinear S+(Vc) x T(Vo): q! for q >= 1
    assert dims[(sig(1, 1, OPEN), 0)] == 1
    assert dims[(sig(1, 2, OPEN), 0)] == 2
    assert dims[(sig(2, 1, OPEN), 0)] == 1
    assert dims[(sig(2, 2, OPEN), 0)] == 2
    assert dims[(sig(0, 3, OPEN), 0)] == 6
    assert (sig(1, 0, OPEN), 0) not in dims


def test_quotient_dims_lp():
    dims = quotient_dims(lp_presentation(), 4)
    # closed part is Lie
    assert dims[(sig(2, 0, CLOSED), 0)] == 1
    assert dims[(sig(3, 0, CLOSED), 0)] == 2
    assert dims[(sig(4, 0, CLOSED), 0)] == 6
    # open part: multilinear T(T+(Vc) x Vo): q! * q(q+1)...(q+p-1)
    assert dims[(sig(2, 1, OPEN), 0)] == 2
    assert dims[(sig(1, 2, OPEN), 0)] == 4
    assert dims[(sig(3, 1, OPEN), 0)] == 6
    assert dims[(sig(2, 2, OPEN), 0)] == 12
    assert dims[(sig(1, 3, OPEN), 0)] == 18
    assert (sig(2, 0, OPEN), 0) not in dims


def _representative(tr, s, q):
    """The representative Element of the q-th coset basis class at s."""
    return tree_element(tr.ambient(s).trees[tr.basis(s)[q]])


def test_truncation_composition_well_defined():
    # composing coset representatives then projecting does not depend on the
    # representative: residue(graft(rep + ideal, rep)) == residue(graft(rep,
    # rep))
    lp = lp_presentation()
    tr = ideal_spans(lp, 4)
    s = sig(1, 1, OPEN)
    rep = _representative(tr, s, 0)
    jac = lp.relations[0]  # weight-2 closed relation
    # graft an ideal element into a representative: must reduce to zero
    lifted = graft(rep, CLOSED, 1, parse_term(lp.collection, "l2(c1,c2)"))
    alt = graft(rep, CLOSED, 1,
                parse_term(lp.collection, "l2(c1,c2)")) + graft(
                    tr.reduce_to_element(rep), CLOSED, 1,
                    Element())
    assert tr.residue(lifted) == tr.residue(alt)
    # ideal itself reduces to zero after grafting
    grown = graft(parse_term(lp.collection, "n11(c1,o1)"), CLOSED, 1,
                  jac.scale(1))
    assert not grown.is_zero()
    assert tr.residue(grown) == {}


def test_truncation_associativity_in_quotient():
    lp = lp_presentation()
    tr = ideal_spans(lp, 4)
    s11 = sig(1, 1, OPEN)
    s02 = sig(0, 2, OPEN)
    a = _representative(tr, s11, 0)
    b = _representative(tr, s02, 0)
    c = _representative(tr, s02, 1)
    lhs = tr.residue(graft(graft(a, OPEN, 1, b), OPEN, 1, c))
    rhs = tr.residue(graft(a, OPEN, 1, graft(b, OPEN, 1, c)))
    assert lhs == rhs


def test_ql_conditions_h0sc():
    report = check_ql_conditions(h0sc_presentation())
    assert report["ql1"] and report["ql2"], report["witnesses"]


def test_ql_conditions_pure_quadratic_vacuous():
    report = check_ql_conditions(lp_presentation())
    assert report["ql1"] and report["ql2"]


def test_ql1_fails_on_pure_linear_relation():
    base = h0scvor_presentation()
    e11 = parse_term(base.collection, "e11(c1,o1)")
    bad = Presentation(base.collection, list(base.relations) + [e11], "bad")
    report = check_ql_conditions(bad)
    assert not report["ql1"]


def test_ql2_fails_when_a_linear_term_is_doubled():
    base = h0sc_presentation()
    coll = base.collection
    rel = parse_term(coll, "e02(al(c1),o1)") - parse_term(coll, "e11(c1,o1)")
    doubled = (parse_term(coll, "e02(al(c1),o1)")
               - parse_term(coll, "e11(c1,o1)").scale(2))
    rels = [doubled if r == rel else r for r in base.relations]
    assert rels != list(base.relations)
    report = check_ql_conditions(Presentation(coll, rels, "doubled"))
    assert report["ql1"] and not report["ql2"]
    assert len(report["witnesses"]) == 3
    assert {w["condition"] for w in report["witnesses"]} == {"ql2"}


def test_project_q_spans_match_stated_list():
    h = h0sc_presentation()
    q = project_q(h)
    assert q.is_quadratic()
    coll = h.collection
    stated = [
        parse_term(coll, "e02(al(c1),o1)"),
        parse_term(coll, "e02(o1,al(c1))"),
        parse_term(coll, "e11(c1,al(c2))") - parse_term(coll, "al(f2(c1,c2))"),
    ]
    # span equality at every weight-2 signature against R_v + stated list
    alt = Presentation(coll, list(_scvor_rels_on(coll)) + stated, "alt")
    for s in [sig(2, 0, OPEN), sig(1, 1, OPEN), sig(3, 0, CLOSED),
              sig(2, 1, OPEN), sig(1, 2, OPEN), sig(0, 3, OPEN)]:
        assert relation_span(q, s, 2) == relation_span(alt, s, 2), s


def _scvor_rels_on(coll):
    from bioperad.models import _SCVOR_RELS, _relations
    return _relations(coll, _SCVOR_RELS)


def test_quotient_dims_qh0sc_vs_h0sc():
    # PBW-style: the quadratic projection has the same dimension table
    dq = quotient_dims(qh0sc_presentation(), 3)
    dh = quotient_dims(h0sc_presentation(), 3)
    assert dq == dh
    assert dh[(sig(1, 0, OPEN), 0)] == 1
    assert dh[(sig(2, 0, OPEN), 0)] == 1
    assert dh[(sig(1, 1, OPEN), 0)] == 1
    assert dh[(sig(1, 2, OPEN), 0)] == 2
    assert dh[(sig(2, 1, OPEN), 0)] == 1


@st.composite
def _ambient_combinations(draw):
    """An ambient basis at <= 4 inputs and a few small combinations in it."""
    name = draw(st.sampled_from(sorted(PRESENTATION_BUILDERS)))
    coll = PRESENTATION_BUILDERS[name]().collection
    sigs = [s for s in signatures_within(4)
            if ambient_basis(coll, s).dim > 0]
    ab = ambient_basis(coll, draw(st.sampled_from(sigs)))
    coeff = st.integers(-2, 2).filter(bool)
    elems = draw(st.lists(
        st.dictionaries(st.integers(0, ab.dim - 1), coeff,
                        min_size=1, max_size=3),
        min_size=1, max_size=3))
    return ab, [ab.element(v) for v in elems]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_ambient_combinations())
def test_spin_spans_the_whole_orbit(case):
    ab, elems = case
    spun = Echelon()
    spin(ab, elems, spun)
    spun.finalize()
    full = Echelon()
    for e in elems:
        for g in group_elements(ab.signature):
            full.add(ab.vector(symmetric_act(g, e)))
    full.finalize()
    assert spun.rows == full.rows


def test_spin_keeps_the_sign_of_a_sign_generator():
    # f2 is symmetric and l2 antisymmetric, so the orbit of f2 + l2 holds
    # f2 - l2 and has rank 2; a spin that dropped the sign of a negative
    # table entry would map f2 + l2 to itself and stop at rank 1
    coll = Collection([generator("f2", sig(2, 0, CLOSED), 0, TRIVIAL),
                       generator("l2", sig(2, 0, CLOSED), 0, SIGN)])
    ab = ambient_basis(coll, sig(2, 0, CLOSED))
    e = parse_term(coll, "f2(c1,c2)") + parse_term(coll, "l2(c1,c2)")
    assert [ab.element({i: 1}) for i in range(ab.dim)] == [
        parse_term(coll, "f2(c1,c2)"), parse_term(coll, "l2(c1,c2)")]
    assert ab.transposition_tables() == [[1, -2]]
    ech = Echelon()
    assert spin(ab, [e], ech) == [e]
    assert ech.rank == 2


def _calls(functions, run):
    """run(), then the number of calls it made of each function in
    functions, by a profile hook on their code objects, so a call from any
    module counts however the caller imported the name."""
    codes = {f.__code__: f.__name__ for f in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def test_saturation_grows_each_seed_once_and_acts_once_per_table_entry(
        monkeypatch):
    # a fresh presentation, so that no ambient basis has its tables yet
    P = parse_spec(emit_spec(lp_presentation()))
    seeds, grown = [], []
    spin_, grow = presentation.spin, presentation._grow_once

    def counted_spin(ab, elems, ech):
        out = spin_(ab, elems, ech)
        seeds.extend(out)
        return out

    def counted_grow(collection, elem, max_inputs):
        grown.append(elem)
        return grow(collection, elem, max_inputs)

    monkeypatch.setattr(presentation, "spin", counted_spin)
    monkeypatch.setattr(presentation, "_grow_once", counted_grow)
    calls = _calls([symmetric_act, make_node], lambda: Truncation(P, 4))
    assert seeds and sorted(map(id, grown)) == sorted(map(id, seeds))
    # the tables relabel leaves; they neither act on whole trees nor
    # re-sort more than one vertex per table entry
    budget = sum(ambient_basis(P.collection, s).dim
                 * len(adjacent_transpositions(s))
                 for s in signatures_within(4))
    assert calls["symmetric_act"] == 0
    assert 0 < calls["make_node"] <= budget


def test_a_swapped_sign_vertex_flips_its_untouched_parent():
    # (1 2) sends l2(c1,c2) to l2(c2,c1) = -l2(c1,c2): the same node with
    # sign -1.  Its parent n11 then gets back the very children it has, and
    # must still carry the -1.
    coll = parse_spec(emit_spec(lp_presentation())).collection
    ab = ambient_basis(coll, sig(2, 1, OPEN))
    (t, c), = parse_term(coll, "n11(l2(c1,c2),o1)").terms.items()
    assert c == 1
    table, = ab.transposition_tables()
    assert table[ab.index[t]] == -(ab.index[t] + 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_ambient_combinations())
def test_transposition_tables_are_the_signed_action(case):
    ab, elems = case
    gens = adjacent_transpositions(ab.signature)
    tables = ab.transposition_tables()
    assert len(tables) == len(gens)
    for g, table in zip(gens, tables):
        assert sorted(abs(j) - 1 for j in table) == list(range(ab.dim))
        for e in elems:
            image = {abs(table[i]) - 1: c if table[i] > 0 else -c
                     for i, c in ab.vector(e).items()}
            assert image == ab.vector(symmetric_act(g, e))


def test_transposition_tables_refuse_a_non_monomial_swap():
    # the open swap [[1, 1], [0, -1]] is an involution, but it sends the
    # second decoration to a sum of two
    q = VertexSpace("q", sig(0, 2, OPEN), 0, 2, [],
                    [(((0, 1),), ((0, 1), (1, -1)))])
    ab = ambient_basis(Collection([q]), sig(0, 2, OPEN))
    with pytest.raises(ValueError, match=r"q\[1\].*\(0,2;o\)"):
        ab.transposition_tables()
    with pytest.raises(ValueError, match="signed permutations"):
        spin(ab, [ab.element({1: 1})], Echelon())


def _brute_force_ideal(P, max_inputs):
    """Per-signature finalised rows of the ideal, by brute force: grow every
    basis element of every span, close under all of S_n x S_m, and repeat
    until no rank grows."""
    spans = {}

    def close(elems):
        for e in elems:
            if e.is_zero():
                continue
            s = e.signature()
            ab = ambient_basis(P.collection, s)
            ech = spans.setdefault(s, Echelon())
            for g in group_elements(s):
                ech.add(ab.vector(symmetric_act(g, e)))

    def rank():
        return sum(ech.rank for ech in spans.values())

    close(P.relations)
    before = -1
    while rank() != before:
        before = rank()
        close([g for s, ech in list(spans.items())
               for row in list(ech.rows.values())
               for g in _grow_once(P.collection,
                                   ambient_basis(P.collection, s).element(row),
                                   max_inputs)])
    for ech in spans.values():
        ech.finalize()
    return {s: ech.rows for s, ech in spans.items() if ech.rank}


@pytest.mark.parametrize("name, max_inputs",
                         [(name, 3) for name in sorted(PRESENTATION_BUILDERS)]
                         + [("LP", 4)])
def test_ideal_spans_equal_the_brute_force_closure(name, max_inputs):
    P = PRESENTATION_BUILDERS[name]()
    trunc = Truncation(P, max_inputs)
    spans = {s: trunc.span(s) for s in signatures_within(max_inputs)}
    assert ({s: ech.rows for s, ech in spans.items() if ech.rank}
            == _brute_force_ideal(P, max_inputs))


def test_saturation_stays_inside_the_bound():
    # a 6-input relation cannot reach 2 inputs: a graft never lowers the
    # number of inputs, so a truncation at 2 spins no part of it
    lp_text = emit_spec(lp_presentation())
    P = parse_spec(lp_text + "relation "
                   "n02(n02(n02(o1,o2),n02(o3,o4)),n02(o5,o6))\n")
    assert quotient_dims(P, 2) == quotient_dims(parse_spec(lp_text), 2)
    trunc = ideal_spans(P, 2)
    assert trunc.relations == P.relations
    assert all(s.total <= 2 for s in P.collection.ambients)
    assert all(s.total <= 2 for s in trunc.spans)


def test_quotient_dims_finalises_no_span():
    # a fresh presentation, so that no earlier reading has finalised a span
    P = parse_spec(emit_spec(lp_presentation()))
    calls = _calls([Echelon.finalize], lambda: quotient_dims(P, 4))
    assert calls["finalize"] == 0
    # the readers of rows see them finalised: relation_span hands out the
    # reduced rows, and every tree reduces to its coset representatives
    trunc = ideal_spans(P, 4)
    for s in signatures_within(4):
        rows = relation_span(P, s, 2).rows
        assert all(row[p] == 1 and set(row).isdisjoint(set(rows) - {p})
                   for p, row in rows.items())
        representatives = {t for ts in trunc.cells(s).values() for t in ts}
        for t in trunc.ambient(s).trees:
            assert set(trunc.reduce_to_element(tree_element(t)).terms
                       ) <= representatives
    assert all(trunc.residue(r) == {} for r in P.relations)


@pytest.mark.parametrize("read", [
    lambda trunc, s, e: trunc.span(s),
    lambda trunc, s, e: trunc.basis(s),
    lambda trunc, s, e: trunc.cells(s),
    lambda trunc, s, e: trunc.residue(e),
    lambda trunc, s, e: trunc.reduce_to_element(e),
], ids=["span", "basis", "cells", "residue", "reduce_to_element"])
def test_signatures_above_the_bound_are_refused(read):
    # saturated at 3, the truncation does not know the ideal at (2,2;o),
    # where the quotient has dimension 12, not the 30 read off its spans
    P = parse_spec(emit_spec(lp_presentation()))
    assert len(ideal_spans(P, 4).basis(sig(2, 2, OPEN))) == 12
    trunc = Truncation(P, 3)
    e = parse_term(P.collection, "n11(c1,n11(c2,n02(o1,o2)))")
    with pytest.raises(ValueError, match=r"\(2,2;o\) has 4 inputs, above "
                       r"the bound 3"):
        read(trunc, sig(2, 2, OPEN), e)


@pytest.mark.parametrize("name", sorted(PRESENTATION_BUILDERS))
def test_a_larger_saturation_answers_for_a_smaller_bound(name):
    # exact because a graft never lowers the number of inputs
    Q = parse_spec(emit_spec(PRESENTATION_BUILDERS[name]()))
    trunc = ideal_spans(Q, 4)
    assert ideal_spans(Q, 3) is trunc and trunc.max_inputs == 4
    fresh = parse_spec(emit_spec(PRESENTATION_BUILDERS[name]()))
    assert quotient_dims(Q, 3) == quotient_dims(fresh, 3)
    assert list(fresh.truncations) == [3]


@pytest.mark.parametrize("call", [
    lambda P: quotient_dims(P, 0),
    lambda P: quotient_dims(P, -2),
    lambda P: ideal_spans(P, 0),
])
def test_nonpositive_bound_rejected(call):
    lp = lp_presentation()
    ideal_spans(lp, 3)  # a cached larger saturation must not answer
    with pytest.raises(ValueError, match="at least 1"):
        call(lp)


@pytest.mark.parametrize("dim", [
    lambda coll: ambient_basis(coll, sig(0, 2, OPEN)).dim,
    lambda coll: len(enumerate_basis(coll, sig(0, 2, OPEN), 1)),
], ids=["ambient_basis", "enumerate_basis"])
def test_cache_never_answers_for_a_freed_collection(dim):
    # a cache keyed by id() of the spaces must keep them alive, or a new
    # collection allocated at the same address reads the old entry
    for _ in range(300):
        closed = Collection([generator("f", sig(2, 0, CLOSED), 0, TRIVIAL)])
        assert dim(closed) == 0
        del closed
        open_ = Collection([generator("m", sig(0, 2, OPEN), 0, REGULAR)])
        assert dim(open_) == 2


def test_owned_caches_are_freed_with_their_presentation():
    P = parse_spec(emit_spec(lp_presentation()))
    quotient_dims(P, 3)
    refs = [weakref.ref(P), weakref.ref(P.collection)]
    del P
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_project_q_shares_its_collections_ambient_bases():
    P = h0sc_presentation()
    qP = project_q(P)
    for s in signatures_within(3):
        assert ambient_basis(P.collection, s) is ambient_basis(qP.collection, s)
