import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioperad import algebraside
from bioperad.algebraside import (CofreePair, FreeAlgebra, GradedPair,
                                  HomotopyAlgebraData, LeibnizPairData,
                                  ce_complex, ce_hochschild_homology,
                                  check_coderivation_laws, graded_multisets,
                                  lift_phi, lift_psi, shlp_ocha_check,
                                  strict_pair_tensors, unshuffle_splits,
                                  _insert_symbol, _lyndon_words, _sort_wedge)
from bioperad.specfile import TensorFileError, parse_tensor_file
from bioperad.verify import _random_homotopy_data, _random_image


def _dims_by_weight(fa):
    """Closed and open basis sizes of a free algebra, by weight."""
    lp = LeibnizPairData.from_free_algebra(fa)
    return (Counter(("c", lp.l_weight(x)) for x in lp.l_basis)
            + Counter(("o", lp.a_weight(x)) for x in lp.a_basis))


def test_free_lp_dims_and_basis():
    fa = FreeAlgebra(GradedPair.ungraded(1, 1), 2)
    dims = _dims_by_weight(fa)
    # closed: free Lie on one generator: dims 1, 0
    assert dims[("c", 1)] == 1
    assert dims.get(("c", 2), 0) == 0
    # open: {o, c(x)o, o.o}
    assert dims[("o", 1)] == 1 and dims[("o", 2)] == 2


def test_free_lp_lie_dims_two_generators():
    fa = FreeAlgebra(GradedPair.ungraded(2, 1), 3)
    dims = _dims_by_weight(fa)
    assert dims[("c", 1)] == 2 and dims[("c", 2)] == 1 and dims[("c", 3)] == 2
    assert dims[("o", 1)] == 1 and dims[("o", 2)] == 3 and dims[("o", 3)] == 9


def test_empty_generators_zero_algebra():
    fa = FreeAlgebra(GradedPair([], []), 3)
    assert _dims_by_weight(fa) == Counter()


def test_lp_bracket_jacobi_in_lyndon_basis():
    fa = FreeAlgebra(GradedPair.ungraded(2, 1), 3)
    x, y = (x for x in fa.l_basis if fa.closed_weight(x) == 1)
    xy = fa.bracket(x, y)
    assert list(xy.values()) == [Fraction(1)] or list(xy.values()) == [Fraction(-1)]
    # antisymmetry
    yx = fa.bracket(y, x)
    assert yx == {k: -v for k, v in xy.items()}
    # Jacobi on weight-3 triples via validate()
    data = LeibnizPairData.from_free_algebra(fa)
    assert data.validate() == []


def test_action_is_by_derivations():
    fa = FreeAlgebra(GradedPair.ungraded(1, 1), 3)
    data = LeibnizPairData.from_free_algebra(fa)
    assert data.validate() == []


def test_ce_abelian_zero_differential():
    # 1-dim abelian Lie algebra, zero A: closed homology equals chains
    data = LeibnizPairData(["x"], [], lambda a, b: {}, lambda a, b: {},
                           lambda l, a: {}, bound=3)
    h = ce_hochschild_homology(data, 3)
    assert h[("c", 1, 1)] == 1
    # Lambda^p of a 1-dim space vanishes for p > 1, so only one cell
    assert all(k[0] == "c" for k in h)


def test_ce_free_lp_concentrated_in_bottom_degree():
    fa = FreeAlgebra(GradedPair.ungraded(2, 1), 3)
    data = LeibnizPairData.from_free_algebra(fa)
    h = ce_hochschild_homology(data, 3)
    # closed: only the generators in weight 1 survive, at chain degree 1
    assert h[("c", 1, 1)] == 2
    assert not any(color == "c" and (w, n) != (1, 1)
                   for (color, w, n) in h)
    # open: only the open generator in weight 1, chain degree 1
    assert h[("o", 1, 1)] == 1
    assert not any(color == "o" and (w, n) != (1, 1)
                   for (color, w, n) in h)


def test_ce_invalid_pair_rejected():
    bad = LeibnizPairData(["x", "y"], ["a"],
                          lambda u, v: ({("x")//1: 1} if False else
                                        ({"x": Fraction(1)} if u != v else {})),
                          lambda u, v: {}, lambda l, a: {}, bound=2)
    with pytest.raises(ValueError):
        ce_hochschild_homology(bad, 2)


def test_lift_coderivation_zero_maps():
    cofree = CofreePair(GradedPair.ungraded(2, 2), 3, 3)
    psit = lift_psi(cofree.cdeg, {})
    phit = lift_phi(cofree.cdeg, cofree.odeg, {}, {}, -1)
    for m in cofree.closed_basis:
        assert psit(m) == {}
        assert phit((m, ())) == {}
    for cell in cofree.mixed_basis:
        assert phit(cell) == {}


def test_lift_psi_binary_unshuffles():
    # psi binary only, p = 3: the three unshuffle terms
    pair = GradedPair.ungraded(3, 1)
    cofree = CofreePair(pair, 3, 1)
    psi = {(0, 1): {2: Fraction(1)}, (0, 2): {1: Fraction(1)},
           (1, 2): {0: Fraction(1)}}
    tilde = lift_psi(cofree.cdeg, psi)
    out = tilde((0, 1, 2))
    # psi(v1 v2) v3 + psi(v1 v3) v2 + psi(v2 v3) v1
    assert out == {(2, 2): Fraction(1), (1, 1): Fraction(1),
                   (0, 0): Fraction(1)}


def test_coderivation_laws_exhaustive():
    # random corestrictions on an ungraded pair; the two coalgebra
    # compatibility identities hold on the whole (3,3) truncation
    rng = random.Random(5)
    pair = GradedPair.ungraded(2, 2)
    cofree = CofreePair(pair, 3, 3)
    psi = {}
    for m in cofree.closed_basis:
        img = _random_image(rng, range(2), 2, 0.5)
        if img:
            psi[m] = img
    phi = {}
    for key in cofree.mixed_basis:
        if rng.random() < 0.5:
            continue
        img = _random_image(rng, range(2), 2, 0.6)
        if img:
            phi[key] = img
    assert check_coderivation_laws(cofree, psi, phi, -1) == []


@pytest.mark.parametrize("op_degree", [-1, -2, 1])
@pytest.mark.parametrize("cdeg, odeg", [([1, 2], [1, 2]), ([0, 1], [0, 1]),
                                        ([1, 0, 3], [0, 1, 2])])
def test_coderivation_laws_on_graded_pairs(cdeg, odeg, op_degree):
    # the same identities where the Koszul signs of the lifts matter:
    # homogeneous random corestrictions of degree op_degree on a graded
    # pair (a map of mixed degree breaks the laws by construction)
    rng = random.Random(17)
    pair = GradedPair([(f"x{i}", d) for i, d in enumerate(cdeg)],
                      [(f"a{i}", d) for i, d in enumerate(odeg)])
    cofree = CofreePair(pair, 3, 3)

    def image(degrees, degree):
        return {i: rng.choice([-2, -1, 1, 2])
                for i, d in enumerate(degrees) if d == degree + op_degree}

    psi = {m: img for m in cofree.closed_basis
           if (img := image(cdeg, cofree.mdeg(m)))}
    phi = {(m, w): img for m, w in cofree.mixed_basis
           if (img := image(odeg, cofree.mdeg(m) + cofree.wdeg(w)))}
    assert phi
    assert check_coderivation_laws(cofree, psi, phi, op_degree) == []


def test_entries_are_filed_in_wedge_order():
    # the constructor and the tensor file file an entry alike: under its
    # sorted wedge key with the Koszul sign, refusing a degenerate key
    pair = GradedPair.ungraded(2, 1)
    data = HomotopyAlgebraData(pair, {2: {(1, 0): {0: 1}}}, {})
    assert data.l_tensors == {2: {(0, 1): {0: -1}}}
    assert data.eval_l((1, 0)) == {0: 1}
    spec = "closed x1 0\nclosed x2 0\nl 2: {} -> x1"
    assert parse_tensor_file(spec.format("x2,x1")).l_tensors == \
        data.l_tensors
    with pytest.raises(ValueError, match="degenerate wedge key x1,x1"):
        HomotopyAlgebraData(pair, {2: {(0, 0): {0: 1}}}, {})
    with pytest.raises(TensorFileError, match="degenerate wedge key x1,x1"):
        parse_tensor_file(spec.format("x1,x1"))


def test_shlp_zero_tensors_pass():
    pair = GradedPair.ungraded(2, 2)
    data = HomotopyAlgebraData(pair, {}, {})
    report = shlp_ocha_check(data, "SHLP", 4)
    assert report.passed


def test_shlp_ocha_check_refuses_a_bad_mode():
    # a q = 0 tensor, the whistle x -> a, is an OCHA structure only
    data = parse_tensor_file("closed x 0\nopen a -1\nn 1 0: x | -> a\n")
    with pytest.raises(ValueError, match="^mode must be SHLP or OCHA$"):
        shlp_ocha_check(data, "LP", 2)
    with pytest.raises(ValueError, match="^q = 0 tensors need OCHA mode$"):
        shlp_ocha_check(data, "SHLP", 2)
    assert shlp_ocha_check(data, "OCHA", 2).passed


def _two_dim_pair_tensors():
    """Strict Leibniz pair: L = affine 2-dim Lie algebra, A = dual numbers
    truncated, rho by derivations."""
    pair = GradedPair.ungraded(2, 2)
    # [x, y] = y ; a1*a1 = 0-ish, a1*a2 = 0 except a1*a1 = a2
    bracket = {(0, 1): {1: Fraction(1)}}
    mult = {(0, 0): {1: Fraction(1)}}
    # x acts as the degree-scaling derivation: x.a1 = a1, x.a2 = 2 a2; y kills
    action = {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(2)}}
    return pair, bracket, mult, action


def test_strict_pair_axioms_and_shlp():
    pair, bracket, mult, action = _two_dim_pair_tensors()
    data_lp = LeibnizPairData(
        [0, 1], [0, 1],
        lambda u, v: dict(bracket.get((u, v), {})) if u <= v else
        {k: -c for k, c in bracket.get((v, u), {}).items()},
        lambda u, v: dict(mult.get((u, v), {})),
        lambda l, a: dict(action.get((l, a), {})))
    assert data_lp.validate() == []
    data = strict_pair_tensors(pair, bracket, mult, action)
    report = shlp_ocha_check(data, "SHLP", 4)
    assert report.discrepancies == []
    assert report.passed


def test_strict_pair_perturbed_fails_but_agrees():
    pair, bracket, mult, action = _two_dim_pair_tensors()
    bad_action = dict(action)
    bad_action[(0, 1)] = {1: Fraction(-2)}  # breaks the derivation rule
    data = strict_pair_tensors(pair, bracket, mult, bad_action)
    report = shlp_ocha_check(data, "SHLP", 4)
    assert report.discrepancies == []
    assert not report.passed


def test_randomized_equivalence_of_formulations():
    # criterion-style: random graded tensor sets; D^2 is the lift of its
    # own relation instances on every cell
    rng = random.Random(23)
    passes = fails = 0
    for trial in range(20):
        data = _random_homotopy_data(rng)
        report = shlp_ocha_check(data, "SHLP", 4)
        assert report.discrepancies == [], f"trial {trial}"
        if report.passed:
            passes += 1
        else:
            fails += 1
    assert fails > 0  # random data is almost never a strong homotopy pair


def _random_tensors(rng, cdeg, odeg, density, arities):
    """Homogeneous random l_1..l_3 and n_{p,q} for (p, q) in arities on the
    graded pair with these degrees, each entry kept with the density."""
    pair = GradedPair([(f"x{i}", d) for i, d in enumerate(cdeg)],
                      [(f"a{i}", d) for i, d in enumerate(odeg)])
    sl = [d + 1 for d in cdeg]

    def image(degrees, din, k):
        return _random_image(rng, [i for i, d in enumerate(degrees)
                                   if d == din + k - 2], 1, density)

    l_tensors = {n: {key: img for key in graded_multisets(sl, n)
                     if (img := image(cdeg, sum(cdeg[i] for i in key), n))}
                 for n in (1, 2, 3)}
    n_tensors = {(p, q): {(ck, ok): img
                          for ck in graded_multisets(sl, p)
                          for ok in product(range(len(odeg)), repeat=q)
                          if (img := image(odeg, sum(cdeg[i] for i in ck)
                                           + sum(odeg[i] for i in ok), p + q))}
                 for p, q in arities}
    return HomotopyAlgebraData(pair, l_tensors, n_tensors)


def test_random_ocha_sets_agree():
    # sparse random tensors with q = 0 terms, so that some sets are OCHA
    # structures and some are not: D^2 is the lift of its own relation
    # instances on every cell, in both cases
    rng = random.Random(33)
    arities = [(p, q) for p in range(3) for q in range(3) if p or q]
    verdicts = Counter()
    for trial in range(40):
        data = _random_tensors(rng, [0, 1], [0, 1],
                               rng.choice([0.05, 0.1, 0.15, 0.25]), arities)
        if not data.has_open_closed_extension():
            continue
        for bound in (3, 4):
            report = shlp_ocha_check(data, "OCHA", bound)
            assert report.discrepancies == [], (trial, bound)
            verdicts[report.passed] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_a_failing_q0_relation_is_reported_at_its_own_cell():
    # n_{1,0}(l_1(x)) = a, and no other term of the relation at x: D^2 is
    # nonzero on the closed cell (x) itself, whose word is empty
    data = parse_tensor_file("closed x 0\nclosed z -1\nopen a -2\n"
                             "l 1: x -> z\nn 1 0: z | -> a\n")
    report = shlp_ocha_check(data, "OCHA", 2)
    assert report.discrepancies == []
    assert report.violations[0] == ((0,), (), {((), (0,)): 1})


def test_a_sign_broken_lift_shows_discrepancies(monkeypatch):
    # a closed lift without the unshuffle sign is not a coderivation, so
    # the square of D is not the lift of its relation instances; the pair
    # has two odd suspended closed symbols, so that the sign is not 1
    data = _random_tensors(random.Random(7), [0, 0, 1], [0, 1], 0.9, [])
    assert shlp_ocha_check(data, "SHLP", 4).discrepancies == []

    def unsigned_psi_terms(m, cdeg, psi):
        for _, a, b in unshuffle_splits(m, cdeg):
            for idx, c in psi.get(a, {}).items() if a else ():
                s2, merged = _insert_symbol(idx, b, cdeg)
                if s2:
                    yield merged, s2 * c

    monkeypatch.setattr(algebraside, "_psi_terms", unsigned_psi_terms)
    assert shlp_ocha_check(data, "SHLP", 4).discrepancies != []


def test_tensor_file_roundtrip():
    text = """
    # a strict pair
    closed x 0
    closed y 0
    open a 0
    l 2: x,y -> y
    n 1 1: x | a -> a
    n 0 2: | a,a -> a
    """
    data = parse_tensor_file(text)
    assert data.l_tensors[2][(0, 1)] == {1: Fraction(1)}
    assert data.n_tensors[(1, 1)][((0,), (0,))] == {0: Fraction(1)}
    assert data.n_tensors[(0, 2)][((), (0, 0))] == {0: Fraction(1)}


def test_tensor_file_errors():
    with pytest.raises(TensorFileError):
        parse_tensor_file("closed x 0\nl 2: x,z -> x")
    with pytest.raises(TensorFileError):
        parse_tensor_file("bogus line here")


@pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n"])
def test_tensor_file_empty_rejected(text):
    with pytest.raises(TensorFileError, match="empty"):
        parse_tensor_file(text)


def test_lyndon_counts():
    assert len(_lyndon_words(2, 1)) == 2
    assert len(_lyndon_words(2, 2)) == 1
    assert len(_lyndon_words(2, 3)) == 2
    assert len(_lyndon_words(3, 3)) == 8


def test_ce_differential_squares_to_zero():
    # the differential that ce_hochschild_homology ranks (the lifted
    # coderivation on suspended letters) squares to zero on every cell of
    # the truncation, for two free pairs
    for n_closed, bound in ((2, 3), (1, 4)):
        fa = FreeAlgebra(GradedPair.ungraded(n_closed, 1), bound)
        cells, d = ce_complex(LeibnizPairData.from_free_algebra(fa), bound)
        checked = 0
        for (color, _, _), basis in cells.items():
            for x in basis:
                assert (color == "c") == (x[1] == ())
                twice = {}
                for y, c in d(x).items():
                    for z, c2 in d(y).items():
                        twice[z] = twice.get(z, 0) + c * c2
                assert not any(twice.values()), (color, x)
                checked += 1
        assert checked > 30


def test_lie_decomposition_rejects_a_non_lie_vector():
    fa = FreeAlgebra(GradedPair.ungraded(2, 1), 3)
    x, y = (x for x in fa.l_basis if fa.closed_weight(x) == 1)
    assert fa._lie_decompose({(0, 1): 1, (1, 0): -1}) == {(0, 1): 1}
    # xy alone is not a Lie element: its least word (0, 1) is Lyndon, and
    # peeling [x, y] leaves yx, which is not
    with pytest.raises(ValueError, match="not Lyndon"):
        fa._lie_decompose({(0, 1): 1})
    with pytest.raises(ValueError, match="not Lyndon"):
        fa._lie_decompose({(1, 0): 2, (1, 1): 1})
    assert fa.bracket(y, x) == {("lie", (0, 1)): -1}


def _swap_sort(items, swap_sign):
    """Sort by adjacent swaps of out-of-order neighbours, equal neighbours
    never swapped: (product of swap_sign(v, w) over the swaps that move w
    in front of v, sorted tuple)."""
    items = list(items)
    sign = 1
    for end in range(len(items) - 1, 0, -1):
        for j in range(end):
            if items[j] > items[j + 1]:
                sign *= swap_sign(items[j], items[j + 1])
                items[j], items[j + 1] = items[j + 1], items[j]
    return sign, tuple(items)


def _graded_symbols(draw):
    """Symbol degrees and a tuple of symbol indices, repeats likely."""
    degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=4))
    symbol = st.integers(0, len(degrees) - 1)
    return degrees, draw(st.lists(symbol, max_size=6)), draw(symbol)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_signs_match_adjacent_swaps(data):
    # the wedge sort, the one-symbol insertion and the signed splits
    # against sorting by adjacent transpositions, one crossing at a time
    degrees, tup, idx = _graded_symbols(data.draw)

    def odd(v):
        return degrees[v] % 2

    def koszul(v, w):
        return -1 if odd(v) and odd(w) else 1

    def repeats(word, parity):
        return any(a == b and odd(a) == parity for a, b in zip(word, word[1:]))

    sign, key = _swap_sort(tup, lambda v, w: -koszul(v, w))
    assert _sort_wedge(tuple(tup), degrees) == (
        (0, None) if repeats(key, 0) else (sign, key))

    word = tuple(sorted(tup))
    sign, merged = _swap_sort((idx,) + word, koszul)
    assert _insert_symbol(idx, word, degrees) == (
        (0, None) if repeats(merged, 1) else (sign, merged))

    splits = []
    for k in range(len(word) + 1):
        for picks in combinations(range(len(word)), k):
            # rank 0 for a picked position: the picks move to the front
            ranked = [(i not in picks, i) for i in range(len(word))]
            sign, _ = _swap_sort(ranked, lambda v, w: koszul(word[v[1]],
                                                             word[w[1]]))
            splits.append((sign, tuple(word[i] for i in picks),
                           tuple(word[i] for i in range(len(word))
                                 if i not in picks)))
    assert list(unshuffle_splits(word, degrees)) == splits
