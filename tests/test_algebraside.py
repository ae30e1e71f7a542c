import random
from fractions import Fraction

import pytest

from bioperad.algebraside import (CofreePair, FreeAlgebra, GradedPair,
                                  HomotopyAlgebraData, LeibnizPairData,
                                  TensorFileError, ce_hochschild_homology,
                                  check_coderivation_laws, free_algebra,
                                  lift_phi, lift_psi, parse_tensor_file,
                                  shlp_ocha_check, strict_pair_tensors,
                                  _graded_multisets, _lyndon_words,
                                  _tensor_words)


def test_free_scvor_dims():
    fa = free_algebra("H0SCvor", GradedPair.ungraded(1, 1), 2)
    dims = fa.dims()
    assert dims[("c", 1)] == 1 and dims[("c", 2)] == 1
    assert dims[("o", 1)] == 1 and dims[("o", 2)] == 2


def test_free_lp_dims_and_basis():
    fa = free_algebra("LP", GradedPair.ungraded(1, 1), 2)
    dims = fa.dims()
    # closed: free Lie on one generator: dims 1, 0
    assert dims[("c", 1)] == 1
    assert dims.get(("c", 2), 0) == 0
    # open: {o, c(x)o, o.o}
    assert dims[("o", 1)] == 1 and dims[("o", 2)] == 2


def test_free_lp_lie_dims_two_generators():
    fa = free_algebra("LP", GradedPair.ungraded(2, 1), 3)
    dims = fa.dims()
    assert dims[("c", 1)] == 2 and dims[("c", 2)] == 1 and dims[("c", 3)] == 2
    assert dims[("o", 1)] == 1 and dims[("o", 2)] == 3 and dims[("o", 3)] == 9


def test_free_h0sc_includes_unit_words():
    fa = free_algebra("H0SC", GradedPair.ungraded(1, 1), 2)
    dims = fa.dims()
    # open weight 1: the generator and the unit image f(c)
    assert dims[("o", 1)] == 2


def test_empty_generators_zero_algebra():
    fa = free_algebra("H0SCvor", GradedPair([], []), 3)
    assert all(v == 0 for v in fa.dims().values())


def test_lp_bracket_jacobi_in_lyndon_basis():
    fa = free_algebra("LP", GradedPair.ungraded(2, 1), 3)
    basis1 = fa.closed_basis(1)
    x, y = basis1
    xy = fa.bracket(x, y)
    assert list(xy.values()) == [Fraction(1)] or list(xy.values()) == [Fraction(-1)]
    # antisymmetry
    yx = fa.bracket(y, x)
    assert yx == {k: -v for k, v in xy.items()}
    # Jacobi on weight-3 triples via validate()
    data = LeibnizPairData.from_free_algebra(fa)
    assert data.validate() == []


def test_action_is_by_derivations():
    fa = free_algebra("LP", GradedPair.ungraded(1, 1), 3)
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
    fa = free_algebra("LP", GradedPair.ungraded(2, 1), 3)
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
    psit = lift_psi(cofree, {}, -1)
    phit = lift_phi(cofree, {}, {}, -1)
    for m in cofree.closed_basis:
        assert psit(m) == {}
    for m, w in cofree.mixed_basis:
        assert phit(m, w) == {}


def test_lift_psi_binary_unshuffles():
    # psi binary only, p = 3: the three unshuffle terms
    pair = GradedPair.ungraded(3, 1)
    cofree = CofreePair(pair, 3, 1)
    psi = {(0, 1): {2: Fraction(1)}, (0, 2): {1: Fraction(1)},
           (1, 2): {0: Fraction(1)}}
    tilde = lift_psi(cofree, psi, -1)
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
        img = {i: Fraction(rng.randint(-2, 2)) for i in range(2)
               if rng.random() < 0.5}
        img = {k: v for k, v in img.items() if v}
        if img:
            psi[m] = img
    phi = {}
    for key in list(cofree.mixed_basis):
        if rng.random() < 0.5:
            continue
        img = {i: Fraction(rng.randint(-2, 2)) for i in range(2)
               if rng.random() < 0.6}
        img = {k: v for k, v in img.items() if v}
        if img:
            phi[key] = img
    assert check_coderivation_laws(cofree, psi, phi, -1) == []


def test_shlp_zero_tensors_pass():
    pair = GradedPair.ungraded(2, 2)
    data = HomotopyAlgebraData(pair, {}, {})
    report = shlp_ocha_check(data, "SHLP", 4)
    assert report.passed


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
    # criterion-style: random graded tensor sets; [D,D] = 0 componentwise
    # agrees with the relation instances on every instance
    rng = random.Random(23)
    pair = GradedPair([("x", 0), ("y", 1)], [("a", 0), ("b", 1)])
    cdeg, odeg = [0, 1], [0, 1]
    passes = fails = 0
    for trial in range(20):
        l_tensors = {}
        for n in (1, 2, 3):
            table = {}
            for key in _graded_multisets([d + 1 for d in cdeg], n):
                din = sum(cdeg[i] for i in key)
                img = {i: Fraction(rng.randint(-1, 1))
                       for i in range(2) if cdeg[i] == din + n - 2
                       and rng.random() < 0.5}
                img = {k: v for k, v in img.items() if v}
                if img:
                    table[key] = img
            if table:
                l_tensors[n] = table
        n_tensors = {}
        for p in range(0, 3):
            for q in range(1, 3):
                if p + q < 1:
                    continue
                table = {}
                for ck in _graded_multisets([d + 1 for d in cdeg], p):
                    for ok in _tensor_words(2, q):
                        din = sum(cdeg[i] for i in ck) + sum(
                            odeg[i] for i in ok)
                        img = {i: Fraction(rng.randint(-1, 1))
                               for i in range(2)
                               if odeg[i] == din + p + q - 2
                               and rng.random() < 0.4}
                        img = {k: v for k, v in img.items() if v}
                        if img:
                            table[(ck, ok)] = img
                if table:
                    n_tensors[(p, q)] = table
        data = HomotopyAlgebraData(pair, l_tensors, n_tensors)
        report = shlp_ocha_check(data, "SHLP", 4)
        assert report.discrepancies == [], f"trial {trial}"
        if report.passed:
            passes += 1
        else:
            fails += 1
    assert fails > 0  # random data is almost never a strong homotopy pair


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
    # the implemented differential (the lifted coderivation on suspended
    # letters) squares to zero on the whole truncation, for a free pair and
    # for a hand-built strict pair
    from bioperad.algebraside import _add, _scale, lift_phi, lift_psi

    def check(data, bound):
        l_basis, a_basis = list(data.l_basis), list(data.a_basis)
        l_index = {x: i for i, x in enumerate(l_basis)}
        a_index = {x: i for i, x in enumerate(a_basis)}

        class S:
            cdeg = [1] * len(l_basis)
            odeg = [1] * len(a_basis)
            closed_bound = bound

        psi = {}
        for i in range(len(l_basis)):
            for j in range(i + 1, len(l_basis)):
                val = {l_index[k]: v for k, v in
                       data.bracket(l_basis[i], l_basis[j]).items() if v}
                if val:
                    psi[(i, j)] = val
        phi = {}
        for i in range(len(l_basis)):
            for j in range(len(a_basis)):
                val = {a_index[k]: v for k, v in
                       data.action(l_basis[i], a_basis[j]).items() if v}
                if val:
                    phi[((i,), (j,))] = val
        for i in range(len(a_basis)):
            for j in range(len(a_basis)):
                val = {a_index[k]: v for k, v in
                       data.mult(a_basis[i], a_basis[j]).items() if v}
                if val:
                    phi[((), (i, j))] = val
        dc = lift_psi(S, psi, -1)
        dm = lift_phi(S, psi, phi, -1)
        from itertools import combinations as comb
        checked = 0
        for p in range(0, 3):
            for m in comb(range(len(l_basis)), p):
                for q in range(1, 3):
                    for w in _cartesian(tuple(range(len(a_basis))), q):
                        twice = {}
                        for cell, c in dm(m, w).items():
                            twice = _add(twice, _scale(dm(*cell), c))
                        assert not {k: v for k, v in twice.items() if v}, \
                            (m, w)
                        checked += 1
        for p in range(2, 4):
            for m in comb(range(len(l_basis)), p):
                twice = {}
                for cell, c in dc(m).items():
                    twice = _add(twice, _scale(dc(cell), c))
                assert not {k: v for k, v in twice.items() if v}, m
                checked += 1
        return checked

    fa = free_algebra("LP", GradedPair.ungraded(2, 1), 3)
    assert check(LeibnizPairData.from_free_algebra(fa), 3) > 30


def _cartesian(basis, q):
    if q == 0:
        return [()]
    prev = _cartesian(basis, q - 1)
    return [w + (a,) for w in prev for a in basis]
