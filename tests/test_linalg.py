from fractions import Fraction
from functools import reduce
from math import gcd

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bioperad.duality import cobar_truncate
from bioperad.linalg import (Echelon, Subspace, meet_slice, primitive, rank,
                             solve)
from bioperad.models import lp_presentation, lpinf_dg, ocinf_dg

import pytest


def _sympy_rank(vectors, ncols):
    """Rank over Q of sparse vectors (dicts col -> coefficient), by sympy."""
    entries = {(i, c): x for i, v in enumerate(vectors) for c, x in v.items()}
    return sympy.SparseMatrix(len(vectors), ncols, entries).rank()


def _identity_pairing(n):
    return [(i, 1) for i in range(n)]


small = st.integers(min_value=-4, max_value=4)


def test_subspace_idempotent_ops():
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    assert Subspace.from_vectors(3, list(a.basis) + list(a.basis)) == a
    assert Subspace.from_vectors(3, a.basis) == a


def test_sum_meet_dimension_formula():
    a = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = Subspace.from_vectors(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    s = Subspace.from_vectors(4, list(a.basis) + list(b.basis))
    meet = meet_slice(a.rows.values(), {1, 2})
    assert s.dim + len(meet) == a.dim + b.dim
    assert meet == [{1: 1}]


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Subspace.from_vectors(2, [[1, 0, 0]])
    a = Subspace.from_vectors(3, [[1, 0, 0]])
    with pytest.raises(ValueError):
        a.orthogonal_complement(_identity_pairing(2))


def test_complement_of_zero_is_full():
    z = Subspace.from_vectors(3, [])
    full = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert z.orthogonal_complement(_identity_pairing(3)) == full


def test_complement_line_in_q3():
    line = Subspace.from_vectors(3, [[1, 2, 2]])
    comp = line.orthogonal_complement(_identity_pairing(3))
    assert comp.dim == 2
    for vec in comp.basis:
        assert sum(Fraction(a) * b for a, b in zip([1, 2, 2], vec)) == 0


@settings(max_examples=40)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=3))
def test_complement_involutive(rows):
    a = Subspace.from_vectors(3, rows)
    pairing = _identity_pairing(3)
    cc = a.orthogonal_complement(pairing).orthogonal_complement(pairing)
    assert cc == a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
    st.lists(st.lists(small, min_size=n, max_size=n), max_size=4))))
def test_complement_under_a_signed_permutation(data):
    perm, signs, rows = data
    n = len(perm)
    pairing = list(zip(perm, signs))
    a = Subspace.from_vectors(n, rows)
    comp = a.orthogonal_complement(pairing)
    assert a.dim + comp.dim == n
    for v in a.basis:
        for x in comp.basis:
            assert sum(v[i] * s * x[j] for i, (j, s) in enumerate(pairing)) == 0


def test_echelon_rank_and_reduce():
    e = Echelon()
    assert e.add({0: 1, 1: 2})
    assert e.add({1: 1, 2: 1})
    assert not e.add({0: 1, 1: 3, 2: 1})
    assert e.rank == 2
    e.finalize()
    assert e.reduce({0: 1, 1: 3, 2: 1}) == {}
    res = e.reduce({2: 1})
    assert set(res) == {2}
    assert not e.reduce({0: 2, 1: 4})


def test_echelon_misuse_raises():
    # a residue before finalize would be wrong ({1: -1} for 2e0 + e1 where
    # -1/2 is right), and a row added after it would not be reduced
    e = Echelon()
    e.add({0: 2, 1: 1})
    with pytest.raises(RuntimeError, match="reduce before finalize"):
        e.reduce({0: 1})
    e.finalize()
    assert e.reduce({0: 1}) == {1: Fraction(-1, 2)}
    with pytest.raises(RuntimeError, match="add after finalize"):
        e.add({1: 1})


def test_echelon_fraction_input():
    e = Echelon()
    e.add({0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert e.rank == 1
    e.finalize()
    assert e.rows == {0: {0: 1, 1: Fraction(2, 3)}}
    assert Subspace(2, e.rows) == Subspace.from_vectors(2, [[3, 2]])


def test_sparse_rank_matches_dense():
    vecs = [{0: 1, 2: -1}, {1: 2}, {0: 1, 1: 2, 2: -1}]
    ech = Echelon()
    for v in vecs:
        ech.add(v)
    assert ech.rank == _sympy_rank(vecs, 3) == 2


entries = st.one_of(st.integers(-5, 5),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))
sparse_rows = st.lists(st.dictionaries(st.integers(0, 6), entries, max_size=4),
                       max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_rows)
def test_echelon_rank_matches_sympy(rows):
    ech = Echelon()
    for row in rows:
        ech.add(row)
    assert ech.rank == _sympy_rank(rows, 7)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_rows)
def test_echelon_rows_are_primitive_and_finalise_to_sympy_rref(rows):
    ech = Echelon()
    for row in rows:
        before = dict(row)
        ech.add(row)
        assert row == before
    for p, row in ech.rows.items():
        assert all(type(x) is int for x in row.values())
        assert min(row) == p and row[p] > 0
        assert reduce(gcd, row.values()) == 1
    ech.finalize()
    dense = sympy.Matrix(len(rows), 7,
                         lambda i, c: sympy.Rational(rows[i].get(c, 0)))
    rref, pivots = dense.rref()
    expected = {p: {c: Fraction(int(rref[i, c].p), int(rref[i, c].q))
                    for c in range(7) if rref[i, c] != 0}
                for i, p in enumerate(pivots)}
    assert ech.rows == expected


def test_echelon_rank_of_ocinf3_differentials_matches_sympy():
    dg = ocinf_dg(3)
    cells = 0
    for s in dg.signatures():
        for d in dg.cell_degrees(s):
            cols = dg.differential_columns(s, d)
            ech = Echelon()
            for col in cols:
                ech.add(col)
            assert ech.rank == _sympy_rank(cols, dg.chain_dim(s, d - 1)), (s, d)
            cells += 1
    assert cells > 10


# entries that are not units, so that many pivots of rank are not either
non_units = st.sampled_from([2, -2, 3, -3, 5, Fraction(3, 2), Fraction(-5, 4)])
non_unit_rows = st.lists(st.dictionaries(st.integers(0, 9), non_units,
                                         min_size=2, max_size=5), max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(sparse_rows, non_unit_rows))
def test_rank_matches_sympy(rows):
    before = [dict(row) for row in rows]
    assert rank(rows) == _sympy_rank(rows, 10)
    assert rows == before


def test_rank_with_non_unit_pivots():
    # no unit entry anywhere, and the first step leaves a non-unit multiple
    assert rank([{0: 2, 1: 3}, {0: 3, 1: 2}]) == 2
    assert rank([{0: 2, 1: 3}, {0: 4, 1: 6}, {0: 6, 1: 9}]) == 1
    assert rank([{0: 2, 1: 3, 2: 5}, {0: 3, 1: 5, 2: 2}, {0: 5, 1: 8, 2: 7}]) == 2
    assert rank([{0: Fraction(2, 3), 1: 3}, {0: 3, 1: Fraction(27, 2)}]) == 1
    assert rank([{}, {3: 0}]) == 0


@pytest.mark.parametrize("build", [
    lambda: ocinf_dg(4), lambda: lpinf_dg(4),
    lambda: cobar_truncate(lp_presentation(), 4)])
def test_rank_equals_echelon_on_every_cell(build):
    # each cell's columns as they come, and each column scaled by a
    # fraction of its own, which rank must clear to the same integer vector
    dg = build()
    cells = 0
    for s in dg.signatures():
        for d in dg.cell_degrees(s):
            cols = dg.differential_columns(s, d)
            ech = Echelon()
            for col in cols:
                ech.add(col)
            scaled = [{i: Fraction(x, j + 2) for i, x in col.items()}
                      for j, col in enumerate(cols)]
            assert rank(cols) == rank(scaled) == ech.rank, (s, d)
            cells += 1
    assert cells >= 26


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_rows, st.sets(st.integers(0, 6)))
def test_meet_slice_matches_the_dimension_formula(rows, cols):
    # dim(A meet W) = dim A + |W| - rank(A + W), W the slice on cols
    meet = meet_slice(rows, cols)
    slice_ = [{c: 1} for c in cols]
    assert len(meet) == (_sympy_rank(rows, 7) + len(cols)
                         - _sympy_rank(rows + slice_, 7))
    for v in meet:
        assert set(v) <= cols
        assert _sympy_rank(rows + [v], 7) == _sympy_rank(rows, 7)
    # the rows are already reduced: reducing them again changes nothing
    reduced = {min(v): v for v in meet}
    assert Subspace.from_vectors(7, Subspace(7, reduced).basis).rows == reduced


def test_solve_picks_free_variables_zero():
    # x0 + x1 = 3, x2 = 5
    assert solve([{0: 1}, {0: 1}, {1: 1}], {0: 3, 1: 5}) == {0: 3, 2: 5}
    # x0 + x1 = 1, 2 x0 + 2 x1 = 3
    assert solve([{0: 1, 1: 2}, {0: 1, 1: 2}], {0: 1, 1: 3}) is None
    assert solve([], {}) == {}
    # a missing entry is 0: x0 + x1 = 0, x1 = 2
    assert solve([{0: 1}, {0: 1, 1: 1}], {1: 2}) == {0: -2, 1: 2}
    assert solve([{0: 1}], {1: 1}) is None


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(fractions, min_size=n + 1, max_size=n + 1),
                       min_size=1, max_size=4)))
def test_solve_exact_or_inconsistent(augmented):
    rows = [row[:-1] for row in augmented]
    rhs = [row[-1] for row in augmented]
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]}
               for j in range(len(rows[0]))]
    x = solve(columns, {i: b for i, b in enumerate(rhs) if b})
    consistent = (sympy.Matrix(augmented).rank() == sympy.Matrix(rows).rank())
    assert (x is not None) == consistent
    if x is not None:
        assert all(x.values())
        assert [sum(a * x.get(j, 0) for j, a in enumerate(row))
                for row in rows] == rhs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 8), st.integers(-60, 60), max_size=6))
def test_clear_denominators_same_on_ints_and_fractions(vec):
    ints = primitive(vec.items())
    as_fractions = {c: Fraction(x) for c, x in vec.items()}
    assert ints == primitive(as_fractions.items())
    assert all(type(x) is int for x in ints.values())
