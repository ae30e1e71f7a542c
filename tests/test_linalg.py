from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bioperad.linalg import (Echelon, Matrix, Subspace, _clear_denominators,
                             rank_and_nullspace, solve)

import pytest


def test_zero_matrix():
    rank, null = rank_and_nullspace(Matrix.zero(2, 3))
    assert rank == 0
    assert null.dim == 3


def test_identity_matrix():
    rank, null = rank_and_nullspace(Matrix.identity(3))
    assert rank == 3
    assert null.dim == 0


def test_rank_one():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    rank, null = rank_and_nullspace(m)
    assert rank == 1
    assert null.dim == 2
    for vec in null.basis:
        assert all(x == 0 for x in m.apply(list(vec)))


def test_rank_nullity():
    m = Matrix.from_rows([[1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1]])
    rank, null = rank_and_nullspace(m)
    assert rank + null.dim == 4


small = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_transpose(rows):
    m = Matrix.from_rows(rows)
    assert m.rank() == m.transpose().rank()


def test_subspace_idempotent_ops():
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    assert Subspace.from_vectors(3, list(a.basis) + list(a.basis)) == a
    assert a.intersect(a) == a


def test_sum_intersect_dimension_formula():
    a = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = Subspace.from_vectors(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    s = Subspace.from_vectors(4, list(a.basis) + list(b.basis))
    i = a.intersect(b)
    assert s.dim + i.dim == a.dim + b.dim
    assert i == Subspace.from_vectors(4, [[0, 5, 0, 0]])


def test_dimension_mismatch():
    a = Subspace.from_vectors(3, [[1, 0, 0]])
    b = Subspace.from_vectors(2, [[1, 0]])
    with pytest.raises(ValueError):
        a.intersect(b)


def test_complement_of_zero_is_full():
    z = Subspace.zero(3)
    assert z.orthogonal_complement(Matrix.identity(3)) == Subspace.full(3)


def test_complement_line_in_q3():
    line = Subspace.from_vectors(3, [[1, 2, 2]])
    comp = line.orthogonal_complement(Matrix.identity(3))
    assert comp.dim == 2
    for vec in comp.basis:
        assert sum(Fraction(a) * b for a, b in zip([1, 2, 2], vec)) == 0


@settings(max_examples=40)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=3))
def test_complement_involutive(rows):
    a = Subspace.from_vectors(3, rows)
    pairing = Matrix.identity(3)
    cc = a.orthogonal_complement(pairing).orthogonal_complement(pairing)
    assert cc == a


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


def test_echelon_fraction_input():
    e = Echelon()
    e.add({0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert e.rank == 1
    sub = e.to_subspace(2)
    assert sub == Subspace.from_vectors(2, [[1, Fraction(2, 3)]])


def test_sparse_rank_matches_dense():
    vecs = [{0: 1, 2: -1}, {1: 2}, {0: 1, 1: 2, 2: -1}]
    dense = Matrix.from_rows([[1, 0, -1], [0, 2, 0], [1, 2, -1]])
    ech = Echelon()
    for v in vecs:
        ech.add(v)
    assert ech.rank == dense.rank() == 2


def test_solve_picks_free_variables_zero():
    assert solve([[1, 1, 0], [0, 0, 1]], [3, 5]) == [3, 0, 5]
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    assert solve([], []) == []


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(fractions, min_size=n + 1, max_size=n + 1),
                       min_size=1, max_size=4)))
def test_solve_exact_or_inconsistent(augmented):
    rows = [row[:-1] for row in augmented]
    rhs = [row[-1] for row in augmented]
    x = solve(rows, rhs)
    consistent = (Matrix.from_rows(augmented).rank()
                  == Matrix.from_rows(rows).rank())
    assert (x is not None) == consistent
    if x is not None:
        assert Matrix.from_rows(rows).apply(x) == rhs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 8), st.integers(-60, 60), max_size=6))
def test_clear_denominators_same_on_ints_and_fractions(vec):
    ints = _clear_denominators(vec.items())
    as_fractions = {c: Fraction(x) for c, x in vec.items()}
    assert ints == _clear_denominators(as_fractions.items())
    assert all(type(x) is int for x in ints.values())
