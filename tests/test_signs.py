from hypothesis import given
from hypothesis import strategies as st

from bioperad.signs import (koszul_sign, perm_sign, sort_key_perm,
                            unshuffle_perm, unshuffles)

import pytest


def compose(p, q):
    """p after q: compose(p, q)(i) = p(q(i)), in image notation."""
    return tuple(p[i - 1] for i in q)


def test_identity_sign():
    assert koszul_sign((1, 2, 3), [1, 5, 2]) == 1


def test_swap_two_odd():
    assert koszul_sign((2, 1), [1, 1]) == -1


def test_swap_odd_even():
    assert koszul_sign((2, 1), [1, 2]) == 1


def test_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign((1, 2), [1])


perms3 = st.sampled_from([p for p in __import__("itertools").permutations((1, 2, 3))])
degs3 = st.lists(st.integers(min_value=-2, max_value=3), min_size=3, max_size=3)


@given(perms3, perms3, degs3)
def test_koszul_homomorphism(p, q, degrees):
    # acting by q, then by p on the permuted degrees, equals acting by p o q
    lhs = koszul_sign(compose(p, q), degrees)
    permuted = [0, 0, 0]
    for i, d in enumerate(degrees):
        permuted[q[i] - 1] = d
    rhs = koszul_sign(q, degrees) * koszul_sign(p, permuted)
    assert lhs == rhs


@given(perms3, perms3)
def test_perm_sign_multiplicative(p, q):
    assert perm_sign(compose(p, q)) == perm_sign(p) * perm_sign(q)


def test_sort_key_perm():
    assert sort_key_perm([30, 10, 20]) == (3, 1, 2)
    assert sort_key_perm([(0, 2), (0, 1)]) == (2, 1)


def test_sort_key_perm_keeps_ties_in_order():
    perm = sort_key_perm([2, 1, 2, 1])
    assert perm == (3, 1, 4, 2)
    # three crossings, each of a 2 and a 1: equal keys never cross
    assert perm_sign(perm) == -1 and koszul_sign(perm, [1, 1, 1, 1]) == -1


def test_unshuffles_count():
    assert len(list(unshuffles(range(1, 5), 2))) == 6
    a, b = next(unshuffles((1, 2, 3), 2))
    assert a == (1, 2) and b == (3,)


def test_unshuffle_perm_sign():
    # (2,3 | 1): labels 2,3 move to front
    p = unshuffle_perm((2, 3), (1,))
    assert p == (3, 1, 2)
    assert perm_sign(p) == 1
