"""Permutations and Koszul signs.

Permutations are tuples in image notation: ``p[i-1]`` is where label ``i``
goes, so ``(2, 1, 3)`` swaps the first two labels.  Composition is
``compose(p, q) = p after q``.

The Koszul sign of a reordering of graded symbols is the product of
``(-1)**(d_i * d_j)`` over every pair of symbols that crosses; it carries no
``sgn`` factor of its own.
"""

from itertools import combinations


def identity(n):
    return tuple(range(1, n + 1))


def compose(p, q):
    """p after q: (compose(p, q))(i) = p(q(i))."""
    assert len(p) == len(q)
    return tuple(p[q[i] - 1] for i in range(len(q)))


def invert(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_sign(p):
    """Signature of a permutation in image notation."""
    n = len(p)
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] > p[j]:
                sign = -sign
    return sign


def koszul_sign(perm, degrees):
    """Sign of reordering graded symbols along ``perm``.

    Symbol ``i`` (degree ``degrees[i-1]``) moves to position ``perm[i-1]``.
    Each pair that crosses contributes ``(-1)**(d_i * d_j)``.
    """
    if len(perm) != len(degrees):
        raise ValueError("permutation and degree list lengths differ")
    sign = 1
    for i, j in combinations(range(len(perm)), 2):
        if perm[i] > perm[j] and (degrees[i] & 1) and (degrees[j] & 1):
            sign = -sign
    return sign


def sort_key_perm(keys):
    """Permutation sending position i to the rank of keys[i] in sorted order.

    Keys must be distinct.  Returned in image notation, 1-based.
    """
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    perm = [0] * len(keys)
    for rank, i in enumerate(order):
        perm[i] = rank + 1
    return tuple(perm)


def unshuffles(items, k):
    """All splittings of ``items`` (a sorted sequence) into (A, B), |A| = k.

    Both halves keep the ambient order.  Yields (A, B) as tuples.
    """
    items = tuple(items)
    n = len(items)
    for picks in combinations(range(n), k):
        picked = set(picks)
        a = tuple(items[i] for i in range(n) if i in picked)
        b = tuple(items[i] for i in range(n) if i not in picked)
        yield a, b


def unshuffle_perm(a, b):
    """Image-notation permutation of the unshuffle [n] -> (A, B).

    Position of label x: its index within the concatenation (A, B).
    """
    seq = tuple(a) + tuple(b)
    n = len(seq)
    assert sorted(seq) == list(range(1, n + 1))
    perm = [0] * n
    for pos, label in enumerate(seq):
        perm[label - 1] = pos + 1
    return tuple(perm)
