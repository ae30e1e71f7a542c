"""Algebras over the builtin operads and strong-homotopy structure checks.

Free side: the free Lie-acting (LP) pair, the free Lie algebra acting by
derivations on the tensor algebra of decorated letters.  The Lie side is
realized inside the tensor algebra, with Lyndon words as the basis.

Cofree side: the coalgebra pair (S^c(V_c), (S^c)+(V_c) (x) T^c(V_o)) with
coderivation lifts of corestrictions, graded throughout (the ungraded case
is the degree-0 special case).  One pair coderivation serves both the pair
complex of a strict Leibniz pair and the strong-homotopy checker, which
squares it on the suspended pair and compares the square with the lift of
its own one-factor part, the unshuffle relation instances.
This module reads no files: ``specfile.parse_tensor_file`` turns a tensor
file into HomotopyAlgebraData.
"""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from .linalg import betti
from .signs import (koszul_sign, perm_sign, sort_key_perm, unshuffle_perm,
                    unshuffles)
from .trees import accumulate


# ---------------------------------------------------------------------------
# Graded symbols and sign helpers


class GradedPair:
    """Finite bases for the closed and open underlying spaces."""

    def __init__(self, closed, open_):
        # each: list of (name, degree)
        self.closed = tuple((str(n), int(d)) for n, d in closed)
        self.open = tuple((str(n), int(d)) for n, d in open_)
        names = [n for n, _ in self.closed + self.open]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"duplicate symbol names: {', '.join(repeated)}")

    @classmethod
    def ungraded(cls, n_closed, n_open):
        return cls([(f"x{i}", 0) for i in range(1, n_closed + 1)],
                   [(f"a{i}", 0) for i in range(1, n_open + 1)])


def _insert_symbol(idx, word, degrees):
    """Koszul sign of moving idx from the front of a sorted word into place.

    Returns (sign, merged) or (0, None) when an odd symbol repeats.
    """
    seq = (idx,) + word
    merged = tuple(sorted(seq))
    if any(a == b and (degrees[a] & 1) for a, b in zip(merged, merged[1:])):
        return 0, None
    return koszul_sign(sort_key_perm(seq), [degrees[x] for x in seq]), merged


def unshuffle_splits(word, degrees):
    """(sign, A, B) for all splits of a sorted word with A moved in front.

    The sign is (-1) to the number of odd picked symbols that pass an odd
    symbol staying behind.
    """
    word = tuple(word)
    return _unshuffle_splits(word, tuple(degrees[x] & 1 for x in word))


@lru_cache(maxsize=None)
def _unshuffle_splits(word, odd):
    """unshuffle_splits of a word whose symbols have the parities odd."""
    positions = range(1, len(word) + 1)
    return tuple((koszul_sign(unshuffle_perm(a, b), odd),
                  tuple(word[i - 1] for i in a), tuple(word[i - 1] for i in b))
                 for k in range(len(word) + 1)
                 for a, b in unshuffles(positions, k))


# ---------------------------------------------------------------------------
# Free algebras


class FreeAlgebra:
    """The free Lie-acting (LP) pair on degree-0 generators, by weight.

    closed elements: the Lyndon basis of the free Lie algebra, realized in
    the tensor algebra.  open elements: words in letters (u, o), a tensor
    word u in the closed generators acting on the open generator o, of
    weight len(u) + 1.  l_basis and a_basis list both bases up to the weight
    bound, by ascending weight.  All structure maps return dicts
    basis_element -> coefficient, an int unless it is rational.
    """

    def __init__(self, pair, weight_bound):
        if any(d != 0 for _, d in pair.closed + pair.open):
            raise ValueError("free algebras are implemented for degree-0 "
                             "generators")
        self.bound = weight_bound
        nc = len(pair.closed)
        self.l_basis = [("lie", u) for w in range(1, weight_bound + 1)
                        for u in _lyndon_words(nc, w)]
        self.lie_expansion = {u: _expand_lyndon(u) for _, u in self.l_basis}
        letters = [(u, o) for lw in range(0, weight_bound)
                   for u in product(range(nc), repeat=lw)
                   for o in range(len(pair.open))]
        self.a_basis = sorted(
            (("word", word) for word in _letter_words(
                letters, weight_bound, lambda l: len(l[0]) + 1)),
            key=self.open_weight)

    # -- closed side -------------------------------------------------------

    def _lie_decompose(self, tensor_vec):
        """Express a Lie element given in tensor words in the Lyndon basis.

        The standard bracketing of a Lyndon word w expands to w plus
        lexicographically larger words (Reutenauer, Free Lie Algebras,
        Thm 5.1).  So the least word of a nonzero Lie element is a Lyndon
        word carrying the coefficient of its bracketing: peel that multiple
        off and repeat.  Raises ValueError when the least word is not a
        Lyndon word, i.e. the vector is outside the free Lie algebra.
        """
        rest = dict(tensor_vec)
        out = {}
        while rest:
            word = min(rest)
            expansion = self.lie_expansion.get(word)
            if expansion is None:
                raise ValueError(f"element outside the free Lie algebra: "
                                 f"its least word {word} is not Lyndon")
            c = out[word] = rest[word]
            accumulate(rest, expansion.items(), -c)
        return out

    def bracket(self, x, y):
        """Lie bracket of two closed basis elements."""
        _, u = x
        _, v = y
        if len(u) + len(v) > self.bound:
            return {}
        comm = _commutator(self.lie_expansion[u], self.lie_expansion[v])
        return {("lie", w): c for w, c in self._lie_decompose(comm).items()}

    # -- open side ----------------------------------------------------------

    def open_weight(self, x):
        return sum(len(l[0]) + 1 for l in x[1])

    def closed_weight(self, x):
        return len(x[1])

    def open_product(self, x, y):
        word = x[1] + y[1]
        if sum(len(l[0]) + 1 for l in word) > self.bound:
            return {}
        return {("word", word): 1}

    def action(self, l, x):
        """rho(l, x): the closed element acting on an open one."""
        _, lw = l
        word = x[1]
        if self.open_weight(x) + len(lw) > self.bound:
            return {}
        expansion = self.lie_expansion[lw].items()
        out = {}
        for i, (u, o) in enumerate(word):
            head, tail = word[:i], word[i + 1:]
            accumulate(out, ((("word", head + ((tw + u, o),) + tail), c)
                             for tw, c in expansion))
        return out


def _letter_words(letters, bound, weight_of):
    """Nonempty words in letters with total weight <= bound."""
    out = []

    def rec(acc, w):
        if acc:
            out.append(tuple(acc))
        for l in letters:
            lw = weight_of(l)
            if w + lw <= bound:
                acc.append(l)
                rec(acc, w + lw)
                acc.pop()

    rec([], 0)
    return out


def _lyndon_words(n, k):
    """Lyndon words of length k over 0..n-1 (Duval's algorithm)."""
    out = []
    w = [-1] if n else []
    while w:
        w[-1] += 1
        m = len(w)
        if m == k:
            out.append(tuple(w))
        while len(w) < k:
            w.append(w[-m])
        while w and w[-1] == n - 1:
            w.pop()
    return sorted(out)


def _expand_lyndon(word):
    """Tensor expansion of the standard bracketing of a Lyndon word."""
    if len(word) == 1:
        return {word: 1}
    # standard factorization: longest proper Lyndon suffix
    i = next(i for i in range(1, len(word)) if _is_lyndon(word[i:]))
    return _commutator(_expand_lyndon(word[:i]), _expand_lyndon(word[i:]))


def _commutator(eu, ev):
    """uv - vu for tensor-word vectors u and v."""
    out = {}
    for a, ca in eu.items():
        for b, cb in ev.items():
            accumulate(out, ((a + b, ca * cb), (b + a, -ca * cb)))
    return out


def _is_lyndon(w):
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


# ---------------------------------------------------------------------------
# Cofree pair and coderivation lifts (graded)


class CofreePair:
    """Bases of S^c(V_c) and (S^c)+(V_c) (x) T^c(V_o) up to weights.

    Elements: multisets are sorted tuples of closed indices, words are
    tuples of open indices.  Degrees from the graded pair.
    """

    def __init__(self, pair, closed_bound, open_bound):
        self.cdeg = [d for _, d in pair.closed]
        self.odeg = [d for _, d in pair.open]
        self.closed_basis = [m for w in range(1, closed_bound + 1)
                             for m in graded_multisets(self.cdeg, w)]
        self.mixed_basis = [(m, word)
                            for mw in range(0, closed_bound + 1)
                            for m in graded_multisets(self.cdeg, mw)
                            for qw in range(1, open_bound + 1)
                            for word in product(range(len(self.odeg)),
                                                repeat=qw)]

    def mdeg(self, m):
        return sum(self.cdeg[i] for i in m)

    def wdeg(self, w):
        return sum(self.odeg[i] for i in w)


def graded_multisets(degrees, k):
    """Sorted k-tuples of symbol indices in which only even-degree symbols
    repeat: the monomial keys of the graded-symmetric power S^k."""
    return [m for m in combinations_with_replacement(range(len(degrees)), k)
            if not any(a == b and (degrees[a] & 1)
                       for a, b in zip(m, m[1:]))]


def _psi_terms(m, cdeg, psi):
    """(multiset, coeff): psi on each nonempty front block of an unshuffle
    of m, merged back into the rest."""
    for sign, a, b in unshuffle_splits(m, cdeg):
        if not a:
            continue
        for idx, c in psi.get(a, {}).items():
            s2, merged = _insert_symbol(idx, b, cdeg)
            if s2:
                yield merged, sign * s2 * c


def lift_psi(cdeg, psi):
    """Coderivation of S^c(V_c) extending the corestriction psi.

    cdeg: the degrees of the closed symbols.  psi: dict multiset -> dict
    closed_index -> coeff.  Returns a function multiset -> dict multiset ->
    coeff; no image has more factors than its multiset.
    """
    return lambda m: accumulate({}, _psi_terms(m, cdeg, psi))


def lift_phi(cdeg, odeg, psi, phi, op_degree):
    """Coderivation of the cofree pair extending (psi, phi).

    A cell (m, w) is a multiset m of closed symbols and a word w of open
    ones; w = () is the closed factor.  cdeg, odeg: the degrees of the
    closed and the open symbols.  psi as in lift_psi; phi: dict (multiset,
    word) -> dict open_index -> coeff, where an empty word is a q = 0
    tensor.  Signs: unshuffle Koszul on the closed symbols, the moved block
    crossing the open prefix, and the operator crossing everything before
    its window.  Returns a function cell -> dict cell -> coeff.
    """
    def terms(m, w):
        # closed part: psi acts on the multiset factor
        for merged, c in _psi_terms(m, cdeg, psi):
            yield (merged, w), c
        # mixed part: phi eats a sub-multiset and a window of the word
        q = len(w)
        for s_back, a_syms, b_syms in unshuffle_splits(m, cdeg):
            for i in range(0, q + 1):
                for j in range(i, q + 1):
                    img = phi.get((b_syms, w[i:j]))
                    if not img:
                        continue
                    prefix_deg = sum(odeg[x] for x in w[:i])
                    sign = s_back
                    if (sum(cdeg[x] for x in b_syms) & 1) and (prefix_deg & 1):
                        sign = -sign
                    adeg = sum(cdeg[x] for x in a_syms)
                    if (op_degree & 1) and ((adeg + prefix_deg) & 1):
                        sign = -sign
                    for idx, c in img.items():
                        yield (a_syms, w[:i] + (idx,) + w[j:]), sign * c

    return lambda cell: accumulate({}, terms(*cell))


def coproduct_open(cofree, m, w):
    """Dual of the open product: split the word, distribute the multiset."""
    cdeg = cofree.cdeg

    def terms():
        for s_back, a_syms, b_syms in unshuffle_splits(m, cdeg):
            bdeg = sum(cdeg[x] for x in b_syms)
            for i in range(1, len(w)):
                prefix_deg = sum(cofree.odeg[x] for x in w[:i])
                sign = s_back
                if (bdeg & 1) and (prefix_deg & 1):
                    sign = -sign
                yield ((a_syms, w[:i]), (b_syms, w[i:])), sign

    return accumulate({}, terms())


def coaction(cofree, m, w):
    """Dual of the module structure: peel a nonempty closed part off."""
    return accumulate({}, (((a, (b, w)), sign) for sign, a, b
                           in unshuffle_splits(m, cofree.cdeg) if a))


def check_coderivation_laws(cofree, psi, phi, op_degree):
    """The two coalgebra-compatibility identities for the lifted maps.

    Returns a list of violations (empty means both identities hold on
    the whole truncated basis).
    """
    psit = lift_psi(cofree.cdeg, psi)
    phit = lift_phi(cofree.cdeg, cofree.odeg, psi, phi, op_degree)
    bad = []
    for m, w in cofree.mixed_basis:
        # co-Leibniz against the open coproduct
        lhs = _compose({}, phit((m, w)),
                       lambda cell: coproduct_open(cofree, *cell))
        rhs = {}
        for (left, right), c in coproduct_open(cofree, m, w).items():
            accumulate(rhs, (((cell, right), c2)
                             for cell, c2 in phit(left).items()), c)
            factor_deg = cofree.mdeg(left[0]) + cofree.wdeg(left[1])
            sgn = -1 if (op_degree & 1) and (factor_deg & 1) else 1
            accumulate(rhs, (((left, cell), c2)
                             for cell, c2 in phit(right).items()), sgn * c)
        if lhs != rhs:
            bad.append(("coproduct", m, w))
        # compatibility with the coaction
        lhs = _compose({}, phit((m, w)),
                       lambda cell: coaction(cofree, *cell))
        rhs = {}
        for (a, (b, ww)), c in coaction(cofree, m, w).items():
            accumulate(rhs, (((mm, (b, ww)), c2)
                             for mm, c2 in psit(a).items()), c)
            sgn = -1 if (op_degree & 1) and (cofree.mdeg(a) & 1) else 1
            accumulate(rhs, (((a, cell), c2)
                             for cell, c2 in phit((b, ww)).items()), sgn * c)
        if lhs != rhs:
            bad.append(("coaction", m, w))
    return bad


def _compose(acc, vec, f, scale=1):
    """Add scale * c * f(t) to acc for each term (t, c) of vec; returns acc."""
    for t, c in vec.items():
        accumulate(acc, f(t).items(), scale * c)
    return acc


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg / Hochschild bicomplex for strict Leibniz pairs


class LeibnizPairData:
    """A strict Leibniz pair by structure maps on basis elements.

    bracket(x, y), mult(x, y), action(l, x) return dicts; weights give an
    optional grading that all three maps must respect additively.
    """

    def __init__(self, l_basis, a_basis, bracket, mult, action,
                 l_weight=None, a_weight=None, bound=None):
        self.l_basis = list(l_basis)
        self.a_basis = list(a_basis)
        self.bracket = bracket
        self.mult = mult
        self.action = action
        self.l_weight = l_weight or (lambda x: 1)
        self.a_weight = a_weight or (lambda x: 1)
        self.bound = bound

    @classmethod
    def from_free_algebra(cls, fa):
        return cls(fa.l_basis, fa.a_basis, fa.bracket, fa.open_product,
                   fa.action, l_weight=fa.closed_weight,
                   a_weight=fa.open_weight, bound=fa.bound)

    def validate(self):
        """Check the Leibniz-pair axioms on all basis tuples (within the
        weight bound when one is set)."""
        bad = []

        def within(*ws):
            return self.bound is None or sum(ws) <= self.bound

        lb, ab = self.l_basis, self.a_basis
        lw, aw = self.l_weight, self.a_weight
        br, mult, act = self.bracket, self.mult, self.action
        for x, y in product(lb, repeat=2):
            if within(lw(x), lw(y)) and accumulate(dict(br(x, y)),
                                                   br(y, x).items()):
                bad.append(("antisymmetry", x, y))
        for x, y, z in product(lb, repeat=3):
            if not within(lw(x), lw(y), lw(z)):
                continue
            jac = {}
            _compose(jac, br(x, y), lambda t: br(t, z))
            _compose(jac, br(y, z), lambda t: br(t, x))
            _compose(jac, br(z, x), lambda t: br(t, y))
            if jac:
                bad.append(("jacobi", x, y, z))
        for x, y, z in product(ab, repeat=3):
            if not within(aw(x), aw(y), aw(z)):
                continue
            diff = _compose({}, mult(x, y), lambda t: mult(t, z))
            _compose(diff, mult(y, z), lambda t: mult(x, t), -1)
            if diff:
                bad.append(("associativity", x, y, z))
        for l, x, y in product(lb, ab, ab):
            if not within(lw(l), aw(x), aw(y)):
                continue
            diff = _compose({}, mult(x, y), lambda t: act(l, t))
            _compose(diff, act(l, x), lambda t: mult(t, y), -1)
            _compose(diff, act(l, y), lambda t: mult(x, t), -1)
            if diff:
                bad.append(("derivation", l, x, y))
        for l, m, x in product(lb, lb, ab):
            if not within(lw(l), lw(m), aw(x)):
                continue
            diff = _compose({}, br(l, m), lambda t: act(t, x))
            _compose(diff, act(m, x), lambda t: act(l, t), -1)
            _compose(diff, act(l, x), lambda t: act(m, t))
            if diff:
                bad.append(("morphism", l, m, x))
        return bad


def ce_complex(data, bound):
    """The pair complex of a strict Leibniz pair, truncated by weight.

    The complex is the cofree pair on the suspended underlying spaces with
    the coderivation that the strong-homotopy checker lifts from the strict
    tensors l_2, n_{0,2} and n_{1,1} of the pair (strict_pair_tensors, then
    suspended_corestrictions): closed chains are symmetric words in
    suspended Lie elements (exterior powers downstairs), mixed chains take a
    tensor word of suspended algebra letters.  Every binary corestriction
    then carries the decalage sign -1, so d is -1 times the lift of the
    bare structure maps, in which the displayed textbook formulas hold: the
    bracket part carries (-1)^(i+j-1), the product part (-1)^(p+i), and the
    action part's letter alternation is the suspension of the letters (with
    unsuspended letters it would not square to zero).  A global sign
    changes no rank, so the homology is that of the textbook complex.

    Returns (cells, d): cells maps ("c"|"o", weight, n) to its basis of
    cofree cells (m, w), n the number of factors, with w = () exactly for
    the closed color; d(cell) is the differential of a basis cell.
    """
    l_basis = list(data.l_basis)
    a_basis = list(data.a_basis)
    l_index = {x: i for i, x in enumerate(l_basis)}
    a_index = {x: i for i, x in enumerate(a_basis)}
    nl, na = len(l_basis), len(a_basis)

    def table(structure, left, right, pairs, index):
        return {(i, j): {index[k]: v
                         for k, v in structure(left[i], right[j]).items()}
                for i, j in pairs}

    tensors = strict_pair_tensors(
        GradedPair.ungraded(nl, na),
        table(data.bracket, l_basis, l_basis, combinations(range(nl), 2),
              l_index),
        table(data.mult, a_basis, a_basis, product(range(na), repeat=2),
              a_index),
        table(data.action, l_basis, a_basis, product(range(nl), range(na)),
              a_index))
    psi, phi = suspended_corestrictions(tensors)

    lw = [data.l_weight(x) for x in l_basis]
    aw = [data.a_weight(x) for x in a_basis]
    cells = {}
    for q in range(bound + 1):
        for p in range(0 if q else 1, bound + 1):
            for m in combinations(range(nl), p):
                base = sum(lw[i] for i in m)
                if base + q > bound:
                    continue
                for word in product(range(na), repeat=q):
                    w = base + sum(aw[i] for i in word)
                    if w <= bound:
                        cells.setdefault(("o" if q else "c", w, p + q),
                                         []).append((m, word))
    return cells, lift_phi(tensors.sl, tensors.sa, psi, phi, -1)


def ce_hochschild_homology(data, bound):
    """Homology of the pair complex (see ce_complex), by total weight and
    chain degree.  Raises ValueError unless data is a Leibniz pair.

    Returns {("c"|"o", weight, n): dim H_n} with n the number of factors.
    """
    bad = data.validate()
    if bad:
        raise ValueError(f"not a Leibniz pair: {bad[:3]}")
    cells, d = ce_complex(data, bound)

    def columns(key, n):
        color, w = key
        target = cells.get((color, w, n - 1), [])
        tindex = {x: i for i, x in enumerate(target)}
        cols = []
        for x in cells[(color, w, n)]:
            col = {}
            for k, c in d(x).items():
                if k not in tindex:
                    raise ValueError("differential left the truncation")
                col[tindex[k]] = c
            cols.append(col)
        return cols

    h = betti({((color, w), n): len(basis)
               for (color, w, n), basis in cells.items()}, columns)
    return {(color, w, n): v for ((color, w), n), v in h.items()}


# ---------------------------------------------------------------------------
# Strong homotopy structures: [D, D] = 0 versus the unshuffle relations


class HomotopyAlgebraData:
    """Structure tensors l_n and n_{p,q} on a graded pair.

    l_tensors[n]: dict sorted-L-tuple -> dict L-index -> coeff, degree n-2.
    n_tensors[(p, q)]: dict (sorted-L-tuple, A-tuple) -> dict A-index -> coeff,
    degree p+q-2.  Keys are canonical: the closed tuple ascending, repeats
    allowed exactly for odd-degree symbols (the suspended symbols are then
    even); ``add_entry`` files every entry so.  q = 0 tensors are the
    open-closed extension.
    """

    def __init__(self, pair, l_tensors, n_tensors):
        self.pair = pair
        self.cdeg = [d for _, d in pair.closed]
        self.odeg = [d for _, d in pair.open]
        self.sl = [d + 1 for d in self.cdeg]
        self.sa = [d + 1 for d in self.odeg]
        self.l_tensors, self.n_tensors = {}, {}
        for n, table in l_tensors.items():
            for key, img in table.items():
                if len(key) != int(n):
                    raise ValueError(f"l_{n} key of wrong arity: {key}")
                self.add_entry(True, key, (), img)
        for (p, q), table in n_tensors.items():
            for (ck, ok), img in table.items():
                if len(ck) != int(p) or len(ok) != int(q):
                    raise ValueError(f"n_{p}{q} key of wrong arity")
                self.add_entry(False, ck, ok, img)

    def add_entry(self, closed, ckey, okey, img):
        """Add img to the entry of l_n (closed) or n_{p,q} at the closed
        arguments ckey, in any order, and the open arguments okey, filed
        under the sorted wedge key with its Koszul sign.  Raises ValueError
        on a degenerate key or unless img has the degree of its tensor:
        l_n (closed output) n-2, n_{p,q} p+q-2."""
        sign, key = _sort_wedge(ckey, self.cdeg)
        if sign == 0:
            raise ValueError("degenerate wedge key "
                             + ",".join(self.pair.closed[i][0] for i in ckey))
        k = len(ckey) + len(okey)
        din = sum(self.cdeg[i] for i in ckey) + sum(self.odeg[i] for i in okey)
        out = self.cdeg if closed else self.odeg
        for idx, c in img.items():
            if c and out[idx] != din + k - 2:
                name = (f"l_{k}" if closed
                        else f"n_{len(ckey)},{len(okey)}")
                raise ValueError(f"{name} must have degree {k - 2}: "
                                 f"{key} | {okey} -> {idx}")
        if closed:
            table = self.l_tensors.setdefault(len(key), {}).setdefault(key, {})
        else:
            table = self.n_tensors.setdefault(
                (len(key), len(okey)), {}).setdefault((key, okey), {})
        accumulate(table, img.items(), sign)

    def has_open_closed_extension(self):
        """Whether a q = 0 tensor is nonzero: OCHA data, not SHLP data."""
        return any(q == 0 and any(any(img.values()) for img in table.values())
                   for (_, q), table in self.n_tensors.items())

    # -- evaluation with graded antisymmetry on the closed block ----------

    def eval_l(self, tup):
        """l(|tup|)(tup) for an arbitrary L-index tuple."""
        sign, key = _sort_wedge(tup, self.cdeg)
        if sign == 0:
            return {}
        table = self.l_tensors.get(len(tup), {})
        return accumulate({}, table.get(key, {}).items(), sign)

    def eval_n(self, ctup, otup):
        sign, key = _sort_wedge(ctup, self.cdeg)
        if sign == 0:
            return {}
        table = self.n_tensors.get((len(ctup), len(otup)), {})
        return accumulate({}, table.get((key, tuple(otup)), {}).items(), sign)


def _sort_wedge(tup, degrees):
    """Sort a wedge tuple; sgn times Koszul sign, zero on even repeats."""
    key = tuple(sorted(tup))
    if any(a == b and not (degrees[a] & 1) for a, b in zip(key, key[1:])):
        return 0, None
    perm = sort_key_perm(tup)
    return perm_sign(perm) * koszul_sign(perm, [degrees[x] for x in tup]), key


def _decalage(degrees):
    """Sign of desuspending in place each factor of a suspended word whose
    factors have these degrees."""
    sign = 1
    before = 0
    for d in degrees:
        if before & 1:
            sign = -sign
        before += d
    return sign


def suspended_corestrictions(data):
    """(psi, phi) on the suspended pair from the structure tensors.

    psi: multiset (of sL indices) -> L-vector; phi likewise to A.  The
    suspension converts the exterior evaluation into a symmetric one; the
    decalage sign moves the desuspensions into place.
    """
    sl, sa = data.sl, data.sa
    psi = {}
    for n in data.l_tensors:
        for m in graded_multisets(sl, n):
            val = data.eval_l(m)
            if val:
                psi[m] = accumulate({}, val.items(),
                                    _decalage([sl[x] for x in m]))
    phi = {}
    for (p, q) in data.n_tensors:
        for m in graded_multisets(sl, p):
            for w in product(range(len(sa)), repeat=q):
                val = data.eval_n(m, w)
                if val:
                    phi[(m, w)] = accumulate({}, val.items(), _decalage(
                        [sl[x] for x in m] + [sa[x] for x in w]))
    return psi, phi


class SHReport:
    """The outcome of shlp_ocha_check.

    violations: (m, w, square) for each cell whose D^2 is nonzero.
    discrepancies: the cells (m, w) where D^2 differs from the lift of its
    own relation instances, i.e. where D^2 is not a coderivation.
    """

    def __init__(self):
        self.violations = []
        self.discrepancies = []

    @property
    def passed(self):
        return not self.violations and not self.discrepancies

    def __repr__(self):
        return (f"SHReport(violations={len(self.violations)}, "
                f"discrepancies={len(self.discrepancies)})")


def shlp_ocha_check(data, mode, arity_bound):
    """Square-zero check of the pair coderivation D against its relations.

    mode "SHLP" rejects q = 0 tensors; "OCHA" admits them.  D is the degree
    -1 lift of the suspended tensors (as in ce_complex), squared on every
    cofree cell (m, w) with 1..arity_bound factors, w = () the closed
    factor.  [D, D] = 0 is D^2 = 0; the unshuffle relation instances are
    the one-factor parts of D^2, at (m, ()) for l_n and the q = 0 tensors
    and at (m, w) for the rest.  D^2 is a coderivation, so it must equal
    the degree -2 lift of those instances on every cell: a cell where it
    does not is a discrepancy, a fault of the lifts' signs and not of the
    tensors.
    """
    if mode not in ("SHLP", "OCHA"):
        raise ValueError("mode must be SHLP or OCHA")
    if mode == "SHLP" and data.has_open_closed_extension():
        raise ValueError("q = 0 tensors need OCHA mode")
    sl, sa = data.sl, data.sa
    d = lru_cache(maxsize=None)(
        lift_phi(sl, sa, *suspended_corestrictions(data), -1))
    cells = [(m, w) for p in range(arity_bound + 1)
             for m in graded_multisets(sl, p)
             for q in range(0 if p else 1, arity_bound - p + 1)
             for w in product(range(len(sa)), repeat=q)]
    squares = {x: _compose({}, d(x), d) for x in cells}
    # the relation instances: the one-factor part of each square
    closed, open_ = {}, {}
    for (m, w), square in squares.items():
        for (mm, ww), c in square.items():
            if len(mm) + len(ww) == 1:
                table, key = (closed, m) if mm else (open_, (m, w))
                table.setdefault(key, {})[(mm + ww)[0]] = c
    lifted = lift_phi(sl, sa, closed, open_, -2)
    report = SHReport()
    for x, square in squares.items():
        if square != lifted(x):
            report.discrepancies.append(x)
        if square:
            report.violations.append(x + (square,))
    return report


def strict_pair_tensors(data_pair, bracket, mult, action):
    """Promote a strict degree-0 Leibniz pair to homotopy tensors.

    bracket/mult/action are dense tables on index pairs.
    """
    nc = len(data_pair.closed)
    no = len(data_pair.open)

    def tensor(values, pairs, key):
        out = {}
        for i, j in pairs:
            val = accumulate({}, values.get((i, j), {}).items())
            if val:
                out[key(i, j)] = val
        return out

    l2 = tensor(bracket, combinations(range(nc), 2), lambda i, j: (i, j))
    n02 = tensor(mult, product(range(no), repeat=2),
                 lambda i, j: ((), (i, j)))
    n11 = tensor(action, product(range(nc), range(no)),
                 lambda i, j: ((i,), (j,)))
    return HomotopyAlgebraData(data_pair, {2: l2},
                               {(0, 2): n02, (1, 1): n11})
