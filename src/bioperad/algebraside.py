"""Algebras over the builtin operads and strong-homotopy structure checks.

Free algebras: the commutative-acting case (symmetric algebra tensor tensor
algebra), the Lie-acting case (free Lie algebra, tensor algebra on decorated
letters), and the unital-map case.  The Lie side is realized inside the
tensor algebra, with Lyndon words as the basis.

Cofree side: the coalgebra pair (S^c(V_c), (S^c)+(V_c) (x) T^c(V_o)) with
coderivation lifts of corestrictions, graded throughout (the ungraded case
is the degree-0 special case).  The strong-homotopy checker builds the
square-zero-coderivation formulation on the suspended pair and compares it
instance by instance against the direct unshuffle relations.
"""

from fractions import Fraction
from itertools import combinations

from .linalg import Echelon, solve


# ---------------------------------------------------------------------------
# Graded symbols and sign helpers


class GradedPair:
    """Finite bases for the closed and open underlying spaces."""

    def __init__(self, closed, open_):
        # each: list of (name, degree)
        self.closed = tuple((str(n), int(d)) for n, d in closed)
        self.open = tuple((str(n), int(d)) for n, d in open_)
        names = [n for n, _ in self.closed + self.open]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")

    @classmethod
    def ungraded(cls, n_closed, n_open):
        return cls([(f"x{i}", 0) for i in range(1, n_closed + 1)],
                   [(f"a{i}", 0) for i in range(1, n_open + 1)])


def merge_sign(left, right, degrees):
    """Koszul sign of merging two sorted index tuples into sorted order.

    Returns (sign, merged) or (0, None) when an odd symbol repeats.
    """
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            # right[j] crosses the remaining left symbols
            cross = sum(degrees[x] for x in left[i:])
            if (degrees[right[j]] & 1) and (cross & 1):
                sign = -sign
            merged.append(right[j])
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    for a, b in zip(merged, merged[1:]):
        if a == b and (degrees[a] & 1):
            return 0, None
    return sign, tuple(merged)


def unshuffle_splits(word, degrees):
    """(sign, A, B) for all splits of a sorted word with A moved in front."""
    n = len(word)
    out = []
    for k in range(n + 1):
        for picks in combinations(range(n), k):
            picked = set(picks)
            a = tuple(word[i] for i in range(n) if i in picked)
            b = tuple(word[i] for i in range(n) if i not in picked)
            sign = 1
            for i in range(n):
                if i in picked:
                    continue
                # word[i] stays; selected symbols after i cross it
                for j in picks:
                    if j > i and (degrees[word[i]] & 1) and (degrees[word[j]] & 1):
                        sign = -sign
            out.append((sign, a, b))
    return out


def split_sign_back(word, picks, degrees):
    """Sign of moving the picked positions to the back of a sorted word."""
    sign = 1
    picked = set(picks)
    for j in picks:
        for i in range(j + 1, len(word)):
            if i not in picked and (degrees[word[j]] & 1) and (degrees[word[i]] & 1):
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Free algebras


class FreeAlgebra:
    """Free algebra over one of the builtin operads, truncated by weight.

    closed elements: Com tag -> multisets of closed symbols; LP tag ->
    Lyndon basis of the free Lie algebra realized in the tensor algebra.
    open elements: tag-dependent word bases.  All structure maps return
    dicts basis_element -> Fraction.
    """

    def __init__(self, tag, pair, weight_bound):
        if any(d != 0 for _, d in pair.closed + pair.open):
            raise ValueError("free algebras are implemented for degree-0 "
                             "generators")
        if tag not in ("H0SCvor", "LP", "H0SC"):
            raise ValueError(f"unknown free-algebra tag {tag!r}")
        self.tag = tag
        self.pair = pair
        self.bound = weight_bound
        self.nc = len(pair.closed)
        self.no = len(pair.open)
        if tag == "LP":
            self._build_lie()
        self._build_bases()

    # -- closed side -------------------------------------------------------

    def _build_lie(self):
        nc, bound = self.nc, self.bound
        self.lyndon = {w: _lyndon_words(nc, w) for w in range(1, bound + 1)}
        self.lie_expansion = {}
        for w, words in self.lyndon.items():
            for word in words:
                self.lie_expansion[word] = _expand_lyndon(word)
        # per weight: matrix tensor-words x lyndon for decomposition
        self._lie_solver = {}
        for w, words in self.lyndon.items():
            tensor_words = sorted({tw for word in words
                                   for tw in self.lie_expansion[word]})
            index = {tw: i for i, tw in enumerate(tensor_words)}
            cols = []
            for word in words:
                col = [Fraction(0)] * len(tensor_words)
                for tw, c in self.lie_expansion[word].items():
                    col[index[tw]] = c
                cols.append(col)
            self._lie_solver[w] = (index, cols, words)

    def _lie_decompose(self, tensor_vec, weight):
        """Express a Lie element given in tensor words in the Lyndon basis."""
        index, cols, words = self._lie_solver[weight]
        target = [Fraction(0)] * len(index)
        for tw, c in tensor_vec.items():
            target[index[tw]] = c
        rows = [[col[i] for col in cols] for i in range(len(index))]
        sol = solve(rows, target)
        assert sol is not None, "element outside the free Lie algebra"
        return {word: c for word, c in zip(words, sol) if c}

    def closed_basis(self, weight):
        if self.tag == "LP":
            return [("lie", w) for w in self.lyndon.get(weight, [])]
        return [("com", m) for m in _multisets(self.nc, weight)]

    def bracket(self, x, y):
        """Lie bracket of two closed basis elements (LP tag)."""
        assert self.tag == "LP"
        _, u = x
        _, v = y
        wu, wv = len(u), len(v)
        if wu + wv > self.bound:
            return {}
        eu, ev = self.lie_expansion[u], self.lie_expansion[v]
        comm = {}
        for a, ca in eu.items():
            for b, cb in ev.items():
                comm[a + b] = comm.get(a + b, Fraction(0)) + ca * cb
                comm[b + a] = comm.get(b + a, Fraction(0)) - ca * cb
        comm = {k: v2 for k, v2 in comm.items() if v2}
        return {("lie", w): c
                for w, c in self._lie_decompose(comm, wu + wv).items()}

    # -- open side ----------------------------------------------------------

    def _build_bases(self):
        bound = self.bound
        self._closed_by_weight = {w: self.closed_basis(w)
                                  for w in range(1, bound + 1)}
        self._open_by_weight = {w: [] for w in range(1, bound + 1)}
        if self.tag == "LP":
            letters = []
            for lw in range(0, bound):
                for u in _tensor_words(self.nc, lw):
                    for o in range(self.no):
                        letters.append((u, o))
            for word in _letter_words(letters, bound,
                                      lambda l: len(l[0]) + 1):
                w = sum(len(l[0]) + 1 for l in word)
                self._open_by_weight[w].append(("word", word))
        else:
            allow_empty_word = self.tag == "H0SC"
            for mw in range(0, bound + 1):
                for m in _multisets(self.nc, mw):
                    for qw in range(0, bound - mw + 1):
                        for w in _tensor_words(self.no, qw):
                            if not m and not w:
                                continue
                            if not w and not allow_empty_word:
                                continue
                            total = mw + qw
                            if 1 <= total <= bound:
                                self._open_by_weight[total].append(
                                    ("mw", m, w))

    def open_weight(self, x):
        if x[0] == "word":
            return sum(len(l[0]) + 1 for l in x[1])
        return len(x[1]) + len(x[2])

    def closed_weight(self, x):
        return len(x[1])

    def open_product(self, x, y):
        if self.tag == "LP":
            word = x[1] + y[1]
            if sum(len(l[0]) + 1 for l in word) > self.bound:
                return {}
            return {("word", word): Fraction(1)}
        m = tuple(sorted(x[1] + y[1]))
        w = x[2] + y[2]
        if len(m) + len(w) > self.bound:
            return {}
        return {("mw", m, w): Fraction(1)}

    def action(self, l, x):
        """rho(l, x): the closed element acting on an open one."""
        if self.tag == "LP":
            _, lw = l
            word = x[1]
            total = self.open_weight(x) + len(lw)
            if total > self.bound:
                return {}
            out = {}
            for i, (u, o) in enumerate(word):
                for tw, c in self.lie_expansion[lw].items():
                    new = word[:i] + ((tw + u, o),) + word[i + 1:]
                    key = ("word", new)
                    out[key] = out.get(key, Fraction(0)) + c
            return {k: v for k, v in out.items() if v}
        m = tuple(sorted(l[1] + x[1]))
        if len(m) + len(x[2]) > self.bound:
            return {}
        return {("mw", m, x[2]): Fraction(1)}

    def dims(self):
        return {("c", w): len(b) for w, b in self._closed_by_weight.items()} | \
               {("o", w): len(b) for w, b in self._open_by_weight.items()}


def _multisets(n, k):
    if k == 0:
        return [()]
    out = []

    def rec(start, left, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        for i in range(start, n):
            acc.append(i)
            rec(i, left - 1, acc)
            acc.pop()

    rec(0, k, [])
    return out


def _tensor_words(n, k):
    if k == 0:
        return [()]
    prev = _tensor_words(n, k - 1)
    return [w + (i,) for w in prev for i in range(n)]


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
    w = [-1]
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
        return {word: Fraction(1)}
    # standard factorization: longest proper Lyndon suffix
    for i in range(1, len(word)):
        suffix = word[i:]
        if _is_lyndon(suffix):
            left, right = word[:i], suffix
            break
    el, er = _expand_lyndon(left), _expand_lyndon(right)
    out = {}
    for a, ca in el.items():
        for b, cb in er.items():
            out[a + b] = out.get(a + b, Fraction(0)) + ca * cb
            out[b + a] = out.get(b + a, Fraction(0)) - ca * cb
    return {k: v for k, v in out.items() if v}


def _is_lyndon(w):
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def free_algebra(tag, pair, weight_bound):
    return FreeAlgebra(tag, pair, weight_bound)


# ---------------------------------------------------------------------------
# Cofree pair and coderivation lifts (graded)


class CofreePair:
    """Bases of S^c(V_c) and (S^c)+(V_c) (x) T^c(V_o) up to weights.

    Elements: multisets are sorted tuples of closed indices, words are
    tuples of open indices.  Degrees from the graded pair.
    """

    def __init__(self, pair, closed_bound, open_bound):
        self.pair = pair
        self.cdeg = [d for _, d in pair.closed]
        self.odeg = [d for _, d in pair.open]
        self.closed_bound = closed_bound
        self.open_bound = open_bound
        self.closed_basis = [m for w in range(1, closed_bound + 1)
                             for m in _graded_multisets(self.cdeg, w)]
        self.mixed_basis = [(m, word)
                            for mw in range(0, closed_bound + 1)
                            for m in _graded_multisets(self.cdeg, mw)
                            for qw in range(1, open_bound + 1)
                            for word in _tensor_words(len(self.odeg), qw)]

    def mdeg(self, m):
        return sum(self.cdeg[i] for i in m)

    def wdeg(self, w):
        return sum(self.odeg[i] for i in w)


def _graded_multisets(degrees, k):
    return [m for m in _multisets(len(degrees), k)
            if not any(a == b and (degrees[a] & 1)
                       for a, b in zip(m, m[1:]))]


def lift_psi(cofree, psi, psi_degree):
    """Coderivation of S^c(V_c) extending the corestriction psi.

    psi: dict multiset -> dict closed_index -> coeff.
    Returns a function multiset -> dict multiset -> coeff.
    """
    degrees = cofree.cdeg

    def tilde(m):
        out = {}
        for sign, a, b in unshuffle_splits(m, degrees):
            if not a:
                continue
            img = psi.get(a)
            if not img:
                continue
            for idx, c in img.items():
                s2, merged = merge_sign((idx,), b, degrees)
                if s2 == 0:
                    continue
                if merged is not None and len(merged) <= cofree.closed_bound:
                    key = merged
                    val = out.get(key, Fraction(0)) + sign * s2 * c
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
        return out

    return tilde


def lift_phi(cofree, psi, phi, op_degree):
    """Coderivation of the mixed factor extending (psi, phi).

    phi: dict (multiset, word) -> dict open_index -> coeff.
    Signs: unshuffle Koszul on the closed symbols, the moved block crossing
    the open prefix, and the operator crossing everything before its window.
    """
    cdeg, odeg = cofree.cdeg, cofree.odeg

    def tilde(m, w):
        out = {}
        # closed part: psi acts on the multiset factor
        if psi is not None:
            for sign, a, b in unshuffle_splits(m, cdeg):
                if not a:
                    continue
                img = psi.get(a)
                if not img:
                    continue
                for idx, c in img.items():
                    s2, merged = merge_sign((idx,), b, cdeg)
                    if s2 == 0:
                        continue
                    key = (merged, w)
                    val = out.get(key, Fraction(0)) + sign * s2 * c
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
        # mixed part: phi eats a sub-multiset and a window of the word
        q = len(w)
        for k in range(len(m) + 1):
            for picks in combinations(range(len(m)), k):
                b_syms = tuple(m[i] for i in picks)
                a_syms = tuple(m[i] for i in range(len(m))
                               if i not in set(picks))
                s_back = split_sign_back(m, picks, cdeg)
                bdeg = sum(cdeg[i] for i in b_syms)
                for i in range(0, q + 1):
                    for j in range(i, q + 1):
                        img = phi.get((b_syms, w[i:j]))
                        if not img:
                            continue
                        prefix_deg = sum(odeg[x] for x in w[:i])
                        sign = s_back
                        if (bdeg & 1) and (prefix_deg & 1):
                            sign = -sign
                        adeg = sum(cdeg[x] for x in a_syms)
                        if (op_degree & 1) and ((adeg + prefix_deg) & 1):
                            sign = -sign
                        for idx, c in img.items():
                            key = (a_syms, w[:i] + (idx,) + w[j:])
                            val = out.get(key, Fraction(0)) + sign * c
                            if val:
                                out[key] = val
                            else:
                                out.pop(key, None)
        return out

    return tilde


def coproduct_open(cofree, m, w):
    """Dual of the open product: split the word, distribute the multiset."""
    cdeg = cofree.cdeg
    out = {}
    q = len(w)
    for k in range(len(m) + 1):
        for picks in combinations(range(len(m)), k):
            b_syms = tuple(m[i] for i in picks)
            a_syms = tuple(m[i] for i in range(len(m)) if i not in set(picks))
            s_back = split_sign_back(m, picks, cdeg)
            bdeg = sum(cdeg[i] for i in b_syms)
            for i in range(1, q):
                prefix_deg = sum(cofree.odeg[x] for x in w[:i])
                sign = s_back
                if (bdeg & 1) and (prefix_deg & 1):
                    sign = -sign
                key = ((a_syms, w[:i]), (b_syms, w[i:]))
                out[key] = out.get(key, Fraction(0)) + sign
    return out


def coaction(cofree, m, w):
    """Dual of the module structure: peel a nonempty closed part off."""
    out = {}
    for sign, a, b in unshuffle_splits(m, cofree.cdeg):
        if not a:
            continue
        key = (a, (b, w))
        out[key] = out.get(key, Fraction(0)) + sign
    return out


def check_coderivation_laws(cofree, psi, phi, op_degree):
    """The two coalgebra-compatibility identities for the lifted maps.

    Returns a list of violations (empty means both identities hold on
    the whole truncated basis).
    """
    psit = lift_psi(cofree, psi, op_degree)
    phit = lift_phi(cofree, psi, phi, op_degree)
    bad = []
    for m, w in cofree.mixed_basis:
        # co-Leibniz against the open coproduct
        lhs = {}
        for (mm, ww), c in phit(m, w).items():
            for key, c2 in coproduct_open(cofree, mm, ww).items():
                lhs[key] = lhs.get(key, Fraction(0)) + c * c2
        rhs = {}
        for key, c in coproduct_open(cofree, m, w).items():
            (m1, w1), (m2, w2) = key
            for (mm, ww), c2 in phit(m1, w1).items():
                k2 = ((mm, ww), (m2, w2))
                rhs[k2] = rhs.get(k2, Fraction(0)) + c * c2
            factor_deg = cofree.mdeg(m1) + cofree.wdeg(w1)
            sgn = -1 if (op_degree & 1) and (factor_deg & 1) else 1
            for (mm, ww), c2 in phit(m2, w2).items():
                k2 = ((m1, w1), (mm, ww))
                rhs[k2] = rhs.get(k2, Fraction(0)) + sgn * c * c2
        if _clean(lhs) != _clean(rhs):
            bad.append(("coproduct", m, w))
        # compatibility with the coaction
        lhs2 = {}
        for (mm, ww), c in phit(m, w).items():
            for key, c2 in coaction(cofree, mm, ww).items():
                lhs2[key] = lhs2.get(key, Fraction(0)) + c * c2
        rhs2 = {}
        for key, c in coaction(cofree, m, w).items():
            a, (b, ww) = key
            for mm, c2 in psit(a).items():
                k2 = (mm, (b, ww))
                rhs2[k2] = rhs2.get(k2, Fraction(0)) + c * c2
            sgn = -1 if (op_degree & 1) and (cofree.mdeg(a) & 1) else 1
            for (mm, w2), c2 in phit(b, ww).items():
                k2 = (a, (mm, w2))
                rhs2[k2] = rhs2.get(k2, Fraction(0)) + sgn * c * c2
        if _clean(lhs2) != _clean(rhs2):
            bad.append(("coaction", m, w))
    return bad


def _clean(d):
    return {k: v for k, v in d.items() if v}


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
        l_basis = [x for w in sorted(fa._closed_by_weight)
                   for x in fa._closed_by_weight[w]]
        a_basis = [x for w in sorted(fa._open_by_weight)
                   for x in fa._open_by_weight[w]]
        return cls(l_basis, a_basis, fa.bracket, fa.open_product, fa.action,
                   l_weight=fa.closed_weight, a_weight=fa.open_weight,
                   bound=fa.bound)

    def validate(self):
        """Check the Leibniz-pair axioms on all basis tuples (within the
        weight bound when one is set)."""
        bad = []

        def within(*ws):
            return self.bound is None or sum(ws) <= self.bound

        lb, ab = self.l_basis, self.a_basis
        for x in lb:
            for y in lb:
                if not within(self.l_weight(x), self.l_weight(y)):
                    continue
                anti = _add(self.bracket(x, y), self.bracket(y, x))
                if _clean(anti):
                    bad.append(("antisymmetry", x, y))
        for x in lb:
            for y in lb:
                for z in lb:
                    if not within(self.l_weight(x), self.l_weight(y),
                                  self.l_weight(z)):
                        continue
                    jac = {}
                    for t, c in self.bracket(x, y).items():
                        jac = _add(jac, _scale(self.bracket(t, z), c))
                    for t, c in self.bracket(y, z).items():
                        jac = _add(jac, _scale(self.bracket(t, x), c))
                    for t, c in self.bracket(z, x).items():
                        jac = _add(jac, _scale(self.bracket(t, y), c))
                    if _clean(jac):
                        bad.append(("jacobi", x, y, z))
        for x in ab:
            for y in ab:
                for z in ab:
                    if not within(self.a_weight(x), self.a_weight(y),
                                  self.a_weight(z)):
                        continue
                    lhs = {}
                    for t, c in self.mult(x, y).items():
                        lhs = _add(lhs, _scale(self.mult(t, z), c))
                    rhs = {}
                    for t, c in self.mult(y, z).items():
                        rhs = _add(rhs, _scale(self.mult(x, t), c))
                    if _clean(_sub(lhs, rhs)):
                        bad.append(("associativity", x, y, z))
        for l in lb:
            for x in ab:
                for y in ab:
                    if not within(self.l_weight(l), self.a_weight(x),
                                  self.a_weight(y)):
                        continue
                    lhs = {}
                    for t, c in self.mult(x, y).items():
                        lhs = _add(lhs, _scale(self.action(l, t), c))
                    rhs = {}
                    for t, c in self.action(l, x).items():
                        rhs = _add(rhs, _scale(self.mult(t, y), c))
                    for t, c in self.action(l, y).items():
                        rhs = _add(rhs, _scale(self.mult(x, t), c))
                    if _clean(_sub(lhs, rhs)):
                        bad.append(("derivation", l, x, y))
        for l in lb:
            for m in lb:
                for x in ab:
                    if not within(self.l_weight(l), self.l_weight(m),
                                  self.a_weight(x)):
                        continue
                    lhs = {}
                    for t, c in self.bracket(l, m).items():
                        lhs = _add(lhs, _scale(self.action(t, x), c))
                    rhs = {}
                    for t, c in self.action(m, x).items():
                        rhs = _add(rhs, _scale(self.action(l, t), c))
                    for t, c in self.action(l, x).items():
                        rhs = _sub(rhs, _scale(self.action(m, t), c))
                    if _clean(_sub(lhs, rhs)):
                        bad.append(("morphism", l, m, x))
        return bad


def _add(a, b):
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _sub(a, b):
    return _add(a, {k: -v for k, v in b.items()})


def _scale(a, c):
    return {k: v * c for k, v in a.items()} if c else {}


def ce_hochschild_homology(data, bound, validate=True):
    """Homology of the pair complex, by total weight and chain degree.

    The complex is the cofree pair on the suspended underlying spaces with
    the coderivation lifted from the structure maps: closed chains are
    symmetric words in suspended Lie elements (exterior powers downstairs),
    mixed chains take a tensor word of suspended algebra letters.  The
    displayed textbook formulas hold in these terms: the bracket part
    carries (-1)^(i+j-1), the product part (-1)^(p+i); the action part's
    letter alternation is the suspension of the letters (with unsuspended
    letters it would not square to zero).

    Returns {("c"|"o", weight, n): dim H_n} with n the number of factors.
    """
    if validate:
        bad = data.validate()
        if bad:
            raise ValueError(f"not a Leibniz pair: {bad[:3]}")
    l_basis = list(data.l_basis)
    a_basis = list(data.a_basis)
    l_index = {x: i for i, x in enumerate(l_basis)}
    a_index = {x: i for i, x in enumerate(a_basis)}

    class _Suspended:
        cdeg = [1] * len(l_basis)
        odeg = [1] * len(a_basis)
        closed_bound = bound

    cofree = _Suspended()

    def vec_l(table):
        return {l_index[k]: v for k, v in table.items()}

    def vec_a(table):
        return {a_index[k]: v for k, v in table.items()}

    psi = {}
    for i in range(len(l_basis)):
        for j in range(i, len(l_basis)):
            val = vec_l(data.bracket(l_basis[i], l_basis[j]))
            val = {k: v for k, v in val.items() if v}
            if val and i < j:
                psi[(i, j)] = val
    phi = {}
    for i in range(len(l_basis)):
        for j in range(len(a_basis)):
            val = vec_a(data.action(l_basis[i], a_basis[j]))
            val = {k: v for k, v in val.items() if v}
            if val:
                phi[((i,), (j,))] = val
    for i in range(len(a_basis)):
        for j in range(len(a_basis)):
            val = vec_a(data.mult(a_basis[i], a_basis[j]))
            val = {k: v for k, v in val.items() if v}
            if val:
                phi[((), (i, j))] = val

    d_closed = lift_psi(cofree, psi, -1)
    d_mixed = lift_phi(cofree, psi, phi, -1)

    lw = [data.l_weight(x) for x in l_basis]
    aw = [data.a_weight(x) for x in a_basis]

    cells = {}
    for p in range(1, bound + 1):
        for m in combinations(range(len(l_basis)), p):
            w = sum(lw[i] for i in m)
            if w <= bound:
                cells.setdefault(("c", w, p), []).append(m)
    for p in range(0, bound + 1):
        for m in combinations(range(len(l_basis)), p):
            base = sum(lw[i] for i in m)
            if base > bound:
                continue
            for q in range(1, bound - base + 1):
                for word in _words_over(range(len(a_basis)), q):
                    w = base + sum(aw[i] for i in word)
                    if w <= bound:
                        cells.setdefault(("o", w, p + q), []).append(
                            (m, word))

    ranks = {}
    for (color, w, n), basis in sorted(cells.items()):
        target = cells.get((color, w, n - 1), [])
        tindex = {x: i for i, x in enumerate(target)}
        ech = Echelon()
        for x in basis:
            img = d_closed(x) if color == "c" else d_mixed(*x)
            col = {}
            for k, c in img.items():
                if k not in tindex:
                    raise ValueError("differential left the truncation")
                col[tindex[k]] = c
            ech.add(col)
        ranks[(color, w, n)] = ech.rank
    out = {}
    for (color, w, n), basis in cells.items():
        h = len(basis) - ranks.get((color, w, n), 0) - ranks.get(
            (color, w, n + 1), 0)
        if h:
            out[(color, w, n)] = h
    return out


def _words_over(basis, q):
    if q == 0:
        return [()]
    prev = _words_over(basis, q - 1)
    return [w + (a,) for w in prev for a in basis]


# ---------------------------------------------------------------------------
# Strong homotopy structures: [D, D] = 0 versus the unshuffle relations


class HomotopyAlgebraData:
    """Structure tensors l_n and n_{p,q} on a graded pair.

    l_tensors[n]: dict sorted-L-tuple -> dict L-index -> coeff, degree n-2.
    n_tensors[(p, q)]: dict (sorted-L-tuple, A-tuple) -> dict A-index -> coeff,
    degree p+q-2.  Keys are canonical: the closed tuple ascending, repeats
    allowed exactly for odd-degree symbols (the suspended symbols are then
    even).  q = 0 tensors are the open-closed extension.
    """

    def __init__(self, pair, l_tensors, n_tensors):
        self.pair = pair
        self.cdeg = [d for _, d in pair.closed]
        self.odeg = [d for _, d in pair.open]
        self.sl = [d + 1 for d in self.cdeg]
        self.sa = [d + 1 for d in self.odeg]
        self.l_tensors = {int(n): dict(t) for n, t in l_tensors.items()}
        self.n_tensors = {(int(p), int(q)): dict(t)
                          for (p, q), t in n_tensors.items()}
        self._check_degrees()

    def _check_degrees(self):
        for n, table in self.l_tensors.items():
            for key, img in table.items():
                if len(key) != n:
                    raise ValueError(f"l_{n} key of wrong arity: {key}")
                din = sum(self.cdeg[i] for i in key)
                for idx, c in img.items():
                    if c and self.cdeg[idx] != din + n - 2:
                        raise ValueError(
                            f"l_{n} must have degree {n - 2}: {key} -> {idx}")
        for (p, q), table in self.n_tensors.items():
            for (ck, ok), img in table.items():
                if len(ck) != p or len(ok) != q:
                    raise ValueError(f"n_{p}{q} key of wrong arity")
                din = sum(self.cdeg[i] for i in ck) + sum(
                    self.odeg[i] for i in ok)
                for idx, c in img.items():
                    if c and self.odeg[idx] != din + p + q - 2:
                        raise ValueError(
                            f"n_{p},{q} must have degree {p + q - 2}")

    # -- evaluation with graded antisymmetry on the closed block ----------

    def eval_l(self, tup):
        """l(|tup|)(tup) for an arbitrary L-index tuple."""
        sign, key = _sort_wedge(tup, self.cdeg)
        if sign == 0:
            return {}
        table = self.l_tensors.get(len(tup), {})
        return _scale(table.get(key, {}), sign)

    def eval_n(self, ctup, otup):
        sign, key = _sort_wedge(ctup, self.cdeg)
        if sign == 0:
            return {}
        table = self.n_tensors.get((len(ctup), len(otup)), {})
        return _scale(table.get((key, tuple(otup)), {}), sign)


def _sort_wedge(tup, degrees):
    """Sort a wedge tuple; sgn times Koszul sign, zero on even repeats.

    An adjacent swap of symbols v, w contributes -(-1)^(|v||w|).
    """
    items = list(tup)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                both_odd = (degrees[items[j]] & 1) and (degrees[items[j + 1]] & 1)
                sign *= 1 if both_odd else -1
                items[j], items[j + 1] = items[j + 1], items[j]
    for a, b in zip(items, items[1:]):
        if a == b and not (degrees[a] & 1):
            return 0, None
    return sign, tuple(items)


def _decalage(seq, sdeg):
    """Sign of desuspending each factor of a suspended word in place."""
    sign = 1
    before = 0
    for x in seq:
        if before & 1:
            sign = -sign
        before += sdeg[x]
    return sign


def suspended_corestrictions(data):
    """(psi, phi) on the suspended pair from the structure tensors.

    psi: multiset (of sL indices) -> L-vector; phi likewise to A.  The
    suspension converts the exterior evaluation into a symmetric one; the
    decalage sign moves the desuspensions into place.
    """
    psi = {}
    for n in data.l_tensors:
        for m in _graded_multisets(data.sl, n):
            val = _scale(data.eval_l(m), _decalage(m, data.sl))
            if _clean(val):
                psi[m] = val
    phi = {}
    for (p, q) in data.n_tensors:
        for m in _graded_multisets(data.sl, p):
            for w in _tensor_words(len(data.sa), q):
                seq_sign = _decalage_mixed(m, w, data.sl, data.sa)
                val = _scale(data.eval_n(m, w), seq_sign)
                if _clean(val):
                    phi[(m, w)] = val
    return psi, phi


def _decalage_mixed(m, w, sl, sa):
    sign = 1
    before = 0
    for x in m:
        if before & 1:
            sign = -sign
        before += sl[x]
    for x in w:
        if before & 1:
            sign = -sign
        before += sa[x]
    return sign


class SHReport:
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
    """Square-zero check of D = D_L + D_A against the unshuffle relations.

    mode "SHLP" rejects q = 0 tensors; "OCHA" admits them.  Componentwise
    [D, D] = 0 splits as [D_L, D_L] = 0 on the symmetric factor and
    2 rho(D_L) D_A + [D_A, D_A] = 0 on the mixed factor; the corestrictions
    of both are compared against directly evaluated relation instances.
    """
    if mode not in ("SHLP", "OCHA"):
        raise ValueError("mode must be SHLP or OCHA")
    if mode == "SHLP":
        for (p, q) in data.n_tensors:
            if q == 0 and _clean_table(data.n_tensors[(p, q)]):
                raise ValueError("q = 0 tensors need OCHA mode")
    cofree = CofreePair(GradedPair(
        [(n, d + 1) for (n, _), d in zip(data.pair.closed, data.cdeg)],
        [(n, d + 1) for (n, _), d in zip(data.pair.open, data.odeg)]),
        arity_bound, arity_bound)
    psi, phi = suspended_corestrictions(data)
    d_l = lift_psi(cofree, psi, -1)
    d_a = lift_phi(cofree, None, phi, -1)

    report = SHReport()
    # closed component: D_L o D_L on every basis multiset
    for m in cofree.closed_basis:
        total = {}
        for mm, c in d_l(m).items():
            total = _add(total, _scale(d_l(mm), c))
        core = _corestrict_closed(total)
        direct = _diff1_instance(data, psi, m)
        if _clean(_sub(core, direct)):
            report.discrepancies.append(("closed", m))
        if _clean(total):
            report.violations.append(("closed", m, _clean(total)))
    # mixed component: rho(D_L)D_A + D_A o D_A, with rho(D_L)D_A the lift of
    # g_{D_A} o (D_L (x) 1) -- an even (degree -2) corestriction
    g_rho = {}
    for m, w in cofree.mixed_basis:
        val = {}
        for mm, c in d_l(m).items():
            got = phi.get((mm, w))
            if got:
                val = _add(val, _scale(got, c))
        if _clean(val):
            g_rho[(m, w)] = _clean(val)
    rho_da = lift_phi(cofree, None, g_rho, -2)
    for m, w in cofree.mixed_basis:
        if len(m) + len(w) > arity_bound:
            continue
        total = {}
        for (mm, ww), c in d_a(m, w).items():
            total = _add(total, _scale(d_a(mm, ww), c))
        total = _add(total, rho_da(m, w))
        core = _corestrict_mixed(total)
        direct = _diff2_instance(data, psi, phi, cofree, m, w)
        if _clean(_sub(core, direct)):
            report.discrepancies.append(("mixed", m, w))
        if _clean(total):
            report.violations.append(("mixed", m, w, _clean(total)))
    return report


def _clean_table(t):
    return {k: v for k, v in t.items() if _clean(v)}


def _corestrict_closed(vec):
    out = {}
    for m, c in vec.items():
        if len(m) == 1:
            out[m[0]] = out.get(m[0], Fraction(0)) + c
    return _clean(out)


def _corestrict_mixed(vec):
    out = {}
    for (m, w), c in vec.items():
        if not m and len(w) == 1:
            out[w[0]] = out.get(w[0], Fraction(0)) + c
    return _clean(out)


def _diff1_instance(data, psi, m):
    """Corestriction of D_L^2 on a multiset, evaluated by direct loops."""
    out = {}
    for sign, a, b in unshuffle_splits(m, data.sl):
        if not a:
            continue
        inner = psi.get(a)
        if not inner:
            continue
        for idx, c in inner.items():
            s2, merged = merge_sign((idx,), b, data.sl)
            if s2 == 0 or merged is None:
                continue
            outer = psi.get(merged)
            if not outer:
                continue
            out = _add(out, _scale(outer, sign * c * s2))
    return _clean(out)


def _diff2_instance(data, psi, phi, cofree, m, w):
    """Corestriction of rho(D_L)D_A + D_A^2 on a mixed basis element."""
    sl, sa = data.sl, data.sa
    out = {}
    # rho part: psi eats a closed block, phi the rest
    for sign, a, b in unshuffle_splits(m, sl):
        if not a:
            continue
        inner = psi.get(a)
        if not inner:
            continue
        for idx, c in inner.items():
            s2, merged = merge_sign((idx,), b, sl)
            if s2 == 0 or merged is None:
                continue
            val = phi.get((merged, w))
            if val:
                out = _add(out, _scale(val, sign * c * s2))
    # associative part: phi on an inner window, then phi on the result
    q = len(w)
    for k in range(len(m) + 1):
        for picks in combinations(range(len(m)), k):
            b_syms = tuple(m[i] for i in picks)
            a_syms = tuple(m[i] for i in range(len(m))
                           if i not in set(picks))
            s_back = split_sign_back(m, picks, sl)
            bdeg = sum(sl[i] for i in b_syms)
            for i in range(0, q + 1):
                for j in range(i, q + 1):
                    inner = phi.get((b_syms, w[i:j]))
                    if not inner:
                        continue
                    prefix_deg = sum(sa[x] for x in w[:i])
                    sign = s_back
                    if (bdeg & 1) and (prefix_deg & 1):
                        sign = -sign
                    adeg = sum(sl[x] for x in a_syms)
                    if (adeg + prefix_deg) & 1:
                        sign = -sign  # the odd operator crosses the prefix
                    for idx, c in inner.items():
                        val = phi.get((a_syms, w[:i] + (idx,) + w[j:]))
                        if val:
                            out = _add(out, _scale(val, sign * c))
    return _clean(out)


def strict_pair_tensors(data_pair, bracket, mult, action):
    """Promote a strict degree-0 Leibniz pair to homotopy tensors.

    bracket/mult/action are dense tables on index pairs.
    """
    nc = len(data_pair.closed)
    no = len(data_pair.open)
    l2 = {}
    for i in range(nc):
        for j in range(i + 1, nc):
            val = bracket.get((i, j), {})
            if _clean(val):
                l2[(i, j)] = dict(val)
    n02 = {}
    for i in range(no):
        for j in range(no):
            val = mult.get((i, j), {})
            if _clean(val):
                n02[((), (i, j))] = dict(val)
    n11 = {}
    for i in range(nc):
        for j in range(no):
            val = action.get((i, j), {})
            if _clean(val):
                n11[((i,), (j,))] = dict(val)
    return HomotopyAlgebraData(data_pair, {2: l2},
                               {(0, 2): n02, (1, 1): n11})


# ---------------------------------------------------------------------------
# Tensor files


class TensorFileError(ValueError):
    pass


def parse_tensor_file(text):
    """Parse the structure-tensor text format into HomotopyAlgebraData.

    Grammar (one declaration per line, # comments):
        closed <name> <degree>
        open <name> <degree>
        l <n>: <name>,...,<name> -> <coeff>*<name> [+-] ...
        n <p> <q>: <names> | <names> -> <combo>
    Coefficients are integers or rationals p/q; a bare name means 1*name.
    """
    closed, open_ = [], []
    l_lines, n_lines = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, _, rest = line.partition(" ")
            if head == "closed":
                name, deg = rest.split()
                closed.append((name, int(deg)))
            elif head == "open":
                name, deg = rest.split()
                open_.append((name, int(deg)))
            elif head == "l":
                spec, _, value = rest.partition("->")
                arity_s, _, args = spec.partition(":")
                l_lines.append((int(arity_s), args.strip(), value.strip()))
            elif head == "n":
                spec, _, value = rest.partition("->")
                pq, _, args = spec.partition(":")
                p, q = pq.split()
                n_lines.append((int(p), int(q), args.strip(), value.strip()))
            else:
                raise TensorFileError(f"line {lineno}: unknown declaration {head!r}")
        except TensorFileError:
            raise
        except Exception as exc:
            raise TensorFileError(f"line {lineno}: {exc}") from exc
    if not (closed or open_ or l_lines or n_lines):
        raise TensorFileError("empty tensor file: no declaration")
    pair = GradedPair(closed, open_)
    cindex = {n: i for i, (n, _) in enumerate(pair.closed)}
    oindex = {n: i for i, (n, _) in enumerate(pair.open)}

    def parse_combo(s, index):
        out = {}
        for term in s.replace("-", "+-").split("+"):
            term = term.strip()
            if not term:
                continue
            if "*" in term:
                coeff_s, name = term.split("*")
                coeff = Fraction(coeff_s.strip())
            elif term.startswith("-"):
                coeff, name = Fraction(-1), term[1:]
            else:
                coeff, name = Fraction(1), term
            name = name.strip()
            if name not in index:
                raise TensorFileError(f"unknown symbol {name!r}")
            out[index[name]] = out.get(index[name], Fraction(0)) + coeff
        return _clean(out)

    def lookup(index, name, kind):
        name = name.strip()
        if name not in index:
            raise TensorFileError(f"unknown {kind} symbol {name!r}")
        return index[name]

    l_tensors = {}
    for n, args, value in l_lines:
        key = tuple(lookup(cindex, a, "closed")
                    for a in args.split(",") if a.strip())
        if len(key) != n:
            raise TensorFileError(f"l {n}: expected {n} arguments")
        sign, skey = _sort_wedge(key, [d for _, d in pair.closed])
        if sign == 0:
            raise TensorFileError(f"l {n}: degenerate wedge key {args}")
        combo = _scale(parse_combo(value, cindex), sign)
        table = l_tensors.setdefault(n, {})
        table[skey] = _add(table.get(skey, {}), combo)
    n_tensors = {}
    for p, q, args, value in n_lines:
        cpart, _, opart = args.partition("|")
        ckey = tuple(lookup(cindex, a, "closed")
                     for a in cpart.split(",") if a.strip())
        okey = tuple(lookup(oindex, a, "open")
                     for a in opart.split(",") if a.strip())
        if len(ckey) != p or len(okey) != q:
            raise TensorFileError(f"n {p} {q}: wrong argument counts")
        sign, skey = _sort_wedge(ckey, [d for _, d in pair.closed])
        if sign == 0:
            raise TensorFileError(f"n {p} {q}: degenerate wedge key")
        combo = _scale(parse_combo(value, oindex), sign)
        table = n_tensors.setdefault((p, q), {})
        table[(skey, okey)] = _add(table.get((skey, okey), {}), combo)
    return HomotopyAlgebraData(pair, l_tensors, n_tensors)
