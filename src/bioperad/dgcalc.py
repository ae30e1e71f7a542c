"""Differentials on truncated operads, d^2 checks, homology, GK series.

A derivation is determined by a generator map sending each vertex-space
basis element to an Element one degree lower with the same signature.  On a
tree it acts by the graded Leibniz rule over the depth-first word: the term
replacing vertex v carries the sign (-1)^(degree of the word before v).

Free truncations take chain bases straight from tree enumeration; quotient
truncations use coset representatives, with a separate check that the
derivative of the ideal stays in the ideal.
"""

from fractions import Fraction
from math import factorial

from .linalg import Echelon
from .presentation import signatures_within
from .trees import (Element, Leaf, component_basis, make_node,
                    substitute_element, tree_degree)


class Derivation:
    """Degree -1 derivation of a free operad, extended from a generator map."""

    def __init__(self, collection, genmap):
        self.collection = collection
        self.genmap = genmap
        self._tree_cache = {}

    def apply_tree(self, t):
        hit = self._tree_cache.get(t)
        if hit is not None:
            return hit
        if isinstance(t, Leaf):
            out = Element.zero()
        else:
            sig_ = t.space.signature
            closed_subs = list(t.children[:sig_.n_closed])
            open_subs = list(t.children[sig_.n_closed:])
            image = self.genmap(t.space, t.dec)
            acc = dict(substitute_element(image, closed_subs,
                                          open_subs).terms)
            prefix = t.space.degrees[t.dec]
            for i, child in enumerate(t.children):
                dchild = self.apply_tree(child) if not isinstance(child, Leaf) \
                    else Element.zero()
                if not dchild.is_zero():
                    sign = -1 if prefix & 1 else 1
                    for u, c in dchild.terms.items():
                        kids = list(t.children)
                        kids[i] = u
                        for v, c2 in make_node(t.space, t.dec, kids).terms.items():
                            nv = acc.get(v, 0) + c * c2 * sign
                            if nv:
                                acc[v] = nv
                            else:
                                acc.pop(v, None)
                prefix += tree_degree(child)
            out = Element()
            out.terms = acc
        self._tree_cache[t] = out
        return out

    def apply(self, elem):
        acc = {}
        for t, c in elem.terms.items():
            for u, c2 in self.apply_tree(t).terms.items():
                nv = acc.get(u, 0) + c * c2
                if nv:
                    acc[u] = nv
                else:
                    acc.pop(u, None)
        out = Element()
        out.terms = acc
        return out


def extend_derivation(collection, genmap):
    """Check the genmap contract and wrap it as a Derivation."""
    for space in collection:
        for dec in range(space.dim):
            img = genmap(space, dec)
            if img.is_zero():
                continue
            if img.signature() != space.signature:
                raise ValueError(f"genmap changes the signature of {space.name}")
            if img.degree() != space.degrees[dec] - 1:
                raise ValueError(f"genmap must lower degree by 1 on {space.name}")
    return Derivation(collection, genmap)


class DgTruncation:
    """A free or quotient operad truncation with a differential.

    For quotient truncations the derivative of a class is the reduced
    derivative of its representative; ``ideal_respected`` certifies that this
    is well defined.
    """

    def __init__(self, collection, derivation, max_inputs, trunc=None,
                 name=""):
        self.collection = collection
        self.derivation = derivation
        self.max_inputs = max_inputs
        self.trunc = trunc
        self.name = name
        self._cells = {}

    def signatures(self):
        return [s for s in signatures_within(self.max_inputs)
                if self.cell_degrees(s)]

    def _sig_basis(self, sig_):
        hit = self._cells.get(sig_)
        if hit is not None:
            return hit
        if self.trunc is None:
            trees = component_basis(self.collection, sig_)
            items = [(tree_degree(t), t) for t in trees]
        else:
            ab = self.trunc.ambient(sig_)
            items = [(ab.degrees[i], ab.trees[i])
                     for i in self.trunc.basis(sig_)]
        by_degree = {}
        for d, t in items:
            by_degree.setdefault(d, []).append(t)
        self._cells[sig_] = by_degree
        return by_degree

    def cell_degrees(self, sig_):
        return sorted(self._sig_basis(sig_))

    def chain_basis(self, sig_, degree):
        return self._sig_basis(sig_).get(degree, [])

    def chain_dim(self, sig_, degree):
        return len(self.chain_basis(sig_, degree))

    def differential_columns(self, sig_, degree):
        """Sparse columns of d: (sig, degree) -> (sig, degree-1)."""
        source = self.chain_basis(sig_, degree)
        target = self.chain_basis(sig_, degree - 1)
        index = {t: i for i, t in enumerate(target)}
        cols = []
        for t in source:
            image = self.derivation.apply_tree(t)
            if self.trunc is not None:
                image = self.trunc.reduce_to_element(image)
            col = {}
            for u, c in image.terms.items():
                i = index.get(u)
                if i is None:
                    raise ValueError(
                        f"differential leaves the chain basis at {sig_}")
                col[i] = c
            cols.append(col)
        return cols

    def ideal_respected(self):
        """For quotient truncations: d maps the ideal span into itself."""
        if self.trunc is None:
            return []
        bad = []
        for sig_ in signatures_within(self.max_inputs):
            ab = self.trunc.ambient(sig_)
            if ab.dim == 0:
                continue
            ech = self.trunc.spans.span(sig_)
            for p in sorted(ech.rows):
                elem = ab.element(dict(ech.rows[p]))
                image = self.derivation.apply(elem)
                residue = self.trunc.reduce_to_element(image)
                if not residue.is_zero():
                    bad.append((sig_, elem, residue))
        return bad


def verify_d_squared(dg, max_inputs=None):
    """Violations of d^2 = 0 per cell; empty list means the check passed."""
    bound = max_inputs or dg.max_inputs
    violations = []
    for sig_ in signatures_within(bound):
        for degree in dg.cell_degrees(sig_):
            for t in dg.chain_basis(sig_, degree):
                once = dg.derivation.apply_tree(t)
                if dg.trunc is not None:
                    once = dg.trunc.reduce_to_element(once)
                twice = dg.derivation.apply(once)
                if dg.trunc is not None:
                    twice = dg.trunc.reduce_to_element(twice)
                if not twice.is_zero():
                    violations.append(
                        {"signature": str(sig_), "degree": degree,
                         "basis": t, "residual": twice})
    return violations


def homology_dims(dg, max_inputs=None, check=True):
    """dict (signature, degree) -> dim H, exact over Q.

    Betti numbers per cell: dim C_d - rank d_d - rank d_(d+1).
    """
    bound = max_inputs or dg.max_inputs
    if check:
        bad = verify_d_squared(dg, bound)
        if bad:
            raise ValueError(f"d^2 != 0: {bad[:3]}")
    out = {}
    for sig_ in signatures_within(bound):
        degrees = dg.cell_degrees(sig_)
        if not degrees:
            continue
        ranks = {}
        for d in degrees:
            ech = Echelon()
            for col in dg.differential_columns(sig_, d):
                ech.add(col)
            ranks[d] = ech.rank
        for d in degrees:
            h = (dg.chain_dim(sig_, d) - ranks.get(d, 0)
                 - ranks.get(d + 1, 0))
            if h:
                out[(sig_, d)] = h
    return out


# ---------------------------------------------------------------------------
# Generating series and the Ginzburg-Kapranov functional equation


def series_from_dims(dims, order):
    """[g_1..g_order] with g_n = dim(n)/n! from a dict n -> dim."""
    return [Fraction(dims.get(n, 0), factorial(n)) for n in range(1, order + 1)]


def compose_series(outer, inner):
    """Composition f(g(t)) of truncated series without constant terms.

    Series are lists of coefficients for t^1..t^order.
    """
    order = len(outer)
    assert len(inner) == order
    result = [Fraction(0)] * order
    power_list = inner[:]
    for k in range(1, order + 1):
        coeff = outer[k - 1]
        if coeff:
            for n in range(order):
                result[n] += coeff * power_list[n]
        if k < order:
            nxt = [Fraction(0)] * order
            for i, a in enumerate(power_list):
                if a == 0:
                    continue
                for j, b in enumerate(inner):
                    if i + j + 2 <= order:
                        nxt[i + j + 1] += a * b
            power_list = nxt
    return result


def negate_argument(series):
    return [(-1) ** ((n + 1) & 1) * c for n, c in enumerate(series)]


def hilbert_series_gk_check(dims_p, dims_dual, order):
    """g_P(-g_P!(-t)) = t through the given order; returns a report dict.

    dims are dicts n -> dim of the single-color components.
    """
    gp = series_from_dims(dims_p, order)
    gd = series_from_dims(dims_dual, order)
    candidate = [-c for c in negate_argument(gd)]
    composed = compose_series(gp, candidate)
    expected = [Fraction(1)] + [Fraction(0)] * (order - 1)
    ok = composed == expected
    return {"ok": ok, "g_p": gp, "g_dual": gd, "composed": composed,
            "order": order}
