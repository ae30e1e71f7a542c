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

from .linalg import betti
from .presentation import signatures_within
from .trees import (Element, Leaf, accumulate, assemble, component_basis,
                    substitute_element, tree_degree, tree_element)


class Derivation:
    """Degree -1 derivation of a free operad, extended from the images of
    its generators: ``images[space][dec]`` is the image of basis element
    dec of a vertex space."""

    def __init__(self, images):
        self.images = images
        self._tree_cache = {}

    def apply_tree(self, t):
        hit = self._tree_cache.get(t)
        if hit is not None:
            return hit
        if isinstance(t, Leaf):
            out = Element()
        else:
            acc = substitute_element(self.images[t.space][t.dec],
                                     t.children).terms
            prefix = t.space.degrees[t.dec]
            for i, child in enumerate(t.children):
                if isinstance(child, Leaf):
                    continue  # degree 0, derivative 0
                dchild = self.apply_tree(child).terms
                if dchild:
                    # the Leibniz term: child i replaced by its derivative
                    parts = [{c: 1} for c in t.children]
                    parts[i] = dchild
                    accumulate(acc, assemble(t.space, t.dec, parts).items(),
                               -1 if prefix & 1 else 1)
                prefix += tree_degree(child)
            out = Element.of(acc)
        self._tree_cache[t] = out
        return out

    def apply(self, elem):
        acc = {}
        for t, c in elem.terms.items():
            accumulate(acc, self.apply_tree(t).terms.items(), c)
        return Element.of(acc)


class DgTruncation:
    """A free or quotient operad truncation with a differential.

    The differential is the derivation extended from ``genmap``: called on
    a vertex space, it returns the list of the space's ``dim`` images, an
    Element of the same signature one degree lower per basis element.  The
    images are computed once, here, where the contract is checked, and the
    derivation keeps them.  For quotient truncations the derivative of a
    class is the reduced derivative of its representative;
    ``ideal_respected`` certifies that this is well defined.
    """

    def __init__(self, collection, genmap, max_inputs, trunc=None, name=""):
        images = {}
        for space in collection:
            images[space] = list(genmap(space))
            if len(images[space]) != space.dim:
                raise ValueError(
                    f"genmap returns {len(images[space])} images for the "
                    f"{space.dim} basis elements of {space.name}")
            for dec, img in enumerate(images[space]):
                if img.is_zero():
                    continue
                if img.signature() != space.signature:
                    raise ValueError(
                        f"genmap changes the signature of {space.name}")
                if img.degree() != space.degrees[dec] - 1:
                    raise ValueError(
                        f"genmap must lower degree by 1 on {space.name}")
        self.collection = collection
        self.derivation = Derivation(images)
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

    def differential(self, elem):
        """d of an Element; for a quotient, reduced to coset
        representatives."""
        image = self.derivation.apply(elem)
        if self.trunc is not None:
            image = self.trunc.reduce_to_element(image)
        return image

    def differential_columns(self, sig_, degree):
        """Sparse columns of d: (sig, degree) -> (sig, degree-1)."""
        source = self.chain_basis(sig_, degree)
        target = self.chain_basis(sig_, degree - 1)
        index = {t: i for i, t in enumerate(target)}
        cols = []
        for t in source:
            image = self.differential(tree_element(t))
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
            ech = self.trunc.span(sig_)
            for p in sorted(ech.rows):
                elem = ab.element(dict(ech.rows[p]))
                residue = self.differential(elem)
                if not residue.is_zero():
                    bad.append((sig_, elem, residue))
        return bad


def verify_d_squared(dg):
    """Violations of d^2 = 0 per cell; empty list means the check passed."""
    violations = []
    for sig_ in signatures_within(dg.max_inputs):
        for degree in dg.cell_degrees(sig_):
            for t in dg.chain_basis(sig_, degree):
                twice = dg.differential(dg.differential(tree_element(t)))
                if not twice.is_zero():
                    violations.append(
                        {"signature": str(sig_), "degree": degree,
                         "basis": t, "residual": twice})
    return violations


def homology_dims(dg):
    """dict (signature, degree) -> dim H, exact over Q.

    Betti numbers per cell (``linalg.betti``): dim C_d - rank d_d -
    rank d_(d+1).  Raises ValueError when d^2 != 0.
    """
    bad = verify_d_squared(dg)
    if bad:
        raise ValueError(f"d^2 != 0: {bad[:3]}")
    return betti({(sig_, d): dg.chain_dim(sig_, d)
                  for sig_ in signatures_within(dg.max_inputs)
                  for d in dg.cell_degrees(sig_)}, dg.differential_columns)


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
    if len(inner) != order:
        raise ValueError("outer and inner series differ in order")
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
