"""Differentials on truncated operads, d^2 checks, homology, GK series.

A derivation is determined by a generator map sending each vertex-space
basis element to an Element one degree lower with the same signature.  On a
tree it acts by the graded Leibniz rule over the depth-first word: the term
replacing vertex v carries the sign (-1)^(degree of the word before v).

Free truncations take chain bases straight from tree enumeration; quotient
truncations use coset representatives, and their d^2 verdict also holds
each relation whose derivative leaves the ideal.
"""

from fractions import Fraction
from itertools import product
from math import factorial

from .linalg import betti
from .presentation import adjacent_transpositions, signatures_within
from .trees import (CLOSED, IDENTITY_SIGS, OPEN, Element, Leaf, Node,
                    accumulate, component_basis, corolla_element,
                    substitute_element, symmetric_act, tree_degree)


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
            space, dec, children = t.space, t.dec, t.children
            acc = substitute_element(self.images[space][dec],
                                     children).terms
            nodes, prefix = space.nodes, space.degrees[dec]
            for i, child in enumerate(children):
                if isinstance(child, Leaf):
                    continue  # degree 0, derivative 0
                dchild = self.apply_tree(child).terms
                if dchild:
                    # the Leibniz term: child i replaced by its derivative,
                    # which has its leaves, so the children stay canonical
                    head, tail = children[:i], children[i + 1:]
                    terms = []
                    for u, c in dchild.items():
                        kids = (*head, u, *tail)
                        terms.append((nodes.get((dec, kids))
                                      or Node(space, dec, kids), c))
                    accumulate(acc, terms, -1 if prefix & 1 else 1)
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
    derivation keeps them as a tuple per space.  For quotient truncations
    the derivative of a class is the reduced derivative of its
    representative, and the images must commute with the symmetric action
    modulo the ideal.  Images and chain bases are fixed from here on, so
    the dg keeps the verdict of ``verify_d_squared`` once it is computed.
    """

    def __init__(self, collection, genmap, max_inputs, trunc=None):
        if max_inputs < 1:
            raise ValueError(
                f"max_inputs must be at least 1, not {max_inputs}")
        images = {}
        for space in collection:
            images[space] = tuple(genmap(space))
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
        self._cells = {}
        self._d_squared = None  # the violations, once verify_d_squared ran
        # verify_d_squared's relation check rests on this equivariance
        for space, imgs in images.items() if trunc is not None else ():
            if space.signature.total > max_inputs:
                continue
            for dec, g in product(range(space.dim),
                                  adjacent_transpositions(space.signature)):
                moved = symmetric_act(g, corolla_element(space, dec))
                if self.differential(moved) != trunc.reduce_to_element(
                        symmetric_act(g, imgs[dec])):
                    raise ValueError(f"genmap does not commute with the "
                                     f"symmetric action on {space.name}")

    def signatures(self):
        return [s for s in signatures_within(self.max_inputs)
                if self.cell_degrees(s)]

    def _sig_basis(self, sig_):
        hit = self._cells.get(sig_)
        if hit is not None:
            return hit
        if self.trunc is None:
            hit = {}
            for t in component_basis(self.collection, sig_):
                hit.setdefault(tree_degree(t), []).append(t)
        else:
            hit = self.trunc.cells(sig_)
        self._cells[sig_] = hit
        return hit

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

    def image(self, t):
        """d of one chain basis tree, read from the derivation's cache; for
        a quotient, reduced to coset representatives."""
        image = self.derivation.apply_tree(t)
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
            image = self.image(t)
            col = {}
            for u, c in image.terms.items():
                i = index.get(u)
                if i is None:
                    raise ValueError(
                        f"differential leaves the chain basis at {sig_}")
                col[i] = c
            cols.append(col)
        return cols


def verify_d_squared(dg):
    """Violations of d^2 = 0 per cell, then, for a quotient, one entry
    ``{"relation": r, "residual": d(r)}`` per relation within the bound
    whose d(r) is not 0 in the quotient; empty means the check passed.

    d is a derivation commuting with the symmetric action (checked at
    construction), so it maps the ideal, the S_n x S_m closure of the
    grafts of the relations, into itself exactly when each d(r) is 0 there.
    The pass runs once per dg, which keeps its verdict; every call returns
    a fresh copy of it.
    """
    if dg._d_squared is None:
        violations = []
        for sig_ in signatures_within(dg.max_inputs):
            for degree in dg.cell_degrees(sig_):
                for t in dg.chain_basis(sig_, degree):
                    twice = dg.differential(dg.image(t))
                    if not twice.is_zero():
                        violations.append(
                            {"signature": str(sig_), "degree": degree,
                             "basis": t, "residual": twice})
        for r in () if dg.trunc is None else dg.trunc.relations:
            if r.signature().total <= dg.max_inputs:
                residual = dg.differential(r)
                if not residual.is_zero():
                    violations.append({"relation": r, "residual": residual})
        dg._d_squared = violations
    return [dict(v) for v in dg._d_squared]


def homology_dims(dg):
    """dict (signature, degree) -> dim H, exact over Q.

    Betti numbers per cell (``linalg.betti``): dim C_d - rank d_d -
    rank d_(d+1).  Raises ValueError when d^2 != 0 or d leaves the ideal,
    by the verdict of ``verify_d_squared``.
    """
    bad = verify_d_squared(dg)
    if bad:
        raise ValueError(f"d^2 != 0 or d leaves the ideal: {bad[:3]}")
    return betti({(sig_, d): dg.chain_dim(sig_, d)
                  for sig_ in signatures_within(dg.max_inputs)
                  for d in dg.cell_degrees(sig_)}, dg.differential_columns)


# ---------------------------------------------------------------------------
# The Ginzburg-Kapranov functional equation on two-color series


def _series(dims, order):
    """The exponential generating series of a quotient_dims table through
    total order: {color: {(p, q): sum_d (-1)^d dim((p,q;color), d) /
    (p! q!)}}, the coefficient of x_c^p x_o^q, identities included."""
    f = {s.out: {(s.n_closed, s.n_open): Fraction(1)} for s in IDENTITY_SIGS}
    for (s, d), dim in dims.items():
        if s.total <= order:
            pq = (s.n_closed, s.n_open)
            f[s.out][pq] = f[s.out].get(pq, 0) + Fraction(
                -dim if d & 1 else dim,
                factorial(s.n_closed) * factorial(s.n_open))
    return f


def _product(a, b, order):
    """The product of two bivariate series, truncated at total order."""
    out = {}
    for (p, q), x in a.items():
        for (r, s), y in b.items():
            if p + q + r + s <= order:
                out[(p + r, q + s)] = out.get((p + r, q + s), 0) + x * y
    return out


def gk_mismatches(dims, dual_dims, order):
    """Where f_P(-f_P!(-x_c, -x_o)) differs from (x_c, x_o) through total
    order, dims and dual_dims being the quotient_dims tables of P and P!.

    A Koszul pair satisfies the equation (Ginzburg-Kapranov, Duke Math. J.
    76, Thm 3.3.2).  Returns [{"cell": "(p,q;k)", "got": "<fraction>",
    "want": 0 or 1}] in signatures_within order.
    """
    inner = {k: {pq: c if sum(pq) & 1 else -c for pq, c in f.items()}
             for k, f in _series(dual_dims, order).items()}
    powers = {}  # powers[k][n]: the n-th power of inner[k]
    for k, g in inner.items():
        powers[k] = [{(0, 0): Fraction(1)}]
        for _ in range(order):
            powers[k].append(_product(powers[k][-1], g, order))
    composed = {}
    for k, f in _series(dims, order).items():
        composed[k] = {}
        for (p, q), a in f.items():
            term = _product(powers[CLOSED][p], powers[OPEN][q], order)
            accumulate(composed[k], term.items(), a)
    bad = []
    for s in signatures_within(order):
        got = composed[s.out].get((s.n_closed, s.n_open), 0)
        want = int(s in IDENTITY_SIGS)
        if got != want:
            bad.append({"cell": str(s), "got": str(got), "want": want})
    return bad
