"""Operad presentations, bounded ideal spans, and quotient truncations.

A presentation is a generating collection plus relation elements.  Purely
quadratic relations live in weight 2; quadratic-linear ones mix weights 1
and 2.  The operad ideal is saturated level by level: every ideal element is
a global relabeling of an iterated graft of decorated corollas onto a
relation translate, so it suffices to grow by single corolla grafts and take
symmetric orbits per target signature.  Saturation is exact at a weight
bound because grafting preserves the weight grading.
"""

from fractions import Fraction
from itertools import permutations

from .linalg import Echelon, Subspace
from .trees import (CLOSED, OPEN, Element, component_basis, corolla_element,
                    graft, symmetric_act, tree_degree, tree_signature,
                    tree_weight, Signature)


class Presentation:
    def __init__(self, collection, relations, name=""):
        self.collection = collection
        self.relations = tuple(r for r in relations if not r.is_zero())
        self.name = name
        for r in self.relations:
            sig_ = r.signature()  # also checks label consistency
            for t in r.terms:
                _check_spaces(collection, t)
                if tree_signature(t) != sig_:
                    raise ValueError("relation mixes signatures")
            ws = r.weights()
            if any(w < 1 for w in ws):
                raise ValueError("relation with weight < 1")

    def __repr__(self):
        return f"Presentation({self.name or 'anonymous'}, {len(self.relations)} relations)"

    def is_quadratic(self):
        return all(r.weights() == [2] for r in self.relations)

    def is_quadratic_linear(self):
        return all(set(r.weights()) <= {1, 2} for r in self.relations)


def _check_spaces(collection, t):
    from .trees import Leaf
    if isinstance(t, Leaf):
        return
    if t.space.name not in collection or collection[t.space.name] is not t.space:
        raise ValueError(f"tree uses space {t.space.name} outside the collection")
    for c in t.children:
        _check_spaces(collection, c)


def signatures_within(max_inputs):
    """All signatures with 1..max_inputs total inputs, both output colors.

    Positive-weight components only: identity operations are implicit under
    the reduced-operad convention and never appear in tree bases.
    """
    out = []
    for total in range(1, max_inputs + 1):
        for n in range(total + 1):
            for color in (CLOSED, OPEN):
                out.append(Signature(n, total - n, color))
    return out


class AmbientBasis:
    """Ordered basis of the full free-operad component at one signature."""

    def __init__(self, collection, signature, weight_cap=None):
        self.signature = signature
        self.trees = component_basis(collection, signature, weight_cap)
        self.index = {t: i for i, t in enumerate(self.trees)}
        self.weights = [tree_weight(t) for t in self.trees]
        self.degrees = [tree_degree(t) for t in self.trees]

    @property
    def dim(self):
        return len(self.trees)

    def vector(self, elem):
        out = {}
        for t, c in elem.terms.items():
            i = self.index.get(t)
            if i is None:
                raise KeyError(f"tree outside ambient basis: {t!r}")
            out[i] = c
        return out

    def element(self, vec):
        return Element({self.trees[i]: c for i, c in vec.items()})


_ambient_cache = {}


def ambient_basis(collection, signature, weight_cap=None):
    key = (tuple(map(id, collection.spaces)), signature, weight_cap)
    hit = _ambient_cache.get(key)
    if hit is None:
        hit = AmbientBasis(collection, signature, weight_cap)
        _ambient_cache[key] = hit
    return hit


def group_elements(signature):
    return [(pc, po)
            for pc in permutations(range(1, signature.n_closed + 1))
            for po in permutations(range(1, signature.n_open + 1))]


def orbit(elem):
    sig_ = elem.signature()
    return [symmetric_act(g, elem) for g in group_elements(sig_)]


def _slots(signature):
    return ([(CLOSED, i) for i in range(1, signature.n_closed + 1)]
            + [(OPEN, i) for i in range(1, signature.n_open + 1)])


def _grow_once(collection, elem, max_inputs):
    """All single corolla grafts onto elem (identity-labeled corollas)."""
    out = []
    sig_ = elem.signature()
    # outer: corolla above or beside the element
    for space in collection:
        ssig = space.signature
        if sig_.total + ssig.total - 1 > max_inputs:
            continue
        for dec in range(space.dim):
            cor = corolla_element(space, dec)
            for color, i in _slots(ssig):
                if color == sig_.out:
                    out.append(graft(cor, color, i, elem))
    # inner: corolla below one of the element's slots
    for color, i in _slots(sig_):
        for space in collection:
            ssig = space.signature
            if ssig.out != color:
                continue
            if sig_.total + ssig.total - 1 > max_inputs:
                continue
            for dec in range(space.dim):
                out.append(graft(elem, color, i, corolla_element(space, dec)))
    return out


class IdealSpans:
    """Per-signature echelon spans of the ideal generated by the relations."""

    def __init__(self, presentation, max_inputs):
        self.presentation = presentation
        self.max_inputs = max_inputs
        self.ambients = {}
        self.raw = {}       # sig -> Echelon over untranslated saturation set
        self.full = {}      # sig -> Echelon including symmetric orbits
        self._saturate()

    def _ambient(self, sig_):
        hit = self.ambients.get(sig_)
        if hit is None:
            hit = ambient_basis(self.presentation.collection, sig_)
            self.ambients[sig_] = hit
        return hit

    def _saturate(self):
        P = self.presentation
        frontier = []
        for r in P.relations:
            for e in orbit(r):
                if self._insert_raw(e):
                    frontier.append(e)
        while frontier:
            new_frontier = []
            for e in frontier:
                for grown in _grow_once(P.collection, e, self.max_inputs):
                    if grown.is_zero():
                        continue
                    if self._insert_raw(grown):
                        new_frontier.append(grown)
            frontier = new_frontier
        for sig_, ech in self.raw.items():
            full = Echelon()
            ab = self._ambient(sig_)
            for p in sorted(ech.rows):
                elem = ab.element({c: Fraction(x) for c, x in ech.rows[p].items()})
                for g in group_elements(sig_):
                    full.add(ab.vector(symmetric_act(g, elem)))
            full.finalize()
            self.full[sig_] = full

    def _insert_raw(self, elem):
        sig_ = elem.signature()
        ab = self._ambient(sig_)
        ech = self.raw.setdefault(sig_, Echelon())
        return ech.add(ab.vector(elem))

    def span(self, sig_):
        ech = self.full.get(sig_)
        if ech is None:
            ech = Echelon()
            ech.finalize()
            self.full[sig_] = ech
        return ech


_spans_cache = {}


def ideal_spans(presentation, max_inputs):
    key = (id(presentation), max_inputs)
    hit = _spans_cache.get(key)
    if hit is None:
        # reuse a larger saturation when available
        for (pid, mi), spans in _spans_cache.items():
            if pid == id(presentation) and mi >= max_inputs:
                return spans
        hit = IdealSpans(presentation, max_inputs)
        _spans_cache[key] = hit
    return hit


def relation_span(presentation, signature, weight):
    """Subspace of the weight-w slice of F(E)(sig) cut out by the ideal.

    For weight-homogeneous (quadratic) presentations this is the ideal
    component; rows mixing weights are rejected.
    """
    spans = ideal_spans(presentation, signature.total)
    ab = ambient_basis(presentation.collection, signature)
    ech = spans.span(signature)
    rows = []
    for p in sorted(ech.rows):
        row = ech.rows[p]
        ws = {ab.weights[c] for c in row}
        if ws == {weight}:
            rows.append(row)
        elif weight in ws:
            raise ValueError(
                "relation span at a single weight is ill-defined for "
                "mixed-weight ideals; use component spans")
    cols = [i for i, w in enumerate(ab.weights) if w == weight]
    colmap = {c: j for j, c in enumerate(cols)}
    dense = []
    for row in rows:
        v = [Fraction(0)] * len(cols)
        for c, x in row.items():
            v[colmap[c]] = x
        dense.append(v)
    return Subspace.from_vectors(len(cols), dense)


def quotient_dims(presentation, max_inputs):
    """dict (signature, degree) -> dimension of the quotient operad."""
    spans = ideal_spans(presentation, max_inputs)
    out = {}
    for sig_ in signatures_within(max_inputs):
        ab = ambient_basis(presentation.collection, sig_)
        if ab.dim == 0:
            continue
        ech = spans.span(sig_)
        pivots = ech.pivots
        for i, t in enumerate(ab.trees):
            if i in pivots:
                continue
            key = (sig_, ab.degrees[i])
            out[key] = out.get(key, 0) + 1
    return out


class Truncation:
    """A quotient operad truncated to signatures with <= max_inputs inputs.

    Per signature: ambient tree basis, finalized ideal echelon, and the coset
    basis given by non-pivot ambient trees.  Elements reduce to canonical
    residues; composition grafts representatives and reduces.
    """

    def __init__(self, presentation, max_inputs):
        self.presentation = presentation
        self.collection = presentation.collection
        self.max_inputs = max_inputs
        self.spans = ideal_spans(presentation, max_inputs)
        self._basis = {}

    def ambient(self, sig_):
        return ambient_basis(self.collection, sig_)

    def basis(self, sig_):
        """List of ambient basis indices representing quotient classes."""
        hit = self._basis.get(sig_)
        if hit is None:
            ab = self.ambient(sig_)
            pivots = self.spans.span(sig_).pivots
            hit = [i for i in range(ab.dim) if i not in pivots]
            self._basis[sig_] = hit
        return hit

    def dim(self, sig_):
        return len(self.basis(sig_))

    def dims_by_degree(self, sig_):
        ab = self.ambient(sig_)
        out = {}
        for i in self.basis(sig_):
            d = ab.degrees[i]
            out[d] = out.get(d, 0) + 1
        return out

    def reduce(self, elem):
        """Class of an Element as dict (quotient position -> coeff)."""
        if elem.is_zero():
            return {}
        sig_ = elem.signature()
        ab = self.ambient(sig_)
        ech = self.spans.span(sig_)
        residue = ech.reduce(ab.vector(elem))
        positions = {amb: q for q, amb in enumerate(self.basis(sig_))}
        return {positions[c]: x for c, x in residue.items()}

    def reduce_to_element(self, elem):
        if elem.is_zero():
            return Element.zero()
        sig_ = elem.signature()
        ab = self.ambient(sig_)
        ech = self.spans.span(sig_)
        return ab.element(ech.reduce(ab.vector(elem)))

    def class_of(self, sig_, q):
        """Representative Element of the q-th quotient basis class."""
        ab = self.ambient(sig_)
        return Element({ab.trees[self.basis(sig_)[q]]: Fraction(1)})

    def compose(self, sig1, q1, color, index, sig2, q2):
        """Compose quotient classes; returns dict position -> coeff."""
        e = graft(self.class_of(sig1, q1), color, index, self.class_of(sig2, q2))
        return self.reduce(e)

    def act(self, pair, sig_, q):
        return self.reduce(symmetric_act(pair, self.class_of(sig_, q)))


_trunc_cache = {}


def truncation(presentation, max_inputs):
    key = (id(presentation), max_inputs)
    hit = _trunc_cache.get(key)
    if hit is None:
        hit = Truncation(presentation, max_inputs)
        _trunc_cache[key] = hit
    return hit


# ---------------------------------------------------------------------------
# Quadratic-linear conditions


def check_ql_conditions(presentation):
    """(ql1) R cap F^(1) = 0 and (ql2) one-step grafts meet F^(2) inside R.

    Returns {"ql1": bool, "ql2": bool, "witnesses": [...]}.
    """
    P = presentation
    if not P.is_quadratic_linear():
        raise ValueError("relations must live in weights 1 and 2")
    report = {"ql1": True, "ql2": True, "witnesses": []}

    # the S-module R: translates of the relations, per signature
    rspan = {}
    for r in P.relations:
        sig_ = r.signature()
        ab = ambient_basis(P.collection, sig_)
        ech = rspan.setdefault(sig_, Echelon())
        for e in orbit(r):
            ech.add(ab.vector(e))

    # (ql1): no nonzero pure weight-1 combination inside R
    for sig_, ech in rspan.items():
        ab = ambient_basis(P.collection, sig_)
        w1_cols = {i for i, w in enumerate(ab.weights) if w == 1}
        if not w1_cols:
            continue
        # dim(R cap W1) = dim R + |W1| - dim(R + W1)
        joint = Echelon()
        for p in sorted(ech.rows):
            joint.add(dict(ech.rows[p]))
        for c in sorted(w1_cols):
            joint.add({c: 1})
        meet = ech.rank + len(w1_cols) - joint.rank
        if meet:
            report["ql1"] = False
            report["witnesses"].append(
                {"condition": "ql1", "signature": str(sig_), "dim": meet})

    # (ql2): one-step grafts of R, restricted to pure weight-2 vectors,
    # must land in the weight-2 part of R's own translates
    max_arity = max(s.signature.total for s in P.collection)
    grown = {}
    for r in P.relations:
        for e0 in orbit(r):
            bound = e0.signature().total + max_arity - 1
            for g in _grow_once(P.collection, e0, max(bound, 1)):
                if g.is_zero():
                    continue
                sig_ = g.signature()
                for gg in orbit(g):
                    grown.setdefault(sig_, []).append(gg)
    for sig_, elems in grown.items():
        ab = ambient_basis(P.collection, sig_)
        w2_cols = {i for i, w in enumerate(ab.weights) if w == 2}
        g_ech = Echelon()
        for e in elems:
            g_ech.add(ab.vector(e))
        # intersect span with the weight-2 slice
        g_sub = g_ech.to_subspace(ab.dim)
        w2_sub = Subspace.from_vectors(
            ab.dim, [[1 if j == c else 0 for j in range(ab.dim)]
                     for c in sorted(w2_cols)])
        meet = g_sub.intersect(w2_sub)
        if meet.dim == 0:
            continue
        target = rspan.get(sig_)
        t_ech = Echelon()
        if target is not None:
            for p in sorted(target.rows):
                row = target.rows[p]
                if all(ab.weights[c] == 2 for c in row):
                    t_ech.add(dict(row))
        base_rank = t_ech.rank
        for vec in meet.basis:
            grew = t_ech.add({i: x for i, x in enumerate(vec) if x})
            if grew:
                report["ql2"] = False
                report["witnesses"].append(
                    {"condition": "ql2", "signature": str(sig_),
                     "vector": ab.element({i: x for i, x in enumerate(vec) if x})})
        del base_rank
    return report


def project_q(presentation, name=None):
    """The quadratic presentation qP: weight-2 parts of the relations."""
    rels = []
    for r in presentation.relations:
        q = Element({t: c for t, c in r.terms.items() if tree_weight(t) == 2})
        if not q.is_zero():
            rels.append(q)
    return Presentation(presentation.collection, rels,
                        name or f"q({presentation.name})")
