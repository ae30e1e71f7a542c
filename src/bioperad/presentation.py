"""Operad presentations and their quotient truncations.

A presentation is a generating collection plus relation elements.  Purely
quadratic relations live in weight 2; quadratic-linear ones mix weights 1
and 2.  The operad ideal is the smallest family of subspaces, one per
signature, that contains the relations and is closed under single corolla
grafts and under S_n x S_m.

Each span is closed under the symmetric group by spinning (R. A. Parker,
*The computer calculation of modular characters*, 1984): a vector that
raises the rank has its images under the adjacent transpositions pushed in
turn, and a span closed under a generating set is closed under the group.
Spinning works on index vectors: every ambient basis holds, per adjacent
transposition, the signed permutation it induces on the basis trees, so an
image is a dict remap.  A table is built by relabelling only the vertices
on the paths to the two moved leaves, found among the hash-consed nodes
(Filliatre and Conchon, 2006).  Seeds are pushed as primitive integer
vectors, so every image is integral.

A ``Truncation`` is the quotient at one bound on the inputs.  Its
constructor saturates the ideal, and it holds the ideal spans, the coset
bases and the reduction to classes.  Saturation grows only the spin
seeds, the elements that raised the rank before their images were pushed.
Grafting is linear and equivariant, (x.s) o_i c = (x o_s(i) c).s' and
likewise for a graft above x, so the grafts of the seeds at every slot
span, once spun, the grafts of the whole S-closed span.  Truncating at a
bound on the inputs is exact because a graft never lowers the number of
inputs, so saturation starts from the relations within the bound, stays
inside it and refuses to be read above it.  A span is finalised where its
rows are handed out (``Truncation.span``).  ``ideal_spans`` memoises one
truncation per bound on the presentation, and a larger one answers for a
smaller bound.
"""

from itertools import permutations

from .linalg import Echelon, Subspace, meet_slice, primitive
from .trees import (CLOSED, OPEN, Element, Leaf, component_basis,
                    corolla_element, graft, make_node, text_form,
                    tree_signature, Signature)


class Presentation:
    """A collection and its relations.

    It memoises its saturated quotient truncations by ``max_inputs``
    (``ideal_spans``), so they are freed with it.
    """

    def __init__(self, collection, relations, name=""):
        self.collection = collection
        self.relations = tuple(r for r in relations if not r.is_zero())
        self.name = name
        self.truncations = {}
        for r in self.relations:
            check_relation(collection, r)

    def __repr__(self):
        return f"Presentation({self.name or 'anonymous'}, {len(self.relations)} relations)"

    def is_quadratic(self):
        return all(r.weights() == [2] for r in self.relations)

    def is_quadratic_linear(self):
        return all(set(r.weights()) <= {1, 2} for r in self.relations)


def check_relation(collection, r):
    """Raise ValueError unless every term of the nonzero relation r is a tree
    over the collection, of one signature, with leaves labelled 1..n and
    1..m and with at least one vertex."""
    sig_ = r.signature()
    for t in r.terms:
        _check_spaces(collection, t)
        if tree_signature(t) != sig_:
            raise ValueError("relation mixes signatures")
    if any(w < 1 for w in r.weights()):
        raise ValueError("relation with weight < 1")


def _check_spaces(collection, t):
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

    def __init__(self, collection, signature):
        self.signature = signature
        self.trees = component_basis(collection, signature)
        self.index = {t: i for i, t in enumerate(self.trees)}
        self._tables = None

    def transposition_tables(self):
        """The adjacent transpositions as signed permutations of the basis.

        One table per element of ``adjacent_transpositions``, in that
        order: ``table[i] = +-(j + 1)`` says the transposition sends tree i
        to +-tree j.  Built on first use by ``_relabel``, which rebuilds
        only the paths to the two moved leaves, with one memo per
        transposition.  Vertex spaces built by ``generator()`` act by signed
        permutations, so every image has this form; any other image raises
        ValueError.
        """
        if self._tables is None:
            tables = []
            for g in adjacent_transpositions(self.signature):
                memo = {}
                table = []
                for t in self.trees:
                    u, c = _relabel(t, g, memo)
                    table.append(c * (self.index[u] + 1))
                tables.append(table)
            self._tables = tables
        return self._tables

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


def _relabel(t, g, memo):
    """(node, sign) with symmetric_act(g, t) = sign * node.

    A leaf maps through g.  A vertex whose children come back as
    themselves is itself, any other is looked up interned and re-sorted by
    make_node only on a miss.  Either way it carries its children's signs:
    a child that comes back as itself with sign -1 still flips it.  memo
    maps each vertex met under g to its image.
    """
    if isinstance(t, Leaf):
        return Leaf(t.color, g[t.color == OPEN][t.label - 1]), 1
    hit = memo.get(t)
    if hit is not None:
        return hit
    children, sign, same = [], 1, True
    for c in t.children:
        u, s = _relabel(c, g, memo)
        children.append(u)
        sign *= s
        same = same and u is c
    children = tuple(children)
    node = t if same else t.space.nodes.get((t.dec, children))
    if node is None:
        terms = make_node(t.space, t.dec, children).terms
        if len(terms) != 1 or next(iter(terms.values())) not in (1, -1):
            raise ValueError(
                f"{g} sends {text_form(t)} in {t.space.signature} to "
                f"{Element.of(terms)!r}, not to one signed basis tree; "
                "spinning needs vertex spaces that act by signed "
                "permutations")
        (node, c), = terms.items()
        sign *= c
    hit = memo[t] = node, sign
    return hit


def ambient_basis(collection, signature):
    hit = collection.ambients.get(signature)
    if hit is None:
        hit = AmbientBasis(collection, signature)
        collection.ambients[signature] = hit
    return hit


def group_elements(signature):
    return [(pc, po)
            for pc in permutations(range(1, signature.n_closed + 1))
            for po in permutations(range(1, signature.n_open + 1))]


def adjacent_transpositions(signature):
    """The (n-1)+(m-1) adjacent transpositions that generate S_n x S_m."""
    n, m = signature.n_closed, signature.n_open
    closed, open_ = tuple(range(1, n + 1)), tuple(range(1, m + 1))
    out = []
    for i in range(n - 1):
        out.append((closed[:i] + (i + 2, i + 1) + closed[i + 2:], open_))
    for i in range(m - 1):
        out.append((closed, open_[:i] + (i + 2, i + 1) + open_[i + 2:]))
    return out


def spin(ab, elems, ech):
    """Push elems into ech and close its span under S_n x S_m.

    An element that raises the rank is a seed: its index vector and then
    every accepted image are remapped through the transposition tables of
    ``ab`` and pushed, until no image raises the rank.  Every vector
    accepted into ech, now or by an earlier call, has had its images
    pushed, so the span of ech is closed under the group whenever every
    call on it has returned.  Returns the seeds, in the order of elems; the
    span is the S_n x S_m span of the seeds of every call on ech.
    """
    tables = ab.transposition_tables()
    seeds = []
    for e in elems:
        vec = primitive(ab.vector(e).items())
        if not ech.add(vec):
            continue
        seeds.append(e)
        queue = [vec]
        for v in queue:
            for table in tables:
                image = {}
                for i, c in v.items():
                    j = table[i]
                    if j > 0:
                        image[j - 1] = c
                    else:
                        image[-j - 1] = -c
                if ech.add(image):
                    queue.append(image)
    return seeds


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


class Truncation:
    """A quotient operad truncated to signatures with <= max_inputs inputs.

    The constructor saturates the ideal inside the bound: it spins the
    relations within the bound (``relations`` keeps them all), grafts a
    corolla onto each spin seed at every slot within the bound, spins the
    grafts, and repeats on the new seeds until no rank grows.  Per
    signature it holds the ideal echelon, finalised in ``span``, the one
    accessor that hands out rows, and the coset basis of the non-pivot
    ambient trees, which ``basis`` alone decides and ``cells`` buckets by
    degree.  A class is named by its representative, an ambient tree: an
    Element reduces to the canonical ``residue`` supported on ``basis``,
    or to its ``reduce_to_element``, and classes compose as the reduced
    graft of their representatives.  Above the bound ``span`` and
    ``basis`` raise ValueError.
    """

    def __init__(self, presentation, max_inputs):
        self.collection = presentation.collection
        self.relations = presentation.relations
        self.max_inputs = max_inputs
        self.spans = {}  # sig -> Echelon closed under S_n x S_m; rows via span
        self._basis = {}
        frontier = []
        for r in self.relations:
            if r.signature().total <= max_inputs:
                frontier.extend(self._spin(r))
        while frontier:
            new_frontier = []
            for e in frontier:
                for grown in _grow_once(self.collection, e, max_inputs):
                    if not grown.is_zero():
                        new_frontier.extend(self._spin(grown))
            frontier = new_frontier

    def _spin(self, elem):
        sig_ = elem.signature()
        return spin(self.ambient(sig_), [elem], self._echelon(sig_))

    def _echelon(self, sig_):
        if sig_.total > self.max_inputs:
            raise ValueError(f"{sig_} has {sig_.total} inputs, above the "
                             f"bound {self.max_inputs} of this truncation")
        return self.spans.setdefault(sig_, Echelon())

    def span(self, sig_):
        """The finalised ideal echelon at sig_ (empty outside the ideal)."""
        ech = self._echelon(sig_)
        ech.finalize()
        return ech

    def ambient(self, sig_):
        return ambient_basis(self.collection, sig_)

    def basis(self, sig_):
        """List of ambient basis indices representing quotient classes: the
        non-pivot ones, which finalising does not change."""
        hit = self._basis.get(sig_)
        if hit is None:
            pivots = self._echelon(sig_).rows
            hit = self._basis[sig_] = [i for i in range(self.ambient(sig_).dim)
                                       if i not in pivots]
        return hit

    def cells(self, sig_):
        """dict degree -> the coset representative trees of that degree."""
        trees = self.ambient(sig_).trees
        out = {}
        for i in self.basis(sig_):
            out.setdefault(trees[i].degree, []).append(trees[i])
        return out

    def residue(self, elem):
        """The reduced ambient index vector of an Element, supported on
        ``basis`` of its signature ({} for zero)."""
        if elem.is_zero():
            return {}
        sig_ = elem.signature()
        return self.span(sig_).reduce(self.ambient(sig_).vector(elem))

    def reduce_to_element(self, elem):
        """An Element as the combination of coset representatives of its
        class."""
        if elem.is_zero():
            return Element()
        return self.ambient(elem.signature()).element(self.residue(elem))


def ideal_spans(presentation, max_inputs):
    """The saturated Truncation of presentation at max_inputs inputs.

    Memoised on the presentation.  A truncation saturated at a larger bound
    answers for a smaller one, so the result's ``max_inputs`` may exceed
    the bound asked for, and each caller bounds its own signatures with
    ``signatures_within``.  That is exact: a graft never lowers the number
    of inputs, so the spans within the smaller bound are the same
    subspaces, and their finalised rows are canonical.
    """
    if max_inputs < 1:
        raise ValueError(f"max_inputs must be at least 1, not {max_inputs}")
    truncations = presentation.truncations
    hit = truncations.get(max_inputs)
    if hit is None:
        # reuse a larger saturation when available
        for mi, trunc in truncations.items():
            if mi >= max_inputs:
                return trunc
        hit = Truncation(presentation, max_inputs)
        truncations[max_inputs] = hit
    return hit


def relation_span(presentation, signature, weight):
    """Subspace of the weight-w slice of F(E)(sig) cut out by the ideal.

    For weight-homogeneous (quadratic) presentations this is the ideal
    component; rows mixing weights are rejected.
    """
    trunc = ideal_spans(presentation, signature.total)
    ab = ambient_basis(presentation.collection, signature)
    cols = [i for i, t in enumerate(ab.trees) if t.weight == weight]
    colmap = {c: j for j, c in enumerate(cols)}
    # the span is finalised, so its weight-w rows are already the reduced
    # form of the relation span; re-indexing keeps them reduced
    rows = {}
    for p, row in trunc.span(signature).rows.items():
        ws = {ab.trees[c].weight for c in row}
        if ws == {weight}:
            rows[colmap[p]] = {colmap[c]: x for c, x in row.items()}
        elif weight in ws:
            raise ValueError(
                "relation span at a single weight is ill-defined for "
                "mixed-weight ideals; use component spans")
    return Subspace(len(cols), rows)


def quotient_dims(presentation, max_inputs):
    """dict (signature, degree) -> dimension of the quotient operad, read
    off the coset basis of its truncation."""
    trunc = ideal_spans(presentation, max_inputs)
    return {(sig_, d): len(trees) for sig_ in signatures_within(max_inputs)
            for d, trees in trunc.cells(sig_).items()}


# ---------------------------------------------------------------------------
# Quadratic-linear conditions


def check_ql_conditions(presentation):
    """(ql1) R cap F^(1) = 0 and (ql2) one-step grafts meet F^(2) inside R.

    Returns {"ql1": bool, "ql2": bool, "witnesses": [...], "spans": {...}},
    spans holding the Echelon of the S_n x S_m span of R per signature.
    """
    P = presentation
    if not P.is_quadratic_linear():
        raise ValueError("relations must live in weights 1 and 2")
    # the S-module R spanned by the relations, per signature
    rspan = {}
    report = {"ql1": True, "ql2": True, "witnesses": [], "spans": rspan}
    r_seeds = []
    for r in P.relations:
        sig_ = r.signature()
        r_seeds.extend(spin(ambient_basis(P.collection, sig_), [r],
                            rspan.setdefault(sig_, Echelon())))

    # (ql1): no nonzero pure weight-1 combination inside R
    for sig_, ech in rspan.items():
        ab = ambient_basis(P.collection, sig_)
        w1_cols = {i for i, t in enumerate(ab.trees) if t.weight == 1}
        meet = len(meet_slice(ech.rows.values(), w1_cols))
        if meet:
            report["ql1"] = False
            report["witnesses"].append(
                {"condition": "ql1", "signature": str(sig_), "dim": meet})

    # (ql2): one-step grafts of R, restricted to pure weight-2 vectors,
    # must land in the weight-2 part of R.  Graft is linear and equivariant,
    # so the spun grafts of R's spin seeds span the grafts of all of R.
    max_arity = max(s.signature.total for s in P.collection)
    grown = {}
    for e0 in r_seeds:
        bound = e0.signature().total + max_arity - 1
        for g in _grow_once(P.collection, e0, max(bound, 1)):
            if not g.is_zero():
                grown.setdefault(g.signature(), []).append(g)
    for sig_, elems in grown.items():
        ab = ambient_basis(P.collection, sig_)
        w2_cols = {i for i, t in enumerate(ab.trees) if t.weight == 2}
        g_ech = Echelon()
        spin(ab, elems, g_ech)
        meet = meet_slice(g_ech.rows.values(), w2_cols)
        if not meet:
            continue
        t_ech = Echelon()
        for row in meet_slice(rspan.get(sig_, Echelon()).rows.values(),
                              w2_cols):
            t_ech.add(row)
        for vec in meet:
            if t_ech.add(vec):
                report["ql2"] = False
                report["witnesses"].append(
                    {"condition": "ql2", "signature": str(sig_),
                     "vector": ab.element(vec)})
    return report


def project_q(presentation, name=None):
    """The quadratic presentation qP: weight-2 parts of the relations."""
    rels = []
    for r in presentation.relations:
        q = Element({t: c for t, c in r.terms.items() if t.weight == 2})
        if not q.is_zero():
            rels.append(q)
    return Presentation(presentation.collection, rels,
                        name or f"q({presentation.name})")
