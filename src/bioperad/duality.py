"""Quadratic duality and the cobar construction.

The weight-2 pairing between trees on generators E and trees on the shifted
dual generators is diagonal on labeled shapes.  Its value on a matching pair
is a product of four signs:

* the signatures of the closed and open label words read in slot order,
* (-1)^((k2-1)(i-1)) for the inner vertex of arity k2 at linear slot i
  (the operadic-suspension composition sign), and
* the signatures of the open-block arrangements decorating the two vertices
  (the sgn twist of the dual of a regular representation).

The convention is not free: it is pinned by the requirement that the dual of
the Lie-acting-on-associative presentation is the commutative-acting one,
and by the eye relation coming out of the quadratic-linear dual below.

Cobar: for a degree-0 quotient truncation P, the construction builds the
free operad on one generator per quotient basis element per signature, in
degree (inputs - 2), with the sign-twisted dual symmetric action, and the
differential dual to composition with term signs
(-1)^(k1 + 1 + (k2-1)(i-1) + (k1-1)(k2-1)) sgn(closed word) sgn(open word).
"""

from fractions import Fraction

from .linalg import Matrix, solve
from .presentation import (Presentation, check_ql_conditions, group_elements,
                           project_q, relation_span, signatures_within,
                           truncation)
from .signs import perm_sign
from .trees import (CLOSED, NONE, OPEN, REGULAR, SIGN, TRIVIAL, Collection,
                    Element, Leaf, Node, VertexSpace, enumerate_basis,
                    generator, graft, symmetric_act)

_SYM_DUAL = {TRIVIAL: SIGN, SIGN: TRIVIAL, REGULAR: REGULAR, NONE: NONE}


def dual_collection(collection, rename=None):
    """Shifted dual generators: degree k-2-d, symmetry twisted by sgn."""
    rename = rename or (lambda n: n + "'")
    spaces = []
    for s in collection:
        sym = getattr(s, "symmetry", None)
        if sym is None:
            raise ValueError("dual_collection needs named generators")
        k = s.signature.total
        d = s.gen_degree
        spaces.append(generator(rename(s.name), s.signature, k - 2 - d,
                                _SYM_DUAL[sym]))
    return Collection(spaces)


def _shape_key(t):
    """Labeled shape of a tree, blind to which side's generators decorate it.

    Uses the signature path + decoration indices + leaf labels, so primal and
    dual canonical bases correspond entry by entry.
    """
    if isinstance(t, Leaf):
        return ("leaf", t.color, t.label)
    return ("node", t.space.signature, t.dec,
            tuple(_shape_key(c) for c in t.children))


def _label_words(t):
    """Closed and open label sequences in structural slot order."""
    closed, open_ = [], []

    def walk(x):
        if isinstance(x, Leaf):
            (closed if x.color == CLOSED else open_).append(x.label)
            return
        for c in x.children:
            walk(c)

    walk(t)
    return tuple(closed), tuple(open_)


def _arrangement_sign(t):
    """Product of sgn of the open-block arrangements at every vertex."""
    if isinstance(t, Leaf):
        return 1
    sign = 1
    arr = getattr(t.space, "arrangements", None)
    if arr is not None and t.space.signature.n_open > 1:
        sign *= perm_sign(arr[t.dec])
    for c in t.children:
        sign *= _arrangement_sign(c)
    return sign


def _two_vertex_data(t):
    """(inner linear slot, inner arity) of a canonical 2-vertex tree."""
    for i, c in enumerate(t.children, start=1):
        if isinstance(c, Node):
            return i, c.space.signature.total
    raise ValueError("expected a 2-vertex tree")


def pair_value(t):
    """Pairing of a weight-2 canonical tree against its dual mirror.

    The slot factor (-1)^(i-1) combines the operadic-suspension composition
    sign (-1)^((k2-1)(i-1)) with the parity (-1)^(k2(i-1)) of the shifted
    dual generator crossing the first i-1 slots; their product is arity
    independent.
    """
    cw, ow = _label_words(t)
    sign = perm_sign(cw) * perm_sign(ow)
    i, _k2 = _two_vertex_data(t)
    if (i - 1) & 1:
        sign = -sign
    return sign * _arrangement_sign(t)


def pairing_matrix(primal_collection, dual_coll, signature):
    """Diagonal-on-shapes pairing of the weight-2 components.

    Rows index the primal basis, columns the dual basis; both are enumerated
    canonically and matched by labeled shape.
    """
    prim = enumerate_basis(primal_collection, signature, 2)
    dual = enumerate_basis(dual_coll, signature, 2)
    if len(prim) != len(dual):
        raise ValueError("primal and dual weight-2 components differ in size")
    dual_index = {_shape_key(t): j for j, t in enumerate(dual)}
    m = Matrix.zero(len(prim), len(dual))
    for i, t in enumerate(prim):
        j = dual_index[_shape_key(t)]
        m[i, j] = pair_value(t)
    return m, prim, dual


def weight2_signatures(collection):
    """Signatures carrying a nonzero weight-2 component."""
    sigs = set()
    for s1 in collection:
        for s2 in collection:
            a, b = s1.signature, s2.signature
            for color, count in ((CLOSED, a.n_closed), (OPEN, a.n_open)):
                if b.out != color or count == 0:
                    continue
                n = a.n_closed + b.n_closed - (1 if color == CLOSED else 0)
                m = a.n_open + b.n_open - (1 if color == OPEN else 0)
                sigs.add(tree_signature_of(n, m, a.out))
    return sorted(sigs, key=lambda s: (s.total, s.n_closed, s.out))


def tree_signature_of(n, m, out):
    from .trees import Signature
    return Signature(n, m, out)


def quadratic_dual(presentation, rename=None, name=None):
    """F(E-dual)/(R-orthogonal): the quadratic Koszul dual operad."""
    if not presentation.is_quadratic():
        raise ValueError("quadratic_dual needs a purely quadratic presentation")
    E = presentation.collection
    Ed = dual_collection(E, rename)
    relations = []
    for sig_ in weight2_signatures(E):
        m, prim, dual = pairing_matrix(E, Ed, sig_)
        span = relation_span(presentation, sig_, 2)
        if span.dim == len(dual):
            continue
        orth = span.orthogonal_complement(m)
        assert span.dim + orth.dim == len(dual), "pairing is degenerate"
        for row in orth.basis:
            relations.append(Element(
                {dual[j]: c for j, c in enumerate(row) if c}))
    return Presentation(Ed, relations,
                        name or f"{presentation.name}!")


# ---------------------------------------------------------------------------
# Quadratic-linear Koszul data: the map phi and the dual derivation


class QLKoszulData:
    """phi: qR -> E extracted from the inhomogeneous relations, and the
    derivative it induces on the generators of the quadratic dual."""

    def __init__(self, presentation, dual_presentation, phi_pairs,
                 dual_genmap):
        self.presentation = presentation
        self.dual_presentation = dual_presentation
        self.phi_pairs = phi_pairs      # [(weight-2 Element, weight-1 Element)]
        self.dual_genmap = dual_genmap  # dual space name -> {dec: Element}


class QLFailure(ValueError):
    """(ql1) or (ql2) fails; ``witnesses`` as from check_ql_conditions."""

    def __init__(self, witnesses):
        super().__init__(f"(ql1)/(ql2) fail: {witnesses}")
        self.witnesses = witnesses


def ql_koszul_data(presentation, rename=None, name=None):
    """Koszul data of a quadratic-linear presentation.

    The quadratic dual of qP is computed first; each dual generator then
    receives a derivative solved from  <delta(g'), rho> = <g', phi(rho)>
    over the quadratic relation span at the generator's signature, with the
    slot weight (-1)^(i-1) on trees whose unary inner vertex sits at linear
    slot i.  The sign convention is pinned by the homotopy-centrality
    differential of the dual of the unital swiss-cheese presentation and by
    delta squaring to zero; both are exercised by the test suite.
    """
    report = check_ql_conditions(presentation)
    if not (report["ql1"] and report["ql2"]):
        raise QLFailure(report["witnesses"])
    P = presentation
    qP = project_q(P, name=f"q({P.name})")
    dual = quadratic_dual(qP, rename=rename, name=name or f"{P.name}!")
    E, Ed = P.collection, dual.collection

    phi_pairs = []
    for r in P.relations:
        for g in group_elements(r.signature()):
            rt = symmetric_act(g, r)
            q2 = Element({t: c for t, c in rt.terms.items()
                          if _weight(t) == 2})
            r1 = Element({t: c for t, c in rt.terms.items()
                          if _weight(t) == 1})
            if not q2.is_zero():
                phi_pairs.append((q2, r1))

    genmap = {}
    for s, sd in zip(E.spaces, Ed.spaces):
        sig_ = s.signature
        pairs = [(q2, r1) for q2, r1 in phi_pairs if q2.signature() == sig_]
        images = {}
        if pairs:
            m, prim, dual_basis = pairing_matrix(E, Ed, sig_)
            prim_index = {t: i for i, t in enumerate(prim)}
            for dec in range(sd.dim):
                # equations: sum_j x_j <dual_j, rho> = <g', phi(rho)>
                rows, rhs = [], []
                for q2, r1 in pairs:
                    row = [Fraction(0)] * len(dual_basis)
                    for t, c in q2.terms.items():
                        i = prim_index[t]
                        for j in range(len(dual_basis)):
                            if m[i, j]:
                                row[j] += c * m[i, j]
                    rows.append(row)
                    rhs.append(_gen_pairing(sd, dec, r1.scale(-1), E))
                sol = solve(rows, rhs)
                if sol is None:
                    raise ValueError("inconsistent phi system")
                img = Element({dual_basis[j]: c
                               for j, c in enumerate(sol) if c})
                if not img.is_zero():
                    images[dec] = img
        if images:
            genmap[sd.name] = images
    return QLKoszulData(P, dual, phi_pairs, genmap)


def _weight(t):
    from .trees import tree_weight
    return tree_weight(t)


def _gen_pairing(dual_space, dec, elem, primal_collection):
    """Pairing of the dual generator basis element against a weight-1
    Element: diagonal on decorations with the label-word sgn twist."""
    total = Fraction(0)
    for t, c in elem.terms.items():
        if not isinstance(t, Node):
            continue
        if t.space.signature != dual_space.signature or t.dec != dec:
            continue
        cw, ow = _label_words(t)
        total += c * perm_sign(cw) * perm_sign(ow) * _arrangement_sign(t)
    return total


# ---------------------------------------------------------------------------
# Cobar construction on the dual of a degree-0 quotient truncation


class CobarCollection:
    """Vertex spaces of the cobar of (Lambda P)^*, P a degree-0 quotient."""

    def __init__(self, trunc, max_inputs, tag=""):
        self.trunc = trunc
        self.max_inputs = max_inputs
        spaces = []
        self.sig_of_space = {}
        for sig_ in signatures_within(max_inputs):
            dim = trunc.dim(sig_)
            if dim == 0:
                continue
            ab = trunc.ambient(sig_)
            for i in trunc.basis(sig_):
                if ab.degrees[i] != 0:
                    raise ValueError("cobar input must be a degree-0 operad")
            k = sig_.total
            degrees = [k - 2] * dim
            closed_swaps = [self._dual_swap(trunc, sig_, (CLOSED, i))
                            for i in range(sig_.n_closed - 1)]
            open_swaps = [self._dual_swap(trunc, sig_, (OPEN, i))
                          for i in range(sig_.n_open - 1)]
            name = f"{tag}g{sig_.n_closed}_{sig_.n_open}{sig_.out}"
            sp = VertexSpace(name, sig_, degrees, closed_swaps, open_swaps,
                             labels=[f"{name}[{i}]" for i in range(dim)])
            spaces.append(sp)
            self.sig_of_space[sp.name] = sig_
        self.collection = Collection(spaces)

    @staticmethod
    def _dual_swap(trunc, sig_, which):
        color, i = which
        dim = trunc.dim(sig_)
        if color == CLOSED:
            perm_c = list(range(1, sig_.n_closed + 1))
            perm_c[i], perm_c[i + 1] = perm_c[i + 1], perm_c[i]
            pair = (tuple(perm_c), tuple(range(1, sig_.n_open + 1)))
        else:
            perm_o = list(range(1, sig_.n_open + 1))
            perm_o[i], perm_o[i + 1] = perm_o[i + 1], perm_o[i]
            pair = (tuple(range(1, sig_.n_closed + 1)), tuple(perm_o))
        cols = [[] for _ in range(dim)]
        for b in range(dim):
            for b2, coeff in trunc.act(pair, sig_, b).items():
                # dual right action of an involution: transpose, sgn-twisted
                cols[b2].append((b, -coeff))
        return tuple(tuple(col) for col in cols)


def cobar_truncate(presentation, max_inputs, tag=""):
    """Free operad on the desuspended dual of the quotient, with the
    differential induced by dualized composition.  Returns (collection,
    genmap) for the derivation machinery."""
    trunc = truncation(presentation, max_inputs)
    cc = CobarCollection(trunc, max_inputs, tag=tag)
    coll = cc.collection
    cache = {}

    def genmap(space, dec):
        key = (space.name, dec)
        hit = cache.get(key)
        if hit is not None:
            return hit
        sig_ = space.signature
        b = dec
        out = Element()
        for tau in enumerate_basis(coll, sig_, 2):
            root = tau
            inner_pos, inner = next(
                ((i, c) for i, c in enumerate(root.children, start=1)
                 if isinstance(c, Node)))
            sig1 = root.space.signature
            sig2 = inner.space.signature
            k1, k2 = sig1.total, sig2.total
            cw, ow = _label_words(tau)
            sgn = perm_sign(cw) * perm_sign(ow)
            # global sign chosen so the differential matches the derivative
            # of the quadratic-linear dual through the counit comparison map
            exp = k1 + (k2 - 1) * (inner_pos - 1) + (k1 - 1) * (k2 - 1)
            if exp & 1:
                sgn = -sgn
            color = sig1.slot_color(inner_pos)
            index = inner_pos if color == CLOSED else inner_pos - sig1.n_closed
            composite = graft(trunc.class_of(sig1, root.dec), color, index,
                              trunc.class_of(sig2, inner.dec))
            composite = symmetric_act((cw, ow), composite)
            coeff = trunc.reduce(composite).get(b, Fraction(0))
            if coeff:
                out = out + Element({tau: sgn * coeff})
        cache[key] = out
        return out

    return coll, genmap
