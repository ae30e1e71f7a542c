"""Quadratic duality and the cobar construction.

The weight-2 pairing between trees on generators E and trees on the shifted
dual generators pairs each tree only with its mirror, the same tree with
every generator swapped for its dual.  Its value on that pair is a product
of four signs:

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
(-1)^(k1 + (k2-1)(i-1) + (k1-1)(k2-1)) sgn(closed word) sgn(open word); see
cobar_genmap.
"""

from fractions import Fraction

from .dgcalc import DgTruncation
from .linalg import solve
from .presentation import (Presentation, ambient_basis, check_ql_conditions,
                           ideal_spans, project_q, relation_span,
                           signatures_within)
from .signs import perm_sign
from .trees import (CLOSED, NONE, REGULAR, SIGN, TRIVIAL, Collection,
                    Element, Leaf, Node, VertexSpace, accumulate,
                    enumerate_basis, generator, graft, map_spaces,
                    symmetric_act, tree_element)

_SYM_DUAL = {TRIVIAL: SIGN, SIGN: TRIVIAL, REGULAR: REGULAR, NONE: NONE}


def dual_collection(collection, rename=None):
    """Shifted dual generators: degree k-2-d, symmetry twisted by sgn."""
    rename = rename or (lambda n: n + "'")
    spaces = []
    for s in collection:
        if s.symmetry is None:
            raise ValueError("dual_collection needs named generators")
        spaces.append(generator(rename(s.name), s.signature,
                                s.signature.total - 2 - s.degree,
                                _SYM_DUAL[s.symmetry]))
    return Collection(spaces)


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


def _label_word_sign(t):
    """sgn(closed label word) sgn(open label word), in slot order."""
    cw, ow = _label_words(t)
    return perm_sign(cw) * perm_sign(ow)


def arrangement_sign(t):
    """Product of sgn of the open-block arrangements at every vertex."""
    if isinstance(t, Leaf):
        return 1
    sign = perm_sign(t.space.arrangements[t.dec])
    for c in t.children:
        sign *= arrangement_sign(c)
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
    sign = _label_word_sign(t)
    i, _k2 = _two_vertex_data(t)
    if (i - 1) & 1:
        sign = -sign
    return sign * arrangement_sign(t)


def pairing_matrix(primal_collection, dual_coll, signature):
    """The pairing of the weight-2 components, tree against mirror.

    ``dual_coll`` holds the partners of the primal generators in the same
    order, as ``dual_collection`` builds it.  Both bases are enumerated
    canonically and each primal tree is matched with its mirror, so the
    pairing is a signed permutation: entry i of the returned list is (j, v),
    the dual index paired with primal index i and the value v = +-1 of the
    pairing there; every other pairing of basis trees is 0.
    """
    prim = enumerate_basis(primal_collection, signature, 2)
    dual = enumerate_basis(dual_coll, signature, 2)
    if len(prim) != len(dual):
        raise ValueError("primal and dual weight-2 components differ in size")
    partner = dict(zip(primal_collection.spaces, dual_coll.spaces))
    dual_index = {t: j for j, t in enumerate(dual)}
    pairing = [(dual_index[map_spaces(t, partner.get)], pair_value(t))
               for t in prim]
    return pairing, prim, dual


def weight2_signatures(collection):
    """Signatures carrying a nonzero weight-2 component: two vertices take
    at most 2 * (max arity) - 1 inputs."""
    bound = 2 * max((s.signature.total for s in collection), default=0) - 1
    return [s for s in signatures_within(bound)
            if enumerate_basis(collection, s, 2)]


def quadratic_dual(presentation, rename=None, name=None):
    """F(E-dual)/(R-orthogonal): the quadratic Koszul dual operad."""
    if not presentation.is_quadratic():
        raise ValueError("quadratic_dual needs a purely quadratic presentation")
    E = presentation.collection
    Ed = dual_collection(E, rename)
    relations = []
    for sig_ in weight2_signatures(E):
        pairing, prim, dual = pairing_matrix(E, Ed, sig_)
        span = relation_span(presentation, sig_, 2)
        if span.dim == len(dual):
            continue
        orth = span.orthogonal_complement(pairing)
        if span.dim + orth.dim != len(dual):
            raise ValueError("pairing is degenerate")
        for p in sorted(orth.rows):
            relations.append(Element(
                {dual[j]: c for j, c in orth.rows[p].items()}))
    return Presentation(Ed, relations,
                        name or f"{presentation.name}!")


# ---------------------------------------------------------------------------
# Quadratic-linear Koszul data: the map phi and the dual derivation


class QLKoszulData:
    """The quadratic dual of qP and the derivative that phi: qR -> E
    induces on its generators."""

    def __init__(self, dual_presentation, dual_genmap):
        self.dual_presentation = dual_presentation
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
    for rho over the rows of R, the relations at the generator's signature
    spun under S_n x S_m, as check_ql_conditions reports them: the weight-2
    part of rho goes through the pairing, with the slot weight (-1)^(i-1)
    on trees whose unary inner vertex sits at linear slot i, and phi(rho)
    is minus its weight-1 part.  The sign convention is pinned by the
    homotopy-centrality differential of the dual of the unital swiss-cheese
    presentation and by delta squaring to zero; both are exercised by the
    test suite.
    """
    report = check_ql_conditions(presentation)
    if not (report["ql1"] and report["ql2"]):
        raise QLFailure(report["witnesses"])
    P = presentation
    qP = project_q(P, name=f"q({P.name})")
    dual = quadratic_dual(qP, rename=rename, name=name or f"{P.name}!")
    E, Ed = P.collection, dual.collection

    genmap = {}
    for s, sd in zip(E.spaces, Ed.spaces):
        sig_ = s.signature
        span = report["spans"].get(sig_)
        if span is None:
            continue
        ab = ambient_basis(E, sig_)
        pairing, prim, dual_basis = pairing_matrix(E, Ed, sig_)
        prim_index = {t: i for i, t in enumerate(prim)}
        # equation k: sum_j x_j <dual_j, rho_k> = <g', phi(rho_k)>
        columns, phis = [{} for _ in dual_basis], []
        for k, vec in enumerate(span.rows.values()):
            phi = {}
            for c, x in vec.items():
                if ab.trees[c].weight == 2:
                    j, v = pairing[prim_index[ab.trees[c]]]
                    columns[j][k] = x * v
                else:
                    phi[ab.trees[c]] = -x
            phis.append(Element(phi))
        images = {}
        for dec in range(sd.dim):
            sol = solve(columns, {k: _gen_pairing(s, dec, phi)
                                  for k, phi in enumerate(phis)})
            if sol is None:
                raise ValueError("inconsistent phi system")
            img = Element({dual_basis[j]: c for j, c in sol.items()})
            if not img.is_zero():
                images[dec] = img
        if images:
            genmap[sd.name] = images
    return QLKoszulData(dual, genmap)


def _gen_pairing(space, dec, elem):
    """Pairing of the dual partner of basis element dec of the generator
    space against a weight-1 Element: it pairs only with the corollas of
    that element, with the label-word sgn twist."""
    total = Fraction(0)
    for t, c in elem.terms.items():
        if not isinstance(t, Node) or t.space is not space or t.dec != dec:
            continue
        total += c * _label_word_sign(t) * arrangement_sign(t)
    return total


# ---------------------------------------------------------------------------
# Cobar construction on the dual of a degree-0 quotient truncation


def _cobar_collection(trunc, max_inputs):
    """Vertex spaces of the cobar of (Lambda P)^*, P a degree-0 quotient:
    one space per signature (n,m;k), named gn_mk, one basis element per
    quotient class, and per signature the map from each representative's
    ambient index to its class position."""
    spaces, positions = [], {}
    for sig_ in signatures_within(max_inputs):
        basis = trunc.basis(sig_)
        if not basis:
            continue
        ab = trunc.ambient(sig_)
        for i in basis:
            if ab.trees[i].degree != 0:
                raise ValueError("cobar input must be a degree-0 operad")
        position = positions[sig_] = {i: b for b, i in enumerate(basis)}
        span = trunc.span(sig_)
        swaps = []
        for table in ab.transposition_tables():
            # dual right action of an involution: transpose, sgn-twisted;
            # the transposition sends representative i to one signed tree
            cols = [[] for _ in basis]
            for b, i in enumerate(basis):
                j = table[i]
                residue = span.reduce({abs(j) - 1: 1 if j > 0 else -1})
                for i2, coeff in accumulate({}, residue.items(), -1).items():
                    cols[position[i2]].append((b, coeff))
            swaps.append(cols)
        n_closed_swaps = max(sig_.n_closed - 1, 0)
        spaces.append(VertexSpace(
            f"g{sig_.n_closed}_{sig_.n_open}{sig_.out}", sig_,
            sig_.total - 2, len(basis), swaps[:n_closed_swaps],
            swaps[n_closed_swaps:]))
    return Collection(spaces), positions


def cobar_genmap(collection, coordinates):
    """Generator map of a vertex-expansion differential on a free operad.

    ``coordinates(space, tau, i)`` gives the weight-2 tree tau of the
    space's signature as a dict dec -> coefficient over the space's basis.
    The image of basis element dec is the sum over tau of
        (-1)^(k1 + (k2-1)(i-1) + (k1-1)(k2-1)) sgn(closed word)
            sgn(open word) coordinates(space, tau, i)[dec] tau,
    with k1 and k2 the arities of the root and of the inner vertex, i the
    inner vertex's linear slot, and the label words read in slot order.
    Each tree is enumerated, signed and read once per space.  The global
    sign makes the cobar differential match the derivative of the
    quadratic-linear dual through the counit comparison map.
    """

    def genmap(space):
        images = [{} for _ in range(space.dim)]
        for tau in enumerate_basis(collection, space.signature, 2):
            i, k2 = _two_vertex_data(tau)
            coords = coordinates(space, tau, i)
            if not coords:
                continue
            k1 = tau.space.signature.total
            sgn = _label_word_sign(tau)
            if (k1 + (k2 - 1) * (i - 1) + (k1 - 1) * (k2 - 1)) & 1:
                sgn = -sgn
            for dec, c in coords.items():
                images[dec][tau] = sgn * c
        return [Element(terms) for terms in images]

    return genmap


def cobar_truncate(presentation, max_inputs):
    """The cobar of the dual of a degree-0 quotient, as a DgTruncation:
    the free operad on the desuspended dual of the quotient up to
    max_inputs inputs, with the differential induced by dualized
    composition."""
    trunc = ideal_spans(presentation, max_inputs)
    coll, positions = _cobar_collection(trunc, max_inputs)

    def representative(sig_, b):
        return tree_element(trunc.ambient(sig_).trees[trunc.basis(sig_)[b]])

    def coordinates(space, tau, i):
        # the composite the two-vertex tree tau encodes, relabelled by its
        # label words, over the quotient basis
        sig1 = tau.space.signature
        inner = tau.children[i - 1]
        color = sig1.slot_color(i)
        index = i if color == CLOSED else i - sig1.n_closed
        composite = graft(representative(sig1, tau.dec), color, index,
                          representative(inner.space.signature, inner.dec))
        position = positions[space.signature]
        return {position[i2]: x for i2, x in trunc.residue(
            symmetric_act(_label_words(tau), composite)).items()}

    return DgTruncation(coll, cobar_genmap(coll, coordinates), max_inputs)
