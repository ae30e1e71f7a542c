"""Builtin operads: the catalog every other component computes against.

Each relation is one expression string read by ``trees.parse_term``, so
this module doubles as a usage example of the term language.  Leaf
conventions: closed inputs c1..cn, open inputs o1..om.

Catalog (presentations):
  Com        commutative algebras, closed color only
  Lie        Lie algebras, closed color only
  H0SCvor    commutative algebra acting on an associative algebra
  LP         Lie algebra acting by derivations on an associative algebra
  H0SC       H0SCvor plus a central multiplicative unary map (quadratic-linear)
  qH0SC      quadratic projection of H0SC
  H0SCdual   Koszul dual of H0SC: LP plus a degree -1 unary map, the eye
             relation, and a differential (see h0sc_dual_dg)
  LambdaC_OC color-suspended top-homology operad: Lie, associative, and a
             central degree -1 unary map
  Palpha     free operad on the unary map alone
  F_n10      free operad on the degree -1 unary map alone

Dg truncations (LPinf, OCinf, H0SCdual) are built below on the
differential machinery of dgcalc.
"""

from functools import lru_cache
from math import comb

from .dgcalc import DgTruncation
from .duality import arrangement_sign, cobar_genmap
from .linalg import solve
from .presentation import (Presentation, ideal_spans, project_q,
                           quotient_dims, signatures_within)
from .signs import identity, perm_sign, unshuffle_perm, unshuffles
from .trees import (CLOSED, IDENTITY_SIGS, NONE, OPEN, REGULAR, SIGN,
                    TRIVIAL, Collection, Element, Leaf, Node, Signature,
                    accumulate, assemble, corolla_element, generator, graft,
                    map_spaces, parse_term, planar_order, sig,
                    symmetric_act)


def _relations(collection, texts):
    return [parse_term(collection, text) for text in texts]


@lru_cache(maxsize=None)
def com_presentation():
    coll = Collection([generator("f2", sig(2, 0, CLOSED), 0, TRIVIAL)])
    rels = _relations(coll, ["f2(f2(c1,c2),c3) - f2(c1,f2(c2,c3))"])
    return Presentation(coll, rels, "Com")


@lru_cache(maxsize=None)
def lie_presentation():
    coll = Collection([generator("l2", sig(2, 0, CLOSED), 0, SIGN)])
    rels = _relations(coll, [
        "l2(l2(c1,c2),c3) + l2(l2(c2,c3),c1) + l2(l2(c3,c1),c2)"])
    return Presentation(coll, rels, "Lie")


def _scvor_generators():
    return [
        generator("f2", sig(2, 0, CLOSED), 0, TRIVIAL),
        generator("e02", sig(0, 2, OPEN), 0, REGULAR),
        generator("e11", sig(1, 1, OPEN), 0, NONE),
    ]


_SCVOR_RELS = [
    # associativity of the commutative product
    "f2(f2(c1,c2),c3) - f2(c1,f2(c2,c3))",
    # associativity of the open product
    "e02(e02(o1,o2),o3) - e02(o1,e02(o2,o3))",
    # module rule: acting twice is acting by the product
    "e11(c1,e11(c2,o1)) - e11(f2(c1,c2),o1)",
    # the action slides across the open product, both ways
    "e11(c1,e02(o1,o2)) - e02(e11(c1,o1),o2)",
    "e11(c1,e02(o1,o2)) - e02(o1,e11(c1,o2))",
]


@lru_cache(maxsize=None)
def h0scvor_presentation():
    coll = Collection(_scvor_generators())
    return Presentation(coll, _relations(coll, _SCVOR_RELS), "H0SCvor")


_LP_RELS = [
    # Jacobi
    "l2(l2(c1,c2),c3) + l2(l2(c2,c3),c1) + l2(l2(c3,c1),c2)",
    # associativity
    "n02(n02(o1,o2),o3) - n02(o1,n02(o2,o3))",
    # derivation rule
    "n11(c1,n02(o1,o2)) - n02(n11(c1,o1),o2) - n02(o1,n11(c1,o2))",
    # Lie morphism rule
    "n11(l2(c1,c2),o1) - n11(c1,n11(c2,o1)) + n11(c2,n11(c1,o1))",
]


def _lp_generators(with_whistle=False):
    gens = [
        generator("l2", sig(2, 0, CLOSED), 0, SIGN),
        generator("n02", sig(0, 2, OPEN), 0, REGULAR),
        generator("n11", sig(1, 1, OPEN), 0, NONE),
    ]
    if with_whistle:
        gens.append(generator("n10", sig(1, 0, OPEN), -1, NONE))
    return gens


@lru_cache(maxsize=None)
def lp_presentation():
    coll = Collection(_lp_generators())
    return Presentation(coll, _relations(coll, _LP_RELS), "LP")


@lru_cache(maxsize=None)
def h0sc_presentation():
    coll = Collection(_scvor_generators()
                      + [generator("al", sig(1, 0, OPEN), 0, NONE)])
    rels = _relations(coll, _SCVOR_RELS + [
        # quadratic-linear: the unary map composed with the product is the action
        "e02(al(c1),o1) - e11(c1,o1)",
        "e02(o1,al(c1)) - e11(c1,o1)",
        # quadratic: the unary map is multiplicative through the action
        "e11(c1,al(c2)) - al(f2(c1,c2))",
    ])
    return Presentation(coll, rels, "H0SC")


@lru_cache(maxsize=None)
def qh0sc_presentation():
    return project_q(h0sc_presentation(), "qH0SC")


# the whistle of a bracket is the commutator of the action with the whistle;
# pinned against the quadratic-linear dual pipeline and dg consistency
_EYE_REL = "n10(l2(c1,c2)) - n11(c1,n10(c2)) + n11(c2,n10(c1))"


@lru_cache(maxsize=None)
def h0sc_dual_presentation():
    coll = Collection(_lp_generators(with_whistle=True))
    return Presentation(coll, _relations(coll, _LP_RELS + [_EYE_REL]),
                        "H0SCdual")


@lru_cache(maxsize=None)
def lambda_c_oc_presentation():
    coll = Collection([
        generator("lt2", sig(2, 0, CLOSED), 0, SIGN),
        generator("nt02", sig(0, 2, OPEN), 0, REGULAR),
        generator("nt10", sig(1, 0, OPEN), -1, NONE),
    ])
    rels = _relations(coll, [
        "lt2(lt2(c1,c2),c3) + lt2(lt2(c2,c3),c1) + lt2(lt2(c3,c1),c2)",
        "nt02(nt02(o1,o2),o3) - nt02(o1,nt02(o2,o3))",
        # centrality of the degree -1 map
        "nt02(nt10(c1),o1) - nt02(o1,nt10(c1))",
    ])
    return Presentation(coll, rels, "LambdaC_OC")


@lru_cache(maxsize=None)
def palpha_presentation():
    coll = Collection([generator("al", sig(1, 0, OPEN), 0, NONE)])
    return Presentation(coll, [], "Palpha")


@lru_cache(maxsize=None)
def f_n10_presentation():
    coll = Collection([generator("n10", sig(1, 0, OPEN), -1, NONE)])
    return Presentation(coll, [], "F_n10")


# ---------------------------------------------------------------------------
# Dg truncations: the strong-homotopy operads and the dual dg operad.
#
# The free dg operads are generated by corollas l_n (degree n-2, sign
# symmetry) and n_{p,q} (degree p+q-2, sign on closed labels, planar open
# labels); the differential is vertex expansion.  Its coefficients implement
# the cobar differential of the dual of the degree-0 quotient in the
# generator basis: a two-vertex tree has one coordinate, on the basis
# element whose arrangement is its planar open-label readout, with the
# cobar sign of duality.cobar_genmap times sgn(arrangements).


def _sh_generators(max_inputs, include_p0):
    gens = []
    for n in range(2, max_inputs + 1):
        gens.append(generator(f"l{n}", sig(n, 0, CLOSED), n - 2, SIGN))
    for p in range(0, max_inputs + 1):
        for q in range(0, max_inputs + 1 - p):
            # n_p0 (p >= 1) only with include_p0; n_01 would be the identity
            if (q == 0 and include_p0 and p >= 1) or (q > 0 and p + q >= 2):
                gens.append(generator(f"n{p}{q}", sig(p, q, OPEN), p + q - 2,
                                      SIGN))
    return gens


def _planar_open_word(t):
    """Open leaf labels in planar order."""
    if isinstance(t, Leaf):
        return (t.label,) if t.color == OPEN else ()
    word = []
    for c in planar_order(t)[1]:
        word.extend(_planar_open_word(c))
    return tuple(word)


def _expansion_genmap(coll):
    def coordinates(space, tau, slot):
        word = _planar_open_word(tau)
        return {space.arrangements.index(word):
                arrangement_sign(tau) * perm_sign(word)}

    return cobar_genmap(coll, coordinates)


@lru_cache(maxsize=None)
def ocinf_dg(max_inputs=5):
    """The open-closed strong homotopy operad, truncated."""
    coll = Collection(_sh_generators(max_inputs, include_p0=True))
    return DgTruncation(coll, _expansion_genmap(coll), max_inputs)


@lru_cache(maxsize=None)
def lpinf_dg(max_inputs=5):
    """The strong homotopy Leibniz-pair operad, truncated."""
    coll = Collection(_sh_generators(max_inputs, include_p0=False))
    return DgTruncation(coll, _expansion_genmap(coll), max_inputs)


def h0sc_dual_n11_image(coll):
    """d(n11) = n02(n10(c1),o1) - n02(o1,n10(c1)), the homotopy-centrality
    differential of the dual of H0SC, in a collection with those names."""
    return parse_term(coll, "n02(n10(c1),o1) - n02(o1,n10(c1))")


@lru_cache(maxsize=None)
def h0sc_dual_dg(max_inputs=4):
    """The dual of H0SC as a dg quotient: differential on n11 only."""
    pres = h0sc_dual_presentation()
    coll = pres.collection
    image = h0sc_dual_n11_image(coll)

    def genmap(space):
        return [image if space.name == "n11" else Element()
                for _ in range(space.dim)]

    return DgTruncation(coll, genmap, max_inputs,
                        trunc=ideal_spans(pres, max_inputs))


def _singles(trees):
    """One single-term part per tree, as trees.assemble takes them."""
    return [{t: 1} for t in trees]


def lp_formula_genmap(coll):
    """Vertex-expansion differential per the printed unshuffle formulas.

    Transcribed literally at the identity arrangement: the closed expansion
    carries sgn(sigma); the mixed expansion with the inner corolla over I2
    and open window i+1..j carries (-1)^(|sigma| + i + |I1| + i|I2|).  Only
    q >= 1 inner corollas appear (the strong homotopy Leibniz-pair case).
    Other arrangements are the symmetric translates.
    """
    def identity_image(space):
        sig_ = space.signature
        p, q = sig_.n_closed, sig_.n_open
        out = {}
        if sig_.out == CLOSED:
            for size in range(2, p):
                for i1, i2 in unshuffles(range(1, p + 1), size):
                    outer = coll[f"l{len(i2) + 1}"]
                    inner = Node(coll[f"l{size}"], 0,
                                 tuple(Leaf(CLOSED, l) for l in i1))
                    kids = [inner] + [Leaf(CLOSED, l) for l in i2]
                    sgn = perm_sign(unshuffle_perm(i1, i2))
                    accumulate(out, assemble(outer, 0, _singles(kids)).items(),
                               sgn)
            return Element.of(out)
        # mixed expansion
        for size in range(0, p + 1):
            for i2, i1 in unshuffles(range(1, p + 1), size):
                base = perm_sign(unshuffle_perm(i1, i2))
                for i in range(0, q):
                    for j in range(i + 1, q + 1):
                        inner_name = f"n{len(i2)}{j - i}"
                        outer_name = f"n{len(i1)}{q - (j - i) + 1}"
                        if inner_name not in coll or outer_name not in coll:
                            continue
                        inner = assemble(coll[inner_name], 0, _singles(
                            [Leaf(CLOSED, l) for l in i2]
                            + [Leaf(OPEN, k) for k in range(i + 1, j + 1)]))
                        sgn = base * (-1) ** ((i + len(i1) + i * len(i2)) & 1)
                        parts = _singles(
                            [Leaf(CLOSED, l) for l in i1]
                            + [Leaf(OPEN, k) for k in range(1, i + 1)])
                        parts.append(inner)
                        parts += _singles(
                            [Leaf(OPEN, k) for k in range(j + 1, q + 1)])
                        accumulate(out, assemble(coll[outer_name], 0,
                                                 parts).items(), sgn)
        # closed expansion: a closed corolla over I1 in the first closed slot
        for size in range(2, p + 1):
            for i1, i2 in unshuffles(range(1, p + 1), size):
                outer_name = f"n{len(i2) + 1}{q}"
                if outer_name not in coll or f"l{size}" not in coll:
                    continue
                inner = Node(coll[f"l{size}"], 0,
                             tuple(Leaf(CLOSED, l) for l in i1))
                kids = ([inner] + [Leaf(CLOSED, l) for l in i2]
                        + [Leaf(OPEN, k) for k in range(1, q + 1)])
                sgn = perm_sign(unshuffle_perm(i1, i2))
                accumulate(out, assemble(coll[outer_name], 0,
                                         _singles(kids)).items(), sgn)
        return Element.of(out)

    def genmap(space):
        base = identity_image(space)
        closed = identity(space.signature.n_closed)
        return [base] + [symmetric_act((closed, arr), base)
                         for arr in space.arrangements[1:]]

    return genmap


PRESENTATION_BUILDERS = {
    "Com": com_presentation,
    "Lie": lie_presentation,
    "H0SCvor": h0scvor_presentation,
    "LP": lp_presentation,
    "H0SC": h0sc_presentation,
    "qH0SC": qh0sc_presentation,
    "H0SCdual": h0sc_dual_presentation,
    "LambdaC_OC": lambda_c_oc_presentation,
    "Palpha": palpha_presentation,
    "F_n10": f_n10_presentation,
}


# ---------------------------------------------------------------------------
# Distributive laws: the plain composite collections, whose dimensions the
# merged quotients must have (Loday-Vallette, Algebraic Operads, 8.6).  Each
# table is in quotient_dims' convention; the identity components enter the
# composition and are stripped from the result.


# the unit layer: the composite of the unary map with the identity is the
# free operad on the unary map, whose one tree al(c1) lies in (1,0;o)
UNIT_COMPOSITE_DIMS = {(Signature(1, 0, OPEN), 0): 1}


def _with_identity(dims):
    """Quotient dims plus the implicit identity components."""
    table = dict(dims)
    for s in IDENTITY_SIGS:
        table[(s, 0)] = table.get((s, 0), 0) + 1
    return table


def _composite_dims(bound, cell):
    """{(sig, degree): dim} over signatures_within(bound), from cell(sig) ->
    {degree: dim} with identities, the identity components stripped."""
    out = {}
    for sig_ in signatures_within(bound):
        for d, dim in cell(sig_).items():
            if d == 0 and sig_ in IDENTITY_SIGS:
                dim -= 1
            if dim:
                out[(sig_, d)] = dim
    return out


def alpha_composite_dims(bound):
    """Unary-map layer over the commutative-acting operad, merged as qH0SC.

    The composite collection puts the unary map on top: open components gain
    a copy of the closed ones (the unary map composed below by anything with
    closed output, including the identity).
    """
    vor = _with_identity(quotient_dims(h0scvor_presentation(), bound))

    def cell(sig_):
        d = vor.get((sig_, 0), 0)
        if sig_.out == OPEN:
            d += vor.get((Signature(sig_.n_closed, sig_.n_open, CLOSED), 0), 0)
        return {0: d}

    return _composite_dims(bound, cell)


def whistle_composite_dims(bound):
    """Degree -1 unary layer under the Lie-acting operad, merged as H0SCdual.

    Each closed input may route through the whistle into an open slot; s
    diverted inputs shift the degree by -s.
    """
    lp = _with_identity(quotient_dims(lp_presentation(), bound))

    def cell(sig_):
        if sig_.out == CLOSED:
            return {0: lp.get((sig_, 0), 0)}
        n, m = sig_.n_closed, sig_.n_open
        return {-s: comb(n, s) * lp.get((Signature(n - s, m + s, OPEN), 0), 0)
                for s in range(n + 1)}

    return _composite_dims(bound, cell)


# ---------------------------------------------------------------------------
# The comparison map onto the dual dg operad


PSI_GENERATORS = ("l2", "n02", "n11", "n10")


def psi_map_element(elem, target_collection):
    """Apply the counit comparison map to an Element of the free dg operad.

    Generators named l2, n02, n11, n10 map to their namesakes; every other
    generator maps to zero, killing any tree that contains one.
    """

    def image(space):
        if space.name in PSI_GENERATORS:
            return target_collection[space.name]
        return None

    mapped = ((map_spaces(t, image), c) for t, c in elem.terms.items())
    return Element.of(accumulate({}, ((t, c) for t, c in mapped
                                      if t is not None)))


def psi_commutes_with_differentials(bound=4):
    """Check Psi(d x) = d(Psi x) in the quotient, on every generator."""
    oc = ocinf_dg(bound)
    hd = h0sc_dual_dg(bound)
    bad = []
    for space, images in oc.derivation.images.items():
        for dec, img in enumerate(images):
            lhs = hd.trunc.reduce_to_element(
                psi_map_element(img, hd.collection))
            if space.name in PSI_GENERATORS:
                rhs = hd.differential(
                    corolla_element(hd.collection[space.name], dec))
            else:
                rhs = Element()
            if lhs != rhs:
                bad.append((space.name, dec, lhs, rhs))
    return bad


# ---------------------------------------------------------------------------
# Iterated elements of the dual dg operad and the boundary identities


def gamma_element(trunc, k):
    """gamma_k: the k-fold action class in (k,1;o)."""
    coll = trunc.collection
    if k == 0:
        raise ValueError("gamma_0 is the identity, not a tree")
    out = corolla_element(coll["n11"])
    for _ in range(k - 1):
        out = graft(out, OPEN, 1, corolla_element(coll["n11"]))
    return out


def kappa_element(trunc, k):
    """kappa_k: the whistle capped action class in (k,0;o)."""
    coll = trunc.collection
    if k == 1:
        return corolla_element(coll["n10"])
    return graft(gamma_element(trunc, k - 1), OPEN, 1,
                 corolla_element(coll["n10"]))


def boundary_identities(bound=4):
    """d(kappa_n) and d(gamma_n) decompose as unit-coefficient unshuffle
    sums of products of kappas and gammas; gamma terms come in commutator
    pairs.  Returns a list of failures (empty = identities hold).  Both
    sides are solved over their quotient residues, keyed by ambient index,
    which ``solve`` sorts as row keys."""
    dg = h0sc_dual_dg(bound)
    trunc = dg.trunc
    coll = trunc.collection
    failures = []
    prod = corolla_element(coll["n02"])

    def product_term(first, first_labels, second, second_labels):
        """n02(first, second) with the blocks relabeled; grafting the second
        slot first appends its closed block before the first slot's."""
        t = graft(prod, OPEN, 2, second) if second is not None else prod
        t = graft(t, OPEN, 1, first)
        perm = tuple(list(second_labels) + list(first_labels))
        sig_ = t.signature()
        return symmetric_act((perm, tuple(range(1, sig_.n_open + 1))), t)

    for n in range(2, bound + 1):
        kap = kappa_element(trunc, n)
        d_img = trunc.residue(dg.derivation.apply(kap))
        terms = []
        for size in range(1, n):
            for a, b in unshuffles(range(1, n + 1), size):
                t = product_term(kappa_element(trunc, len(a)), a,
                                 kappa_element(trunc, len(b)), b)
                terms.append(trunc.residue(t))
        x = solve(terms, d_img)
        if x is None or any(abs(x.get(j, 0)) != 1 for j in range(len(terms))):
            failures.append(("kappa", n, x))
    for n in range(1, bound):
        gam = gamma_element(trunc, n)
        d_img = trunc.residue(dg.derivation.apply(gam))
        terms = []
        keys = []
        for size in range(1, n + 1):
            for a, b in unshuffles(range(1, n + 1), size):
                ka = kappa_element(trunc, len(a))
                if b:
                    gb = gamma_element(trunc, len(b))
                    t1 = product_term(ka, a, gb, b)
                    t2 = product_term(gb, b, ka, a)
                else:
                    t1 = symmetric_act(
                        (a, (1,)), graft(prod, OPEN, 1, ka))
                    t2 = symmetric_act(
                        (a, (1,)), graft(prod, OPEN, 2, ka))
                terms.append(trunc.residue(t1))
                keys.append(("kg", a, b))
                terms.append(trunc.residue(t2))
                keys.append(("gk", a, b))
        x = solve(terms, d_img)
        if x is None or any(abs(x.get(j, 0)) != 1 for j in range(len(terms))):
            failures.append(("gamma", n, x))
            continue
        paired = {key: x.get(j, 0) for j, key in enumerate(keys)}
        for (kind, a, b), c in paired.items():
            if kind == "kg" and paired.get(("gk", a, b)) != -c:
                failures.append(("gamma-pairing", n, a, b))
    return failures

