"""Builtin operads: the catalog every other component computes against.

Relations are written in the canonical textual tree grammar, so this module
doubles as a usage example of the term language.  Leaf conventions: closed
inputs c1..cn, open inputs o1..om.

Catalog (presentations):
  Com        commutative algebras, closed color only
  Lie        Lie algebras, closed color only
  H0SCvor    commutative algebra acting on an associative algebra
  LP         Lie algebra acting by derivations on an associative algebra
  H0SC       H0SCvor plus a central multiplicative unary map (quadratic-linear)
  qH0SC      quadratic projection of H0SC
  H0SCdual   Koszul dual of H0SC: LP plus a degree -1 unary map, the eye
             relation, and a differential (see dg_models)
  LambdaC_OC color-suspended top-homology operad: Lie, associative, and a
             central degree -1 unary map
  Palpha     free operad on the unary map alone
  F_n10      free operad on the degree -1 unary map alone

Dg truncations (LPinf, OCinf, H0SCdual) are built in dg_models once the
differential machinery is importable.
"""

from functools import lru_cache

from .presentation import Presentation, project_q
from .trees import (CLOSED, NONE, OPEN, REGULAR, SIGN, TRIVIAL, Collection,
                    Element, generator, parse_term, sig)


def _relations(collection, specs):
    out = []
    for terms in specs:
        rel = Element()
        for coeff, text in terms:
            rel = rel + parse_term(collection, text).scale(coeff)
        out.append(rel)
    return out


@lru_cache(maxsize=None)
def com_presentation():
    coll = Collection([generator("f2", sig(2, 0, CLOSED), 0, TRIVIAL)])
    rels = _relations(coll, [
        [(1, "f2(f2(c1,c2),c3)"), (-1, "f2(c1,f2(c2,c3))")],
    ])
    return Presentation(coll, rels, "Com")


@lru_cache(maxsize=None)
def lie_presentation():
    coll = Collection([generator("l2", sig(2, 0, CLOSED), 0, SIGN)])
    rels = _relations(coll, [
        [(1, "l2(l2(c1,c2),c3)"), (1, "l2(l2(c2,c3),c1)"),
         (1, "l2(l2(c3,c1),c2)")],
    ])
    return Presentation(coll, rels, "Lie")


def _scvor_generators():
    return [
        generator("f2", sig(2, 0, CLOSED), 0, TRIVIAL),
        generator("e02", sig(0, 2, OPEN), 0, REGULAR),
        generator("e11", sig(1, 1, OPEN), 0, NONE),
    ]


_SCVOR_RELS = [
    # associativity of the commutative product
    [(1, "f2(f2(c1,c2),c3)"), (-1, "f2(c1,f2(c2,c3))")],
    # associativity of the open product
    [(1, "e02(e02(o1,o2),o3)"), (-1, "e02(o1,e02(o2,o3))")],
    # module rule: acting twice is acting by the product
    [(1, "e11(c1,e11(c2,o1))"), (-1, "e11(f2(c1,c2),o1)")],
    # the action slides across the open product, both ways
    [(1, "e11(c1,e02(o1,o2))"), (-1, "e02(e11(c1,o1),o2)")],
    [(1, "e11(c1,e02(o1,o2))"), (-1, "e02(o1,e11(c1,o2))")],
]


@lru_cache(maxsize=None)
def h0scvor_presentation():
    coll = Collection(_scvor_generators())
    return Presentation(coll, _relations(coll, _SCVOR_RELS), "H0SCvor")


_LP_RELS = [
    # Jacobi
    [(1, "l2(l2(c1,c2),c3)"), (1, "l2(l2(c2,c3),c1)"), (1, "l2(l2(c3,c1),c2)")],
    # associativity
    [(1, "n02(n02(o1,o2),o3)"), (-1, "n02(o1,n02(o2,o3))")],
    # derivation rule
    [(1, "n11(c1,n02(o1,o2))"), (-1, "n02(n11(c1,o1),o2)"),
     (-1, "n02(o1,n11(c1,o2))")],
    # Lie morphism rule
    [(1, "n11(l2(c1,c2),o1)"), (-1, "n11(c1,n11(c2,o1))"),
     (1, "n11(c2,n11(c1,o1))")],
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
        [(1, "e02(al(c1),o1)"), (-1, "e11(c1,o1)")],
        [(1, "e02(o1,al(c1))"), (-1, "e11(c1,o1)")],
        # quadratic: the unary map is multiplicative through the action
        [(1, "e11(c1,al(c2))"), (-1, "al(f2(c1,c2))")],
    ])
    return Presentation(coll, rels, "H0SC")


@lru_cache(maxsize=None)
def qh0sc_presentation():
    return project_q(h0sc_presentation(), "qH0SC")


# the whistle of a bracket is the commutator of the action with the whistle;
# pinned against the quadratic-linear dual pipeline and dg consistency
_EYE_REL = [(1, "n10(l2(c1,c2))"), (-1, "n11(c1,n10(c2))"),
            (1, "n11(c2,n10(c1))")]


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
        [(1, "lt2(lt2(c1,c2),c3)"), (1, "lt2(lt2(c2,c3),c1)"),
         (1, "lt2(lt2(c3,c1),c2)")],
        [(1, "nt02(nt02(o1,o2),o3)"), (-1, "nt02(o1,nt02(o2,o3))")],
        # centrality of the degree -1 map
        [(1, "nt02(nt10(c1),o1)"), (-1, "nt02(o1,nt10(c1))")],
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
# generator basis: a two-vertex tree contributes when its planar open-label
# readout fuses to the generator's arrangement, with sign
# (-1)^(k1 + (k2-1)(i-1) + (k1-1)(k2-1)) sgn(words) sgn(arrangements).


def _sh_generators(max_inputs, include_p0):
    gens = []
    for n in range(2, max_inputs + 1):
        gens.append(generator(f"l{n}", sig(n, 0, CLOSED), n - 2, SIGN))
    for p in range(0, max_inputs + 1):
        for q in range(0, max_inputs + 1 - p):
            if p + q > max_inputs or p + q < 1:
                continue
            if q == 0:
                if not include_p0 or p < 1:
                    continue
            elif p + q < 2:
                continue
            gens.append(generator(f"n{p}{q}", sig(p, q, OPEN), p + q - 2,
                                  SIGN))
    return gens


def _planar_open_word(t):
    """Open leaf labels in planar order; closed subtrees contribute nothing."""
    from .trees import Leaf
    if isinstance(t, Leaf):
        return (t.label,) if t.color == OPEN else ()
    sig_ = t.space.signature
    open_kids = t.children[sig_.n_closed:]
    arr = t.space.arrangements[t.dec] if sig_.n_open > 1 else tuple(
        range(1, sig_.n_open + 1))
    word = []
    for i in range(sig_.n_open):
        word.extend(_planar_open_word(open_kids[arr[i] - 1]))
    return tuple(word)


def _expansion_genmap(coll):
    from fractions import Fraction

    from .duality import _arrangement_sign, _label_words
    from .signs import perm_sign
    from .trees import Element, Node, enumerate_basis

    cache = {}

    def genmap(space, dec):
        key = (space.name, dec)
        hit = cache.get(key)
        if hit is not None:
            return hit
        sig_ = space.signature
        target = (space.arrangements[dec] if sig_.n_open > 1
                  else tuple(range(1, sig_.n_open + 1)))
        tsgn = perm_sign(target) if sig_.n_open > 1 else 1
        out = Element()
        for tau in enumerate_basis(coll, sig_, 2):
            if _planar_open_word(tau) != target:
                continue
            inner_pos, inner = next(
                (i, c) for i, c in enumerate(tau.children, start=1)
                if isinstance(c, Node))
            k1 = tau.space.signature.total
            k2 = inner.space.signature.total
            cw, ow = _label_words(tau)
            sgn = perm_sign(cw) * perm_sign(ow) * _arrangement_sign(tau) * tsgn
            exp = k1 + (k2 - 1) * (inner_pos - 1) + (k1 - 1) * (k2 - 1)
            if exp & 1:
                sgn = -sgn
            out = out + Element({tau: Fraction(sgn)})
        cache[key] = out
        return out

    return genmap


@lru_cache(maxsize=None)
def ocinf_dg(max_inputs=5):
    """The open-closed strong homotopy operad, truncated."""
    from .dgcalc import DgTruncation, extend_derivation
    coll = Collection(_sh_generators(max_inputs, include_p0=True))
    deriv = extend_derivation(coll, _expansion_genmap(coll))
    return DgTruncation(coll, deriv, max_inputs, name="OCinf")


@lru_cache(maxsize=None)
def lpinf_dg(max_inputs=5):
    """The strong homotopy Leibniz-pair operad, truncated."""
    from .dgcalc import DgTruncation, extend_derivation
    coll = Collection(_sh_generators(max_inputs, include_p0=False))
    deriv = extend_derivation(coll, _expansion_genmap(coll))
    return DgTruncation(coll, deriv, max_inputs, name="LPinf")


def h0sc_dual_n11_image(coll):
    """d(n11) = n02(n10(c1),o1) - n02(o1,n10(c1)), the homotopy-centrality
    differential of the dual of H0SC, in a collection with those names."""
    return (parse_term(coll, "n02(n10(c1),o1)")
            - parse_term(coll, "n02(o1,n10(c1))"))


@lru_cache(maxsize=None)
def h0sc_dual_dg(max_inputs=4):
    """The dual of H0SC as a dg quotient: differential on n11 only."""
    from .dgcalc import DgTruncation, extend_derivation
    from .presentation import truncation
    pres = h0sc_dual_presentation()
    coll = pres.collection
    image = h0sc_dual_n11_image(coll)

    def genmap(space, dec):
        if space.name == "n11":
            return image
        return Element.zero()

    deriv = extend_derivation(coll, genmap)
    return DgTruncation(coll, deriv, max_inputs,
                        trunc=truncation(pres, max_inputs), name="H0SCdual")


def lp_formula_genmap(coll, flip_one_sign=False):
    """Vertex-expansion differential per the printed unshuffle formulas.

    Transcribed literally at the identity arrangement: the closed expansion
    carries sgn(sigma); the mixed expansion with the inner corolla over I2
    and open window i+1..j carries (-1)^(|sigma| + i + |I1| + i|I2|).  Only
    q >= 1 inner corollas appear (the strong homotopy Leibniz-pair case).
    Other arrangements are the symmetric translates.  ``flip_one_sign``
    deliberately corrupts one term for negative testing.
    """
    from .signs import identity, perm_sign, unshuffle_perm, unshuffles
    from .trees import Element, Leaf, Node, make_node, symmetric_act

    def identity_image(space):
        sig_ = space.signature
        p, q = sig_.n_closed, sig_.n_open
        out = Element()
        if sig_.out == CLOSED:
            for size in range(2, p):
                for i1, i2 in unshuffles(range(1, p + 1), size):
                    outer = coll[f"l{len(i2) + 1}"]
                    inner = Node(coll[f"l{size}"], 0,
                                 tuple(Leaf(CLOSED, l) for l in i1))
                    kids = [inner] + [Leaf(CLOSED, l) for l in i2]
                    sgn = perm_sign(unshuffle_perm(i1, i2))
                    out = out + make_node(outer, 0, kids).scale(sgn)
            return out
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
                        inner = make_node(coll[inner_name], 0, tuple(
                            [Leaf(CLOSED, l) for l in i2]
                            + [Leaf(OPEN, k) for k in range(i + 1, j + 1)]))
                        sgn = base * (-1) ** ((i + len(i1) + i * len(i2)) & 1)
                        if flip_one_sign and i == 1 and j == q and len(i2) == 1:
                            sgn = -sgn
                        for itree, icoef in inner.terms.items():
                            kids = ([Leaf(CLOSED, l) for l in i1]
                                    + [Leaf(OPEN, k) for k in range(1, i + 1)]
                                    + [itree]
                                    + [Leaf(OPEN, k)
                                       for k in range(j + 1, q + 1)])
                            out = out + make_node(
                                coll[outer_name], 0, kids).scale(sgn * icoef)
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
                out = out + make_node(coll[outer_name], 0, kids).scale(sgn)
        return out

    cache = {}

    def genmap(space, dec):
        key = (space.name, dec)
        hit = cache.get(key)
        if hit is None:
            base = identity_image(space)
            sig_ = space.signature
            if dec == 0 or sig_.n_open <= 1:
                hit = base
            else:
                arr = space.arrangements[dec]
                hit = symmetric_act((identity(sig_.n_closed), arr), base)
            cache[key] = hit
        return hit

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


def builtin_presentation(name):
    builder = PRESENTATION_BUILDERS.get(name)
    if builder is None:
        known = ", ".join(sorted(PRESENTATION_BUILDERS))
        raise KeyError(f"unknown model {name!r}; presentations: {known}")
    return builder()


# ---------------------------------------------------------------------------
# Distributive laws


class LawFailure(ValueError):
    def __init__(self, message, witnesses):
        super().__init__(message)
        self.witnesses = witnesses


class DistributiveLaw:
    """A rewriting of mixed two-vertex trees presented as the merged
    quotient, together with the composite-collection dimension oracle."""

    def __init__(self, name, merged_presentation, composite_dims):
        self.name = name
        self.merged = merged_presentation
        self.composite_dims = composite_dims  # (sig) -> {degree: dim}


def _binomial(n, k):
    from math import comb
    return comb(n, k)


def _with_identity(dims):
    """Quotient dims plus the implicit identity components."""
    from .trees import Signature
    table = dict(dims)
    for s in (Signature(1, 0, CLOSED), Signature(0, 1, OPEN)):
        table[(s, 0)] = table.get((s, 0), 0) + 1
    return table


def alpha_distributive_law(bound=4):
    """Unary-map layer over the commutative-acting operad.

    The composite collection puts the unary map on top: open components gain
    a copy of the closed ones (the unary map composed below by anything with
    closed output, including the identity).
    """
    from .presentation import quotient_dims
    from .trees import Signature
    vor = _with_identity(quotient_dims(h0scvor_presentation(), bound))

    def composite(sig_):
        out = {}
        if sig_.out == OPEN:
            d = vor.get((sig_, 0), 0) + vor.get(
                (Signature(sig_.n_closed, sig_.n_open, CLOSED), 0), 0)
        else:
            d = vor.get((sig_, 0), 0)
        if d:
            out[0] = d
        return out

    return DistributiveLaw("alpha", qh0sc_presentation(), composite)


def whistle_distributive_law(bound=4):
    """Degree -1 unary layer under the Lie-acting operad.

    Each closed input may route through the whistle into an open slot; s
    diverted inputs shift the degree by -s.
    """
    from .presentation import quotient_dims
    from .trees import Signature
    lp = _with_identity(quotient_dims(lp_presentation(), bound))

    def composite(sig_):
        out = {}
        if sig_.out == CLOSED:
            d = lp.get((sig_, 0), 0)
            if d:
                out[0] = d
            return out
        n, m = sig_.n_closed, sig_.n_open
        for s in range(0, n + 1):
            inner = lp.get((Signature(n - s, m + s, OPEN), 0), 0)
            if inner:
                d = _binomial(n, s) * inner
                if d:
                    out[-s] = out.get(-s, 0) + d
        return out

    return DistributiveLaw("whistle", h0sc_dual_presentation(), composite)


def identity_distributive_law(presentation, bound=4):
    """The trivial law of the unit layer: the composite is the operad."""
    from .presentation import quotient_dims
    dims = _with_identity(quotient_dims(presentation, bound))

    def composite(sig_):
        out = {}
        for (s, deg), d in dims.items():
            if s == sig_:
                out[deg] = out.get(deg, 0) + d
        return out

    return DistributiveLaw("identity", presentation, composite)


def apply_distributive_law(law, bound):
    """Truncation of the merged presentation, checked cell by cell against
    the plain composite of collections.  Raises LawFailure on mismatch.

    The composite tables carry the identity components; they are stripped
    before comparing with the reduced quotient.
    """
    from .presentation import signatures_within, truncation
    from .trees import Signature
    trunc = truncation(law.merged, bound)
    witnesses = []
    identities = {Signature(1, 0, CLOSED), Signature(0, 1, OPEN)}
    for sig_ in signatures_within(bound):
        got = trunc.dims_by_degree(sig_)
        want = dict(law.composite_dims(sig_))
        if sig_ in identities:
            want[0] = want.get(0, 0) - 1
            want = {k: v for k, v in want.items() if v}
        if got != want:
            witnesses.append({"signature": str(sig_), "quotient": got,
                              "composite": want})
    if witnesses:
        raise LawFailure(f"law {law.name} fails at bound {bound}", witnesses)
    return trunc


# ---------------------------------------------------------------------------
# The comparison map onto the dual dg operad


PSI_GENERATORS = ("l2", "n02", "n11", "n10")


def psi_map_element(elem, target_collection):
    """Apply the counit comparison map to an Element of the free dg operad.

    Generators named l2, n02, n11, n10 map to their namesakes; every other
    generator maps to zero, killing any tree that contains one.
    """
    from .trees import Element, Leaf, Node

    def map_tree(t):
        if isinstance(t, Leaf):
            return t
        if t.space.name not in PSI_GENERATORS:
            return None
        kids = []
        for c in t.children:
            mc = map_tree(c)
            if mc is None:
                return None
            kids.append(mc)
        return Node(target_collection[t.space.name], t.dec, tuple(kids))

    out = Element()
    for t, c in elem.terms.items():
        mt = map_tree(t)
        if mt is not None:
            out = out + Element({mt: c})
    return out


def psi_commutes_with_differentials(bound=4):
    """Check Psi(d x) = d(Psi x) in the quotient, on every generator."""
    oc = ocinf_dg(bound)
    hd = h0sc_dual_dg(bound)
    bad = []
    for space in oc.collection:
        for dec in range(space.dim):
            img = oc.derivation.genmap(space, dec)
            lhs = hd.trunc.reduce_to_element(
                psi_map_element(img, hd.collection))
            if space.name in PSI_GENERATORS:
                from .trees import corolla_element
                rhs = hd.trunc.reduce_to_element(hd.derivation.apply(
                    corolla_element(hd.collection[space.name], dec)))
            else:
                from .trees import Element
                rhs = Element.zero()
            if lhs != rhs:
                bad.append((space.name, dec, lhs, rhs))
    return bad


# ---------------------------------------------------------------------------
# Iterated elements of the dual dg operad and the boundary identities


def gamma_element(trunc, k):
    """gamma_k: the k-fold action class in (k,1;o)."""
    from .trees import OPEN as _O
    from .trees import corolla_element, graft
    coll = trunc.collection
    if k == 0:
        raise ValueError("gamma_0 is the identity, not a tree")
    out = corolla_element(coll["n11"])
    for _ in range(k - 1):
        out = graft(out, _O, 1, corolla_element(coll["n11"]))
    return out


def kappa_element(trunc, k):
    """kappa_k: the whistle capped action class in (k,0;o)."""
    from .trees import OPEN as _O
    from .trees import corolla_element, graft
    coll = trunc.collection
    if k == 1:
        return corolla_element(coll["n10"])
    return graft(gamma_element(trunc, k - 1), _O, 1,
                 corolla_element(coll["n10"]))


def boundary_identities(bound=4):
    """d(kappa_n) and d(gamma_n) decompose as unit-coefficient unshuffle
    sums of products of kappas and gammas; gamma terms come in commutator
    pairs.  Returns a list of failures (empty = identities hold)."""
    from .signs import unshuffles
    from .trees import OPEN as _O
    from .trees import corolla_element, graft, symmetric_act
    dg = h0sc_dual_dg(bound)
    trunc = dg.trunc
    coll = trunc.collection
    failures = []
    prod = corolla_element(coll["n02"])

    def product_term(first, first_labels, second, second_labels):
        """n02(first, second) with the blocks relabeled; grafting the second
        slot first appends its closed block before the first slot's."""
        t = graft(prod, _O, 2, second) if second is not None else prod
        slot_one = _O, 1
        t = graft(t, _O, 1, first)
        perm = tuple(list(second_labels) + list(first_labels))
        sig_ = t.signature()
        return symmetric_act((perm, tuple(range(1, sig_.n_open + 1))), t)

    for n in range(2, bound + 1):
        kap = kappa_element(trunc, n)
        d_img = trunc.reduce(dg.derivation.apply(kap))
        terms = []
        for size in range(1, n):
            for a, b in unshuffles(range(1, n + 1), size):
                t = product_term(kappa_element(trunc, len(a)), a,
                                 kappa_element(trunc, len(b)), b)
                terms.append(trunc.reduce(t))
        coeffs = _solve_combo(d_img, terms)
        if coeffs is None or any(abs(c) != 1 for c in coeffs):
            failures.append(("kappa", n, coeffs))
    for n in range(1, bound):
        gam = gamma_element(trunc, n)
        d_img = trunc.reduce(dg.derivation.apply(gam))
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
                        (a, (1,)), graft(prod, _O, 1, ka))
                    t2 = symmetric_act(
                        (a, (1,)), graft(prod, _O, 2, ka))
                terms.append(trunc.reduce(t1))
                keys.append(("kg", a, b))
                terms.append(trunc.reduce(t2))
                keys.append(("gk", a, b))
        coeffs = _solve_combo(d_img, terms)
        if coeffs is None or any(abs(c) != 1 for c in coeffs):
            failures.append(("gamma", n, coeffs))
            continue
        paired = dict(zip(keys, coeffs))
        for (kind, a, b), c in paired.items():
            if kind == "kg" and paired.get(("gk", a, b)) != -c:
                failures.append(("gamma-pairing", n, a, b))
    return failures


def _solve_combo(target, terms):
    """Coefficients writing target as a combination of the given vectors."""
    from fractions import Fraction

    from .linalg import solve
    cols = sorted({c for t in terms for c in t} | set(target))
    if not cols:
        return [Fraction(0)] * len(terms)
    rows = [[t.get(c, Fraction(0)) for t in terms] for c in cols]
    sol = solve(rows, [target.get(c, Fraction(0)) for c in cols])
    if sol is None:
        return None
    # verify exactly (free variables are zero)
    residual = dict(target)
    for c, t in zip(sol, terms):
        for k, v in t.items():
            residual[k] = residual.get(k, Fraction(0)) - c * v
    if any(v for v in residual.values()):
        return None
    return sol


def builtin_model(name, max_inputs=None):
    """Presentation or dg truncation by catalog name."""
    dg = {"LPinf": lpinf_dg, "OCinf": ocinf_dg, "H0SCdualDg": h0sc_dual_dg}
    if name in dg:
        return dg[name](max_inputs) if max_inputs else dg[name]()
    if name in PRESENTATION_BUILDERS:
        return PRESENTATION_BUILDERS[name]()
    known = ", ".join(sorted(list(PRESENTATION_BUILDERS) + list(dg)))
    raise KeyError(f"unknown model {name!r}; available: {known}")
