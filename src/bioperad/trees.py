"""Partially planar 2-colored trees and the free operads they span.

A tree vertex carries a *vertex space*: a finite-dimensional space with a
basis, per-basis degrees, and an action of S_n x S_m on it (n closed inputs,
m open inputs).  Named generators with {trivial, sign, regular} symmetry are
the common case; quotient-operad components (used by the cobar construction)
are the general one.

Canonical form
--------------
Children of every vertex sit in linear slot order: the closed block first,
then the open block, each block sorted ascending by the minimal leaf of the
subtree (closed leaves compare before open ones).  Leaf labels are 1..n for
closed and 1..m for open inputs.  Reordering children to canonical position
acts on the vertex decoration through the space's symmetric action and
contributes the Koszul sign of the permuted subtree blocks, computed in the
depth-first word of vertex degrees.

Nodes are hash-consed (J.-C. Filliatre and S. Conchon, *Type-safe modular
hash-consing*, ML Workshop 2006): each vertex space interns its nodes, so
equal trees are one object and tree equality is identity.  Only canonical
nodes are interned; a node whose blocks are out of order is refused.

Substitution
------------
Plugging trees into the leaves of a tree is total composition, and it is
the one leaf replacement here: the partial composition ``graft`` (the outer
leaves relabelled, the grafted tree shifted into its slot's labels), the
S_n x S_m relabelling ``symmetric_act`` (leaves for leaves) and the vertex
substitution of a derivation all call ``substitute``.  Each pattern tree is
compiled once into a plan that its node keeps: its leaves and vertices in
post-order, a leaf with its slot and the parity of the pattern word after
it.  A call runs the plan as a stack machine, rebuilding the vertices
bottom-up, and re-sorts only those whose children tuple is not interned;
the sign comes from the odd-degree subtrees, by the stored parities and
their crossings as they move to their leaves' positions in the word.

Elements are Q-linear combinations of canonical trees with a fixed
signature and homological degree.  Coefficients are exact: an ``int`` when
integral, a ``Fraction`` otherwise, never a float.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .signs import koszul_sign

CLOSED = "c"
OPEN = "o"
COLORS = (CLOSED, OPEN)

TRIVIAL = "trivial"
SIGN = "sign"
REGULAR = "regular"
NONE = "none"


class CompositionError(ValueError):
    """Raised on color mismatches or invalid slots in grafting."""


@dataclass(frozen=True)
class Signature:
    n_closed: int
    n_open: int
    out: str

    def __post_init__(self):
        if self.n_closed < 0 or self.n_open < 0:
            raise ValueError(f"negative input count in {self!r}")
        if self.out not in COLORS:
            raise ValueError(f"unknown output color {self.out!r}")

    @property
    def total(self):
        return self.n_closed + self.n_open

    def slot_color(self, i):
        """Color of linear slot i (1-based, closed block first)."""
        if not 1 <= i <= self.total:
            raise CompositionError(f"slot {i} out of range for {self}")
        return CLOSED if i <= self.n_closed else OPEN

    def __str__(self):
        return f"({self.n_closed},{self.n_open};{self.out})"


def sig(n_closed, n_open, out):
    return Signature(n_closed, n_open, out)


IDENTITY_SIGS = (Signature(1, 0, CLOSED), Signature(0, 1, OPEN))


class VertexSpace:
    """Basis + S_n x S_m action for one operadic slot shape.

    ``closed_swaps[i]`` / ``open_swaps[i]`` give the right action of the
    adjacent transposition (i+1, i+2) of the block as sparse columns:
    ``swaps[i][b] = ((b', coeff), ...)``.  A named generator also declares
    ``arrangements``, the open-block arrangement of each basis element (the
    identity when it has at most one open input), and its ``symmetry`` tag;
    both are None for any other space, such as a quotient component.
    """

    def __init__(self, name, signature, degrees, closed_swaps, open_swaps,
                 arrangements=None, symmetry=None):
        self.name = name
        self.signature = signature
        self.degrees = tuple(degrees)
        self.dim = len(self.degrees)
        self.closed_swaps = tuple(tuple(map(tuple, s)) for s in closed_swaps)
        self.open_swaps = tuple(tuple(map(tuple, s)) for s in open_swaps)
        if (len(self.closed_swaps) != max(signature.n_closed - 1, 0)
                or len(self.open_swaps) != max(signature.n_open - 1, 0)):
            raise ValueError(f"{name}: one swap table per adjacent "
                             f"transposition of {signature} is needed")
        self.arrangements = arrangements
        self.symmetry = symmetry
        self._resort_cache = {}
        self.nodes = {}  # (dec, children) -> the interned Node

    def __repr__(self):
        return f"VertexSpace({self.name}, {self.signature}, dim {self.dim})"

    def act_block(self, basis_idx, closed_perm, open_perm):
        """Right action of (closed_perm, open_perm) on a basis element.

        Returns a tuple of (basis_idx, coeff) pairs; ``resort`` memoises it.
        """
        vec = {basis_idx: 1}
        for swaps, perm in ((self.closed_swaps, closed_perm),
                            (self.open_swaps, open_perm)):
            for i in _adjacent_decomposition(perm):
                new = {}
                for b, coef in vec.items():
                    accumulate(new, swaps[i][b], coef)
                vec = new
        return tuple(sorted(vec.items()))

    def resort(self, dec, order, odd):
        """The (basis index, coeff) terms of basis element dec once its
        children, listed in slot order, are put in the order ``order`` (the
        old slot of each new one, each color block kept in place): the
        block action times the Koszul sign of the crossings of odd
        children, bit i of ``odd`` set when child i has odd degree."""
        key = (dec, order, odd)
        hit = self._resort_cache.get(key)
        if hit is not None:
            return hit
        n = self.signature.n_closed
        perm = [0] * len(order)
        for new, old in enumerate(order):
            perm[old] = new + 1
        sign = koszul_sign(perm, [odd >> i & 1 for i in range(len(order))])
        out = tuple((b, c * sign) for b, c in self.act_block(
            dec, tuple(perm[:n]), tuple(p - n for p in perm[n:])))
        self._resort_cache[key] = out
        return out


def _adjacent_decomposition(perm):
    """Transposition indices whose left-multiplications compose to perm.

    Bubble-sorts the one-line word of perm, collecting the swaps; applying
    value-swaps s_i (left multiplication) in the returned order to the
    identity rebuilds perm.
    """
    word = list(perm)
    ops = []
    n = len(word)
    for i in range(n):
        for j in range(n - 1 - i):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                ops.append(j)
    return tuple(ops)


def _scalar_swaps(count, dim, s):
    """count swap tables, each acting on every basis element as s."""
    return (tuple(((b, s),) for b in range(dim)),) * count


@lru_cache(maxsize=None)
def _regular_swap_tables(q):
    """Adjacent-swap action on the regular representation k[S_q].

    Basis: permutations of S_q in lexicographic order.  Leaf relabeling is a
    left action, so the block transposition s_i sends the arrangement tau to
    s_i o tau: the letters i+1 and i+2 swap wherever they occur.
    """
    elems = sorted(permutations(range(1, q + 1)))
    index = {p: i for i, p in enumerate(elems)}
    tables = []
    for i in range(q - 1):
        a, b = i + 1, i + 2
        col = []
        for p in elems:
            w = tuple(b if x == a else a if x == b else x for x in p)
            col.append(((index[w], 1),))
        tables.append(tuple(col))
    return tuple(elems), tuple(tables)


def generator(name, signature, degree, symmetry):
    """Named generator with a one-tag symmetry type.

    trivial / sign describe the closed block (the open block, if any, is
    always regular); regular is for shapes whose closed block has at most
    one input, and makes the open block free; none is for shapes where no
    block has more than one input.  A generator takes at least one input
    and is not on an identity signature: a same-color unary map would
    compose with itself without bound.
    """
    n, m = signature.n_closed, signature.n_open
    if symmetry not in (TRIVIAL, SIGN, REGULAR, NONE):
        raise ValueError(f"unknown symmetry {symmetry!r}")
    if signature.total == 0 or signature in IDENTITY_SIGS:
        raise ValueError(f"{name}: no generator on {signature}, which is "
                         "nullary or the identity's")
    if symmetry in (NONE, REGULAR) and n > 1:
        raise ValueError(f"{name}: closed block of size {n} needs symmetry "
                         "trivial or sign")
    if symmetry == NONE and m > 1:
        raise ValueError(f"{name}: open block of size {m} needs a symmetry")
    arrangements, open_swaps = _regular_swap_tables(m)
    dim = len(arrangements)
    closed = _scalar_swaps(max(n - 1, 0), dim, -1 if symmetry == SIGN else 1)
    return VertexSpace(name, signature, [degree] * dim, closed, open_swaps,
                       arrangements, symmetry)


class Collection:
    """A finite family of vertex spaces, looked up by name or signature.

    Names are distinct, and the unary spaces, which change color, do not
    go both ways: opposite unary maps would compose without bound.  It also
    memoises what is enumerated over it, so the memos are freed with it:
    the decorated subtrees and bases of ``enumerate_basis``, and the
    ambient bases of ``presentation.ambient_basis`` keyed by signature.
    """

    def __init__(self, spaces):
        self.spaces = tuple(spaces)
        self.by_name = {}
        for s in self.spaces:
            if s.name in self.by_name:
                raise ValueError(f"duplicate space name {s.name}")
            self.by_name[s.name] = s
        if len({s.signature.out for s in self.spaces
                if s.signature.total == 1}) > 1:
            raise ValueError("opposite unary generators give unbounded weight")
        self.by_out = {CLOSED: [], OPEN: []}
        for s in self.spaces:
            self.by_out[s.signature.out].append(s)
        self.subtrees = {}
        self.bases = {}
        self.ambients = {}

    def __iter__(self):
        return iter(self.spaces)

    def __getitem__(self, name):
        return self.by_name[name]

    def __contains__(self, name):
        return name in self.by_name

    def key(self):
        return tuple(s.name for s in self.spaces)


# ---------------------------------------------------------------------------
# Trees


@dataclass(frozen=True)
class Leaf:
    color: str
    label: int

    def __repr__(self):
        return f"{self.color}{self.label}"


class Node:
    """Internal vertex: a vertex space, a basis index, ordered children.

    ``Node(space, dec, children)`` returns the node interned in
    ``space.nodes`` for (dec, children), creating it on first use, so
    equality and hashing are by identity.  Only canonical nodes are
    interned: creating one whose children do not fill the space's slots
    raises CompositionError, and one whose color blocks do not ascend by
    ``min_leaf_key`` raises ValueError, so a node found in ``space.nodes``
    has its children in canonical order.
    """

    __slots__ = ("space", "dec", "children", "_min_key", "_degree",
                 "_weight", "_signature", "_plan")

    def __new__(cls, space, dec, children):
        key = (dec, tuple(children))
        node = space.nodes.get(key)
        if node is None:
            _check_child_colors(space, key[1])
            n = space.signature.n_closed
            keys = [min_leaf_key(c) for c in key[1]]
            for i in range(1, len(keys)):
                if i != n and keys[i - 1] > keys[i]:
                    raise ValueError(
                        f"children {key[1]} of {space.name} are not in "
                        "canonical order")
            node = space.nodes[key] = object.__new__(cls)
            node.space, node.dec, node.children = space, dec, key[1]
            node._min_key = node._degree = node._weight = None
            node._signature = node._plan = None
        return node

    def __repr__(self):
        return text_form(self)


def out_color(t):
    return t.color if isinstance(t, Leaf) else t.space.signature.out


def tree_degree(t):
    if isinstance(t, Leaf):
        return 0
    if t._degree is None:
        t._degree = t.space.degrees[t.dec] + sum(
            tree_degree(c) for c in t.children)
    return t._degree


def tree_weight(t):
    if isinstance(t, Leaf):
        return 0
    if t._weight is None:
        t._weight = 1 + sum(tree_weight(c) for c in t.children)
    return t._weight


def min_leaf_key(t):
    if isinstance(t, Leaf):
        return (0 if t.color == CLOSED else 1, t.label)
    if t._min_key is None:
        t._min_key = min(min_leaf_key(c) for c in t.children)
    return t._min_key


def tree_signature(t):
    """Signature of a tree whose closed and open leaves are labelled 1..n
    and 1..m, each label once; raises ValueError for any other labelling."""
    if isinstance(t, Node) and t._signature is not None:
        return t._signature
    labels = {CLOSED: [], OPEN: []}
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Leaf):
            labels[x.color].append(x.label)
        else:
            stack.extend(x.children)
    closed, open_ = sorted(labels[CLOSED]), sorted(labels[OPEN])
    if (closed != list(range(1, len(closed) + 1))
            or open_ != list(range(1, len(open_) + 1))):
        raise ValueError(f"leaves of {text_form(t)} are not labelled "
                         f"1..n and 1..m")
    sig_ = Signature(len(closed), len(open_), out_color(t))
    if isinstance(t, Node):
        t._signature = sig_
    return sig_


def _check_child_colors(space, children):
    sig_ = space.signature
    if len(children) != sig_.total:
        raise CompositionError(
            f"{space.name} takes {sig_.total} children, got {len(children)}")
    n = sig_.n_closed
    for i, c in enumerate(children):
        want = CLOSED if i < n else OPEN
        got = c.color if type(c) is Leaf else c.space.signature.out
        if want != got:
            raise CompositionError(
                f"slot {i + 1} of {space.name} is {want} but received {got}")


# ---------------------------------------------------------------------------
# Elements: Q-linear combinations of canonical trees


def _exact(c):
    """c as an int when it is integral, else as a Fraction.

    A float is refused: its exact value is a dyadic rational, for 0.1 the
    Fraction 3602879701896397/36028797018963968, never what was meant.
    """
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}: use an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def accumulate(acc, items, scale=1):
    """Add scale * c to acc[k] for each (k, c) in items; returns acc.

    Zero sums are dropped and integral sums are kept as ints.
    """
    for k, c in items:
        nv = acc.get(k, 0) + c * scale
        if type(nv) is not int and nv.denominator == 1:
            nv = nv.numerator
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc


class Element:
    """Linear combination of canonical trees of one signature and degree."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            accumulate(self.terms, (
                (t, _exact(c)) for t, c in
                (terms.items() if isinstance(terms, dict) else terms)))

    @classmethod
    def of(cls, terms):
        """Wrap a dict of nonzero, already normalised coefficients."""
        e = object.__new__(cls)
        e.terms = terms
        return e

    def is_zero(self):
        return not self.terms

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        return Element.of(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _exact(c)
        if not c:
            return Element()
        return Element.of({t: _exact(x * c) for t, x in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def signature(self):
        t = next(iter(self.terms))
        return tree_signature(t)

    def degree(self):
        t = next(iter(self.terms))
        return tree_degree(t)

    def weights(self):
        return sorted({tree_weight(t) for t in self.terms})

    def __repr__(self):
        """The text that parse_term reads back as this element: terms
        sorted by text, the reparse sign folded into each coefficient."""
        if not self.terms:
            return "0"
        memo = {}
        signed = [(_signed_text(t, memo), c) for t, c in self.terms.items()]
        bits = []
        for (sign, txt), c in sorted(signed, key=lambda sc: sc[0][1]):
            c *= sign
            bits.append(f"{'-' if c < 0 else '+'} "
                        f"{txt if abs(c) == 1 else f'{abs(c)}*{txt}'}")
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else s


def tree_element(t, coeff=1):
    return Element({t: coeff})


# ---------------------------------------------------------------------------
# Canonicalization

def make_node(space, dec, children):
    """Assemble a vertex from possibly unsorted children; returns an Element.

    ``dec`` is a basis index of the space.  Children must already be
    canonical trees (or leaves).  Each color block is sorted by min leaf
    key; the result depends only on dec, the order that sorts the blocks
    and the parity of each child's degree, so the space keeps it per such
    key (``VertexSpace.resort``).
    """
    _check_child_colors(space, children)
    n, k = space.signature.n_closed, len(children)
    keys = [min_leaf_key(c) for c in children]
    order = (*sorted(range(n), key=keys.__getitem__),
             *sorted(range(n, k), key=keys.__getitem__))
    terms = space.resort(dec, order, _odd_slots(children))
    children = tuple(children[i] for i in order)
    return Element.of({Node(space, b, children): c for b, c in terms})


def corolla(space, dec=0):
    """The canonical corolla: identity leaf labels, given basis element."""
    sig_ = space.signature
    children = [Leaf(CLOSED, i) for i in range(1, sig_.n_closed + 1)]
    children += [Leaf(OPEN, i) for i in range(1, sig_.n_open + 1)]
    return Node(space, dec, tuple(children))


def corolla_element(space, dec=0):
    return tree_element(corolla(space, dec))


def assemble(space, dec, parts):
    """Basis element dec of space over children given as term dicts
    {tree: coeff}, one per slot, expanded multilinearly; returns the
    canonical terms {tree: coeff}.

    A children tuple found in the space's interned nodes is canonical as it
    stands; any other goes through make_node, which re-sorts its blocks.
    """
    nodes, acc = space.nodes, {}
    for combo in product(*(p.items() for p in parts)):
        children = tuple(t for t, _ in combo)
        coeff = 1
        for _, c in combo:
            coeff *= c
        node = nodes.get((dec, children))
        if node is not None:
            accumulate(acc, ((node, coeff),))
        else:
            accumulate(acc, make_node(space, dec, children).terms.items(),
                       coeff)
    return acc


# ---------------------------------------------------------------------------
# Substitution: replace the leaves of a standard-labeled pattern by subtrees.
# This is total composition; grafting, the symmetric action and derivations
# are all built on it.


def _compile(pattern):
    """The plan of a standard-labeled pattern node, kept in its ``_plan``.

    One flat tuple of the pattern's leaves and vertices in post-order: a
    vertex as its own node, a leaf as 2 * its slot index + its tail
    parity, the tail being the sum of the vertex degrees after the leaf in
    the word of the pattern.  Post-order keeps the leaves in pre-order.
    """
    n, plan = tree_signature(pattern).n_closed, []

    def walk(t, tail):
        if isinstance(t, Leaf):
            slot = t.label - 1 if t.color == CLOSED else n + t.label - 1
            plan.append(2 * slot + (tail & 1))
            return
        after = tail + tree_degree(t) - t.space.degrees[t.dec]
        for c in t.children:
            after -= tree_degree(c)
            walk(c, after)
        plan.append(t)

    walk(pattern, 0)
    pattern._plan = tuple(plan)
    return pattern._plan


def _odd_slots(subs):
    """The bitmask of the slots whose subtree has odd degree."""
    odd = 0
    for i, s in enumerate(subs):
        if tree_degree(s) & 1:
            odd |= 1 << i
    return odd


def substitute(pattern, subs, odd=None):
    """Plug subtrees into all leaves of a standard-labeled pattern tree.

    subs is in slot order, as ``Node.children``: subs[i-1] replaces leaf
    (CLOSED, i) and subs[n+j-1] leaf (OPEN, j), n the closed inputs; odd is
    their ``_odd_slots``, computed here when not given.  Returns an
    Element.  The pattern's plan is run as a stack machine: a leaf pushes
    its subtree, a vertex pops its children, looks them up interned and
    re-sorts them by make_node only when they are not; a re-sort with
    several terms carries term dicts upward through ``assemble``.  Signs:
    starting from (pattern word, subtrees in slot order), the subtree words
    move to their leaf positions.  Only the odd-degree subtrees count: each
    flips the sign when an odd tail of the pattern word follows its leaf,
    and each pair of them flips it when their pre-order disagrees with
    their slot order.
    """
    if isinstance(pattern, Leaf):
        return Element.of({subs[0]: 1})
    plan = pattern._plan or _compile(pattern)
    stack, scale, spread = [], 1, False
    for op in plan:
        if type(op) is int:
            stack.append(subs[op >> 1])
            continue
        cut = len(stack) - len(op.children)
        children = tuple(stack[cut:])
        del stack[cut:]
        if spread:
            stack.append(assemble(op.space, op.dec, [
                v if type(v) is dict else {v: 1} for v in children]))
            continue
        node = op.space.nodes.get((op.dec, children))
        if node is None:
            terms = make_node(op.space, op.dec, children).terms
            if len(terms) == 1:
                (node, c), = terms.items()
                scale *= c
            else:
                node, spread = terms, True
        stack.append(node)
    if odd is None:
        odd = _odd_slots(subs)
    if odd:
        flips = seen = 0
        for code in plan:
            if type(code) is int and odd >> (code >> 1) & 1:
                flips += (code & 1) + (seen >> (code >> 1)).bit_count()
                seen |= 1 << (code >> 1)
        if flips & 1:
            scale = -scale
    top, = stack
    if spread:
        return Element.of(accumulate({}, top.items(), scale))
    return Element.of({top: _exact(scale)})


def substitute_element(pattern_elem, subs):
    acc, odd = {}, _odd_slots(subs)
    for t, c in pattern_elem.terms.items():
        accumulate(acc, substitute(t, subs, odd).terms.items(), c)
    return Element.of(acc)


def graft_trees(t, color, index, s):
    """Graft canonical tree s into the (color, index) input of t.

    Returns an Element: the substitution into t of its leaves relabelled
    around the slot and, at the slot, s with its labels shifted past the
    outer leaves before the slot (inner opens precede all outer opens when
    the slot is closed).  A shift within each color keeps s canonical.
    """
    t_sig = tree_signature(t)
    s_sig = tree_signature(s)
    n1, m1 = t_sig.n_closed, t_sig.n_open
    n2, m2 = s_sig.n_closed, s_sig.n_open
    if color == CLOSED and not 1 <= index <= n1:
        raise CompositionError(f"no closed slot {index} in {t_sig}")
    if color == OPEN and not 1 <= index <= m1:
        raise CompositionError(f"no open slot {index} in {t_sig}")
    if s_sig.out != color:
        raise CompositionError(
            f"cannot graft {s_sig.out}-output into a {color} slot")
    if color == CLOSED:
        dc, do = index - 1, 0
        closed = [k if k < index else k + n2 - 1 for k in range(1, n1 + 1)]
        open_ = [k + m2 for k in range(1, m1 + 1)]
    else:
        dc, do = n1, index - 1
        closed = list(range(1, n1 + 1))
        open_ = [k if k < index else k + m2 - 1 for k in range(1, m1 + 1)]
    (s2, _), = substitute(s, [Leaf(CLOSED, k + dc) for k in range(1, n2 + 1)]
                          + [Leaf(OPEN, k + do) for k in range(1, m2 + 1)]
                          ).terms.items()
    leaves = [Leaf(CLOSED, k) for k in closed] + [Leaf(OPEN, k) for k in open_]
    leaves[index - 1 if color == CLOSED else n1 + index - 1] = s2
    return substitute(t, leaves)


def graft(elem, color, index, inner):
    """Bilinear graft of Elements; see graft_trees."""
    acc = {}
    for t, ct in elem.terms.items():
        for s, cs in inner.terms.items():
            accumulate(acc, graft_trees(t, color, index, s).terms.items(),
                       ct * cs)
    return Element.of(acc)


# ---------------------------------------------------------------------------
# Symmetric group action


def symmetric_act(perm_pair, elem):
    """Right action of (closed perm, open perm) by relabeling leaves."""
    cperm, operm = perm_pair
    for t in elem.terms:
        sig_ = tree_signature(t)
        if len(cperm) != sig_.n_closed or len(operm) != sig_.n_open:
            raise ValueError("permutation sizes do not match the signature")
    return substitute_element(elem, [Leaf(CLOSED, p) for p in cperm]
                              + [Leaf(OPEN, p) for p in operm])


def map_spaces(t, image):
    """t with every vertex space s replaced by image(s), or None when image
    returns None for some vertex.  Canonical order depends on the leaves
    alone, so a canonical tree maps to a canonical tree when each image
    space has the signature of its source."""
    if isinstance(t, Leaf):
        return t
    space = image(t.space)
    if space is None:
        return None
    children = []
    for c in t.children:
        c = map_spaces(c, image)
        if c is None:
            return None
        children.append(c)
    return Node(space, t.dec, tuple(children))


# ---------------------------------------------------------------------------
# Basis enumeration


@lru_cache(maxsize=None)
def _splits(labels):
    """Every (subset, rest) split of a label tuple, both ascending, in
    bitmask order of the subset."""
    n = len(labels)
    return tuple((tuple(labels[i] for i in range(n) if mask >> i & 1),
                  tuple(labels[i] for i in range(n) if not mask >> i & 1))
                 for mask in range(1 << n))


def enumerate_subtrees(collection, closed_labels, open_labels, out, weight):
    """All canonical decorated trees with the given leaf label sets, output
    color and vertex count, in enumeration order.  Labels are tuples of
    ints (ascending).  Memoised on the collection."""
    key = (closed_labels, open_labels, out, weight)
    hit = collection.subtrees.get(key)
    if hit is not None:
        return hit

    results = []
    if weight == 0:
        if out == CLOSED and len(closed_labels) == 1 and not open_labels:
            results.append(Leaf(CLOSED, closed_labels[0]))
        if out == OPEN and len(open_labels) == 1 and not closed_labels:
            results.append(Leaf(OPEN, open_labels[0]))
    elif weight > 0:
        for space in collection.by_out[out]:
            sig_ = space.signature
            if sig_.total == 0:
                continue
            for children in _slot_assignments(
                    collection, sig_, closed_labels, open_labels, weight - 1):
                results.extend(Node(space, dec, children)
                               for dec in range(space.dim))
    collection.subtrees[key] = results
    return results


def _slot_assignments(collection, sig_, closed_labels, open_labels, budget):
    """Distribute labels and weight over the slots of a signature, keeping
    each color block sorted by minimal leaf key.

    Only splits that can complete are tried: every slot gets at least one
    label, and the last slot takes exactly the labels and weight left.
    """
    slots = ([CLOSED] * sig_.n_closed) + ([OPEN] * sig_.n_open)
    last = len(slots) - 1
    if len(closed_labels) + len(open_labels) <= last:
        return

    memo = collection.subtrees  # read inline: most lookups hit

    def fill(slot_idx, c_rest, o_rest, w_rest, prev_closed, prev_open, acc):
        color = slots[slot_idx]
        prev = prev_closed if color == CLOSED else prev_open
        if slot_idx == last:
            # label tuples ascend, so the minimal key is the first label
            k = (0, c_rest[0]) if c_rest else (1, o_rest[0])
            if prev is None or k > prev:
                subs = memo.get((c_rest, o_rest, color, w_rest))
                if subs is None:
                    subs = enumerate_subtrees(collection, c_rest, o_rest,
                                              color, w_rest)
                for sub in subs:
                    acc.append(sub)
                    yield tuple(acc)
                    acc.pop()
            return
        spare = len(c_rest) + len(o_rest) - (last - slot_idx)
        o_splits = _splits(o_rest)
        for c_sub, c_next in _splits(c_rest):
            if len(c_sub) > spare:
                continue
            for o_sub, o_next in o_splits:
                if not c_sub and not o_sub or len(c_sub) + len(o_sub) > spare:
                    continue
                k = (0, c_sub[0]) if c_sub else (1, o_sub[0])
                if prev is not None and k <= prev:
                    continue
                if color == CLOSED:
                    p_closed, p_open = k, prev_open
                else:
                    p_closed, p_open = prev_closed, k
                for w in range(0, w_rest + 1):
                    subs = memo.get((c_sub, o_sub, color, w))
                    if subs is None:
                        subs = enumerate_subtrees(collection, c_sub, o_sub,
                                                  color, w)
                    for sub in subs:
                        acc.append(sub)
                        yield from fill(slot_idx + 1, c_next, o_next,
                                        w_rest - w, p_closed, p_open, acc)
                        acc.pop()

    yield from fill(0, tuple(closed_labels), tuple(open_labels), budget,
                    None, None, [])


def enumerate_basis(collection, signature, weight):
    """All canonical decorated trees of the signature with exactly `weight`
    vertices.  Deterministically ordered."""
    bkey = (signature, weight)
    hit = collection.bases.get(bkey)
    if hit is not None:
        return hit
    closed_labels = tuple(range(1, signature.n_closed + 1))
    open_labels = tuple(range(1, signature.n_open + 1))
    texts = {}  # text_form, each shared subtree printed once per sort
    trees = sorted(enumerate_subtrees(collection, closed_labels, open_labels,
                                      signature.out, weight),
                   key=lambda t: _signed_text(t, texts)[1])
    collection.bases[bkey] = trees
    return trees


def max_weight(collection, signature):
    """Upper bound for the vertex count of trees with this signature.

    Non-unary vertices consume inputs, so at most total-1 of them.  Unary
    vertices change color one way only (``Collection``), so no two are
    stacked, and they are bounded too.
    """
    total = signature.total
    if any(s.signature.total == 1 for s in collection):
        return max(2 * total - 1, 1)
    return max(total - 1, 1)


def component_basis(collection, signature):
    """All basis trees of a signature across weights, grouped as one list."""
    out = []
    for w in range(1, max_weight(collection, signature) + 1):
        out.extend(enumerate_basis(collection, signature, w))
    return out


# ---------------------------------------------------------------------------
# Textual form


def text_form(t):
    """Canonical text of a tree: gen(child, ...) with leaves c1.., o1..

    Children are printed in planar order (``planar_order``), so the text
    matches the planar picture.  Use text_form_signed when the emitted
    string must reparse to exactly this tree (odd-degree children can
    cross).
    """
    return text_form_signed(t)[1]


def text_form_signed(t):
    """(sign, text) with parse(text) == sign * tree."""
    return _signed_text(t, {})


def _signed_text(t, memo):
    """text_form_signed, reading and filling memo: node -> (sign, text)."""
    if isinstance(t, Leaf):
        return 1, f"{t.color}{t.label}"
    hit = memo.get(t)
    if hit is not None:
        return hit
    tau, children = planar_order(t)
    # reparsing re-sorts the planar order; account for the Koszul crossing
    sign = 1 if tau is None else koszul_sign(
        tau, [tree_degree(c) for c in children[len(children) - len(tau):]])
    name = t.space.name
    if _indexed(t.space):
        name = f"{name}[{t.dec}]"
    bits = []
    for c in children:
        s2, txt = _signed_text(c, memo)
        sign *= s2
        bits.append(txt)
    hit = memo[t] = sign, f"{name}({','.join(bits)})"
    return hit


def planar_order(t):
    """(tau, children of vertex t in planar order).

    tau is the arrangement of t's basis element that the open block is
    read through, or None when the children are planar as stored: a space
    without arrangements, or with a single one (the identity).
    """
    arrangements = t.space.arrangements
    if arrangements is None or len(arrangements) == 1:
        return None, t.children
    tau = arrangements[t.dec]
    n = len(t.children) - len(tau)
    return tau, t.children[:n] + tuple(t.children[n + i - 1] for i in tau)


class TermSyntaxError(ValueError):
    """A malformed term; ``message`` is the bare text, ``pos`` the 0-based
    offset in the parsed string."""

    def __init__(self, message, pos):
        super().__init__(f"{message} at column {pos + 1}")
        self.message = message
        self.pos = pos


def _skip_ws(text, p):
    while p < len(text) and text[p].isspace():
        p += 1
    return p


def parse_combination(text, atom):
    """The (coefficient, value) pairs of a signed rational combination.

    Grammar: combination := [sign] term {sign term} | '0' ;
    term := [coeff '*'] atom ; coeff := digits ['/' digits] ;
    sign := '+' | '-', one per term.  A lone ``0`` is the empty
    combination.  ``atom(text, pos)`` reads one atom starting at pos and
    returns (value, end).  Errors are TermSyntaxErrors at a column of text;
    a ValueError raised by atom becomes one at the atom's start.
    """
    if text.strip() == "0":
        return []
    pairs = []
    pos = _skip_ws(text, 0)
    while not pairs or pos < len(text):
        coeff = 1
        if pos < len(text) and text[pos] in "+-":
            coeff = -1 if text[pos] == "-" else 1
            pos = _skip_ws(text, pos + 1)
        elif pairs:
            raise TermSyntaxError("expected '+' or '-' between terms", pos)
        if pos < len(text) and text[pos].isdigit():
            start = pos
            while pos < len(text) and text[pos] in "0123456789/":
                pos += 1
            try:
                coeff = _exact(coeff * Fraction(text[start:pos]))
            except (ValueError, ZeroDivisionError):
                raise TermSyntaxError(
                    f"bad coefficient {text[start:pos]!r}", start) from None
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != "*":
                raise TermSyntaxError("expected '*' after a coefficient", pos)
            pos = _skip_ws(text, pos + 1)
        if pos >= len(text) or text[pos] in "+-":
            raise TermSyntaxError("expected a term", pos)
        start = pos
        try:
            value, pos = atom(text, pos)
        except TermSyntaxError:
            raise
        except ValueError as exc:
            raise TermSyntaxError(str(exc), start) from exc
        pairs.append((coeff, value))
        pos = _skip_ws(text, pos)
    return pairs


def parse_term(collection, text):
    """Parse a signed rational combination of trees; returns an Element.

    Grammar: the combination of parse_combination whose atoms are trees,
    tree := name ['[' k ']'] '(' tree {',' tree} ')' | leaf ;
    leaf := c<k> | o<k>.  ``name[k]`` is basis element k of a vertex space
    with several basis elements and no open arrangements (the quotient
    classes of a cobar collection); a bare name is basis element 0.
    Children may appear in any planar order; each tree is the canonical
    tree with the sign and decoration induced by re-sorting.  This is the
    grammar ``repr`` of an Element prints.
    """

    def tree(text, p):
        start = p
        while p < len(text) and (text[p].isalnum() or text[p] == "_"):
            p += 1
        name = text[start:p]
        if not name:
            raise TermSyntaxError("expected a generator or leaf name", start)
        dec = 0
        if text.startswith("[", p):
            dec, p = _basis_index(collection, name, text, p)
        p = _skip_ws(text, p)
        if p < len(text) and text[p] == "(":
            if name not in collection:
                raise TermSyntaxError(f"unknown generator {name!r}", start)
            space, children = collection[name], []
            while text[p] != ")":  # at the '(' or a ','
                elem, p = tree(text, _skip_ws(text, p + 1))
                children.append(elem)
                p = _skip_ws(text, p)
                if p >= len(text):
                    raise TermSyntaxError("unbalanced parenthesis", start)
                if text[p] not in ",)":
                    raise TermSyntaxError("expected ',' or ')'", p)
            return (Element.of(assemble(space, dec,
                                        [e.terms for e in children])), p + 1)
        if name[0] in COLORS and name[1:].isdigit():
            return tree_element(Leaf(name[0], int(name[1:]))), p
        raise TermSyntaxError(f"unknown leaf or generator {name!r}", start)

    acc = {}
    for coeff, elem in parse_combination(text, tree):
        accumulate(acc, elem.terms.items(), coeff)
    return Element.of(acc)


def _indexed(space):
    """Whether text names the vertices of space as name[k], k the basis
    element: more than one of them and no open arrangements to print."""
    return space.dim > 1 and space.arrangements is None


def _basis_index(collection, name, text, p):
    """Read the '[k]' of name[k] at p; returns (k, end)."""
    end = text.find("]", p)
    k = text[p + 1:end] if end > p else ""
    space = collection.by_name.get(name)
    if space is None or not _indexed(space):
        raise TermSyntaxError(f"{name!r} takes no basis index", p)
    if not k.isdigit() or int(k) >= space.dim:
        raise TermSyntaxError(f"{name} has no basis element {k!r}", p)
    return int(k), end + 1
