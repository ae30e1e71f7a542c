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
depth-first word of vertex degrees.  Grafting inserts the inner word at the
grafted slot's position, signed by moving it past the tail of the outer
word.

Elements are Q-linear combinations of canonical trees with a fixed
signature and homological degree.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .signs import identity, koszul_sign, sort_key_perm

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
        assert self.n_closed >= 0 and self.n_open >= 0
        assert self.out in COLORS

    @property
    def total(self):
        return self.n_closed + self.n_open

    def slot_color(self, i):
        """Color of linear slot i (1-based, closed block first)."""
        if not 1 <= i <= self.total:
            raise CompositionError(f"slot {i} out of range for {self}")
        return CLOSED if i <= self.n_closed else OPEN

    def slot_of(self, color, index):
        """Linear slot of the index-th input of the given color (1-based)."""
        if color == CLOSED:
            if not 1 <= index <= self.n_closed:
                raise CompositionError(f"no closed input {index} in {self}")
            return index
        if not 1 <= index <= self.n_open:
            raise CompositionError(f"no open input {index} in {self}")
        return self.n_closed + index

    def __str__(self):
        return f"({self.n_closed},{self.n_open};{self.out})"


def sig(n_closed, n_open, out):
    return Signature(n_closed, n_open, out)


IDENTITY_SIGS = (Signature(1, 0, CLOSED), Signature(0, 1, OPEN))


class VertexSpace:
    """Basis + S_n x S_m action for one operadic slot shape.

    ``closed_swaps[i]`` / ``open_swaps[i]`` give the right action of the
    adjacent transposition (i+1, i+2) of the block as sparse columns:
    ``swaps[i][b] = ((b', coeff), ...)``.
    """

    def __init__(self, name, signature, degrees, closed_swaps, open_swaps,
                 labels=None):
        self.name = name
        self.signature = signature
        self.degrees = tuple(degrees)
        self.dim = len(self.degrees)
        self.closed_swaps = tuple(tuple(map(tuple, s)) for s in closed_swaps)
        self.open_swaps = tuple(tuple(map(tuple, s)) for s in open_swaps)
        self.labels = tuple(labels) if labels else tuple(
            name if self.dim == 1 else f"{name}[{i}]" for i in range(self.dim))
        assert len(self.closed_swaps) == max(signature.n_closed - 1, 0)
        assert len(self.open_swaps) == max(signature.n_open - 1, 0)
        self.monomial = all(
            len(col) <= 1
            for swaps in (self.closed_swaps, self.open_swaps)
            for s in swaps for col in s)
        self._act_cache = {}

    def __repr__(self):
        return f"VertexSpace({self.name}, {self.signature}, dim {self.dim})"

    def act_block(self, basis_idx, closed_perm, open_perm):
        """Right action of (closed_perm, open_perm) on a basis element.

        Returns a list of (basis_idx, Fraction) pairs.
        """
        key = (basis_idx, closed_perm, open_perm)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        vec = {basis_idx: Fraction(1)}
        for swaps, perm in ((self.closed_swaps, closed_perm),
                            (self.open_swaps, open_perm)):
            for i in _adjacent_decomposition(perm):
                new = {}
                for b, coef in vec.items():
                    for b2, c2 in swaps[i][b]:
                        nv = new.get(b2, Fraction(0)) + coef * c2
                        if nv:
                            new[b2] = nv
                        else:
                            new.pop(b2, None)
                vec = new
        out = tuple(sorted(vec.items()))
        self._act_cache[key] = out
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


def _identity_swaps(count, dim):
    col = tuple(((b, Fraction(1)),) for b in range(dim))
    return tuple(col for _ in range(count))


def _sign_swaps(count, dim):
    col = tuple(((b, Fraction(-1)),) for b in range(dim))
    return tuple(col for _ in range(count))


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
            col.append(((index[w], Fraction(1)),))
        tables.append(tuple(col))
    return tuple(elems), tuple(tables)


def generator(name, signature, degree, symmetry):
    """Named generator with a one-tag symmetry type.

    trivial / sign describe the closed block (the open block, if any, is
    always regular); regular means every block is free; none is for shapes
    where no block has more than one input.
    """
    n, m = signature.n_closed, signature.n_open
    if symmetry in (TRIVIAL, SIGN):
        closed = (_identity_swaps if symmetry == TRIVIAL else _sign_swaps)
    elif symmetry in (REGULAR, NONE):
        if n > 1 and symmetry == NONE:
            raise ValueError(f"{name}: closed block of size {n} needs a symmetry")
        closed = _identity_swaps
    else:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    if m > 1:
        arrangements, open_swaps = _regular_swap_tables(m)
        if symmetry == NONE:
            raise ValueError(f"{name}: open block of size {m} needs a symmetry")
        dim = len(arrangements)
        labels = [name if p == identity(m) else
                  f"{name}.{''.join(map(str, p))}" for p in arrangements]
        space = VertexSpace(name, signature, [degree] * dim,
                            closed(max(n - 1, 0), dim), open_swaps, labels)
        space.arrangements = arrangements
    else:
        space = VertexSpace(name, signature, [degree],
                            closed(max(n - 1, 0), 1), _identity_swaps(0, 1))
        space.arrangements = (identity(m),)
    space.symmetry = symmetry
    space.gen_degree = degree
    return space


class Collection:
    """A finite family of vertex spaces, looked up by name or signature."""

    def __init__(self, spaces):
        self.spaces = tuple(spaces)
        self.by_name = {}
        for s in self.spaces:
            if s.name in self.by_name:
                raise ValueError(f"duplicate space name {s.name}")
            self.by_name[s.name] = s
        self.by_out = {CLOSED: [], OPEN: []}
        for s in self.spaces:
            self.by_out[s.signature.out].append(s)

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
    """Internal vertex: a vertex space, a basis index, ordered children."""

    __slots__ = ("space", "dec", "children", "_hash", "_min_key", "_degree",
                 "_weight")

    def __init__(self, space, dec, children):
        self.space = space
        self.dec = dec
        self.children = tuple(children)
        self._hash = hash((id(space), dec, self.children))
        self._min_key = None
        self._degree = None
        self._weight = None

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (isinstance(other, Node) and self.space is other.space
                and self.dec == other.dec and self.children == other.children)

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
    closed, open_ = leaf_labels(t)
    n, m = len(closed), len(open_)
    assert closed == set(range(1, n + 1)) and open_ == set(range(1, m + 1)), \
        "tree leaves are not a standard labeling"
    return Signature(n, m, out_color(t))


def leaf_labels(t):
    closed, open_ = set(), set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Leaf):
            (closed if x.color == CLOSED else open_).add(x.label)
        else:
            stack.extend(x.children)
    return closed, open_


def _check_child_colors(space, children):
    sig_ = space.signature
    if len(children) != sig_.total:
        raise CompositionError(
            f"{space.name} takes {sig_.total} children, got {len(children)}")
    for i, c in enumerate(children, start=1):
        want = sig_.slot_color(i)
        got = out_color(c)
        if want != got:
            raise CompositionError(
                f"slot {i} of {space.name} is {want} but received {got}")


# ---------------------------------------------------------------------------
# Elements: Q-linear combinations of canonical trees


class Element:
    """Linear combination of canonical trees of one signature and degree."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for t, c in (terms.items() if isinstance(terms, dict) else terms):
                c = Fraction(c)
                if c:
                    nv = self.terms.get(t, Fraction(0)) + c
                    if nv:
                        self.terms[t] = nv
                    else:
                        self.terms.pop(t, None)

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for t, c in other.terms.items():
            nv = out.get(t, Fraction(0)) + c
            if nv:
                out[t] = nv
            else:
                out.pop(t, None)
        e = Element()
        e.terms = out
        return e

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        e = Element()
        if c:
            e.terms = {t: x * c for t, x in self.terms.items()}
        return e

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
        if not self.terms:
            return "0"
        bits = []
        for t, c in sorted(self.terms.items(), key=lambda tc: text_form(tc[0])):
            bits.append(f"{'+' if c > 0 else '-'} {abs(c)}*{text_form(t)}")
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else s


def tree_element(t, coeff=1):
    return Element({t: Fraction(coeff)})


# ---------------------------------------------------------------------------
# Canonicalization

def _sorted_block(children, lo, hi, degrees):
    """Sort children[lo:hi] by min leaf key.

    Returns (sorted children list, block permutation in image notation,
    Koszul sign of the segment reordering).  The permutation says where each
    original position goes, restricted to the block.
    """
    block = children[lo:hi]
    keys = [min_leaf_key(c) for c in block]
    perm = sort_key_perm(keys)
    if perm == identity(len(block)):
        return children, perm, 1
    sign = koszul_sign(perm, degrees[lo:hi])
    new = list(children)
    for i, p in enumerate(perm):
        new[lo + p - 1] = block[i]
    return new, perm, sign


_CANONICAL = set()


def make_node(space, dec_vector, children):
    """Assemble a vertex from possibly unsorted children; returns an Element.

    ``dec_vector`` is either a basis index or an iterable of (index, coeff).
    Children must already be canonical trees (or leaves).
    """
    _check_child_colors(space, children)
    sig_ = space.signature
    degs = [tree_degree(c) for c in children]
    children2, cperm, csign = _sorted_block(list(children), 0, sig_.n_closed, degs)
    degs2 = [tree_degree(c) for c in children2]
    children3, operm, osign = _sorted_block(children2, sig_.n_closed, sig_.total, degs2)
    total_sign = csign * osign
    children3 = tuple(children3)
    if isinstance(dec_vector, int):
        if cperm == _id_cache(len(cperm)) and operm == _id_cache(len(operm)):
            t = Node(space, dec_vector, children3)
            _CANONICAL.add(t)
            return Element({t: total_sign})
        dec_vector = ((dec_vector, Fraction(1)),)
    acc = {}
    for dec, coeff in dec_vector:
        acted = space.act_block(dec, cperm, operm)
        for b, c2 in acted:
            t = Node(space, b, children3)
            _CANONICAL.add(t)
            nv = acc.get(t, 0) + coeff * c2 * total_sign
            if nv:
                acc[t] = nv
            else:
                acc.pop(t, None)
    out = Element()
    out.terms = {t: Fraction(c) for t, c in acc.items()}
    return out


@lru_cache(maxsize=None)
def _id_cache(n):
    return identity(n)


def corolla(space, dec=0):
    """The canonical corolla: identity leaf labels, given basis element."""
    sig_ = space.signature
    children = [Leaf(CLOSED, i) for i in range(1, sig_.n_closed + 1)]
    children += [Leaf(OPEN, i) for i in range(1, sig_.n_open + 1)]
    return Node(space, dec, tuple(children))


def corolla_element(space, dec=0, coeff=1):
    return tree_element(corolla(space, dec), coeff)


# ---------------------------------------------------------------------------
# Word positions (for Koszul signs of grafting and derivations)


def _word_tail_degree_after_slot(t, color, index):
    """Sum of vertex degrees strictly after the slot's position in the
    depth-first word of t, plus a flag that the leaf was found."""
    if isinstance(t, Leaf):
        if t.color == color and t.label == index:
            return 0, True
        return tree_degree(t), False

    total = 0
    found = False
    tail = 0
    for c in t.children:
        if found:
            tail += tree_degree(c)
        else:
            sub_tail, sub_found = _word_tail_degree_after_slot(c, color, index)
            if sub_found:
                found = True
                tail += sub_tail
            # degrees before the leaf do not matter here
    if not found:
        return tree_degree(t), False
    return tail, True


# ---------------------------------------------------------------------------
# Grafting


def _relabel_leaf(leaf, color, index, inner_counts, outer_counts):
    """New label of an outer leaf after grafting at (color, index)."""
    n2, m2 = inner_counts
    if color == CLOSED:
        if leaf.color == CLOSED and leaf.label > index:
            return Leaf(CLOSED, leaf.label + n2 - 1)
        if leaf.color == OPEN:
            # inner opens precede all outer opens (slot sits in the closed block)
            return Leaf(OPEN, leaf.label + m2)
        return leaf
    # open slot
    if leaf.color == OPEN and leaf.label > index:
        return Leaf(OPEN, leaf.label + m2 - 1)
    return leaf


def _relabel_inner_leaf(leaf, color, index, outer_counts):
    n1, m1 = outer_counts
    if color == CLOSED:
        if leaf.color == CLOSED:
            return Leaf(CLOSED, leaf.label + index - 1)
        return leaf
    if leaf.color == CLOSED:
        return Leaf(CLOSED, leaf.label + n1)
    return Leaf(OPEN, leaf.label + index - 1)


def _map_leaves(t, f):
    if isinstance(t, Leaf):
        return f(t)
    return Node(t.space, t.dec, tuple(_map_leaves(c, f) for c in t.children))


def _splice(t, color, index, s):
    """Replace the (color, index) leaf of t by the tree s (labels final)."""
    if isinstance(t, Leaf):
        if t.color == color and t.label == index:
            return s
        return t
    return Node(t.space, t.dec,
                tuple(_splice(c, color, index, s) for c in t.children))


def _recanonicalize(t):
    """Re-sort every vertex of a structurally valid tree; returns Element."""
    if isinstance(t, Leaf):
        return tree_element(t)
    if t in _CANONICAL:
        return tree_element(t)
    parts = [_recanonicalize(c) for c in t.children]
    acc = {}
    for children, coeff in _expand(parts):
        for u, c in make_node(t.space, t.dec, children).terms.items():
            nv = acc.get(u, 0) + c * coeff
            if nv:
                acc[u] = nv
            else:
                acc.pop(u, None)
    out = Element()
    out.terms = acc
    return out


def _expand(parts):
    """Cartesian expansion of child Elements into (children tuple, coeff)."""
    items = [list(p.terms.items()) for p in parts]
    for combo in product(*items) if items else [()]:
        children = tuple(t for t, _ in combo)
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        yield children, coeff


def graft_trees(t, color, index, s):
    """Graft canonical tree s into the (color, index) input of t.

    Returns an Element.  The inner word is inserted at the grafted slot's
    depth-first position, signed by moving it past the tail of the outer
    word; blocks are then re-sorted canonically.
    """
    t_sig = tree_signature(t)
    s_sig = tree_signature(s)
    slot_color = color
    if slot_color == CLOSED and not 1 <= index <= t_sig.n_closed:
        raise CompositionError(f"no closed slot {index} in {t_sig}")
    if slot_color == OPEN and not 1 <= index <= t_sig.n_open:
        raise CompositionError(f"no open slot {index} in {t_sig}")
    if s_sig.out != slot_color:
        raise CompositionError(
            f"cannot graft {s_sig.out}-output into a {slot_color} slot")

    tail, found = _word_tail_degree_after_slot(t, color, index)
    assert found
    sign = -1 if (tree_degree(s) & 1) and (tail & 1) else 1

    inner_counts = (s_sig.n_closed, s_sig.n_open)
    outer_counts = (t_sig.n_closed, t_sig.n_open)
    # mark the grafted slot before relabeling: other leaves may collide with
    # its label when the inner tree shrinks the block
    marker = Leaf(color, -1)
    t_marked = _splice(t, color, index, marker)
    t2 = _map_leaves(t_marked, lambda lf: lf if lf.label == -1 else
                     _relabel_leaf(lf, color, index, inner_counts,
                                   outer_counts))
    s2 = _map_leaves(s, lambda lf: _relabel_inner_leaf(lf, color, index,
                                                       outer_counts))
    spliced = _splice(t2, color, -1, s2)
    return _recanonicalize(spliced).scale(sign)


def graft(elem, color, index, inner):
    """Bilinear graft of Elements; see graft_trees."""
    out = Element()
    for t, ct in elem.terms.items():
        for s, cs in inner.terms.items():
            out = out + graft_trees(t, color, index, s).scale(ct * cs)
    return out


# ---------------------------------------------------------------------------
# Substitution: replace the leaves of a standard-labeled pattern by subtrees.
# This is the label-free total composition used by derivations: the pattern
# keeps its position in the ambient tree, the subtrees carry their own leaf
# labels.


def _leaf_tails(t):
    """[(leaf, sum of vertex degrees after the leaf in the word)] in
    pre-order."""
    out = []

    def walk(x):
        if isinstance(x, Leaf):
            out.append([x, 0])
            return
        child_degrees = [tree_degree(c) for c in x.children]
        for i, c in enumerate(x.children):
            start = len(out)
            walk(c)
            tail_after = sum(child_degrees[i + 1:])
            if tail_after:
                for rec in out[start:]:
                    rec[1] += tail_after
    walk(t)
    return [(leaf, tail) for leaf, tail in out]


def substitute(pattern, closed_subs, open_subs):
    """Plug subtrees into all leaves of a standard-labeled pattern tree.

    closed_subs[i-1] replaces leaf (CLOSED, i); open_subs likewise.  Returns
    an Element.  Signs: starting from (pattern word, subtrees in slot order),
    the subtree words move to their leaf positions; each passes the pattern
    vertices after its slot, and pairs whose pre-order disagrees with slot
    order cross each other.
    """
    recs = _leaf_tails(pattern)
    sign = 1
    degrees_pre = []
    for leaf, tail in recs:
        sub = (closed_subs if leaf.color == CLOSED else open_subs)[leaf.label - 1]
        d = tree_degree(sub)
        degrees_pre.append(d)
        if (d & 1) and (tail & 1):
            sign = -sign
    # crossing factor: permutation from slot order to pre-order
    pre_index = {(leaf.color, leaf.label): i for i, (leaf, _) in enumerate(recs)}
    slot_order = sorted(pre_index, key=lambda cl: (0 if cl[0] == CLOSED else 1,
                                                   cl[1]))
    perm = tuple(pre_index[cl] + 1 for cl in slot_order)
    degrees_slot = [degrees_pre[pre_index[cl]] for cl in slot_order]
    sign *= koszul_sign(perm, degrees_slot)

    def repl(lf):
        return (closed_subs if lf.color == CLOSED else open_subs)[lf.label - 1]

    spliced = _map_leaves(pattern, repl)
    return _recanonicalize(spliced).scale(sign)


def substitute_element(pattern_elem, closed_subs, open_subs):
    acc = {}
    for t, c in pattern_elem.terms.items():
        for u, c2 in substitute(t, closed_subs, open_subs).terms.items():
            nv = acc.get(u, 0) + c * c2
            if nv:
                acc[u] = nv
            else:
                acc.pop(u, None)
    out = Element()
    out.terms = acc
    return out


# ---------------------------------------------------------------------------
# Symmetric group action


def symmetric_act(perm_pair, elem):
    """Right action of (closed perm, open perm) by relabeling leaves."""
    cperm, operm = perm_pair
    out = Element()
    for t, c in elem.terms.items():
        sig_ = tree_signature(t)
        if len(cperm) != sig_.n_closed or len(operm) != sig_.n_open:
            raise ValueError("permutation sizes do not match the signature")
        t2 = _map_leaves(t, lambda lf: Leaf(lf.color, (
            cperm[lf.label - 1] if lf.color == CLOSED else operm[lf.label - 1])))
        out = out + _recanonicalize(t2).scale(c)
    return out


# ---------------------------------------------------------------------------
# Basis enumeration


def _subsets(seq):
    n = len(seq)
    for mask in range(1 << n):
        yield tuple(seq[i] for i in range(n) if mask >> i & 1)


def enumerate_shapes(collection, closed_labels, open_labels, out, weight,
                     _cache=None):
    """All canonical tree shapes with the given leaf label sets.

    A shape is a tree whose decorations are None placeholders; decorations
    multiply in afterwards.  Labels are tuples of ints (ascending).
    """
    if _cache is None:
        _cache = {}
    key = (closed_labels, open_labels, out, weight)
    hit = _cache.get(key)
    if hit is not None:
        return hit

    results = []
    if weight == 0:
        if out == CLOSED and len(closed_labels) == 1 and not open_labels:
            results.append(Leaf(CLOSED, closed_labels[0]))
        if out == OPEN and len(open_labels) == 1 and not closed_labels:
            results.append(Leaf(OPEN, open_labels[0]))
        _cache[key] = results
        return results
    if weight >= 1:
        for space in collection.by_out[out]:
            sig_ = space.signature
            if sig_.total == 0:
                continue
            for assignment in _slot_assignments(
                    collection, sig_, closed_labels, open_labels, weight - 1,
                    _cache):
                results.append(Node(space, None, assignment))
    _cache[key] = results
    return results


def _slot_assignments(collection, sig_, closed_labels, open_labels,
                      budget, cache):
    """Distribute labels and weight over the slots of a signature, keeping
    each color block sorted by minimal leaf key."""
    slots = ([CLOSED] * sig_.n_closed) + ([OPEN] * sig_.n_open)

    def fill(slot_idx, c_rest, o_rest, w_rest, prev_key_by_color, acc):
        if slot_idx == len(slots):
            if not c_rest and not o_rest and w_rest == 0:
                yield tuple(acc)
            return
        color = slots[slot_idx]
        remaining = len(slots) - slot_idx - 1
        for c_sub in _subsets(c_rest):
            for o_sub in _subsets(o_rest):
                if not c_sub and not o_sub:
                    continue
                keys = [(0, l) for l in c_sub] + [(1, l) for l in o_sub]
                k = min(keys)
                prev = prev_key_by_color.get(color)
                if prev is not None and k <= prev:
                    continue
                c_next = tuple(x for x in c_rest if x not in c_sub)
                o_next = tuple(x for x in o_rest if x not in o_sub)
                for w in range(0, w_rest + 1):
                    for sub in enumerate_shapes(collection, c_sub, o_sub,
                                                color, w, cache):
                        prev2 = dict(prev_key_by_color)
                        prev2[color] = k
                        acc.append(sub)
                        yield from fill(slot_idx + 1, c_next, o_next,
                                        w_rest - w, prev2, acc)
                        acc.pop()

    yield from fill(0, tuple(closed_labels), tuple(open_labels), budget, {}, [])


def _decorate(shape):
    """Expand decoration placeholders into all basis choices."""
    if isinstance(shape, Leaf):
        return [shape]
    child_options = [_decorate(c) for c in shape.children]
    out = []
    for combo in product(*child_options) if child_options else [()]:
        for b in range(shape.space.dim):
            out.append(Node(shape.space, b, combo))
    return out


class _BasisCache:
    def __init__(self):
        self.shape_cache = {}
        self.basis = {}


_basis_caches = {}


def _collection_cache(collection):
    # keyed by space identity: renamed or regraded collections never collide
    ckey = tuple(map(id, collection.spaces))
    return _basis_caches.setdefault(ckey, _BasisCache())


def enumerate_basis(collection, signature, weight):
    """All canonical decorated trees of the signature with exactly `weight`
    vertices.  Deterministically ordered."""
    store = _collection_cache(collection)
    bkey = (signature, weight)
    hit = store.basis.get(bkey)
    if hit is not None:
        return hit
    closed_labels = tuple(range(1, signature.n_closed + 1))
    open_labels = tuple(range(1, signature.n_open + 1))
    shapes = enumerate_shapes(collection, closed_labels, open_labels,
                              signature.out, weight, store.shape_cache)
    trees = []
    for sh in shapes:
        trees.extend(_decorate(sh))
    trees.sort(key=text_form)
    store.basis[bkey] = trees
    return trees


def max_weight(collection, signature):
    """Upper bound for the vertex count of trees with this signature.

    Non-unary vertices consume inputs, so at most total-1 of them.  Unary
    vertices must change color (same-color unaries would allow unbounded
    chains), and their inputs are closed edges, so they are bounded too.
    """
    unary_shapes = {(s.signature.slot_color(1), s.signature.out)
                    for s in collection
                    if s.signature.total == 1 and s.signature not in IDENTITY_SIGS}
    for cin, cout in unary_shapes:
        if cin == cout:
            raise ValueError("same-color unary generators give unbounded weight")
    if {(CLOSED, OPEN), (OPEN, CLOSED)} <= unary_shapes:
        raise ValueError("opposite unary generators give unbounded weight")
    total = signature.total
    if not unary_shapes:
        return max(total - 1, 1)
    return max(2 * total - 1, 1)


def component_basis(collection, signature, weight_cap=None):
    """All basis trees of a signature across weights, grouped as one list."""
    cap = weight_cap if weight_cap is not None else max_weight(collection, signature)
    out = []
    for w in range(1, cap + 1):
        out.extend(enumerate_basis(collection, signature, w))
    return out


# ---------------------------------------------------------------------------
# Suspensions of generator collections

LAMBDA = "Lambda"
LAMBDA_INVERSE = "LambdaInverse"
LAMBDA_C = "LambdaC"
LINEAR_DUAL = "LinearDual"


def _twist_swaps(swaps, sign_flip, transpose):
    out = []
    for table in swaps:
        if transpose:
            dim = len(table)
            cols = [[] for _ in range(dim)]
            for b, col in enumerate(table):
                for b2, c in col:
                    cols[b2].append((b, c))
            table = tuple(tuple(col) for col in cols)
        if sign_flip:
            table = tuple(tuple((b2, -c) for b2, c in col) for col in table)
        out.append(table)
    return tuple(out)


def suspend_collection(collection, kind, rename=None):
    """Regrade a collection: Lambda, LambdaInverse, LambdaC or LinearDual.

    Lambda(V)(k) sits in degree d + 1 - k with a sign twist of the full
    symmetric action; LambdaC shifts by 1-n (closed output) or -n (open
    output) twisting only the closed block; LinearDual negates degrees and
    transposes the action.
    """
    rename = rename or (lambda n: n)
    spaces = []
    for s in collection:
        sig_ = s.signature
        k = sig_.total
        if kind == LAMBDA:
            shift, twist_c, twist_o, transpose = 1 - k, True, True, False
        elif kind == LAMBDA_INVERSE:
            shift, twist_c, twist_o, transpose = k - 1, True, True, False
        elif kind == LAMBDA_C:
            n = sig_.n_closed
            shift = (1 - n) if sig_.out == CLOSED else -n
            twist_c, twist_o, transpose = True, False, False
        elif kind == LINEAR_DUAL:
            shift, twist_c, twist_o, transpose = None, False, False, True
        else:
            raise ValueError(f"unknown suspension kind {kind!r}")
        if kind == LINEAR_DUAL:
            degrees = tuple(-d for d in s.degrees)
        else:
            degrees = tuple(d + shift for d in s.degrees)
        ns = VertexSpace(rename(s.name), sig_, degrees,
                         _twist_swaps(s.closed_swaps, twist_c, transpose),
                         _twist_swaps(s.open_swaps, twist_o, transpose),
                         s.labels)
        for attr in ("symmetry", "gen_degree", "arrangements"):
            if hasattr(s, attr):
                setattr(ns, attr, getattr(s, attr))
        spaces.append(ns)
    return Collection(spaces)


# ---------------------------------------------------------------------------
# Textual form


def text_form(t):
    """Canonical text of a tree: gen(child, ...) with leaves c1.., o1..

    Vertices of named generators with a regular open block are printed with
    their children rearranged to the stored arrangement, so the text matches
    the planar picture.  Use text_form_signed when the emitted string must
    reparse to exactly this tree (odd-degree children can cross).
    """
    return _text_form(t)[1]


def text_form_signed(t):
    """(sign, text) with parse(text) == sign * tree."""
    sign, s = _text_form(t)
    return sign, s


class TermSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at column {pos + 1}")
        self.pos = pos


def parse_term(collection, text):
    """Parse the canonical textual form of a tree; returns an Element.

    Grammar: term := name '(' term {',' term} ')' | leaf ; leaf := c<k> | o<k>.
    Children may appear in any planar order; the result is the canonical
    tree with the sign and decoration induced by re-sorting.
    """
    pos = 0

    def skip_ws(p):
        while p < len(text) and text[p].isspace():
            p += 1
        return p

    def parse_at(p):
        p = skip_ws(p)
        start = p
        while p < len(text) and (text[p].isalnum() or text[p] == "_"):
            p += 1
        name = text[start:p]
        if not name:
            raise TermSyntaxError("expected a generator or leaf name", start)
        p = skip_ws(p)
        if p < len(text) and text[p] == "(":
            if name not in collection:
                raise TermSyntaxError(f"unknown generator {name!r}", start)
            space = collection[name]
            children = []
            p += 1
            while True:
                elem, p = parse_at(p)
                children.append(elem)
                p = skip_ws(p)
                if p >= len(text):
                    raise TermSyntaxError("unbalanced parenthesis", start)
                if text[p] == ",":
                    p += 1
                    continue
                if text[p] == ")":
                    p += 1
                    break
                raise TermSyntaxError("expected ',' or ')'", p)
            out = Element()
            for combo, coeff in _expand(children):
                out = out + make_node(space, 0, combo).scale(coeff)
            return out, p
        if name[0] in COLORS and name[1:].isdigit():
            return tree_element(Leaf(name[0], int(name[1:]))), p
        raise TermSyntaxError(f"unknown leaf or generator {name!r}", start)

    elem, pos = parse_at(pos)
    pos = skip_ws(pos)
    if pos != len(text):
        raise TermSyntaxError("trailing input after term", pos)
    return elem


def _text_form(t):
    if isinstance(t, Leaf):
        return 1, f"{t.color}{t.label}"
    space = t.space
    sig_ = space.signature
    children = list(t.children)
    sign = 1
    arrangement = getattr(space, "arrangements", None)
    if arrangement is not None and sig_.n_open > 1:
        tau = arrangement[t.dec]
        open_block = children[sig_.n_closed:]
        planar = [open_block[tau[i] - 1] for i in range(len(tau))]
        # reparsing re-sorts the planar order; account for the Koszul crossing
        sign *= koszul_sign(tau, [tree_degree(c) for c in planar])
        children = children[:sig_.n_closed] + planar
        name = space.name
    elif space.dim > 1:
        name = space.labels[t.dec]
    else:
        name = space.name
    bits = []
    for c in children:
        s2, txt = _text_form(c)
        sign *= s2
        bits.append(txt)
    return sign, f"{name}({','.join(bits)})"
