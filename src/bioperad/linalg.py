"""Exact rational linear algebra on sparse rows.

Everything is over Q, in ints and fractions.Fraction; no floating point
anywhere.  Homology dimensions are rank differences and a single rounding
error would flip a Betti number, so exactness is not negotiable.

One tier.  ``Echelon`` accumulates sparse integer rows keyed by their pivot
(rank, coordinate reduction) wherever its rows are read: ideal saturation
and spans.  Once finalised it holds the reduced row echelon form (RREF) of
its span, which is unique, so a ``Subspace`` -- an ambient dimension plus
those rows -- equals another exactly when the spaces are equal.  ``solve``,
the one solver for linear systems, and ``meet_slice``, which meets a span
with a coordinate slice, are built on ``Echelon`` too.  ``rank`` is the
one rank count behind ``betti``, and so behind every homology table: it
eliminates by sparse pivot choice and keeps no rows.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


class Subspace:
    """Subspace of Q^n held as the rows of a finalised ``Echelon``.

    ``rows`` maps each pivot column to its row, a dict col -> Fraction with
    entry 1 at the pivot and 0 at every other pivot.  This is the RREF, so
    subspace equality is equality of the stored rows.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim, rows):
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        """The span of dense vectors of length ambient_dim."""
        ech = Echelon()
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dim")
            ech.add(enumerate(v))
        ech.finalize()
        return cls(ambient_dim, ech.rows)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self):
        """The reduced rows as dense lists, in ascending pivot order."""
        out = []
        for p in sorted(self.rows):
            dense = [Fraction(0)] * self.ambient_dim
            for c, x in self.rows[p].items():
                dense[c] = x
            out.append(dense)
        return out

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def orthogonal_complement(self, pairing):
        """All x with <v, x> = 0 for every v in this space.

        ``pairing`` is a signed permutation: ``pairing[i] = (j, s)`` with
        s = +-1 says <e_i, f_j> = s and that e_i pairs with no other f.  So
        <v, x> = v . y with y_i = s x_j, and the complement is the nullspace
        of the reduced rows -- one vector per non-pivot column f, with 1 at
        f and minus column f of the rows at their pivots -- carried through
        the permutation.
        """
        n = self.ambient_dim
        if len(pairing) != n:
            raise ValueError("pairing size does not match ambient dim")
        vectors = []
        for f in range(n):
            if f in self.rows:
                continue
            x = [0] * n
            j, s = pairing[f]
            x[j] = s
            for p, row in self.rows.items():
                q, t = pairing[p]
                x[q] = -t * row.get(f, 0)
            vectors.append(x)
        return Subspace.from_vectors(n, vectors)


def meet_slice(rows, cols):
    """RREF of span(rows) meet the coordinate slice on the columns ``cols``.

    ``rows`` are sparse vectors (dicts col -> coefficient).  One ``Echelon``
    reduces them with the slice's columns sorting after every other column,
    so a reduced row whose pivot lies in the slice is supported on it, and
    those rows span the meet.  Returns them as dicts col -> Fraction, in
    ascending pivot order.
    """
    rows = list(rows)
    shift = 1 + max((c for row in rows for c in row), default=0)
    ech = Echelon()
    for row in rows:
        ech.add({c + shift if c in cols else c: x for c, x in row.items()})
    ech.finalize()
    return [{c - shift: x for c, x in ech.rows[p].items()}
            for p in sorted(ech.rows) if p >= shift]


def solve(columns, target):
    """One x with sum_j x_j columns[j] = target over Q, or None if there is
    none.

    ``columns`` and ``target`` are sparse vectors (dicts row -> coefficient;
    a missing entry is 0).  Returns x as a dict j -> x_j of its nonzero
    entries; free variables are set to 0.  Each row, in ascending order,
    gives one augmented equation to one ``Echelon``, with the right-hand
    side in column len(columns): a pivot there is a row 0 = b with b
    nonzero, and otherwise each reduced row sets its pivot's variable to
    its right-hand side.
    """
    n = len(columns)
    equations = {}
    for j, col in enumerate(columns):
        for i, x in col.items():
            equations.setdefault(i, {})[j] = x
    for i, b in target.items():
        equations.setdefault(i, {})[n] = b
    ech = Echelon()
    for i in sorted(equations):
        ech.add(equations[i])
    if n in ech.rows:
        return None
    ech.finalize()
    return {p: row[n] for p, row in ech.rows.items() if n in row}


def rank(vectors):
    """Exact rank over Q of sparse vectors (dicts col -> coefficient).

    Sparse pivot choice (Markowitz's rule, Management Science 1957, as
    Dumas and Villard use it for sparse rank, CASC 2002): each step takes
    the live coordinate with the fewest entries, pivots on its shortest
    vector with a unit entry there (or else its shortest vector), clears
    the coordinate from the other vectors with the integer step
    a v - b pivot of ``Echelon.add``, and drops the pivot vector, so each
    step adds one to the rank.  Vectors are taken as primitive integer
    vectors; no rows are kept and no canonical form is built.
    """
    vecs = []
    where = {}  # col -> ids of the vectors that have (or had) an entry there
    for vec in vectors:
        v = primitive(vec.items())
        if v:
            for c in v:
                where.setdefault(c, []).append(len(vecs))
            vecs.append(v)
    count = {c: len(ids) for c, ids in where.items()}
    heap = [(k, c) for c, k in count.items()]
    heapify(heap)
    r = 0
    while heap:
        k, c = heappop(heap)
        if count.get(c) != k:
            continue  # a stale entry
        del count[c]
        ids = [i for i in dict.fromkeys(where.pop(c))
               if vecs[i] is not None and c in vecs[i]]
        p = min(ids, key=lambda i: (abs(vecs[i][c]) != 1, len(vecs[i])))
        pivot = vecs[p]
        vecs[p] = None
        a = pivot.pop(c)
        for i in ids:
            if i == p:
                continue
            v = vecs[i]
            b = v.pop(c)
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            fa, fb = a // g, b // g  # fa > 0
            if fa != 1:
                for x in v:
                    v[x] *= fa
            for c2, y in pivot.items():
                x = v.get(c2)
                if x is None:
                    v[c2] = -fb * y
                    count[c2] += 1
                    where[c2].append(i)
                elif x == fb * y:
                    del v[c2]
                    count[c2] -= 1
                else:
                    v[c2] = x - fb * y
            if fa != 1 and v:
                g = 0
                for x in v.values():
                    g = gcd(g, x)
                if g > 1:
                    for x in v:
                        v[x] //= g
        for c2 in pivot:
            k = count[c2] - 1  # the pivot vector leaves
            if k:
                count[c2] = k
                heappush(heap, (k, c2))
            else:
                del count[c2], where[c2]
        r += 1
    return r


def betti(dims, columns):
    """Betti numbers of a chain complex split into cells.

    ``dims`` maps (key, n) to dim C_n, and ``columns(key, n)`` returns the
    sparse columns of d_n: C_n -> C_(n-1) (dicts row -> coefficient), one
    per basis element of C_n.  Returns {(key, n): dim H_n}, with dim H_n =
    dim C_n - rank d_n - rank d_(n+1), in the order of ``dims`` and with
    the zeros dropped.
    """
    ranks = {(key, n): rank(columns(key, n)) for key, n in dims}
    out = {}
    for (key, n), dim in dims.items():
        h = dim - ranks[(key, n)] - ranks.get((key, n + 1), 0)
        if h:
            out[(key, n)] = h
    return out


def primitive(vec_items):
    """(col, int or Fraction) pairs to the primitive integer vector on
    their line, a dict col -> int with content 1 ({} for zero)."""
    items = [(c, x) for c, x in vec_items if x != 0]
    if not items:
        return {}
    if all(type(x) is int for _, x in items):
        ints = dict(items)
    else:
        items = [(c, Fraction(x)) for c, x in items]
        denom = 1
        for _, x in items:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = {c: int(x * denom) for c, x in items}
    g = 0
    for v in ints.values():
        g = gcd(g, abs(v))
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


class Echelon:
    """Sparse integer row span with incremental rank tracking.

    Rows are dicts col -> int, gcd-reduced, keyed by their minimal column
    (the pivot).  ``add`` reduces the incoming vector against current pivots
    and inserts the residue if nonzero.  ``finalize`` back-substitutes so
    that ``reduce`` afterwards returns the canonical residue supported on
    non-pivot columns.
    """

    def __init__(self):
        self.rows = {}
        self._final = False

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """vec: dict col -> coefficient.  Returns True if rank grew.

        The residue is eliminated in place: a step against the row with
        pivot p, entry a there, takes v to (a/g) v - (b/g) row with b = v[p]
        and g = gcd(a, b), so it touches only the row's columns.  Each step
        keeps the direction of the exact residue, so dividing by the content
        and fixing the sign once, when the residue is stored, gives the same
        primitive row with a positive pivot as reducing after every step.
        """
        if self._final:
            raise RuntimeError("Echelon.add after finalize")
        v = primitive(vec.items() if isinstance(vec, dict) else vec)
        rows = self.rows
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                g = 0
                for x in v.values():
                    g = gcd(g, x)
                if v[p] < 0:
                    g = -g
                # a fresh dict: v's table may have grown past its size
                rows[p] = {c: x // g for c, x in v.items()}
                return True
            a = row[p]
            b = v.pop(p)
            g = gcd(a, b)
            if a != g:
                fa = a // g
                for c in v:
                    v[c] *= fa
            fb = b // g
            for c, x in row.items():
                if c != p:
                    val = v.get(c, 0) - fb * x
                    if val:
                        v[c] = val
                    else:
                        del v[c]
        return False

    def finalize(self):
        """Back-substitute to reduced form with pivot entries 1 (Fractions).

        Afterwards every row has entry 1 at its own pivot and is zero at all
        other pivot columns, so reduction gives canonical residues.
        """
        if self._final:
            return
        reduced = {}
        for p in sorted(self.rows, reverse=True):
            piv = self.rows[p][p]
            row = {c: Fraction(x, piv) for c, x in self.rows[p].items()}
            for c in sorted(row):
                if c == p or c not in reduced:
                    continue
                x = row.pop(c, None)
                if not x:
                    continue
                # reduced[c] touches only c and non-pivot columns
                for c2, y in reduced[c].items():
                    if c2 == c:
                        continue
                    nv = row.get(c2, Fraction(0)) - x * y
                    if nv:
                        row[c2] = nv
                    else:
                        row.pop(c2, None)
            reduced[p] = row
        self.rows = reduced
        self._final = True

    def reduce(self, vec):
        """Residue of vec modulo the span, supported off the pivot columns.

        Requires finalize().  vec and result are dicts col -> Fraction.
        """
        if not self._final:
            raise RuntimeError("Echelon.reduce before finalize")
        v = {c: Fraction(x) for c, x in
             (vec.items() if isinstance(vec, dict) else vec) if x != 0}
        for p in sorted(set(v) & set(self.rows)):
            x = v.pop(p, None)
            if not x:
                continue
            for c, y in self.rows[p].items():
                if c == p:
                    continue
                nv = v.get(c, Fraction(0)) - x * y
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
        return v
