"""Exact rational linear algebra: matrices, subspaces, sparse echelon forms.

Everything is over Q via fractions.Fraction; no floating point anywhere.
Homology dimensions are rank differences and a single rounding error would
flip a Betti number, so exactness is not negotiable.

Two tiers:

* ``Matrix`` / ``Subspace`` -- dense, for desk-scale spaces (pairings,
  weight-2 relation spans, complements).  Subspace bases are kept in reduced
  row echelon form so subspace equality is representation equality.
* ``Echelon`` -- sparse integer row accumulator for the large ambient spaces
  (ideal saturation, chain complexes), supporting rank and coordinate
  reduction without materializing dense bases.

``solve`` is the one solver for linear systems: every exact solve in the
package goes through it, and the echelon kernel ``_rref`` stays private to
this module.
"""

from fractions import Fraction
from math import gcd


def _to_fraction_rows(vectors):
    return [[Fraction(x) for x in v] for v in vectors]


def _rref(rows):
    """In-place reduced row echelon form; returns list of pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return pivots


class Matrix:
    """Dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = [Fraction(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        return cls(rows, cols, [x for row in row_lists for x in row])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def identity(cls, n):
        m = cls.zero(n, n)
        for i in range(n):
            m.entries[i * n + i] = Fraction(1)
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.entries[i * self.cols + j] = Fraction(value)

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_lists(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        t = Matrix.zero(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                t[j, i] = self[i, j]
        return t

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = Matrix.zero(self.rows, other.cols)
        for i in range(self.rows):
            ri = self.row(i)
            for k, a in enumerate(ri):
                if a == 0:
                    continue
                base = k * other.cols
                orow = out.entries
                obase = i * other.cols
                for j in range(other.cols):
                    orow[obase + j] += a * other.entries[base + j]
        return out

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(self[i, j] * vec[j] for j in range(self.cols))
                for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def rank(self):
        rows = self.row_lists()
        _rref(rows)
        return len(rows)


class Subspace:
    """Subspace of Q^n given by a reduced-echelon basis.

    Equality of subspaces is equality of the stored bases.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        for row in self.basis:
            assert len(row) == ambient_dim

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        rows = _to_fraction_rows(vectors)
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("vector length does not match ambient dim")
        _rref(rows)
        return cls(ambient_dim, rows)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, Matrix.identity(ambient_dim).row_lists())

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        return Matrix.from_rows(list(self.basis)) if self.basis else Matrix.zero(0, self.ambient_dim)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def intersect(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if not self.basis or not other.basis:
            return Subspace.zero(self.ambient_dim)
        # x = u A = v B  <=>  (u, v) in nullspace of [A^T | -B^T]
        a, b = self.basis, other.basis
        stacked = []
        for i in range(self.ambient_dim):
            stacked.append([row[i] for row in a] + [-row[i] for row in b])
        _, null = rank_and_nullspace(Matrix.from_rows(stacked))
        vectors = []
        for coeffs in null.basis:
            u = coeffs[:len(a)]
            vec = [sum(u[k] * a[k][j] for k in range(len(a)))
                   for j in range(self.ambient_dim)]
            vectors.append(vec)
        return Subspace.from_vectors(self.ambient_dim, vectors)

    def orthogonal_complement(self, pairing):
        """All x with <v, x> = 0 for v in this space, <v, x> = v P x."""
        if pairing.rows != self.ambient_dim or pairing.cols != self.ambient_dim:
            raise ValueError("pairing must be square of ambient size")
        if not self.basis:
            return Subspace.full(self.ambient_dim)
        m = self.matrix() * pairing
        _, null = rank_and_nullspace(m)
        return null


def rank_and_nullspace(m):
    """Rank and nullspace (as a Subspace of Q^cols) of a Matrix."""
    rows = m.row_lists()
    pivots = _rref(rows)
    rank = len(rows)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return rank, Subspace.from_vectors(m.cols, basis)


def solve(rows, rhs):
    """One solution x of rows . x = rhs over Q, or None if inconsistent.

    ``rows`` holds m coefficient rows of equal length n and ``rhs`` the m
    right-hand sides.  Free variables are set to 0.  With no rows there are
    no columns either, and the solution is empty.
    """
    if len(rows) != len(rhs):
        raise ValueError("row count does not match the right-hand side")
    if not rows:
        return []
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    pivots = _rref(aug)
    if pivots and pivots[-1] == n:
        return None
    sol = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        sol[p] = aug[r][n]
    return sol


def _clear_denominators(vec_items):
    """dict col -> Fraction/int  to gcd-reduced dict col -> int."""
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

    @property
    def pivots(self):
        return set(self.rows)

    def add(self, vec):
        """vec: dict col -> coefficient.  Returns True if rank grew."""
        assert not self._final, "cannot add after finalize"
        v = _clear_denominators(vec.items() if isinstance(vec, dict) else vec)
        while v:
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                if v[p] < 0:
                    v = {c: -x for c, x in v.items()}
                self.rows[p] = v
                return True
            a, b = row[p], v[p]
            g = gcd(a, abs(b))
            fa, fb = a // g, b // g
            new = {}
            for c in set(v) | set(row):
                val = fa * v.get(c, 0) - fb * row.get(c, 0)
                if val:
                    new[c] = val
            g2 = 0
            for x in new.values():
                g2 = gcd(g2, abs(x))
            if g2 > 1:
                new = {c: x // g2 for c, x in new.items()}
            v = new
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
        assert self._final, "finalize before reduce"
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

    def to_subspace(self, ambient_dim):
        self.finalize()
        rows = []
        for p in sorted(self.rows):
            dense = [Fraction(0)] * ambient_dim
            for c, x in self.rows[p].items():
                dense[c] = x
            rows.append(dense)
        return Subspace.from_vectors(ambient_dim, rows)

