"""Exact integer linear algebra.

Finitely generated abelian groups in invariant-factor normal form, and
cohomology of integer cochain complexes by the rank formula
H^q = Z^{n_q - rk d_q - rk d_{q-1}} + tors(coker d_{q-1}).  Matrices are
stored sparse, one {column: value} dict of nonzeros per row; the composition
check and the one elimination engine, which gives the Smith diagonal
without transforms for both presentations and cohomology, read those rows
as stored.  Of the out-map d_q only the rank is needed.  As d_q d_{q-1} = 0,
rk d_q is at most n_q - rk d_{q-1}; a rank mod the prime 2^31 - 1 never
exceeds the rank over Q, so an elimination mod that prime which reaches the
bound proves rk d_q equal to it, and stops there.  Where the bound is not
reached (an H^q with a free part, or a rank that drops mod the prime), the
Smith engine gives rk d_q.  Everything is exact Python-integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

__all__ = [
    "IntMatrix",
    "FgAbGroup",
    "CochainComplex",
    "MalformedComplexError",
    "group_from_presentation",
    "complex_cohomology",
]

class MalformedComplexError(ValueError):
    """Consecutive coboundaries do not compose to zero."""


@dataclass(frozen=True)
class IntMatrix:
    """Sparse integer matrix, arbitrary precision.

    `nonzeros[i]` is the {column: value} dict of row i's nonzero entries,
    keys in ascending column order, so the row count is `len(nonzeros)`.
    Readers take the rows as stored; the elimination engine copies a row
    before it changes it.
    """

    cols: int
    nonzeros: tuple

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError("negative matrix dimensions")
        # one C-level pass per property; empty rows have no min or max
        rows = self.nonzeros
        if (min(map(min, filter(None, rows)), default=0) < 0
                or max(map(max, filter(None, rows)), default=-1) >= self.cols
                or not all(map(all, map(dict.values, rows)))):
            raise ValueError("stored entries must be nonzero and inside the columns")

    @property
    def rows(self):
        return len(self.nonzeros)

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(cols, tuple({j: v for j, v in enumerate(r) if v} for r in rows))

    @classmethod
    def zero(cls, rows, cols):
        return cls(cols, tuple({} for _ in range(rows)))

    @classmethod
    def identity(cls, n):
        return cls(n, tuple({i: 1} for i in range(n)))

    def to_rows(self):
        return [[r.get(j, 0) for j in range(self.cols)] for r in self.nonzeros]


@dataclass(frozen=True)
class FgAbGroup:
    """Z^free_rank + Z/f_1 + ... + Z/f_k with 2 <= f_1 | f_2 | ... | f_k."""

    free_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        fs = self.invariant_factors
        if not fs:
            return
        if any(f < 2 for f in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def trivial(cls):
        return cls(0, ())

    @classmethod
    def free(cls, rank):
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n):
        return cls(0, (n,)) if n > 1 else cls.trivial()

    @property
    def torsion_order(self):
        return prod(self.invariant_factors)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class CochainComplex:
    """Free cochain complex of Z-modules; boundaries[p] maps degree p to p+1.

    Checked once, when it is made, for shapes and for consecutive
    boundaries composing to zero (MalformedComplexError); being frozen, it
    stays valid for every later read."""

    dims: tuple
    boundaries: tuple = field(default=())

    def __post_init__(self):
        if len(self.boundaries) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly len(dims) - 1 boundary maps")
        for p, b in enumerate(self.boundaries):
            if (b.rows, b.cols) != (self.dims[p + 1], self.dims[p]):
                raise ValueError(f"boundary {p} has shape {(b.rows, b.cols)}, "
                                 f"expected {(self.dims[p + 1], self.dims[p])}")
        self.validate_composition()

    def validate_composition(self):
        """Each row of d_{p+1} d_p, summed and checked one at a time; the
        first that does not cancel raises, naming its degree p."""
        b = self.boundaries
        for p in range(len(b) - 1):
            lower = b[p].nonzeros
            for a in b[p + 1].nonzeros:
                acc = {}
                for k, x in a.items():
                    for j, y in lower[k].items():
                        acc[j] = acc.get(j, 0) + x * y
                if any(acc.values()):
                    raise MalformedComplexError(
                        f"boundary composition at degree {p} is not zero"
                    )


# ---------------------------------------------------------------------------
# sparse rows: {column: value} dicts of the nonzero entries


def _axpy(r, q, s):
    """r += q * s in place, for sparse rows and q != 0."""
    for c, v in s.items():
        w = r.get(c, 0) + q * v
        if w:
            r[c] = w
        else:
            del r[c]


# ---------------------------------------------------------------------------
# Smith diagonal


def _pivot_sparse(rows):
    """(row, column) of the first unit in row order, else of the first entry
    of least absolute value; within a row, entries go in stored order."""
    for i, r in enumerate(rows):
        vals = r.values()
        if 1 in vals or -1 in vals:  # a C-level scan finds the row
            for j, v in r.items():
                if v == 1 or v == -1:
                    return i, j
    best = at = None
    for i, r in enumerate(rows):
        for j, v in r.items():
            a = v if v > 0 else -v
            if best is None or a < best:
                best, at = a, (i, j)
    return at


def _divisibility_chain(diag):
    """Invariant factors of a diagonal matrix: pairs become (gcd, lcm)."""
    ones = diag.count(1)
    d = [x for x in diag if x != 1]
    for i in range(len(d)):
        for k in range(i + 1, len(d)):
            g = gcd(d[i], d[k])
            d[i], d[k] = g, d[i] // g * d[k]
    return (1,) * ones + tuple(d)


def _transposed_rows(M):
    """Nonzero rows of M's transpose as fresh dicts, keys ascending."""
    cols = [{} for _ in range(M.cols)]
    for i, r in enumerate(M.nonzeros):
        for j, v in r.items():
            cols[j][i] = v
    return [c for c in cols if c]


def _snf_diagonal(M: IntMatrix) -> tuple:
    """Nonzero Smith diagonal d_1 | d_2 | ... | d_r of M, where r = rank M.

    Elimination on sparse rows in exact integers, without transforms.  Row
    operations touch only the rows with a nonzero in the pivot column.  Once
    that column is clear, column operations change the pivot row alone, so
    the row is reduced mod the pivot and Euclid goes on with the least
    remainder.  The diagonal this leaves is put into divisibility order.

    M and its transpose have the same Smith diagonal, so a tall M is
    eliminated along its short side, as the rows of its transpose: fewer
    rows to scan for each pivot column.
    """
    if M.rows > M.cols:
        rows = _transposed_rows(M)
    else:
        rows = [r.copy() for r in M.nonzeros if r]
    diag = []
    while rows:
        i, j = _pivot_sparse(rows)
        prow = rows[i]
        rows[i] = rows[-1]
        rows.pop()
        while True:
            p = prow[j]
            hits = [r for r in rows if j in r]
            for r in hits:
                v = r[j]
                while v:
                    q = v // p
                    if q:
                        _axpy(r, -q, prow)
                        v = r.get(j)
                    if v:  # a remainder below |p| becomes the pivot
                        old, prow, p = prow, r.copy(), v
                        r.clear()
                        r.update(old)
                        v = r[j]
            if not all(hits):
                rows = [r for r in rows if r]
            if p == 1 or p == -1:  # a unit divides the rest of its row
                diag.append(1)
                break
            rem = {c: v % p for c, v in prow.items() if c != j and v % p}
            if not rem:
                diag.append(abs(p))
                break
            least = min(rem, key=lambda c: abs(rem[c]))
            rem[j] = p
            prow, j = rem, least
    return _divisibility_chain(diag)


# ---------------------------------------------------------------------------
# rank certificate


_RANK_PRIME = 2**31 - 1


def _rank_mod_p(M: IntMatrix, stop: int) -> int:
    """Rank of M over Z/_RANK_PRIME, counted no further than `stop`.

    Rows are taken last first; on the finite-group complexes that needs
    about a tenth of the reductions of stored order.  Each row is reduced
    mod the prime on its least column against the rows kept so far, each
    kept row scaled to lead with 1, until that column leads no kept row;
    then the row is kept, or dropped once it is zero.  The count stops as
    soon as it reaches `stop`.
    """
    p = _RANK_PRIME
    lead = {}
    for r in reversed(M.nonzeros):
        if len(lead) >= stop:
            break
        r = {c: v % p for c, v in r.items() if v % p}
        while r:
            c = min(r)
            s = lead.get(c)
            if s is None:
                inv = pow(r[c], -1, p)
                lead[c] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[c]
            for k, v in s.items():  # r -= f * s; entry c cancels
                w = (r.get(k, 0) - f * v) % p
                if w:
                    r[k] = w
                else:
                    del r[k]
    return len(lead)


# ---------------------------------------------------------------------------
# groups from presentations, cohomology of complexes


def group_from_presentation(relations: IntMatrix) -> FgAbGroup:
    """Z^n modulo the row span of `relations`, n = relations.cols, in normal
    form."""
    diag = _snf_diagonal(relations)
    return FgAbGroup(
        free_rank=relations.cols - len(diag),
        invariant_factors=tuple(d for d in diag if d > 1),
    )


def complex_cohomology(C: CochainComplex, q: int) -> FgAbGroup:
    """ker(d_q) / im(d_{q-1}) as a group in normal form.

    Because ker d_q is saturated in Z^{n_q}, this is
    Z^{n_q - rk d_q - rk d_{q-1}} + tors(coker d_{q-1}).  The in-map's
    Smith diagonal gives rk d_{q-1} and the torsion.  Of the out-map only
    the rank is needed.  As d_q d_{q-1} = 0 (checked when C was built),
    im d_{q-1} lies in ker d_q, so rk d_q <= n_q - rk d_{q-1}.  A rank mod
    _RANK_PRIME never exceeds the rank over Q, so when d_q's rows reach that
    bound mod the prime, rk d_q equals it.  Otherwise (an H^q with a free
    part, or a map whose rank drops mod the prime) rk d_q is the length of
    d_q's Smith diagonal.  For a finite group's complex and q >= 1, |G|
    kills H^q, so it has no free part and the bound is rk d_q over Q; this
    function does not assume that, since it serves any complex, but
    `group_cohomology_q` does, and never builds d_q.  The boundary off
    either end of the complex is the zero map.
    """
    if not 0 <= q < len(C.dims):
        raise ValueError(f"degree {q} outside complex of length {len(C.dims)}")
    diag_in = _snf_diagonal(C.boundaries[q - 1]) if q > 0 else ()
    rank_out = 0
    if q < len(C.boundaries):
        out, bound = C.boundaries[q], C.dims[q] - len(diag_in)
        certified = _rank_mod_p(out, bound) == bound
        rank_out = bound if certified else len(_snf_diagonal(out))
    return FgAbGroup(
        free_rank=C.dims[q] - rank_out - len(diag_in),
        invariant_factors=tuple(d for d in diag_in if d > 1),
    )
