"""Exact integer linear algebra.

Finitely generated abelian groups in invariant-factor normal form, and
cohomology of integer cochain complexes by the rank formula
H^q = Z^{n_q - rk d_q - rk d_{q-1}} + tors(coker d_{q-1}).  Matrices are
stored sparse, one {column: value} dict of nonzeros per row; the composition
check and the one elimination engine, which gives the Smith diagonal
without transforms for both presentations and cohomology, read those rows
as stored.  The Smith normal form with its unimodular transforms is kept as
the reference that the tests compare the engine against.  Everything is
exact Python-integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

__all__ = [
    "IntMatrix",
    "SnfResult",
    "FgAbGroup",
    "CochainComplex",
    "MalformedComplexError",
    "smith_normal_form",
    "group_from_presentation",
    "complex_cohomology",
]

class MalformedComplexError(ValueError):
    """Consecutive coboundaries do not compose to zero."""


@dataclass(frozen=True)
class IntMatrix:
    """Sparse integer matrix, arbitrary precision.

    `nonzeros[i]` is the {column: value} dict of row i's nonzero entries,
    keys in ascending column order.  Readers take the rows as stored; the
    elimination engine copies a row before it changes it.
    """

    rows: int
    cols: int
    nonzeros: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.nonzeros) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.nonzeros)}")
        for r in self.nonzeros:
            if r and (min(r) < 0 or max(r) >= self.cols or not all(r.values())):
                raise ValueError("stored entries must be nonzero and inside the columns")

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols,
                   tuple({j: v for j, v in enumerate(r) if v} for r in rows))

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, tuple({} for _ in range(rows)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple({i: 1} for i in range(n)))

    def to_rows(self):
        return [[r.get(j, 0) for j in range(self.cols)] for r in self.nonzeros]

    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return self.nonzeros[i].get(j, 0)

    def transpose(self):
        cols = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nonzeros):
            for j, v in r.items():
                cols[j][i] = v
        return IntMatrix(self.cols, self.rows, tuple(cols))

    def diagonal(self):
        return [self.nonzeros[i].get(i, 0) for i in range(min(self.rows, self.cols))]

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, other.cols, tuple(
            {j: r[j] for j in sorted(r)}
            for r in _sparse_product(self.nonzeros, other.nonzeros)))

    def is_zero(self):
        return not any(self.nonzeros)


@dataclass(frozen=True)
class SnfResult:
    """U @ M @ V = D with U, V unimodular and D in Smith normal form."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def rank(self):
        return sum(1 for x in self.D.diagonal() if x != 0)


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

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

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
    """Free cochain complex of Z-modules; boundaries[p] maps degree p to p+1."""

    dims: tuple
    boundaries: tuple = field(default=())

    def __post_init__(self):
        if len(self.boundaries) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly len(dims) - 1 boundary maps")
        for p, b in enumerate(self.boundaries):
            if (b.rows, b.cols) != (self.dims[p + 1], self.dims[p]):
                raise ValueError(f"boundary {p} has shape {(b.rows, b.cols)}, "
                                 f"expected {(self.dims[p + 1], self.dims[p])}")

    def validate_composition(self):
        b = self.boundaries
        for p in range(len(b) - 1):
            if any(_sparse_product(b[p + 1].nonzeros, b[p].nonzeros)):
                raise MalformedComplexError(
                    f"boundary composition at degree {p} is not zero"
                )


# ---------------------------------------------------------------------------
# sparse rows: {column: value} dicts of the nonzero entries


def _sparse_product(A_rows, B_rows):
    """Sparse rows of A @ B from the sparse rows of A and B."""
    out = []
    for a in A_rows:
        acc = {}
        for k, x in a.items():
            for j, y in B_rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def _axpy(r, q, s):
    """r += q * s in place, for sparse rows and q != 0."""
    for c, v in s.items():
        w = r.get(c, 0) + q * v
        if w:
            r[c] = w
        else:
            del r[c]


# ---------------------------------------------------------------------------
# Smith normal form


def _pivot_python(A, t, m, n):
    best = None
    for i in range(t, m):
        Ai = A[i]
        for j in range(t, n):
            v = Ai[j]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best[0]:
                    best = (a, i, j)
        if best is not None and best[0] == 1:
            break
    return best


def _swap_cols(rows, a, b):
    for r in rows:
        r[a], r[b] = r[b], r[a]


def _snf_python(rows, m, n):
    A = [list(r) for r in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(min(m, n)):
        piv = _pivot_python(A, t, m, n)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            _swap_cols(A, t, pj)
            _swap_cols(V, t, pj)
        while True:
            for i in range(t + 1, m):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                        U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        U[t], U[i] = U[i], U[t]
            for j in range(t + 1, n):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                        for row in V:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        _swap_cols(A, t, j)
                        _swap_cols(V, t, j)
            if any(A[i][t] for i in range(t + 1, m)):
                continue
            d = A[t][t]
            bad = next(
                (i for i in range(t + 1, m)
                 if any(A[i][j] % d for j in range(t + 1, n))),
                None,
            )
            if bad is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
            U[t] = [x + y for x, y in zip(U[t], U[bad])]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
    return A, U, V


def smith_normal_form(M: IntMatrix) -> SnfResult:
    """Diagonalize M by unimodular transforms: U @ M @ V = D.

    The diagonal of D is non-negative and each nonzero entry divides the
    next.  Pivoting is deterministic (smallest absolute value, row-major).
    This is the reference the transform-free `_snf_diagonal` is tested
    against.
    """
    m, n = M.rows, M.cols
    D, U, V = _snf_python(M.to_rows(), m, n)
    return SnfResult(
        U=IntMatrix.from_rows(U, m),
        D=IntMatrix.from_rows(D, n),
        V=IntMatrix.from_rows(V, n),
    )


def _pivot_sparse(rows):
    """(row, column) of an entry of least absolute value; the first unit."""
    best = at = None
    for i, r in enumerate(rows):
        for j, v in r.items():
            a = v if v > 0 else -v
            if best is None or a < best:
                best, at = a, (i, j)
                if a == 1:
                    return at
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


def _snf_diagonal(M: IntMatrix) -> tuple:
    """Nonzero Smith diagonal d_1 | d_2 | ... | d_r of M, where r = rank M.

    Elimination on sparse rows in exact integers, without transforms.  Row
    operations touch only the rows with a nonzero in the pivot column.  Once
    that column is clear, column operations change the pivot row alone, so
    the row is reduced mod the pivot and Euclid goes on with the least
    remainder.  The diagonal this leaves is put into divisibility order.
    """
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
            rem = {c: v % p for c, v in prow.items() if c != j and v % p}
            if not rem:
                diag.append(abs(p))
                break
            least = min(rem, key=lambda c: abs(rem[c]))
            rem[j] = p
            prow, j = rem, least
    return _divisibility_chain(diag)


# ---------------------------------------------------------------------------
# groups from presentations, cohomology of complexes


def group_from_presentation(relations: IntMatrix, generators: int) -> FgAbGroup:
    """Z^generators modulo the row span of `relations`, in normal form."""
    if relations.cols != generators:
        raise ValueError("relation matrix must have one column per generator")
    diag = _snf_diagonal(relations)
    return FgAbGroup(
        free_rank=generators - len(diag),
        invariant_factors=tuple(d for d in diag if d > 1),
    )


def complex_cohomology(C: CochainComplex, q: int) -> FgAbGroup:
    """ker(d_q) / im(d_{q-1}) as a group in normal form.

    Because ker d_q is saturated in Z^{n_q}, this is
    Z^{n_q - rk d_q - rk d_{q-1}} + tors(coker d_{q-1}), read off the Smith
    diagonals of the two maps.  The boundary off either end of the complex
    is the zero map.
    """
    if not 0 <= q < len(C.dims):
        raise ValueError(f"degree {q} outside complex of length {len(C.dims)}")
    C.validate_composition()
    rank_out = len(_snf_diagonal(C.boundaries[q])) if q < len(C.boundaries) else 0
    diag_in = _snf_diagonal(C.boundaries[q - 1]) if q > 0 else ()
    return FgAbGroup(
        free_rank=C.dims[q] - rank_out - len(diag_in),
        invariant_factors=tuple(d for d in diag_in if d > 1),
    )
