"""Cochain cohomology of finite groups acting on free Z-modules.

Builds the homogeneous complex (equivariant maps out of cartesian powers of
the group, restricted to a free basis of tuples with identity first
coordinate) and the usual inhomogeneous complex as a cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import FgAbGroup, IntMatrix, CochainComplex, complex_cohomology, \
    group_from_presentation

__all__ = [
    "FiniteGroup",
    "GModuleAction",
    "GroupValidationError",
    "BudgetExceededError",
    "cyclic_group",
    "direct_product",
    "symmetric_group",
    "trivial_action",
    "build_homogeneous_complex",
    "build_inhomogeneous_complex",
    "group_cohomology_q",
]

# largest cochain term (rows) a complex may have
TERM_BUDGET = 20000


class GroupValidationError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """A requested cochain term would exceed the row budget."""


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group given by its multiplication table of element indices."""

    table: tuple  # table[g][h] = g * h

    @property
    def order(self):
        return len(self.table)

    @property
    def identity(self):
        for e in range(self.order):
            if all(self.table[e][g] == g for g in range(self.order)):
                return e
        raise GroupValidationError("no identity element")

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        e = self.identity
        for h in range(self.order):
            if self.table[g][h] == e:
                return h
        raise GroupValidationError(f"element {g} has no inverse")

    def validate(self):
        n = self.order
        if any(len(row) != n for row in self.table):
            raise GroupValidationError("multiplication table is not square")
        if any(not 0 <= x < n for row in self.table for x in row):
            raise GroupValidationError("table entry out of range")
        e = self.identity
        if any(self.table[g][e] != g for g in range(n)):
            raise GroupValidationError("identity is not two-sided")
        for g in range(n):
            self.inv(g)
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupValidationError(
                            f"associativity fails at ({a}, {b}, {c})"
                        )


def cyclic_group(n):
    if n < 1:
        raise GroupValidationError("order must be positive")
    return FiniteGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def direct_product(G: FiniteGroup, H: FiniteGroup):
    nh = H.order
    pairs = [(g, h) for g in range(G.order) for h in range(H.order)]
    idx = {p: i for i, p in enumerate(pairs)}
    table = tuple(
        tuple(idx[(G.mul(g1, g2), H.mul(h1, h2))] for (g2, h2) in pairs)
        for (g1, h1) in pairs
    )
    return FiniteGroup(table)


def symmetric_group(n):
    """Symmetric group on n letters as a multiplication table (small n only)."""
    perms = sorted(itertools.permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(n))
    return FiniteGroup(
        tuple(tuple(idx[compose(p, q)] for q in perms) for p in perms)
    )


@dataclass(frozen=True)
class GModuleAction:
    """Action of a finite group on Z^rank by integer matrices."""

    rank: int
    matrices: tuple  # one rank x rank tuple-of-tuples per group element

    def matrix(self, g):
        return self.matrices[g]

    def validate(self, G: FiniteGroup):
        if len(self.matrices) != G.order:
            raise GroupValidationError("need one matrix per group element")
        r = self.rank
        for M in self.matrices:
            if len(M) != r or any(len(row) != r for row in M):
                raise GroupValidationError("action matrix has wrong shape")
            # unimodular iff the rows span Z^r, i.e. the cokernel is trivial
            relations = IntMatrix.from_rows([list(row) for row in M], r)
            if not group_from_presentation(relations, r).is_trivial():
                raise GroupValidationError("action matrix is not invertible over Z")
        e = G.identity
        if self.matrices[e] != _identity_rows(r):
            raise GroupValidationError("identity must act trivially")
        for g in range(G.order):
            for h in range(G.order):
                if _mat_mul(self.matrices[g], self.matrices[h]) \
                        != self.matrices[G.mul(g, h)]:
                    raise GroupValidationError(
                        f"action is not a homomorphism at ({g}, {h})"
                    )


def _identity_rows(r):
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def _mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        if B else ()
        for i in range(len(A))
    )


def trivial_action(G: FiniteGroup, rank=1):
    return GModuleAction(rank, tuple(_identity_rows(rank) for _ in range(G.order)))


def _tuple_index(n, tup):
    i = 0
    for g in tup:
        i = i * n + g
    return i


def _check_budget(G, A, p_max):
    for p in range(p_max + 1):
        if G.order ** p * A.rank > TERM_BUDGET:
            raise BudgetExceededError(
                f"degree-{p} term has rank {G.order ** p * A.rank}, "
                f"budget is {TERM_BUDGET}"
            )


def _validate_inputs(G, A):
    G.validate()
    A.validate(G)


def _build_complex(G, A, p_max, blocks):
    """Coboundaries in degrees 0..p_max written straight as sparse rows.

    `blocks(G, A, p)`, called once the inputs are valid, returns `block`;
    for a (p+1)-tuple H at index k of the basis, `block(H, k)` gives the
    action matrix, the column base it acts at, and (column base, sign) for
    each face that maps a module coordinate to itself.  Row a of H's block
    sums these, zeros dropped, keys in ascending column order (the engine's
    pivot order follows it).
    """
    _validate_inputs(G, A)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    _check_budget(G, A, p_max + 1)
    n, r = G.order, A.rank
    dims = tuple(n ** p * r for p in range(p_max + 1))
    boundaries = []
    for p in range(p_max):
        block = blocks(G, A, p)
        D = []
        for k, H in enumerate(itertools.product(range(n), repeat=p + 1)):
            act, base, faces = block(H, k)
            for a in range(r):
                acc = {base + b: v for b, v in enumerate(act[a]) if v}
                for col, sign in faces:
                    acc[col + a] = acc.get(col + a, 0) + sign
                D.append({c: acc[c] for c in sorted(acc) if acc[c]})
        boundaries.append(IntMatrix(dims[p + 1], dims[p], tuple(D)))
    return CochainComplex(dims, tuple(boundaries))


def _homogeneous_blocks(G, A, p):
    n, r, table = G.order, A.rank, G.table
    inverse = [G.inv(g) for g in range(n)]
    # omitting entry i of the tuple with index k keeps the digits after it
    # (k % w) and moves those before it (k // above) down one place
    omit = [(n ** (p - i), n ** (p - i + 1), 1 if i % 2 else -1)
            for i in range(p + 1)]

    def block(H, k):
        by_h1inv = table[inverse[H[0]]]  # left multiplication by h1^-1
        return (A.matrix(H[0]),
                _tuple_index(n, [by_h1inv[h] for h in H[1:]]) * r,
                [((k // above * w + k % w) * r, sign) for w, above, sign in omit])
    return block


def _inhomogeneous_blocks(G, A, p):
    n, r, table = G.order, A.rank, G.table
    # merging entries i-1 and i into their product keeps the digits after
    # them (k % w) and moves those before them (k // above) down one place
    merge = [(i, n ** (p - i), n ** (p - i + 2), -1 if i % 2 else 1)
             for i in range(1, p + 1)]
    last, tail = -1 if (p + 1) % 2 else 1, n ** p

    def block(H, k):
        faces = [(((k // above * n + table[H[i - 1]][H[i]]) * w + k % w) * r, sign)
                 for i, w, above, sign in merge]
        faces.append((k // n * r, last))
        return A.matrix(H[0]), k % tail * r, faces
    return block


def build_homogeneous_complex(G: FiniteGroup, A: GModuleAction,
                              p_max: int) -> CochainComplex:
    """Homogeneous cochain complex in degrees 0..p_max.

    A degree-p cochain is an equivariant map out of (p+1)-tuples of group
    elements, hence determined by its values on tuples with identity first
    coordinate; the basis is (identity, g_1, ..., g_p) times a coordinate of
    the module.  The coboundary alternately omits each tuple entry, with the
    omitted-first term pulled back to a normalized tuple through the action.
    """
    return _build_complex(G, A, p_max, _homogeneous_blocks)


def build_inhomogeneous_complex(G: FiniteGroup, A: GModuleAction,
                                p_max: int) -> CochainComplex:
    """Inhomogeneous cochain complex in degrees 0..p_max (cross-check route)."""
    return _build_complex(G, A, p_max, _inhomogeneous_blocks)


def group_cohomology_q(G: FiniteGroup, A: GModuleAction, q: int,
                       complex_builder=build_homogeneous_complex) -> FgAbGroup:
    """H^q of the finite group G with coefficients in the given action."""
    if q < 0:
        raise ValueError("degree must be non-negative")
    C = complex_builder(G, A, max(q + 1, 1))
    return complex_cohomology(C, q)
