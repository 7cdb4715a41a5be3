"""Cochain cohomology of finite groups acting on free Z-modules.

Builds the homogeneous complex (equivariant maps out of cartesian powers of
the group, restricted to a free basis of tuples with identity first
coordinate) and the usual inhomogeneous complex as a cross-check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .abelian import FgAbGroup, IntMatrix, CochainComplex, complex_cohomology

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

    def __post_init__(self):
        # tuples whatever the caller passed: a group is hashable, so its
        # validation can be remembered
        object.__setattr__(self, "table", tuple(map(tuple, self.table)))

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

    def __post_init__(self):
        object.__setattr__(self, "matrices",
                           tuple(tuple(map(tuple, M)) for M in self.matrices))

    def matrix(self, g):
        return self.matrices[g]

    def validate(self, G: FiniteGroup):
        """Check the shapes, rho(e) = I and rho(g) rho(h) = rho(gh).  For a
        group G, validated first, these laws give rho(g) rho(g^-1) = I, so
        every matrix is invertible over Z."""
        if len(self.matrices) != G.order:
            raise GroupValidationError("need one matrix per group element")
        r = self.rank
        for M in self.matrices:
            if len(M) != r or any(len(row) != r for row in M):
                raise GroupValidationError("action matrix has wrong shape")
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


def _check_budget(G, A, p_max):
    for p in range(p_max + 1):
        if G.order ** p * A.rank > TERM_BUDGET:
            raise BudgetExceededError(
                f"degree-{p} term has rank {G.order ** p * A.rank}, "
                f"budget is {TERM_BUDGET}"
            )


@functools.lru_cache(maxsize=32)
def _validate_inputs(G, A):
    """Check the group, then the action, whose check needs a group.  Both
    are frozen and hashable, so each distinct pair is checked once; a
    failing pair is not cached and raises again."""
    G.validate()
    A.validate(G)


def _build_complex(G, A, p_max, tables):
    """Coboundaries in degrees 0..p_max written straight as sparse rows.

    `tables(G, r)`, started once the inputs are valid, yields for degree
    p = 0, 1, ... the lists (bases, signs, faces) over the basis index k of
    the (p+1)-tuples H: H's leading element acts at column base `bases[k]`,
    and face i maps each module coordinate to itself from column base
    `faces[i][k]`, with sign `signs[i]`.  Row a of H's block sums these,
    zeros dropped, keys in ascending column order (the engine's pivot order
    follows it).
    """
    _validate_inputs(G, A)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    _check_budget(G, A, p_max)
    n, r = G.order, A.rank
    dims = tuple(n ** p * r for p in range(p_max + 1))
    # row a of element g's matrix as (column offset, value), zeros dropped
    entries = [[[(b, v) for b, v in enumerate(row) if v] for row in A.matrix(g)]
               for g in range(n)]
    boundaries = []
    for p, (bases, signs, faces) in zip(range(p_max), tables(G, r)):
        N = n ** p  # H's leading element is k // N
        D = []
        for k, (base, cols) in enumerate(zip(bases, zip(*faces))):
            for a, act in enumerate(entries[k // N]):
                acc = {base + b: v for b, v in act}
                for col, sign in zip(cols, signs):
                    acc[col + a] = acc.get(col + a, 0) + sign
                D.append({c: acc[c] for c in sorted(acc) if acc[c]})
        boundaries.append(IntMatrix(dims[p], tuple(D)))
    return CochainComplex(dims, tuple(boundaries))


def _homogeneous_tables(G, r):
    n, table = G.order, G.table
    inverse = [G.inv(g) for g in range(n)]
    # pulled[g][t]: index of the tuple with index t after left
    # multiplication of each entry by g; one digit longer each degree
    pulled = [[0]] * n
    for p in itertools.count():
        N = n ** p
        # H = (h, t) pulls back through h^-1 to (identity, h^-1 t)
        bases = [pulled[inverse[h]][t] * r for h in range(n) for t in range(N)]
        # omitting entry i of the tuple with index k keeps the digits after
        # it (k % w) and moves those before it (k // w n) down one place
        signs = [1 if i % 2 else -1 for i in range(p + 1)]
        faces = [[(k // (w * n) * w + k % w) * r for k in range(n * N)]
                 for w in (n ** (p - i) for i in range(p + 1))]
        yield bases, signs, faces
        pulled = [[t * n + row[d] for t in prev for d in range(n)]
                  for prev, row in zip(pulled, table)]


def _inhomogeneous_tables(G, r):
    n, table = G.order, G.table
    for p in itertools.count():
        N = n ** p
        bases = [t * r for t in range(N)] * n
        # merging entries i-1 and i (digits k // w n and k // w) into their
        # product keeps the digits after them (k % w) and moves those before
        # them (k // w n n) down one place; the last face drops entry p
        signs = [-1 if i % 2 else 1 for i in range(1, p + 2)]
        faces = [[((k // (w * n * n) * n + table[k // (w * n) % n][k // w % n])
                   * w + k % w) * r for k in range(n * N)]
                 for w in (n ** (p - i) for i in range(1, p + 1))]
        faces.append([k // n * r for k in range(n * N)])
        yield bases, signs, faces


def build_homogeneous_complex(G: FiniteGroup, A: GModuleAction,
                              p_max: int) -> CochainComplex:
    """Homogeneous cochain complex in degrees 0..p_max.

    A degree-p cochain is an equivariant map out of (p+1)-tuples of group
    elements, hence determined by its values on tuples with identity first
    coordinate; the basis is (identity, g_1, ..., g_p) times a coordinate of
    the module.  The coboundary alternately omits each tuple entry, with the
    omitted-first term pulled back to a normalized tuple through the action.
    """
    return _build_complex(G, A, p_max, _homogeneous_tables)


def build_inhomogeneous_complex(G: FiniteGroup, A: GModuleAction,
                                p_max: int) -> CochainComplex:
    """Inhomogeneous cochain complex in degrees 0..p_max (cross-check route)."""
    return _build_complex(G, A, p_max, _inhomogeneous_tables)


def group_cohomology_q(G: FiniteGroup, A: GModuleAction, q: int,
                       complex_builder=build_homogeneous_complex) -> FgAbGroup:
    """H^q of the finite group G with coefficients in the given action.

    Each call builds and checks a fresh complex in degrees 0..max(q, 1),
    so `TERM_BUDGET` bounds only those terms.  For q >= 1, |G| kills H^q
    (Brown, Cohomology of Groups, GTM 87, III.10.1), so H^q has no free
    part.  ker d_q is saturated and contains im d_{q-1}, hence H^q is the
    torsion of coker d_{q-1}: it is read at the complex's top degree, and
    d_q is never formed.  H^0 reads rk d_0 off its Smith diagonal.  For
    several degrees of one (G, A), build once with `build_*_complex` and
    read each degree with `complex_cohomology`.
    """
    if q < 0:
        raise ValueError("degree must be non-negative")
    H = complex_cohomology(complex_builder(G, A, max(q, 1)), q)
    return H if q == 0 else FgAbGroup(0, H.invariant_factors)
