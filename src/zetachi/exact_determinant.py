"""Determinants of based exact complexes of real vector spaces.

Let V_0 -> V_1 -> ... -> V_n be an exact complex with maps T_i: V_i -> V_{i+1}
and standard bases.  Let r_i be the rank of T_i and b_i a basis of lifts:
r_i vectors that T_i maps onto a basis of its image.  By exactness
T_{i-1} b_{i-1} is a basis of ker T_i, so [T_{i-1} b_{i-1} | b_i] is a basis
of V_i, and the determinant of the complex is its torsion (Milnor,
"Whitehead torsion", Bull. AMS 72, 1966, section 3),

    prod_i det[T_{i-1} b_{i-1} | b_i] ^ (-1)^(i+1),

with i the index of V_i in the complex as given.  Replacing b_i by b_i M
scales the factors at V_i and V_{i+1} by det M, once up and once down, so
the value does not depend on the lifts.  Here b_i are the standard vectors
e_J of the r_i pivot columns J of a complete-pivoting elimination of T_i,
and the same elimination gives r_i and, run to the end, each determinant.

A zero space contributes the empty determinant 1 and costs no linear
algebra; a leading one still shifts the parity of the spaces after it, so
(0, V, W) has the inverse determinant of (V, W).  The realified profile
(0, R, R, 0) of a real quadratic field, with the regulator as its map, thus
costs one 1 x 1 elimination and two 1 x 1 determinants and gives 1/R; the
all-zero profile of Q or an imaginary field costs nothing.

The Euler characteristic of a graded complex of finitely generated abelian
groups is the alternating product of torsion orders divided by this
determinant of the realified complex; only its absolute value is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

__all__ = [
    "BasedRealComplex",
    "GradedGroupComplex",
    "ExactnessError",
    "check_exact",
    "determinant_exact",
    "euler_characteristic",
    "torsion_alternating_product",
]

RANK_TOL = 1e-10  # relative cutoff for pivots and for d o d = 0


class ExactnessError(ValueError):
    """The complex handed to the determinant is not exact."""


def _as_maps(dims, maps):
    """Each map as a tuple of float row tuples, T_i of shape dims[i + 1] x
    dims[i]; any nested rows, numpy arrays included, are accepted."""
    out = []
    for i, T in enumerate(maps):
        rows = tuple(tuple(map(float, row)) for row in T)
        if len(rows) != dims[i + 1] or any(len(row) != dims[i] for row in rows):
            raise ValueError(f"map {i} must be {dims[i + 1]} x {dims[i]}")
        out.append(rows)
    return tuple(out)


@dataclass(frozen=True)
class BasedRealComplex:
    """Spaces V_0..V_n with maps T_i: V_i -> V_{i+1}, standard ordered bases."""

    dims: tuple
    maps: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))
        if len(self.maps) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly len(dims) - 1 maps")
        object.__setattr__(self, "maps", _as_maps(self.dims, self.maps))


@dataclass(frozen=True)
class GradedGroupComplex:
    """Groups A_0..A_n with real maps between the realifications A_i (x) R."""

    groups: tuple
    realified_maps: tuple

    @cached_property
    def realified(self) -> BasedRealComplex:
        """The based real complex, built on the first read."""
        dims = tuple(g.free_rank for g in self.groups)
        return BasedRealComplex(dims, self.realified_maps)

    @cached_property
    def torsion_product(self) -> Fraction:
        """prod |torsion(A_i)| ^ (-1)^i, computed on the first read."""
        return torsion_alternating_product(self.groups)

    def with_maps(self, realified_maps) -> "GradedGroupComplex":
        """The same groups with other real maps.  The torsion product
        depends on the groups alone, so the new complex takes this one's
        instead of computing it again."""
        other = GradedGroupComplex(self.groups, realified_maps)
        other.__dict__["torsion_product"] = self.torsion_product
        return other


def _max_abs(T):
    return max(abs(x) for row in T for x in row)


def _times(T, v):
    """The matrix T, given by its rows, times the vector v."""
    return tuple(sum(map(mul, row, v)) for row in T)


def _eliminate(T, cutoff):
    """Elimination of T, given by its rows, with complete pivoting while a
    pivot exceeds `cutoff`: each pivot's column and its value, signed by the
    parity of the adjacent swaps that bring it to the front of the rows and
    columns still left.  A square T has the product of the signed pivots as
    its determinant once every row has one."""
    A = [list(row) for row in T]
    rows, cols = list(range(len(A))), list(range(len(A[0]) if A else 0))
    pivots = []
    while rows and cols:
        v, i, j = max((abs(A[i][j]), i, j) for i in rows for j in cols)
        if not v > cutoff:  # also stops on an all-zero rest
            break
        ri, cj = rows.index(i), cols.index(j)
        del rows[ri], cols[cj]
        Ai = A[i]
        p = Ai[j]
        pivots.append((j, -p if (ri + cj) % 2 else p))
        for k in rows:
            f = A[k][j] / p
            if f:
                Ak = A[k]
                for c in cols:
                    Ak[c] -= f * Ai[c]
    return pivots


def _lifts(T):
    """Rank r of a nonempty T and the r pivot columns J of its elimination:
    T maps e_J onto a basis of its image.  A pivot counts when it exceeds
    RANK_TOL times max |t_ij|."""
    pivots = _eliminate(T, RANK_TOL * _max_abs(T))
    return len(pivots), tuple(j for j, _ in pivots)


def _split(C):
    """(rank, pivot columns) of each map; a map from or to a zero space has
    rank 0 and costs no elimination."""
    return [_lifts(T) if C.dims[i] and C.dims[i + 1] else (0, ())
            for i, T in enumerate(C.maps)]


def _is_exact(C, ranks):
    """Consecutive maps compose to zero and r_{i-1} + r_i = dim V_i at every
    space, with r = 0 off both ends."""
    r = (0, *ranks, 0)
    if any(r[i] + r[i + 1] != d for i, d in enumerate(C.dims)):
        return False
    for i in range(len(C.maps) - 1):
        if C.dims[i] and C.dims[i + 1] and C.dims[i + 2]:
            A, B = C.maps[i], C.maps[i + 1]
            scale = max(_max_abs(B), 1.0) * max(_max_abs(A), 1.0)
            worst = max(abs(y) for col in zip(*A) for y in _times(B, col))
            if worst > RANK_TOL * scale * C.dims[i + 1]:
                return False
    return True


def check_exact(C: BasedRealComplex) -> bool:
    """True iff the based complex is exact (ranks from complete pivoting)."""
    return _is_exact(C, [r for r, _ in _split(C)])


def _det(rows):
    """Determinant of a square matrix from its elimination: the product of
    the signed pivots, or 0.0 when a zero rest leaves a row without one."""
    pivots = _eliminate(rows, 0.0)
    if len(pivots) < len(rows):
        return 0.0
    return prod([p for _, p in pivots], start=1.0)


def _mixed(b, rng):
    """The columns b times a random invertible matrix drawn from `rng`."""
    r = len(b)
    while True:
        M = [[rng.uniform(-1.0, 1.0) for _ in range(r)] for _ in range(r)]
        if abs(_det(M)) > 1e-3:
            rows = tuple(zip(*b))  # b as a matrix
            return [_times(rows, col) for col in zip(*M)]


def determinant_exact(C: BasedRealComplex, rng=None) -> float:
    """Determinant of a based exact complex.

    `rng`, when given, mixes each basis of lifts by a random invertible
    matrix; the result does not depend on that choice.
    """
    if not any(C.dims):
        return 1.0  # every space is zero: the empty product
    split = _split(C)
    if not _is_exact(C, [r for r, _ in split]):
        raise ExactnessError("complex is not exact")
    delta = 1.0
    images = []  # the lifts at the space before, mapped into this one
    # the last space has no map out, so no lifts
    for i, (d, (_, pivots)) in enumerate(zip(C.dims, [*split, (0, ())])):
        b = [(0.0,) * j + (1.0,) + (0.0,) * (d - j - 1) for j in pivots]
        if rng is not None:
            b = _mixed(b, rng)
        if d:
            factor = _det(images + b)  # of the transpose, which is the same
            if factor == 0.0:
                raise ExactnessError(f"the basis at V_{i} is singular")
            delta = delta * factor if i % 2 else delta / factor
        images = [_times(C.maps[i], v) for v in b]
    return delta


def torsion_alternating_product(groups) -> Fraction:
    """prod |torsion(A_i)| ^ (-1)^i as an exact rational."""
    num = den = 1
    for i, g in enumerate(groups):
        if i % 2 == 0:
            num *= g.torsion_order
        else:
            den *= g.torsion_order
    return Fraction(num, den)


def euler_characteristic(G: GradedGroupComplex) -> float:
    """Alternating torsion product divided by the determinant of the
    realified based complex.  Only the absolute value is canonical; the
    sign reflects the standard-basis choice."""
    delta = determinant_exact(G.realified)
    return float(G.torsion_product) / delta
