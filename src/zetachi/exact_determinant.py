"""Determinants of based exact complexes of real vector spaces.

Let V_0 -> V_1 -> ... -> V_n be an exact complex with maps T_i: V_i -> V_{i+1}
and standard bases.  Let b_i be lifts: vectors of V_i that T_i maps onto a
basis of its image.  By exactness T_{i-1} b_{i-1} is a basis of ker T_i, so
[T_{i-1} b_{i-1} | b_i] is a basis of V_i, and the determinant of the complex
is its torsion (Milnor, "Whitehead torsion", Bull. AMS 72, 1966, section 3),

    prod_i det[T_{i-1} b_{i-1} | b_i] ^ (-1)^(i+1),

with i the index of V_i in the complex as given.  Replacing b_i by b_i M
scales the factors at V_i and V_{i+1} by det M, once up and once down, so
the value does not depend on the lifts.

One walk along the complex chooses the lifts and reads every factor off
the elimination that chose them, a product of minors chosen along the
complex (Turaev, "Introduction to combinatorial torsions", 2001, ch. I).
The lifts are standard vectors e_J: J_0 is all of V_0, so the factor at
V_0 is det I = 1.  At each map the columns J_i of T_i, which are
T_i e_{J_i}, are eliminated with complete pivoting, and J_{i+1} is the
ascending list of the coordinates of V_{i+1} that hold no pivot.  Moving
the pivot columns of [T_i e_{J_i} | e_{J_{i+1}}]^T to the front, in pivot
order, leaves the unit rows e_{J_{i+1}} as an identity block below a zero
block, so the factor at V_{i+1} is the determinant of the eliminated block:
the product of the elimination's pivots, each signed by the parity of the
swaps that brought it to the front.

The same walk decides exactness.  Suppose each elimination has a pivot for
every column it is given, the last space has no coordinate left over, and
consecutive maps compose to zero.  Then V_i is spanned by T_{i-1} e_{J_{i-1}},
which T_i kills, and by e_{J_i}, on which T_i is injective, so
ker T_i = im T_{i-1}; T_0 is injective and the last map is onto.

A zero space has no lifts and costs no linear algebra; a leading one still
shifts the parity of the spaces after it, so (0, V, W) has the inverse
determinant of (V, W).  The realified profile (0, R, R, 0) of a real
quadratic field, with the regulator as its map, thus costs one 1 x 1
elimination and gives 1/R; the all-zero profile of Q or an imaginary field
costs nothing.

The Euler characteristic of a graded complex of finitely generated abelian
groups is the alternating product of torsion orders divided by this
determinant of the realified complex; only its absolute value is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isfinite, prod
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
    dims[i] with finite entries; any nested rows, numpy arrays included, are
    accepted."""
    out = []
    for i, T in enumerate(maps):
        rows = tuple(tuple(map(float, row)) for row in T)
        if len(rows) != dims[i + 1] or any(len(row) != dims[i] for row in rows):
            raise ValueError(f"map {i} must be {dims[i + 1]} x {dims[i]}")
        if not all(isfinite(x) for row in rows for x in row):
            raise ValueError(f"map {i} has an entry that is not finite")
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


def _chain(C):
    """The walk along C: for each space V_i its lifts J_i and its factor,
    the product of the signed pivots of the elimination of T_{i-1} e_{J_{i-1}},
    or None when C is not exact.  A pivot counts when it exceeds RANK_TOL
    times max |t_ij|; a map from or to a zero space costs no elimination."""
    J = list(range(C.dims[0] if C.dims else 0))
    walk = [(J, 1.0)]
    for T, d in zip(C.maps, C.dims[1:]):
        pivots = []
        if J and d:
            columns = list(zip(*T))
            pivots = _eliminate([columns[j] for j in J], RANK_TOL * _max_abs(T))
        if len(pivots) < len(J):
            return None
        J = list(range(d))
        factor = 1.0
        for j, p in pivots:
            J.remove(j)
            factor *= p
        walk.append((J, factor))
    if J:
        return None
    for i in range(len(C.maps) - 1):
        if C.dims[i] and C.dims[i + 1] and C.dims[i + 2]:
            A, B = C.maps[i], C.maps[i + 1]
            scale = max(_max_abs(B), 1.0) * max(_max_abs(A), 1.0)
            worst = max(abs(y) for col in zip(*A) for y in _times(B, col))
            if worst > RANK_TOL * scale * C.dims[i + 1]:
                return None
    return walk


def check_exact(C: BasedRealComplex) -> bool:
    """True iff the based complex is exact: the walk that gives the
    determinant finds a pivot for every lift, leaves no coordinate of the
    last space over, and consecutive maps compose to zero."""
    return _chain(C) is not None


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
    """Determinant of a based exact complex: the walk's factor at each V_i,
    the product of the signed pivots there, with exponent (-1)^(i+1).

    `rng`, when given, mixes each basis of lifts e_J by a random invertible
    matrix and takes each factor as a full determinant instead; the result
    does not depend on that choice.
    """
    walk = _chain(C)
    if walk is None:
        raise ExactnessError("complex is not exact")
    delta = 1.0
    images = []  # with `rng`, T_{i-1} b_{i-1} at V_i
    for i, ((J, factor), T) in enumerate(zip(walk, (*C.maps, ()))):
        if rng is not None:
            d = C.dims[i]
            b = _mixed([(0.0,) * j + (1.0,) + (0.0,) * (d - j - 1) for j in J],
                       rng)
            factor = _det(images + b)  # of the transpose, which is the same
            images = [_times(T, v) for v in b]
        if factor == 0.0:  # singular, or a product of pivots that underflows
            raise ExactnessError(f"the factor at V_{i} is 0")
        delta = delta * factor if i % 2 else delta / factor
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
