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
the value does not depend on the lifts.  Here b_i are the first r_i right
singular vectors of T_i, and the same SVD gives r_i.

A zero space contributes the empty determinant 1 and costs no linear
algebra; a leading one still shifts the parity of the spaces after it, so
(0, V, W) has the inverse determinant of (V, W).  The realified profile
(0, R, R, 0) of a real quadratic field, with the regulator as its map, thus
costs one SVD and two 1 x 1 determinants and gives 1/R; the all-zero
profile of Q or an imaginary field costs nothing.

The Euler characteristic of a graded complex of finitely generated abelian
groups is the alternating product of torsion orders divided by this
determinant of the realified complex; only its absolute value is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "BasedRealComplex",
    "GradedGroupComplex",
    "ExactnessError",
    "check_exact",
    "determinant_exact",
    "euler_characteristic",
    "torsion_alternating_product",
]

DEFAULT_TOL = 1e-10


class ExactnessError(ValueError):
    """The complex handed to the determinant is not exact."""


def _as_maps(dims, maps):
    out = []
    for i, T in enumerate(maps):
        T = np.asarray(T, dtype=float).reshape(dims[i + 1], dims[i])
        out.append(T)
    return tuple(out)


@dataclass(frozen=True)
class BasedRealComplex:
    """Spaces V_0..V_n with maps T_i: V_i -> V_{i+1}, standard ordered bases."""

    dims: tuple
    maps: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "maps", _as_maps(self.dims, self.maps))
        if len(self.maps) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly len(dims) - 1 maps")


@dataclass(frozen=True)
class GradedGroupComplex:
    """Groups A_0..A_n with real maps between the realifications A_i (x) R."""

    groups: tuple
    realified_maps: tuple

    @cached_property
    def _realified(self):
        dims = tuple(g.free_rank for g in self.groups)
        return BasedRealComplex(dims, self.realified_maps)

    def realified(self) -> BasedRealComplex:
        """The based real complex, built on the first call and then reused."""
        return self._realified


def _lifts(T, tol):
    """Rank r of T and its first r right singular vectors, as columns: T
    maps them onto a basis of its image."""
    if T.size == 0:
        return 0, np.zeros((T.shape[1], 0))
    _, sv, Vt = np.linalg.svd(T, full_matrices=False)
    r = int(np.count_nonzero(sv > tol * sv[0]))  # 0 when sv[0] is 0
    return r, Vt[:r].T


def _is_exact(C, ranks, tol):
    """Consecutive maps compose to zero and r_{i-1} + r_i = dim V_i at every
    space, with r = 0 off both ends."""
    r = (0, *ranks, 0)
    if any(r[i] + r[i + 1] != d for i, d in enumerate(C.dims)):
        return False
    for i in range(len(C.maps) - 1):
        A, B = C.maps[i], C.maps[i + 1]
        if A.size and B.size:
            scale = max(np.abs(B).max(), 1.0) * max(np.abs(A).max(), 1.0)
            if np.abs(B @ A).max() > max(tol, 1e-12) * scale * C.dims[i + 1]:
                return False
    return True


def check_exact(C: BasedRealComplex, tol: float = DEFAULT_TOL) -> bool:
    """True iff the based complex is exact (ranks from singular values)."""
    return _is_exact(C, [_lifts(T, tol)[0] for T in C.maps], tol)


def _mixed(b, rng):
    """b times a random invertible matrix."""
    while True:
        M = rng.uniform(-1.0, 1.0, size=(b.shape[1], b.shape[1]))
        if abs(np.linalg.det(M)) > 1e-3:
            return b @ M


def determinant_exact(C: BasedRealComplex, tol: float = DEFAULT_TOL,
                      rng=None) -> float:
    """Determinant of a based exact complex.

    `rng`, when given, mixes each basis of lifts by a random invertible
    matrix; the result does not depend on that choice.
    """
    split = [_lifts(T, tol) for T in C.maps]
    if not _is_exact(C, [r for r, _ in split], tol):
        raise ExactnessError("complex is not exact")
    lifts = [b if rng is None else _mixed(b, rng) for _, b in split]
    delta = 1.0
    for i, d in enumerate(C.dims):
        if d == 0:
            continue
        cols = []
        if i > 0:
            cols.append(C.maps[i - 1] @ lifts[i - 1])
        if i < len(lifts):
            cols.append(lifts[i])
        factor = np.linalg.det(np.concatenate(cols, axis=1))
        delta = delta * factor if i % 2 else delta / factor
    return float(delta)


def torsion_alternating_product(groups) -> Fraction:
    """prod |torsion(A_i)| ^ (-1)^i as an exact rational."""
    num = den = 1
    for i, g in enumerate(groups):
        if i % 2 == 0:
            num *= g.torsion_order
        else:
            den *= g.torsion_order
    return Fraction(num, den)


def euler_characteristic(G: GradedGroupComplex, tol: float = DEFAULT_TOL) -> float:
    """Alternating torsion product divided by the determinant of the
    realified based complex.  Only the absolute value is canonical; the
    sign reflects the standard-basis choice."""
    delta = determinant_exact(G.realified(), tol)
    return float(torsion_alternating_product(G.groups)) / delta
