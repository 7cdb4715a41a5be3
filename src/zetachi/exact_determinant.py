"""Determinants of based exact complexes of real vector spaces.

The determinant compares the wedge of mapped and lifted basis vectors
against the given bases, defined directly for complexes of two or three
spaces and by splitting off the image of the penultimate map in general.
The Euler characteristic of a graded complex of finitely generated abelian
groups is the alternating product of torsion orders divided by this
determinant of the realified complex; only its absolute value is canonical.

Zero spaces at either end of a complex are dropped before any linear
algebra.  A zero space is always exact, so exactness does not change.  A
trailing one leaves the determinant as it is.  Each leading one shifts the
degrees by one, which swaps the roles of the even and odd spaces and so
inverts the determinant; the value returned is still that of the complex
as given.  The realified profile (0, R^r, R^r, 0) of a quadratic field
thus reduces to the single map [R], or to nothing when r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .abelian import FgAbGroup

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


def _rank_from_singular_values(sv, tol):
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def _rank(T, tol):
    if T.size == 0:
        return 0
    return _rank_from_singular_values(np.linalg.svd(T, compute_uv=False), tol)


def _trimmed(dims, maps):
    """Drop the zero spaces at both ends: (number dropped in front, dims,
    maps) of what is left."""
    lo, hi = 0, len(dims)
    while lo < hi and dims[lo] == 0:
        lo += 1
    while hi > lo and dims[hi - 1] == 0:
        hi -= 1
    return lo, dims[lo:hi], maps[lo:max(hi - 1, lo)]


def check_exact(C: BasedRealComplex, tol: float = DEFAULT_TOL) -> bool:
    """True iff the based complex is exact (ranks from singular values)."""
    _, dims, maps = _trimmed(C.dims, C.maps)
    if not dims:
        return True
    if not maps:
        return False
    for i in range(len(maps) - 1):
        comp = maps[i + 1] @ maps[i]
        if comp.size:
            scale = max(np.abs(maps[i + 1]).max(), 1.0) * max(np.abs(maps[i]).max(), 1.0)
            if np.abs(comp).max() > max(tol, 1e-12) * max(scale, 1.0) * dims[i + 1]:
                return False
    ranks = [_rank(T, tol) for T in maps]
    if ranks[0] != dims[0]:
        return False
    if ranks[-1] != dims[-1]:
        return False
    for i in range(1, len(dims) - 1):
        if ranks[i - 1] + ranks[i] != dims[i]:
            return False
    return True


def _image_basis(T, tol, rng=None):
    """Column-orthonormal basis of im(T); optionally mixed by a random
    invertible matrix so tests can exercise independence of the choice."""
    if T.size == 0:
        return np.zeros((T.shape[0], 0))
    U, sv, _ = np.linalg.svd(T, full_matrices=False)
    r = _rank_from_singular_values(sv, tol)
    Q = U[:, :r]
    if rng is not None and r:
        while True:
            M = rng.uniform(-1.0, 1.0, size=(r, r))
            if abs(np.linalg.det(M)) > 1e-3:
                break
        Q = Q @ M
    return Q


def _det_two(d0, d1, T):
    if d0 != d1:
        raise ExactnessError("two-space complex must be an isomorphism")
    if d0 == 0:
        return 1.0
    return float(np.linalg.det(T))


def _det_three(d0, d1, d2, T0, T1):
    """Direct formula: wedge of the mapped basis of V_0 and lifts of the
    basis of V_2, compared against the basis of V_1.  When T0 or T1 is an
    isomorphism the wedge is its determinant or the inverse of it."""
    if d0 + d2 != d1:
        raise ExactnessError("middle dimension must split as r + s")
    if d1 == 0:
        return 1.0
    if d2 == 0:
        return float(np.linalg.det(T0))
    if d0 == 0:
        return 1.0 / float(np.linalg.det(T1))
    M = np.empty((d1, d1))
    M[:, :d0] = T0
    lifts, *_ = np.linalg.lstsq(T1, np.eye(d2), rcond=None)
    M[:, d0:] = lifts
    return float(np.linalg.det(M))


def _det_inductive_step(dims, maps, tol, rng):
    """Split off I = im(T_{n-2}) inside the penultimate space."""
    Tpen, Tlast = maps[-2], maps[-1]
    Cb = _image_basis(Tpen, tol, rng)
    s = Cb.shape[1]
    if s:
        cores, *_ = np.linalg.lstsq(Cb, Tpen, rcond=None)
    else:
        cores = np.zeros((0, dims[-3]))
    d1 = _det(dims[:-2] + (s,), maps[:-2] + (cores,), tol, rng)
    d2 = _det_three(s, dims[-2], dims[-1], Cb, Tlast)
    n = len(dims) - 1
    return d1 * d2 if n % 2 == 0 else d1 / d2


def _det(dims, maps, tol, rng):
    k = len(dims)
    if k <= 1:
        return 1.0
    if k == 2:
        return _det_two(dims[0], dims[1], maps[0])
    if k == 3:
        return _det_three(*dims, *maps)
    return _det_inductive_step(dims, maps, tol, rng)


def determinant_exact(C: BasedRealComplex, tol: float = DEFAULT_TOL,
                      rng=None) -> float:
    """Determinant of a based exact complex.

    `rng`, when given, randomizes the internally chosen basis of the image
    in the inductive step; the result does not depend on that choice.
    """
    if not check_exact(C, tol):
        raise ExactnessError("complex is not exact")
    lead, dims, maps = _trimmed(C.dims, C.maps)
    delta = _det(dims, maps, tol, rng)
    return 1.0 / delta if lead % 2 else delta


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
