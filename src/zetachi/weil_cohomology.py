"""Cohomology profiles of the compactified number-ring spectrum and the
special-value verification.

The compact-support groups in degrees 0..3 are trivial, free of unit rank,
free of unit rank plus class-group torsion, and cyclic of the order of the
roots of unity; pairing the realified profile with the log-absolute-value
complex over all-but-one archimedean place yields an Euler characteristic
h*R/w, which is compared against an independent analytic oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import ClassVar, Optional

from .abelian import FgAbGroup
from .exact_determinant import (
    ExactnessError,
    GradedGroupComplex,
    euler_characteristic,
)
from .number_field import QuadraticFieldInvariants, field_invariants
from .zeta import ZetaStarValue, zeta_star_at_zero

__all__ = [
    "CohomologyProfile",
    "VerificationReport",
    "PsiComplexNotExactError",
    "InternalIdentityError",
    "cohomology_profile",
    "compact_support_profile",
    "psi_complex",
    "verify_field",
    "validate_tolerance",
    "WEIL_GROUP_H2_METADATA",
    "DETERMINANT_CONVENTION",
]

# Fixed report metadata: the degree-2 cohomology of the full Weil group is
# the Pontryagin dual of the unit-norm idele class group, which is not
# finitely generated and is never computed here.
WEIL_GROUP_H2_METADATA = (
    "H^2 of the Weil group with integer coefficients is the Pontryagin dual "
    "of the norm-one idele class group; not finitely generated, not computed."
)

# Resolved orientation for the degree-1 -> degree-2 pairing: the determinant
# is evaluated on the full graded complex (zero-dimensional spaces in
# degrees 0 and 3 included), which makes it 1/R and the Euler characteristic
# h*R/w.  Confirmed empirically against the analytic oracle for d = 5.
DETERMINANT_CONVENTION = "full-graded-complex determinant = 1/R; chi = h*R/w"

_INTERNAL_TOL = 1e-12


class PsiComplexNotExactError(RuntimeError):
    """The realified log-absolute-value complex failed exactness."""


class InternalIdentityError(RuntimeError):
    """|chi| disagrees with h*R/w beyond the internal tolerance."""


# FgAbGroup is frozen, so every profile shares these two instances
_ZERO = FgAbGroup.trivial()
_Z = FgAbGroup.free(1)


@dataclass(frozen=True)
class CohomologyProfile:
    """Degrees 0..3 of the compact-support cohomology; the open groups
    follow from them."""

    compact: tuple
    metadata: ClassVar[str] = WEIL_GROUP_H2_METADATA

    @property
    def open(self):
        """H^0..H^3 without supports: (Z, 0, same degree 2, Z/w)."""
        return (_Z, _ZERO, self.compact[2], self.compact[3])


@dataclass(frozen=True)
class VerificationReport:
    invariants: QuadraticFieldInvariants
    profile: CohomologyProfile
    chi: float
    chi_exact: Optional[Fraction]
    zeta_star: ZetaStarValue
    ratio: float
    tolerance: float
    verdict: str
    elapsed_ms: float
    convention: ClassVar[str] = DETERMINANT_CONVENTION

    @property
    def passed(self):
        return self.verdict == "pass"


class _SharedProfile:
    """What every field with one compact profile shares: the report's
    profile, and its groups as a graded complex with zero real maps.  With
    no unit rank that complex is the psi-complex itself, so its chi is
    shared too; a real field's psi-complex replaces the maps by its own
    regulator and keeps this complex's torsion product."""

    def __init__(self, groups):
        self.profile = CohomologyProfile(groups)
        r = groups[1].free_rank
        self.graded = GradedGroupComplex(
            groups, (((),) * r, ((0.0,) * r,) * r, ()))

    @cached_property
    def chi(self):
        """The Euler characteristic of `graded`, computed on the first
        read; exact, and so defined, only when there is no unit rank."""
        return euler_characteristic(self.graded)


@cache
def cohomology_profile(r, class_group_factors, w):
    """The shared record of the compact profile (0, Z^r, Z^r + Cl, Z/w),
    keyed by the data that defines it: r <= 1 the unit rank, the invariant
    factors of Cl and w.  Its groups are built and validated once per key,
    and the cache holds one entry per distinct profile however many fields
    share it."""
    return _SharedProfile((_ZERO, _Z if r else _ZERO,
                           FgAbGroup(r, class_group_factors),
                           FgAbGroup.cyclic(w)))


def _shared_profile(inv: QuadraticFieldInvariants):
    """The shared record of a field's profile.  The torsion of degree 2 is
    one cyclic factor of order h, read from the invariants."""
    h = inv.h
    return cohomology_profile(inv.unit_rank, (h,) if h > 1 else (), inv.w)


def compact_support_profile(inv: QuadraticFieldInvariants):
    """H^0..H^3 with compact support: (0, Z^r, Z^r + Cl, Z/w) with r <= 1
    the unit rank; one shared tuple per profile."""
    return _shared_profile(inv).profile.compact


def psi_complex(inv: QuadraticFieldInvariants):
    """The realified compact-support profile with the log-absolute-value
    pairing as its only nonzero map.

    The degree-1 basis comes from all archimedean places but the last; the
    degree-2 basis is dual to the fundamental units mod torsion, so the
    matrix entry for (unit j, place v) is log of the absolute value of the
    unit at that place.  With no unit rank the complex is the profile's
    shared one.  Returns (BasedRealComplex, GradedGroupComplex).
    """
    graded = _shared_profile(inv).graded
    if inv.unit_rank:
        # Quadratic real case: one fundamental unit, first real place kept.
        # The unit exceeds 1 in that embedding, so the entry is the regulator.
        graded = graded.with_maps((((),), ((inv.regulator,),), ()))
    # built once: `euler_characteristic(graded)` reuses this realification
    return graded.realified, graded


def validate_tolerance(tol):
    """Raise ValueError unless the verdict's relative tolerance is in
    (0, 1).  The comparison also rejects nan; at tol >= 1 even chi = 0
    would pass."""
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be positive and finite, below 1, "
                         f"got {tol!r}")


def verify_field(d, tol: float = 1e-9) -> VerificationReport:
    """Build the profile for one field, compute its Euler characteristic,
    and compare with the analytic oracle.  Absolute values only: the sign
    of chi is not asserted.  Where both sides are exact rationals (Q and
    the imaginary fields), the verdict also requires them to be equal."""
    validate_tolerance(tol)
    t0 = time.perf_counter()
    inv = field_invariants(d)
    r = inv.unit_rank
    shared = _shared_profile(inv)
    try:
        # with no unit rank, chi is a function of the profile alone
        chi = euler_characteristic(psi_complex(inv)[1]) if r else shared.chi
    except ExactnessError as exc:
        raise PsiComplexNotExactError(
            f"log-absolute-value complex for d = {d!r} is not exact"
        ) from exc
    chi_exact = None if r else shared.graded.torsion_product
    # checked on every field, a shared chi included
    hrw = inv.h * inv.regulator / inv.w
    if abs(abs(chi) - hrw) > _INTERNAL_TOL * hrw:
        raise InternalIdentityError(
            f"|chi| = {abs(chi)} but h*R/w = {hrw} for d = {d!r}"
        )
    zstar = zeta_star_at_zero(d)
    ratio = abs(chi) / abs(zstar.leading)
    order_ok = zstar.order == r
    # for Q and imaginary fields both sides are exact rationals, so beside
    # the tol gate they must also be equal
    exact_ok = chi_exact is None or chi_exact == -zstar.exact
    verdict = ("pass" if abs(ratio - 1.0) <= tol and order_ok and exact_ok
               else "fail")
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        invariants=inv,
        profile=shared.profile,
        chi=chi,
        chi_exact=chi_exact,
        zeta_star=zstar,
        ratio=ratio,
        tolerance=tol,
        verdict=verdict,
        elapsed_ms=elapsed_ms,
    )
