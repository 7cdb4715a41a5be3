"""Special values of Dedekind zeta functions at zero, verified against
Euler characteristics of finitely generated cohomology profiles."""

from .abelian import (
    IntMatrix,
    FgAbGroup,
    CochainComplex,
    MalformedComplexError,
    group_from_presentation,
    complex_cohomology,
)
from .group_cohomology import (
    FiniteGroup,
    GModuleAction,
    cyclic_group,
    direct_product,
    symmetric_group,
    trivial_action,
    build_homogeneous_complex,
    build_inhomogeneous_complex,
    group_cohomology_q,
)
from .exact_determinant import (
    BasedRealComplex,
    GradedGroupComplex,
    ExactnessError,
    check_exact,
    determinant_exact,
    euler_characteristic,
)
from .number_field import (
    RATIONAL_FIELD,
    DiscriminantError,
    QuadraticFieldInvariants,
    KroneckerCharacter,
    is_fundamental_discriminant,
    fundamental_discriminants,
    enumerate_reduced_forms,
    continued_fraction_unit,
    field_invariants,
)
from .zeta import ZetaStarValue, L_at_zero, L_prime_at_zero, zeta_star_at_zero
from .weil_cohomology import (
    CohomologyProfile,
    VerificationReport,
    compact_support_profile,
    cohomology_profile,
    psi_complex,
    verify_field,
)
from .cli import RunConfig, run

__version__ = "0.1.0"
