"""Special values of Dedekind zeta functions at zero, verified against
Euler characteristics of finitely generated cohomology profiles.

Importing the package loads the verification path only; the cochain test
bed is imported as `zetachi.abelian` and `zetachi.group_cohomology`."""

from .number_field import RATIONAL_FIELD, DiscriminantError, field_invariants
from .zeta import zeta_star_at_zero
from .weil_cohomology import VerificationReport, verify_field
from .cli import RunConfig, run

__version__ = "0.1.0"

__all__ = [
    "verify_field",
    "VerificationReport",
    "field_invariants",
    "zeta_star_at_zero",
    "RunConfig",
    "run",
    "RATIONAL_FIELD",
    "DiscriminantError",
    "__version__",
]
