"""Stirling-series log Gamma at working precision, the reference for the
sine form of Lerch's formula in `zetachi.zeta`.

Test-only: the product path never evaluates log Gamma, so mpmath is needed
by the tests and the benchmark but not by `zetachi` itself.
"""

import math
from fractions import Fraction

import mpmath

_DPS = 30
_STIRLING_SHIFT = 24

# B_2, B_4, ..., B_20
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
]


def log_gamma(x, dps: int = _DPS):
    """log Gamma(x) for x > 0 by upward recurrence and the Stirling series.

    Accepts Fractions, ints and floats, all evaluated exactly at working
    precision: the recurrence shift is one log of the exact rational
    product x (x+1) ... (x+n-1) that lifts x to z = x + n >= 24.  Accuracy
    is far below 1e-13 absolute for the arguments used here; the test suite
    checks the reflection and duplication identities.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log_gamma requires a positive argument")
    n = max(0, math.ceil(_STIRLING_SHIFT - x))
    num, den = x.numerator, x.denominator
    rising = 1
    for j in range(n):
        rising *= num + j * den
    with mpmath.workdps(dps + 10):
        z = mpmath.mpf(num + n * den) / den
        shift = -mpmath.log(mpmath.mpf(rising) / den ** n)
        out = (z - mpmath.mpf(1) / 2) * mpmath.log(z) - z \
            + mpmath.log(2 * mpmath.pi) / 2
        zpow = z
        z2 = z * z
        for k, b in enumerate(_BERNOULLI, start=1):
            out += mpmath.mpf(b.numerator) / (b.denominator * 2 * k * (2 * k - 1) * zpow)
            zpow *= z2
        return out + shift
