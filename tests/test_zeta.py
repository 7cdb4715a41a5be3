import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from zetachi.number_field import KroneckerCharacter, field_invariants, \
    fundamental_discriminants
from zetachi.zeta import (
    ZETA_AT_ZERO,
    ParityError,
    L_at_zero,
    L_prime_at_zero,
    zeta_star_at_zero,
)

from stirling import log_gamma

CORPUS = fundamental_discriminants(300)


def chi(d):
    return KroneckerCharacter.from_discriminant(d)


def test_log_gamma_reflection_identity():
    with mpmath.workdps(30):
        for x in (Fraction(1, 5), Fraction(3, 10), Fraction(7, 13), 0.41, 0.93):
            lhs = log_gamma(x) + log_gamma(1 - x if isinstance(x, Fraction)
                                           else 1.0 - x)
            rhs = mpmath.log(mpmath.pi / mpmath.sin(mpmath.pi * mpmath.mpf(
                float(x))))
            assert abs(lhs - rhs) < 1e-12


def test_log_gamma_duplication_identity():
    with mpmath.workdps(30):
        for x in (Fraction(1, 7), Fraction(2, 5), Fraction(9, 11)):
            lhs = log_gamma(2 * x)
            rhs = (log_gamma(x) + log_gamma(x + Fraction(1, 2))
                   + (2 * mpmath.mpf(x.numerator) / x.denominator - 1)
                   * mpmath.log(2) - mpmath.log(mpmath.pi) / 2)
            assert abs(lhs - rhs) < 1e-12


def test_log_gamma_against_library():
    import math
    for x in (0.05, 0.5, 1.0, 2.5, 19.0, 123.456):
        assert abs(float(log_gamma(x)) - math.lgamma(x)) < 1e-12


def test_package_does_not_import_mpmath():
    # mpmath serves only the test references (tests/stirling.py) and bench
    import zetachi
    src = os.path.dirname(os.path.dirname(zetachi.__file__))
    code = "import sys, zetachi; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_L_at_zero_values():
    assert L_at_zero(chi(-4)) == Fraction(1, 2)
    assert L_at_zero(chi(-3)) == Fraction(1, 3)
    assert L_at_zero(chi(-23)) == 3


def test_L_at_zero_rejects_even():
    with pytest.raises(ParityError):
        L_at_zero(chi(5))


def test_L_prime_at_zero_values():
    assert L_prime_at_zero(chi(5)) == pytest.approx(0.4812118, abs=1e-6)
    assert L_prime_at_zero(chi(8)) == pytest.approx(0.8813736, abs=1e-6)
    assert L_prime_at_zero(chi(12)) == pytest.approx(1.3169579, abs=1e-6)


def test_L_prime_at_zero_rejects_odd():
    with pytest.raises(ParityError):
        L_prime_at_zero(chi(-4))


def test_zeta_at_zero_constant_against_continuation():
    # independent numeric continuation of the Riemann zeta function
    with mpmath.workdps(30):
        expect = mpmath.mpf(ZETA_AT_ZERO.numerator) / ZETA_AT_ZERO.denominator
        assert abs(mpmath.zeta(0) - expect) < mpmath.mpf(10) ** -25
        # limit from nearby points as a second look
        approx = (mpmath.zeta(mpmath.mpf(1) / 10**8)
                  + mpmath.zeta(-mpmath.mpf(1) / 10**8)) / 2
        assert abs(approx - expect) < 1e-12


def test_zeta_star_examples():
    q = zeta_star_at_zero("Q")
    assert (q.order, q.exact) == (0, Fraction(-1, 2))
    m4 = zeta_star_at_zero(-4)
    assert (m4.order, m4.exact) == (0, Fraction(-1, 4))
    r5 = zeta_star_at_zero(5)
    assert r5.order == 1
    assert r5.leading == pytest.approx(-0.2406059, abs=1e-6)


def test_zeta_star_rejects_non_fundamental():
    from zetachi.number_field import DiscriminantError
    with pytest.raises(DiscriminantError):
        zeta_star_at_zero(6)


def test_order_matches_unit_rank_over_corpus():
    for d in ["Q"] + CORPUS:
        z = zeta_star_at_zero(d)
        inv = field_invariants(d)
        assert z.order == inv.unit_rank, d
        assert z.leading != 0


def test_imaginary_leading_denominator_divides_2w():
    for d in [d for d in CORPUS if d < 0]:
        z = zeta_star_at_zero(d)
        inv = field_invariants(d)
        assert z.exact is not None
        assert (2 * inv.w) % z.exact.denominator == 0, d


# Fixed real fields with 10^3 < d <= 10^4: primes 1009 and 9973, 2981 =
# 11 * 271, and the even discriminant 8012 = 4 * 2003.
WIDE_REAL = (1009, 2981, 8012, 9973)


def log_gamma_sum(c):
    """Lerch's formula sum_{a<q} chi(a) log Gamma(a/q), the Stirling route."""
    q = c.modulus
    with mpmath.workdps(30):
        return float(mpmath.fsum(c(a) * log_gamma(Fraction(a, q))
                                 for a in range(1, q) if c(a)))


@pytest.mark.parametrize("d", [d for d in CORPUS if d > 0] + list(WIDE_REAL))
def test_L_prime_sine_matches_log_gamma_sum(d):
    # stated error budget of the sine route: 1e-12 relative (worst measured 4e-16)
    c = chi(d)
    ref = log_gamma_sum(c)
    assert abs(L_prime_at_zero(c) - ref) <= 1e-12 * abs(ref)
