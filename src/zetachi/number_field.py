"""Classical invariants of the rational field and quadratic fields.

Class numbers come from reduced binary quadratic forms (counts of reduced
forms in the imaginary case, cycles of reduced indefinite forms in the real
case), fundamental units from the periodic continued fraction of the
standard generator of the ring of integers.

An indefinite form (a, b, c) of discriminant d = b^2 - 4ac > 0 is reduced
when 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b (Cohen, GTM 138,
5.6).  As d is not a square, with s = isqrt(d) that is the window

    lo = (s - b + 2) // 2 <= |a| <= hi = (s + b) // 2.

Since 2|a| * 2|c| = d - b^2 = (sqrt(d) - b)(sqrt(d) + b), |a| lies in the
window exactly when |c| does.  Take a divisor pair a * c' = m = (d - b^2)/4
with a <= sqrt(m) <= c': then 2a <= sqrt(d - b^2) < sqrt(d) + b, so a is
in the window, and with it c', exactly when a >= lo.  The sweep therefore
tries only the divisors lo <= a <= sqrt(m), and each one it finds gives
reduced forms for both a and c'.

The regulator of the unit (x + y*sqrt(d)) / 2 of norm N is computed in
float64 as

    log x + log1p(sqrt(1 - 4N/x^2)) - log 2,

which never forms y*sqrt(d) and never converts x to a float (`math.log`
takes big ints).  Nothing here evaluates an L-function, so these
invariants stay independent of the analytic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log, log1p, prod, sqrt
from operator import mul
from typing import Optional

__all__ = [
    "RATIONAL_FIELD",
    "DiscriminantError",
    "QuadraticFieldInvariants",
    "KroneckerCharacter",
    "is_fundamental_discriminant",
    "prime_discriminants",
    "fundamental_discriminants",
    "enumerate_reduced_forms",
    "enumerate_reduced_forms_recount",
    "continued_fraction_unit",
    "field_invariants",
]

# Marker for the rational field; kept distinct from any discriminant value.
RATIONAL_FIELD = "Q"

_LOG_2 = log(2)

# roots of unity of the fields with more than +-1
_ROOTS_OF_UNITY = {-3: 6, -4: 4}


class DiscriminantError(ValueError):
    """The argument is not a fundamental discriminant (message says why)."""


@dataclass(frozen=True)
class QuadraticFieldInvariants:
    """Class number, fundamental unit and regulator; the signature and the
    roots of unity follow from d."""

    d: object  # fundamental discriminant, or RATIONAL_FIELD
    h: int
    fundamental_unit: Optional[tuple] = None  # (x, y) meaning (x + y*sqrt(d)) / 2
    unit_norm: Optional[int] = None
    regulator: float = 1.0

    @property
    def r1(self):
        """Real places: 1 for Q, 2 for d > 0, 0 for d < 0."""
        if self.d == RATIONAL_FIELD:
            return 1
        return 2 if self.d > 0 else 0

    @property
    def r2(self):
        """Complex places: at degree 2 or less, one exactly when no real one."""
        return int(not self.r1)

    @property
    def w(self):
        """Roots of unity: 6 for d = -3, 4 for d = -4, else 2 (Q included)."""
        return _ROOTS_OF_UNITY.get(self.d, 2)

    @property
    def unit_rank(self):
        """r1 + r2 - 1 (Dirichlet), with r2 = 1 exactly when r1 = 0."""
        r1 = self.r1
        return r1 + (not r1) - 1


@dataclass(frozen=True)
class KroneckerCharacter:
    """The real character attached to a quadratic field, tabulated mod |d|."""

    discriminant: int
    values: tuple

    @property
    def modulus(self):
        return abs(self.discriminant)

    @classmethod
    def from_discriminant(cls, d):
        """Tabulate (d / a) for 0 <= a < |d| as the entrywise product of the
        characters of the prime discriminants of d, each repeated out to
        |d|.  Raises DiscriminantError unless d is fundamental."""
        factors = prime_discriminants(d)
        q = abs(d)
        values = None
        for f in factors:
            table = _prime_discriminant_table(f) * (q // abs(f))
            values = table if values is None else list(map(mul, values, table))
        return cls(d, tuple(values))

    def __call__(self, a):
        return self.values[a % self.modulus]

    @property
    def is_odd(self):
        return self.discriminant < 0


# chi_e(a) for a mod 8 (a mod 4 for e = -4), for the even prime discriminants
_EVEN_PRIME_DISCRIMINANT_TABLES = {
    -4: (0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def prime_discriminants(d):
    """Split a fundamental discriminant into prime discriminants: -4, 8 or
    -8 when d is even, then p* = +-p = 1 mod 4 for each odd prime p | d
    (Cohen, GTM 138, ch. 5).  Their product is d.

    An integer d != 1 is fundamental exactly when d = 1 mod 4 and d is
    squarefree, or d = 4m with m = 2 or 3 mod 4 and m squarefree.  Raises
    DiscriminantError naming the criterion that fails."""
    if not isinstance(d, int):
        raise DiscriminantError(f"{d!r} is not an integer discriminant")
    if d in (0, 1):
        raise DiscriminantError(
            f"{d} is not the discriminant of a quadratic field")
    if d % 4 in (2, 3):
        raise DiscriminantError(
            f"{d} = {d % 4} mod 4; discriminants are 0 or 1 mod 4")
    m = d if d % 4 else d // 4
    if d % 4 == 0 and m % 4 not in (2, 3):
        raise DiscriminantError(f"{d} = 4*{m} with {m} = {m % 4} mod 4")
    rest = abs(m) if m % 2 else abs(m) // 2
    factors = []
    p = 3
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                shape = f"{d} = 1 mod 4 but is" if d % 4 \
                    else f"{d} = 4*{m} but {m} is"
                raise DiscriminantError(
                    f"{shape} not squarefree: {p}^2 divides it")
            factors.append(p if p % 4 == 1 else -p)
        p += 2
    if rest > 1:
        factors.append(rest if rest % 4 == 1 else -rest)
    # the criteria above leave d / prod(p*) in {1, -4, 8, -8}
    even = d // prod(factors)
    return factors if even == 1 else [even] + factors


def _prime_discriminant_table(f):
    """chi_f(a) for 0 <= a < |f|.  For f = p*, chi_f(a) is the Legendre
    symbol (a / p): 1 on the nonzero squares mod p, -1 off them."""
    if f in _EVEN_PRIME_DISCRIMINANT_TABLES:
        return _EVEN_PRIME_DISCRIMINANT_TABLES[f]
    p = abs(f)
    table = [-1] * p
    table[0] = 0
    for x in range(1, (p + 1) // 2):
        table[x * x % p] = 1
    return table


def is_fundamental_discriminant(d) -> bool:
    try:
        prime_discriminants(d)
    except DiscriminantError:
        return False
    return True


def fundamental_discriminants(bound):
    """All fundamental discriminants with |d| <= bound, sorted by (|d|, sign):
    d = 1 mod 4 with |d| squarefree, or d = 8 or 12 mod 16 (d = 4m with
    m = 2 or 3 mod 4) with |d|/4 squarefree, read off one sieve that
    clears the multiples of every square p^2 <= bound."""
    n = max(bound, 0)
    squarefree = bytearray([1]) * (n + 1)
    for p in range(2, isqrt(n) + 1):
        squarefree[p * p::p * p] = bytes(n // (p * p))
    return [d for a in range(2, bound + 1) for d in (-a, a)
            if d % 4 == 1 and squarefree[a]
            or d % 16 in (8, 12) and squarefree[a // 4]]


# ---------------------------------------------------------------------------
# binary quadratic forms


def _reduced_forms_imaginary(d):
    """Reduced positive definite forms (a, b, c): |b| <= a <= c, with b >= 0
    when |b| = a or a = c.  Swept over b, then divisors a of (b^2 - d)/4."""
    forms = []
    for b in range(abs(d) % 2, isqrt(abs(d) // 3) + 1, 2):
        m = (b * b - d) // 4
        for a in range(max(b, 1), isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            forms.append((a, b, c))
            if b and a != b and a != c:
                forms.append((a, -b, c))
    return forms


def _reduced_forms_imaginary_recount(d):
    """Same set swept over a, then b in (-a, a]."""
    forms = []
    for a in range(1, isqrt(abs(d) // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            forms.append((a, b, c))
    return forms


def _is_reduced_indefinite(a, b, c, d):
    # 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, checked exactly
    if b <= 0 or b * b >= d:
        return False
    t = 2 * abs(a)
    # sqrt(d) - b < t  <=>  d < (t + b)^2 ; t < sqrt(d) + b  <=>  (t - b)^2 < d
    return d < (t + b) ** 2 and (t - b) ** 2 < d


def _reduced_forms_real(d):
    """Reduced indefinite forms of discriminant d > 0, swept over b, then
    over the divisors lo <= a <= sqrt(m) of m (module docstring).  Each
    gives (+-a, b, -+c) and, when c != a, (+-c, b, -+a)."""
    forms = []
    s = isqrt(d)
    for b in range(2 - d % 2, s + 1, 2):
        m = (d - b * b) // 4  # = -a*c > 0
        for a in range((s - b + 2) // 2, isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            forms += [(a, b, -c), (-a, b, c)]
            if c != a:
                forms += [(c, b, -a), (-c, b, a)]
    return forms


def _reduced_forms_real_recount(d):
    """Same set swept over |a|, then b, each form tested whole."""
    forms = []
    s = isqrt(d)
    for a in range(1, s + 1):
        for b in range(1, s + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            if _is_reduced_indefinite(a, b, num // (4 * a), d):
                forms.append((a, b, num // (4 * a)))
                forms.append((-a, b, -(num // (4 * a))))
    return sorted(set(forms))


def _rho(form, d, s):
    """Reduction step on reduced indefinite forms (cycles these forms)."""
    a, b, c = form
    t = 2 * abs(c)
    b2 = s - (s + b) % t
    c2 = (b2 * b2 - d) // (4 * c)
    return (c, b2, c2)


def _count_cycles(forms, step):
    """Cycles of `step` on `forms`, walked once: each form leaves the
    unvisited set as the walk reaches it, and a step to a form outside that
    set, other than the start of its own cycle, is an error."""
    unvisited = set(forms)
    cycles = 0
    while unvisited:
        start = f = unvisited.pop()
        cycles += 1
        while (g := step(f)) != start:
            if g not in unvisited:
                raise AssertionError(
                    f"reduction left the reduced set: {f} -> {g}")
            unvisited.remove(g)
            f = g
    return cycles


def enumerate_reduced_forms(d) -> int:
    """Class count from reduced forms: number of reduced positive definite
    forms for d < 0, number of cycles of reduced indefinite forms (the
    narrow class number) for d > 0."""
    prime_discriminants(d)
    return _class_count(d)


def _class_count(d):
    """`enumerate_reduced_forms` for a d already known to be fundamental."""
    if d < 0:
        return len(_reduced_forms_imaginary(d))
    s = isqrt(d)
    return _count_cycles(_reduced_forms_real(d), lambda f: _rho(f, d, s))


def enumerate_reduced_forms_recount(d) -> int:
    """Independent recount with a different sweep (and, in the real case,
    the inverse reduction step)."""
    prime_discriminants(d)
    if d < 0:
        return len(_reduced_forms_imaginary_recount(d))
    forms = _reduced_forms_real_recount(d)
    s = isqrt(d)
    inverse = {_rho(f, d, s): f for f in forms}
    return _count_cycles(forms, inverse.get)


# ---------------------------------------------------------------------------
# fundamental units


def continued_fraction_unit(d):
    """Smallest unit > 1 of the real quadratic order of discriminant d > 0.

    Returns ((x, y), regulator, norm) with the unit (x + y*sqrt(d)) / 2 and
    regulator log of the unit, from the periodic continued fraction of
    (b0 + sqrt(d)) / 2 where b0 is the parity of d.
    """
    prime_discriminants(d)
    if d < 0:
        raise DiscriminantError("fundamental unit requires a real field (d > 0)")
    return _fundamental_unit(d)


def _fundamental_unit(d):
    """`continued_fraction_unit` for a d > 0 already known to be fundamental."""
    s = isqrt(d)
    b0 = d % 2
    P, Q = b0, 2
    p_prev, p_curr = 0, 1  # p_{-2}, p_{-1}
    q_prev, q_curr = 1, 0
    for _ in range(16 * d + 64):
        if Q <= 0:
            raise AssertionError("continued fraction left the positive branch")
        a = (P + s) // Q
        p_prev, p_curr = p_curr, a * p_curr + p_prev
        q_prev, q_curr = q_curr, a * q_curr + q_prev
        x, y = 2 * p_curr - b0 * q_curr, q_curr
        norm4 = x * x - d * y * y
        if norm4 in (4, -4):
            # y*sqrt(d) = sqrt(x^2 - norm4): the unit is x(1 + sqrt(1 - norm4/x^2))/2
            regulator = log(x) + log1p(sqrt(1 - norm4 / (x * x))) - _LOG_2
            return (x, y), regulator, norm4 // 4
        P = a * Q - P
        Q = (d - P * P) // Q
    raise AssertionError(f"no unit found for d = {d}")


# ---------------------------------------------------------------------------
# assembled invariants


def field_invariants(d) -> QuadraticFieldInvariants:
    """h, and for a real field the unit and R, from the oracles above.  The
    discriminant is checked once here; the class count and unit skip their
    own check."""
    if d == RATIONAL_FIELD:
        return QuadraticFieldInvariants(d, h=1)
    prime_discriminants(d)
    if d < 0:
        return QuadraticFieldInvariants(d, h=_class_count(d))
    unit, regulator, norm = _fundamental_unit(d)
    h_plus = _class_count(d)
    if norm == 1:
        if h_plus % 2:
            raise AssertionError("narrow class number must be even when N(e) = +1")
        h = h_plus // 2
    else:
        h = h_plus
    return QuadraticFieldInvariants(d, h, unit, norm, regulator)
