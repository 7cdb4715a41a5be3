"""The Kronecker symbol by quadratic reciprocity, the reference for the
character tables that `zetachi.number_field` builds from prime
discriminants."""

from zetachi.number_field import RATIONAL_FIELD


def _jacobi(a, m):
    # m odd positive
    a %= m
    r = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                r = -r
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            r = -r
        a %= m
    return r if m == 1 else 0


def kronecker_symbol(d, n: int) -> int:
    """The Kronecker symbol (d / n) for n >= 0."""
    if d == RATIONAL_FIELD:
        d = 1
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1 if d in (1, -1) else 0
    r = 1
    e = 0
    m = n
    while m % 2 == 0:
        m //= 2
        e += 1
    if e:
        if d % 2 == 0:
            return 0
        if e % 2 and d % 8 in (3, 5):
            r = -r
    return r * _jacobi(d, m)
