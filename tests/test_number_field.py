import dataclasses
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import zetachi.number_field as nf
from zetachi.number_field import (
    RATIONAL_FIELD,
    DiscriminantError,
    KroneckerCharacter,
    QuadraticFieldInvariants,
    is_fundamental_discriminant,
    fundamental_discriminants,
    prime_discriminants,
    enumerate_reduced_forms,
    enumerate_reduced_forms_recount,
    continued_fraction_unit,
    field_invariants,
)

from kronecker import kronecker_symbol

CORPUS = fundamental_discriminants(300)


def test_kronecker_spot_values():
    assert kronecker_symbol(-4, 2) == 0
    assert kronecker_symbol(5, 4) == 1
    assert kronecker_symbol(-4, 3) == -1


def primes_below(n):
    sieve = [True] * n
    sieve[:2] = [False, False]
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    return [p for p, ok in enumerate(sieve) if ok]


def test_kronecker_matches_euler_criterion():
    for d in (-23, -4, -3, 5, 8, 13, 60, -163):
        for p in primes_below(100):
            if p == 2 or d % p == 0:
                continue
            euler = pow(d % p, (p - 1) // 2, p)
            euler = -1 if euler == p - 1 else euler
            assert kronecker_symbol(d, p) == euler, (d, p)


# the corpus plus fundamental discriminants near 10^4 of each sign and
# residue class: 9973 and 8012 = 4 * 2003, -9995 = -5 * 1999, -9988 = -4 * 2497;
# near 3 * 10^4: 29989 (prime) and -29995 = -5 * 7 * 857; and
# -10920 = -8 * 3 * 5 * 7 * 13, five prime discriminants with -8 among them
@pytest.mark.parametrize("d", CORPUS + [9973, 8012, -9995, -9988,
                                        29989, -29995, -10920])
def test_character_table_matches_kronecker_symbol(d):
    chi = KroneckerCharacter.from_discriminant(d)
    assert chi.modulus == abs(d)
    assert chi.values == tuple(kronecker_symbol(d, a) for a in range(abs(d)))


@given(st.sampled_from([d for d in CORPUS if abs(d) <= 60]),
       st.integers(0, 400), st.integers(0, 400))
@settings(max_examples=120, deadline=None)
def test_character_multiplicative(d, a, b):
    chi = KroneckerCharacter.from_discriminant(d)
    assert chi(a * b) == chi(a) * chi(b)
    assert (chi(a) == 0) == (gcd(a, chi.modulus) > 1)


def test_character_parity():
    for d in (-3, -4, -23, 5, 8, 12):
        chi = KroneckerCharacter.from_discriminant(d)
        assert chi(chi.modulus - 1) == (1 if d > 0 else -1)
        assert chi.is_odd == (d < 0)


def test_fundamental_discriminant_predicate():
    assert is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(-8)
    for bad in (0, 1, 2, 3, 4, 6, -1, -2, -5, -9, 25, 45, "Q"):
        assert not is_fundamental_discriminant(bad)


@pytest.mark.parametrize("bound", [-1, 0, 1, 2, 3, 4, 8, 9, 12, 13, 24, 25,
                                   48, 49, 3000, 30000])
def test_fundamental_discriminants_sorted_by_size_then_sign(bound):
    # the sieve against the per-d check, from bounds below 2 through the
    # first squares p^2 and even discriminants, to 30 000
    expect = sorted((d for a in range(2, bound + 1) for d in (-a, a)
                     if is_fundamental_discriminant(d)),
                    key=lambda d: (abs(d), d))
    got = fundamental_discriminants(bound)
    assert got == expect
    if bound == 3000:
        assert len(got) == 1820  # `--field Q --range 3000` adds Q: 1 821 fields


def test_fundamental_discriminants_build_no_errors(monkeypatch):
    # a rejected candidate is skipped, not raised and caught; the public
    # checks still raise with the failed criterion
    import zetachi.number_field as nf
    built = []

    class Counted(DiscriminantError):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(nf, "DiscriminantError", Counted)
    got = nf.fundamental_discriminants(3000)
    assert built == []
    assert len(got) == 1820
    with pytest.raises(DiscriminantError, match="not squarefree: 3\\^2"):
        nf.prime_discriminants(-36)
    assert built == [("-36 = 4*-9 but -9 is not squarefree: 3^2 divides it",)]


def _squarefree(n):
    return all(n % (p * p) for p in range(2, isqrt(n) + 1))


def test_fundamental_predicate_matches_definition():
    # d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree
    for d in range(-2000, 2001):
        if d in (0, 1):
            expected = False
        elif d % 4 == 1:
            expected = _squarefree(abs(d))
        elif d % 4 == 0:
            expected = (d // 4) % 4 in (2, 3) and _squarefree(abs(d) // 4)
        else:
            expected = False
        assert is_fundamental_discriminant(d) == expected, d


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


def test_prime_discriminants_multiply_to_d():
    for d in CORPUS:
        factors = prime_discriminants(d)
        product = 1
        for f in factors:
            assert f in (-4, 8, -8) or (f % 4 == 1 and _is_prime(abs(f))), (d, f)
            product *= f
        assert product == d
        assert sum(f % 2 == 0 for f in factors) <= 1, d
        assert len(set(map(abs, factors))) == len(factors), d


@pytest.mark.parametrize("d, message", [
    ("Q", "'Q' is not an integer discriminant"),
    (0, "0 is not the discriminant of a quadratic field"),
    (1, "1 is not the discriminant of a quadratic field"),
    (6, "6 = 2 mod 4; discriminants are 0 or 1 mod 4"),
    (-1, "-1 = 3 mod 4; discriminants are 0 or 1 mod 4"),
    (48, "48 = 4*12 with 12 = 0 mod 4"),
    (20, "20 = 4*5 with 5 = 1 mod 4"),
    (45, "45 = 1 mod 4 but is not squarefree: 3^2 divides it"),
    (-180, "-180 = 4*-45 but -45 is not squarefree: 3^2 divides it"),
    (72, "72 = 4*18 but 18 is not squarefree: 3^2 divides it"),
])
def test_prime_discriminants_message_in_full(d, message):
    with pytest.raises(DiscriminantError) as info:
        prime_discriminants(d)
    assert str(info.value) == message


@pytest.mark.parametrize("d, criterion", [
    (6, "mod 4"), (45, "squarefree"), (48, "= 0 mod 4"), (-36, "squarefree"),
    (1, "not the discriminant"), ("Q", "not an integer"),
])
def test_character_rejects_non_fundamental(d, criterion):
    with pytest.raises(DiscriminantError, match=criterion):
        KroneckerCharacter.from_discriminant(d)


def test_reduced_form_counts():
    assert enumerate_reduced_forms(-4) == 1
    assert enumerate_reduced_forms(-23) == 3
    assert enumerate_reduced_forms(-47) == 5
    assert enumerate_reduced_forms(5) == 1


def test_field_invariants_factorises_discriminant_once(monkeypatch):
    import zetachi.number_field as nf
    seen = []
    real_split = nf.prime_discriminants
    monkeypatch.setattr(nf, "prime_discriminants",
                        lambda d: seen.append(d) or real_split(d))
    for d in (-84, -23, 5, 229, 257):  # imaginary; real with N(e) = -1 and +1
        seen.clear()
        nf.field_invariants(d)
        assert seen == [d]


def test_reduced_forms_reject_non_fundamental():
    with pytest.raises(DiscriminantError):
        enumerate_reduced_forms(6)
    with pytest.raises(DiscriminantError):
        enumerate_reduced_forms(RATIONAL_FIELD)


def test_recount_matches_over_corpus():
    for d in CORPUS:
        assert enumerate_reduced_forms(d) == enumerate_reduced_forms_recount(d), d


def test_real_form_window_matches_recount_up_to_3000():
    # the divisor window against the recount's sweep over |a|, which tests
    # every candidate form whole, beyond the corpus
    real = [d for d in fundamental_discriminants(3000) if d > 0]
    assert len(real) == 909
    for d in real:
        forms = nf._reduced_forms_real(d)
        assert len(set(forms)) == len(forms), d
        assert set(forms) == set(nf._reduced_forms_real_recount(d)), d
        assert enumerate_reduced_forms(d) == enumerate_reduced_forms_recount(d), d


@pytest.mark.parametrize("d, h_plus", [(99989, 1), (299993, 1), (999997, 2)])
def test_real_form_window_matches_recount_at_large_d(d, h_plus):
    assert set(nf._reduced_forms_real(d)) \
        == set(nf._reduced_forms_real_recount(d))
    assert enumerate_reduced_forms(d) == h_plus
    assert enumerate_reduced_forms_recount(d) == h_plus


def test_cycle_walk_raises_when_a_step_leaves_the_reduced_set(monkeypatch):
    # (1, 1, -57) has discriminant 229 but |a| = 1 lies below the window
    # [8, 8] of b = 1, so it is not reduced; one form is sent there
    rho = nf._rho
    stray = min(nf._reduced_forms_real(229))
    monkeypatch.setattr(nf, "_rho", lambda f, d, s:
                        (1, 1, -57) if f == stray else rho(f, d, s))
    for count in (enumerate_reduced_forms, enumerate_reduced_forms_recount):
        with pytest.raises(AssertionError, match="left the reduced set"):
            count(229)


def test_continued_fraction_units():
    for d, x, y, norm, reg in [
        (5, 1, 1, -1, 0.4812118250596),
        (8, 2, 1, -1, 0.8813735870195),
        (12, 4, 1, 1, 1.3169578969248),
    ]:
        unit, regulator, n = continued_fraction_unit(d)
        assert unit == (x, y)
        assert n == norm
        assert regulator == pytest.approx(reg, abs=1e-12)


def test_regulator_float64_error_budget():
    # float64 log1p route against 40-digit mpmath, every real d <= 10^4
    norms = set()
    with mpmath.workdps(40):
        for d in fundamental_discriminants(10_000):
            if d < 0:
                continue
            (x, y), regulator, norm = continued_fraction_unit(d)
            norms.add(norm)
            ref = mpmath.log((x + y * mpmath.sqrt(d)) / 2)
            assert abs(regulator - ref) <= 1e-15 * ref, d
    assert norms == {1, -1}


def test_unit_norm_equation_exact():
    for d in [d for d in CORPUS if d > 0]:
        (x, y), regulator, norm = continued_fraction_unit(d)
        assert x * x - d * y * y == 4 * norm
        assert abs(norm) == 1
        assert regulator > 0


def test_field_invariants_rational():
    inv = field_invariants(RATIONAL_FIELD)
    assert (inv.r1, inv.r2, inv.w, inv.h, inv.regulator) == (1, 0, 2, 1, 1.0)
    assert inv.unit_rank == 0


def test_field_invariants_minus_three():
    inv = field_invariants(-3)
    assert (inv.w, inv.h, inv.regulator) == (6, 1, 1.0)


def test_field_invariants_five():
    inv = field_invariants(5)
    assert (inv.w, inv.h) == (2, 1)
    assert inv.regulator == pytest.approx(0.4812118, abs=1e-6)


def test_field_invariants_signature_and_roots_of_unity():
    # (r1, r2, w, unit rank), read off d
    for d, want in [(RATIONAL_FIELD, (1, 0, 2, 0)), (-3, (0, 1, 6, 0)),
                    (-4, (0, 1, 4, 0)), (-23, (0, 1, 2, 0)),
                    (5, (2, 0, 2, 1)), (12, (2, 0, 2, 1))]:
        inv = field_invariants(d)
        assert (inv.r1, inv.r2, inv.w, inv.unit_rank) == want, d


def test_field_records_store_only_what_d_does_not_give():
    assert [f.name for f in dataclasses.fields(QuadraticFieldInvariants)] \
        == ["d", "h", "fundamental_unit", "unit_norm", "regulator"]
    assert [f.name for f in dataclasses.fields(KroneckerCharacter)] \
        == ["discriminant", "values"]


def test_narrow_wide_relation():
    for d in [d for d in CORPUS if d > 0]:
        inv = field_invariants(d)
        h_plus = enumerate_reduced_forms(d)
        if inv.unit_norm == -1:
            assert h_plus == inv.h
        else:
            assert h_plus == 2 * inv.h


def test_corpus_class_numbers_positive():
    for d in CORPUS:
        assert field_invariants(d).h >= 1


def test_invalid_discriminant_message_names_criterion():
    with pytest.raises(DiscriminantError, match="mod 4"):
        field_invariants(6)
    with pytest.raises(DiscriminantError, match="squarefree"):
        field_invariants(45)
