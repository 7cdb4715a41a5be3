from fractions import Fraction

import numpy as np
import pytest

from zetachi.abelian import FgAbGroup
from zetachi.exact_determinant import check_exact
from zetachi.number_field import (
    RATIONAL_FIELD,
    field_invariants,
    fundamental_discriminants,
)
from zetachi.weil_cohomology import (
    DETERMINANT_CONVENTION,
    WEIL_GROUP_H2_METADATA,
    CohomologyProfile,
    InternalIdentityError,
    PsiComplexNotExactError,
    compact_support_profile,
    psi_complex,
    verify_field,
)

CORPUS = fundamental_discriminants(300)


def test_compact_profile_rational():
    groups = compact_support_profile(field_invariants(RATIONAL_FIELD))
    assert groups == (FgAbGroup.trivial(), FgAbGroup.trivial(),
                      FgAbGroup.trivial(), FgAbGroup.cyclic(2))


def test_compact_profile_imaginary_with_class_group():
    groups = compact_support_profile(field_invariants(-23))
    assert groups == (FgAbGroup.trivial(), FgAbGroup.trivial(),
                      FgAbGroup.cyclic(3), FgAbGroup.cyclic(2))


def test_compact_profile_real():
    groups = compact_support_profile(field_invariants(5))
    assert groups == (FgAbGroup.trivial(), FgAbGroup.free(1),
                      FgAbGroup.free(1), FgAbGroup.cyclic(2))


def test_open_profile_shape():
    for d in (RATIONAL_FIELD, -3, -23, 5, 12):
        inv = field_invariants(d)
        groups = CohomologyProfile(compact_support_profile(inv)).open
        assert groups[0] == FgAbGroup.free(1)
        assert groups[1] == FgAbGroup.trivial()
        assert groups[2] == compact_support_profile(inv)[2]
        assert groups[3] == FgAbGroup.cyclic(inv.w)


def test_profile_metadata_is_attached():
    profile = CohomologyProfile(compact_support_profile(field_invariants(5)))
    assert profile.metadata == WEIL_GROUP_H2_METADATA
    assert "not computed" in profile.metadata


def test_psi_complex_rational_and_imaginary():
    for d in (RATIONAL_FIELD, -4, -23):
        based, graded = psi_complex(field_invariants(d))
        assert based.dims == (0, 0, 0, 0)
        assert check_exact(based)
        assert graded.groups[3].torsion_order == field_invariants(d).w


def test_psi_complex_real():
    inv = field_invariants(5)
    based, graded = psi_complex(inv)
    assert based.dims == (0, 1, 1, 0)
    assert based.maps[1][0][0] == pytest.approx(inv.regulator)
    assert check_exact(based)


def test_psi_complex_realified_once(monkeypatch, fresh_profiles):
    # Q and -23 share their profile's complex, realified on its first read;
    # a real field realifies its own complex once
    import zetachi.exact_determinant as ed
    built = []
    real_init = ed.BasedRealComplex.__post_init__
    monkeypatch.setattr(ed.BasedRealComplex, "__post_init__",
                        lambda self: built.append(self) or real_init(self))
    for sweep, expected in ((1, {RATIONAL_FIELD: 1, -23: 1, 229: 2}),
                            (2, {RATIONAL_FIELD: 0, -23: 0, 229: 2})):
        for d, n in expected.items():
            built.clear()
            based, graded = psi_complex(field_invariants(d))
            assert graded.realified is based
            assert verify_field(d).passed
            assert len(built) == n, (sweep, d)


def _corpus_profiles():
    keys = set()
    for d in [RATIONAL_FIELD] + CORPUS:
        inv = field_invariants(d)
        keys.add((inv.unit_rank, inv.h, inv.w))
    return keys


def test_torsion_product_computed_once_per_profile(monkeypatch,
                                                    fresh_profiles):
    # chi, chi_exact and every real field's psi-complex read the torsion
    # product of their profile's shared complex
    import zetachi.exact_determinant as ed
    import zetachi.weil_cohomology as wc
    calls = []
    real = ed.torsion_alternating_product

    def counted(groups):
        calls.append(groups)
        return real(groups)

    monkeypatch.setattr(ed, "torsion_alternating_product", counted)
    # also count a direct call from verify_field, should one come back
    monkeypatch.setattr(wc, "torsion_alternating_product", counted,
                        raising=False)
    profiles = _corpus_profiles()
    assert len(profiles) == 21
    for d in [RATIONAL_FIELD] + CORPUS:
        assert verify_field(d).passed, d
    assert len(calls) == len(profiles)
    assert len(set(calls)) == len(calls)
    assert fresh_profiles.cache_info().currsize == len(profiles)


def test_euler_characteristic_once_per_profile_without_units(
        monkeypatch, fresh_profiles):
    # Q and the imaginary fields share their profile's chi; every real
    # field computes its own
    import zetachi.weil_cohomology as wc
    calls = []
    real = wc.euler_characteristic
    monkeypatch.setattr(wc, "euler_characteristic",
                        lambda g: calls.append(g) or real(g))
    fields = [RATIONAL_FIELD] + CORPUS
    n_real = sum(d != RATIONAL_FIELD and d > 0 for d in fields)
    assert n_real == 90
    n_rank0 = sum(r == 0 for r, _, _ in _corpus_profiles())
    for expected in (n_rank0 + n_real, n_real):
        calls.clear()
        for d in fields:
            verify_field(d)
        assert len(calls) == expected


def test_psi_dims_match_free_ranks():
    for d in [RATIONAL_FIELD] + CORPUS:
        based, graded = psi_complex(field_invariants(d))
        assert based.dims == tuple(g.free_rank for g in graded.groups)


def test_verify_rational():
    report = verify_field(RATIONAL_FIELD)
    assert report.passed
    assert report.chi_exact == Fraction(1, 2)
    assert report.zeta_star.exact == Fraction(-1, 2)
    assert report.chi_exact == -report.zeta_star.exact


def test_verify_imaginary_exact_value():
    report = verify_field(-23)
    assert report.passed
    assert report.chi_exact == Fraction(3, 2)
    assert report.chi_exact == -report.zeta_star.exact


def test_verify_real_field():
    report = verify_field(5)
    assert report.passed
    assert report.chi_exact is None
    assert report.ratio == pytest.approx(1.0, abs=1e-12)
    assert report.convention == DETERMINANT_CONVENTION
    assert report.elapsed_ms >= 0


def test_verify_rejects_bad_tolerance():
    # at tol >= 1 even |chi| = 0 would pass, since |0 - 1| <= tol
    for tol in (0.0, -1.0, float("inf"), float("nan"), 1.0, 1e300):
        with pytest.raises(ValueError, match="positive and finite"):
            verify_field(5, tol=tol)


def test_verify_non_exact_psi_complex_raises(monkeypatch):
    import zetachi.weil_cohomology as wc
    inv = field_invariants(5)
    # a zero regulator makes the pairing map zero, so the complex is not exact
    broken = inv.__class__(**{**inv.__dict__, "regulator": 0.0})
    monkeypatch.setattr(wc, "field_invariants", lambda d: broken)
    with pytest.raises(PsiComplexNotExactError):
        wc.verify_field(5)


def test_verify_corpus_all_pass():
    worst = 0.0
    for d in [RATIONAL_FIELD] + CORPUS:
        report = verify_field(d, tol=1e-9)
        assert report.passed, d
        worst = max(worst, abs(report.ratio - 1.0))
    assert worst <= 1e-12


def test_error_budget_beyond_the_corpus():
    # every 20th field with 300 < |d| <= 10 000 (296 fields) passes a
    # 1e-12 gate; the sample's worst |ratio - 1| is 8.9e-16
    sample = [d for d in fundamental_discriminants(10000) if abs(d) > 300][::20]
    assert len(sample) == 296
    for d in sample:
        report = verify_field(d, tol=1e-12)
        assert report.passed, d
        if d < 0:
            assert report.chi_exact == -report.zeta_star.exact, d


def test_chi_tracks_altered_invariants():
    # the psi-complex is built from the invariants alone: doubling the
    # regulator doubles chi, which stays equal to the altered h*R/w
    inv = field_invariants(5)
    broken = inv.__class__(**{**inv.__dict__, "regulator": inv.regulator * 2})
    from zetachi.weil_cohomology import euler_characteristic
    based, graded = psi_complex(broken)
    chi = euler_characteristic(graded)
    assert abs(chi) == pytest.approx(broken.h * broken.regulator / broken.w,
                                     rel=1e-12)


def test_internal_identity_guard_fires(monkeypatch, fresh_profiles):
    # the cache starts empty, so the fault reaches every profile's chi
    import zetachi.weil_cohomology as wc
    real = wc.euler_characteristic
    monkeypatch.setattr(wc, "euler_characteristic", lambda g: 2 * real(g))
    # -31 shares -23's profile: its chi comes from the cache and still fails
    for d in (RATIONAL_FIELD, -23, -31, 5):
        with pytest.raises(InternalIdentityError, match="h\\*R/w"):
            wc.verify_field(d)


def test_internal_identity_guard_fires_on_cached_chi(monkeypatch,
                                                     fresh_profiles):
    # a cache that served -23's chi (h = 3) to a field whose h reads 4
    # must not pass: the guard checks every field against its own h*R/w
    import zetachi.weil_cohomology as wc
    inv = field_invariants(-23)
    assert wc.verify_field(-23).chi == 1.5
    real = wc._shared_profile
    monkeypatch.setattr(wc, "_shared_profile", lambda _: real(inv))
    altered = inv.__class__(**{**inv.__dict__, "h": 4})
    monkeypatch.setattr(wc, "field_invariants", lambda d: altered)
    with pytest.raises(InternalIdentityError, match="h\\*R/w = 2.0"):
        wc.verify_field(-23)


def test_verify_requires_exact_equality_where_both_sides_are_exact(
        monkeypatch):
    # h off by one moves the ratio by 1/h, inside a loose tol of 0.5, but
    # chi_exact = (h + 1)/w no longer equals -zeta*(0) = h/w
    import zetachi.weil_cohomology as wc
    for d, h in ((-23, 3), (-47, 5), (-167, 11), (-239, 15)):
        inv = field_invariants(d)
        assert inv.h == h
        broken = inv.__class__(**{**inv.__dict__, "h": h + 1})
        monkeypatch.setattr(wc, "field_invariants", lambda d: broken)
        report = wc.verify_field(d, tol=0.5)
        assert abs(report.ratio - 1.0) <= 0.5, d
        assert report.chi_exact == Fraction(h + 1, inv.w), d
        assert report.zeta_star.exact == -Fraction(h, inv.w), d
        assert not report.passed, d


def test_verify_detects_oracle_mismatch():
    inv = field_invariants(5)
    import zetachi.weil_cohomology as wc
    # doubled-regulator invariants fail against the genuine oracle
    broken = inv.__class__(**{**inv.__dict__, "regulator": inv.regulator * 2})
    original = wc.field_invariants
    wc.field_invariants = lambda d: broken
    try:
        report = wc.verify_field(5)
    finally:
        wc.field_invariants = original
    assert not report.passed
    assert report.ratio == pytest.approx(2.0, rel=1e-9)
