import pickle
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
    cohomology_profile,
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


@pytest.mark.parametrize("d", [RATIONAL_FIELD, -23, 229])
def test_report_profile_is_the_shared_record(d):
    # a report stores no profile: it reads its field's one shared record,
    # so a pickled report carries none and reads an equal one back
    inv = field_invariants(d)
    key = (inv.unit_rank, (inv.h,) if inv.h > 1 else (), inv.w)
    report = verify_field(d)
    assert report.profile is cohomology_profile(*key)
    assert "profile" not in vars(report)
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report
    assert copy.profile == report.profile


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


def test_torsion_product_once_per_shared_profile_and_per_real_field(
        monkeypatch, fresh_profiles):
    # Q and the imaginary fields read the torsion product of their
    # profile's shared complex; every real field builds its own psi-complex
    # and so computes the product again
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
    n_rank0 = sum(r == 0 for r, _, _ in profiles)
    assert n_rank0 == 17
    fields = [RATIONAL_FIELD] + CORPUS
    for expected in (n_rank0 + 90, 90):
        calls.clear()
        for d in fields:
            assert verify_field(d).passed, d
        assert len(calls) == expected
    assert fresh_profiles.cache_info().currsize == len(profiles)


def test_euler_characteristic_once_per_field(monkeypatch, fresh_profiles):
    # every field, whether or not it shares its profile's complex, computes
    # chi from its psi-complex, on every sweep
    import zetachi.weil_cohomology as wc
    calls = []
    real = wc.euler_characteristic
    monkeypatch.setattr(wc, "euler_characteristic",
                        lambda g: calls.append(g) or real(g))
    fields = [RATIONAL_FIELD] + CORPUS
    assert len(fields) == 185
    for _ in range(2):
        calls.clear()
        for d in fields:
            verify_field(d)
        assert len(calls) == 185


def test_real_field_psi_complex_torsion_product_is_h_over_w():
    # each real field's own complex computes its torsion product: the
    # orders 1, 1, h, w of (0, Z, Z + Z/h, Z/w) alternate to h/w
    real = [d for d in CORPUS if d > 0]
    assert len(real) == 90
    for d in real:
        inv = field_invariants(d)
        assert psi_complex(inv)[1].torsion_product == Fraction(inv.h, inv.w), d


@pytest.mark.xfail(strict=True, reason="the torsion of compact H^2 is "
                   "written as Z/h, the class group only when it is cyclic "
                   "(ROADMAP item 1)")
@pytest.mark.parametrize("d, group", [
    (-84, FgAbGroup(0, (2, 2))),
    (-420, FgAbGroup(0, (2, 2, 2))),
    (4620, FgAbGroup(1, (2, 2, 2))),
])
def test_degree_two_group_is_the_class_group(d, group):
    # genus theory: these class groups are elementary abelian 2-groups of
    # order h = 4, 8 and 8, today printed Z/4, Z/8 and Z + Z/8
    assert compact_support_profile(field_invariants(d))[2] == group


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
    with pytest.raises(PsiComplexNotExactError) as exc:
        wc.verify_field(5)
    assert exc.value.stage == "chi"


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
    # the profile cache starts empty, and every field, first of its profile
    # or not, takes chi from the faulty euler_characteristic
    import zetachi.weil_cohomology as wc
    real = wc.euler_characteristic
    monkeypatch.setattr(wc, "euler_characteristic", lambda g: 2 * real(g))
    # -31 shares -23's profile: chi is computed again from that profile's
    # shared complex and still fails
    for d in (RATIONAL_FIELD, -23, -31, 5):
        with pytest.raises(InternalIdentityError, match="h\\*R/w"):
            wc.verify_field(d)


def test_internal_identity_guard_fires_on_a_shared_profile(monkeypatch,
                                                           fresh_profiles):
    # -23's profile (h = 3) handed to a field whose h reads 4 must not
    # pass: the guard checks every field against its own h*R/w
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


@pytest.mark.parametrize("name, stage", [
    ("field_invariants", "invariants"),
    ("psi_complex", "chi"),
    ("zeta_star_at_zero", "oracle"),
])
def test_verify_names_the_stage_that_raised(monkeypatch, name, stage):
    # the exception itself leaves verify_field, tagged with its stage
    import zetachi.weil_cohomology as wc

    def broken(*args):
        raise RuntimeError(f"{name} broke")

    monkeypatch.setattr(wc, name, broken)
    with pytest.raises(RuntimeError, match=f"{name} broke") as exc:
        wc.verify_field(229)
    assert exc.value.stage == stage

