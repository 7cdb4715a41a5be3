from unittest import mock

import numpy as np
import pytest

from zetachi.abelian import FgAbGroup
from zetachi.exact_determinant import (
    BasedRealComplex,
    GradedGroupComplex,
    ExactnessError,
    check_exact,
    determinant_exact,
    euler_characteristic,
)

from conftest import random_exact_complex, random_exact_complex_with_bases


def based(dims, maps):
    return BasedRealComplex(tuple(dims), tuple(maps))


def test_check_exact_isomorphism():
    assert check_exact(based((1, 1), [np.array([[1.0]])]))


def test_check_exact_zero_map_fails():
    assert not check_exact(based((1, 1), [np.array([[0.0]])]))


def test_check_exact_three_term():
    C = based((1, 2, 1), [np.array([[2.0], [1.0]]), np.array([[1.0, -2.0]])])
    assert check_exact(C)


def test_check_exact_non_complex_fails():
    C = based((1, 1, 1), [np.array([[1.0]]), np.array([[1.0]])])
    assert not check_exact(C)


def test_check_exact_ranks_fit_but_maps_do_not_compose():
    # ranks (1, 1) fit the dimensions (1, 2, 1), but T1 T0 = 1
    C = based((1, 2, 1), [np.array([[1.0], [0.0]]), np.array([[1.0, 1.0]])])
    assert not check_exact(C)
    with pytest.raises(ExactnessError):
        determinant_exact(C)


def test_determinant_one_map():
    assert determinant_exact(based((1, 1), [np.array([[2.0]])])) == pytest.approx(2.0)


def test_determinant_split_three_term():
    C = based((1, 2, 1), [np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]])])
    assert determinant_exact(C) == pytest.approx(1.0)


def test_determinant_skew_three_term():
    C = based((1, 2, 1), [np.array([[2.0], [1.0]]), np.array([[1.0, -2.0]])])
    assert determinant_exact(C) == pytest.approx(-1.0)


def test_determinant_rejects_non_exact():
    with pytest.raises(ExactnessError):
        determinant_exact(based((1, 1), [np.array([[0.0]])]))


def test_empty_complex():
    assert determinant_exact(based((), [])) == 1.0
    assert determinant_exact(based((0, 0, 0, 0), [np.zeros((0, 0))] * 3)) == 1.0


def test_single_nonzero_space_rejected():
    assert not check_exact(based((1,), []))
    assert check_exact(based((0,), []))


def test_internal_basis_independence(rng):
    for ranks in [(1, 2), (2, 1, 2), (1, 3, 2)]:
        dims, maps = random_exact_complex(rng, ranks)
        C = based(dims, maps)
        ref = determinant_exact(C)
        for _ in range(100):
            state = rng.bit_generator.state
            val = determinant_exact(C, rng=rng)
            assert rng.bit_generator.state != state  # the lifts were mixed
            assert abs(val - ref) <= 1e-9 * abs(ref)


def test_base_change_covariance(rng):
    dims, maps = random_exact_complex(rng, (2, 1, 2))
    C = based(dims, maps)
    ref = determinant_exact(C)
    for i in range(len(dims)):
        if dims[i] == 0:
            continue
        M = rng.uniform(-1.0, 1.0, size=(dims[i], dims[i]))
        M += np.eye(dims[i]) * 2
        detM = np.linalg.det(M)
        new_maps = list(maps)
        if i < len(maps):
            new_maps[i] = maps[i] @ M
        if i > 0:
            new_maps[i - 1] = np.linalg.inv(M) @ maps[i - 1]
        val = determinant_exact(based(dims, new_maps))
        factor = val / ref
        assert (abs(factor - detM) <= 1e-8 * abs(detM)
                or abs(factor - 1.0 / detM) <= 1e-8 / abs(detM)), i


def three_space_determinant(T0, T1):
    """det[T0 | lifts of the basis of V_2], the lifts by least squares."""
    lifts, *_ = np.linalg.lstsq(T1, np.eye(T1.shape[0]), rcond=None)
    return np.linalg.det(np.hstack([T0, lifts]))


def test_splice_consistency(rng):
    # the direct three-space formula vs the product over spaces, 1e-9 relative
    for ranks in [(1, 1), (2, 1), (2, 3)]:
        dims, maps = random_exact_complex(rng, ranks)
        direct = three_space_determinant(*maps)
        value = determinant_exact(based(dims, maps))
        assert abs(direct - value) <= 1e-9 * abs(direct)


def test_shift_inverts_determinant(rng):
    T = rng.uniform(-1.0, 1.0, size=(3, 3)) + 2 * np.eye(3)
    delta = determinant_exact(based((3, 3), [T]))
    shifted = determinant_exact(based((0, 3, 3), [np.zeros((3, 0)), T]))
    assert shifted == pytest.approx(1.0 / delta)


def test_interior_zero_space():
    # an isomorphism T_i between two spaces cut off by zeros counts as
    # det(T_i)^((-1)^i): 3 from T_0 and 1/2 from T_3
    C = based((1, 1, 0, 1, 1), [np.array([[3.0]]), np.zeros((0, 1)),
                                np.zeros((1, 0)), np.array([[2.0]])])
    assert check_exact(C)
    assert determinant_exact(C) == pytest.approx(1.5, rel=1e-15)


def pad(dims, maps, lead, trail):
    """The complex with `lead` zero spaces in front and `trail` behind."""
    out = (0,) * lead + tuple(dims) + (0,) * trail
    padded = [np.zeros((out[i + 1], out[i])) for i in range(len(out) - 1)]
    padded[lead:lead + len(maps)] = maps
    return based(out, padded)


@pytest.mark.parametrize("lead", range(3))
@pytest.mark.parametrize("trail", range(3))
def test_zero_end_padding(rng, monkeypatch, lead, trail):
    # a zero space is exact and costs no linear algebra; each leading one
    # inverts the determinant
    svd = mock.Mock(wraps=np.linalg.svd)
    lstsq = mock.Mock(wraps=np.linalg.lstsq)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)

    def det_and_cost(C):
        svd.reset_mock()
        lstsq.reset_mock()
        return determinant_exact(C), (svd.call_count, lstsq.call_count)

    for ranks in [(1,), (2,), (2, 1), (1, 3, 2), (2, 1, 2, 1)]:
        dims, maps = random_exact_complex(rng, ranks)
        ref, ref_cost = det_and_cost(based(dims, maps))
        C = pad(dims, maps, lead, trail)
        assert check_exact(C)
        value, cost = det_and_cost(C)
        expect = 1.0 / ref if lead % 2 else ref
        assert abs(value - expect) <= 1e-12 * abs(expect)
        assert cost == ref_cost
        broken = (np.zeros_like(maps[0]),) + tuple(maps[1:])
        assert not check_exact(based(dims, broken))
        assert not check_exact(pad(dims, broken, lead, trail))


def test_conjugated_shift_oracle(rng):
    # T_i = S_{i+1} P_i S_i^-1 with P_i a shift, whose determinant is 1, so
    # the complex has determinant prod det(S_i)^(-1)^(i+1), i counted from
    # the first (possibly zero) space
    for _ in range(2000):
        ranks = tuple(int(r) for r in rng.integers(1, 4, size=rng.integers(1, 7)))
        dims, maps, bases = random_exact_complex_with_bases(rng, ranks)
        lead, trail = (int(k) for k in rng.integers(0, 3, size=2))
        expect = 1.0
        for i, S in enumerate(bases, start=lead):
            expect *= np.linalg.det(S) ** (-1) ** (i + 1)
        value = determinant_exact(pad(dims, maps, lead, trail))
        assert abs(value - expect) <= 1e-12 * abs(expect), (ranks, lead, trail)


def test_euler_characteristic_pure_torsion():
    groups = (FgAbGroup.trivial(), FgAbGroup.trivial(),
              FgAbGroup.trivial(), FgAbGroup.cyclic(2))
    G = GradedGroupComplex(groups, (np.zeros((0, 0)),) * 3)
    assert euler_characteristic(G) == pytest.approx(0.5)


def test_euler_characteristic_zero_complex_skips_linear_algebra(monkeypatch):
    # the imaginary-field shape (0, 0, Z/6, Z/4): every realified space is zero
    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra on an all-zero complex")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    groups = (FgAbGroup.trivial(), FgAbGroup.trivial(),
              FgAbGroup.cyclic(6), FgAbGroup.cyclic(4))
    G = GradedGroupComplex(groups, (np.zeros((0, 0)),) * 3)
    assert euler_characteristic(G) == 1.5


def test_euler_characteristic_real_field_shape_call_counts(monkeypatch):
    # (0, Z, Z + Z/3, Z/2) with the regulator as the middle map [0.75]: one
    # SVD for its rank and lift, no least squares, and one 1 x 1 determinant
    # at each of the two nonzero spaces
    svd = mock.Mock(wraps=np.linalg.svd)
    lstsq = mock.Mock(wraps=np.linalg.lstsq)
    det = mock.Mock(wraps=np.linalg.det)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    monkeypatch.setattr(np.linalg, "det", det)
    groups = (FgAbGroup.trivial(), FgAbGroup.free(1),
              FgAbGroup(1, (3,)), FgAbGroup.cyclic(2))
    maps = (np.zeros((1, 0)), np.array([[0.75]]), np.zeros((0, 1)))
    chi = euler_characteristic(GradedGroupComplex(groups, maps))
    assert abs(chi) == pytest.approx(3 * 0.75 / 2, rel=1e-15)
    assert (svd.call_count, lstsq.call_count) == (1, 0)
    assert det.call_count == 2


def test_euler_characteristic_times_three():
    G = GradedGroupComplex((FgAbGroup.free(1), FgAbGroup.free(1)),
                           (np.array([[3.0]]),))
    assert euler_characteristic(G) == pytest.approx(1.0 / 3.0)


def test_euler_characteristic_h3_r1_w2():
    # order (0, 0, Z/3, Z/2): the imaginary-field shape with h = 3, w = 2
    groups = (FgAbGroup.trivial(), FgAbGroup.trivial(),
              FgAbGroup.cyclic(3), FgAbGroup.cyclic(2))
    G = GradedGroupComplex(groups, (np.zeros((0, 0)),) * 3)
    assert euler_characteristic(G) == pytest.approx(1.5)


def test_euler_characteristic_rejects_non_exact():
    G = GradedGroupComplex((FgAbGroup.free(1), FgAbGroup.free(1)),
                           (np.array([[0.0]]),))
    with pytest.raises(ExactnessError):
        euler_characteristic(G)


def test_unimodular_base_change_flips_at_most_sign(rng):
    # graded complex with torsion and an invertible middle map
    groups = (FgAbGroup.trivial(), FgAbGroup.free(2),
              FgAbGroup(2, (5,)), FgAbGroup.cyclic(2))
    T = rng.uniform(-1.0, 1.0, size=(2, 2)) + 2 * np.eye(2)
    maps = (np.zeros((2, 0)), T, np.zeros((0, 2)))
    chi = euler_characteristic(GradedGroupComplex(groups, maps))
    from conftest import random_unimodular
    M, Minv = random_unimodular(rng, 2)
    Mf = np.array(M.to_rows(), dtype=float)
    Minvf = np.array(Minv.to_rows(), dtype=float)
    new_maps = (np.zeros((2, 0)), Minvf @ T @ Mf, np.zeros((0, 2)))
    chi2 = euler_characteristic(GradedGroupComplex(groups, new_maps))
    assert abs(chi2) == pytest.approx(abs(chi))
