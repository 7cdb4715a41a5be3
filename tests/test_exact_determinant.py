from unittest import mock

import numpy as np
import pytest

import zetachi.exact_determinant as ed
from zetachi.abelian import FgAbGroup
from zetachi.number_field import field_invariants, fundamental_discriminants
from zetachi.weil_cohomology import psi_complex
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
    # (2,) and (3,): one isomorphism, whose single elimination gives the
    # whole determinant on the standard route
    for ranks in [(2,), (3,), (1, 2), (2, 1, 2), (1, 3, 2)]:
        dims, maps = random_exact_complex(rng, ranks)
        C = based(dims, maps)
        ref = determinant_exact(C)
        for _ in range(100):
            state = rng.bit_generator.state
            val = determinant_exact(C, rng=rng)
            assert rng.bit_generator.state != state  # the lifts were mixed
            assert abs(val - ref) <= 1e-9 * abs(ref)


def test_out_of_order_pivots_give_the_exact_determinant(rng):
    # complete pivoting takes T's 2 before its 1; the signed pivots carry
    # that order, so det T = 2 and the shifted complex 1/2 come out exactly
    T = [[1.0, 0.0], [0.0, 2.0]]
    for dims, maps, want in [((2, 2), [T], 2.0),
                             ((0, 2, 2), [np.zeros((2, 0)), T], 0.5)]:
        C = based(dims, maps)
        assert determinant_exact(C) == want
        assert determinant_exact(C, rng=rng) == pytest.approx(want, rel=1e-12)


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
    # inverts the determinant.  Every map between nonzero spaces costs one
    # elimination, and no full determinant is taken
    eliminate = mock.Mock(wraps=ed._eliminate)
    det = mock.Mock(wraps=ed._det)
    monkeypatch.setattr(ed, "_eliminate", eliminate)
    monkeypatch.setattr(ed, "_det", det)

    def det_and_cost(C):
        eliminate.reset_mock()
        det.reset_mock()
        return determinant_exact(C), (eliminate.call_count, det.call_count)

    for ranks in [(1,), (2,), (2, 1), (1, 3, 2), (2, 1, 2, 1)]:
        dims, maps = random_exact_complex(rng, ranks)
        ref, ref_cost = det_and_cost(based(dims, maps))
        assert ref_cost == (len(maps), 0)
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

    monkeypatch.setattr(ed, "_eliminate", refuse)
    monkeypatch.setattr(ed, "_det", refuse)
    groups = (FgAbGroup.trivial(), FgAbGroup.trivial(),
              FgAbGroup.cyclic(6), FgAbGroup.cyclic(4))
    G = GradedGroupComplex(groups, (np.zeros((0, 0)),) * 3)
    assert euler_characteristic(G) == 1.5


def test_euler_characteristic_real_field_shape_call_counts(monkeypatch):
    # (0, Z, Z + Z/3, Z/2) with the regulator as the middle map [0.75]: one
    # 1 x 1 elimination, whose pivot is the factor at the second nonzero
    # space, and no full determinant
    eliminate = mock.Mock(wraps=ed._eliminate)
    det = mock.Mock(wraps=ed._det)
    monkeypatch.setattr(ed, "_eliminate", eliminate)
    monkeypatch.setattr(ed, "_det", det)
    groups = (FgAbGroup.trivial(), FgAbGroup.free(1),
              FgAbGroup(1, (3,)), FgAbGroup.cyclic(2))
    maps = (np.zeros((1, 0)), np.array([[0.75]]), np.zeros((0, 1)))
    chi = euler_characteristic(GradedGroupComplex(groups, maps))
    assert abs(chi) == pytest.approx(3 * 0.75 / 2, rel=1e-15)
    assert [c.args[0] for c in eliminate.call_args_list] == [[(0.75,)]]
    assert not det.called


def test_real_field_determinant_is_the_inverse_regulator():
    # (0, R, R, 0) with the regulator as its map: exactly 1/R
    for d in [d for d in fundamental_discriminants(300) if d > 0]:
        inv = field_invariants(d)
        assert determinant_exact(psi_complex(inv)[0]) == 1.0 / inv.regulator, d


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


def test_map_of_wrong_shape_rejected():
    # a 2 x 1 map where the 1 x 2 map V_0 = R^2 -> V_1 = R belongs has the
    # right size but the wrong shape
    with pytest.raises(ValueError, match="map 0 must be 1 x 2"):
        based((2, 1), [np.array([[1.0], [2.0]])])
    with pytest.raises(ValueError, match="map 1 must be 1 x 2"):
        based((1, 2, 1), [[[1.0], [0.0]], [[1.0, 2.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="map 0 must be 2 x 2"):
        based((2, 2), [[[1.0, 0.0], [0.0]]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_rejected(bad):
    # T_1 T_0 = (0, bad): a nan would slip past the composition check, whose
    # max skips it and whose comparison with it is False
    dims = (1, 3, 2)
    maps = ([[1.0], [0.0], [0.0]], [[0.0, 1.0, 0.0], [bad, 0.0, 1.0]])
    with pytest.raises(ValueError, match="map 1 has an entry that is not"):
        based(dims, maps)
    G = GradedGroupComplex(tuple(FgAbGroup.free(d) for d in dims), maps)
    with pytest.raises(ValueError, match="map 1 has an entry that is not"):
        G.realified


def test_check_exact_iff_determinant_returns(rng):
    # one notion of exactness: random exact complexes, some with one map
    # perturbed by 1e-6, and a complex whose ranks fit and whose maps
    # compose to 1e-11 but whose image misses the kernel
    def returns(C):
        try:
            determinant_exact(C)
        except ExactnessError:
            return False
        return True

    cases = [pad((1, 2, 1), [[[1.0], [0.0]], [[1e-11, 0.0]]], lead, 0)
             for lead in range(2)]
    for _ in range(500):
        ranks = tuple(int(r) for r in rng.integers(0, 4, size=rng.integers(1, 6)))
        dims, maps = random_exact_complex(rng, ranks)
        maps = list(maps)
        if rng.random() < 0.5:
            i = int(rng.integers(len(maps)))
            maps[i] = maps[i] + 1e-6 * rng.uniform(-1.0, 1.0, maps[i].shape)
        lead, trail = (int(k) for k in rng.integers(0, 3, size=2))
        cases.append(pad(dims, maps, lead, trail))
    verdicts = [check_exact(C) for C in cases]
    assert [returns(C) for C in cases] == verdicts
    assert not any(verdicts[:2]) and True in verdicts and False in verdicts[2:]


def test_singular_determinant_factor_raises_exactness_error():
    # T_1 T_0 = 1e-11 passes the composition check, whose scale is at least
    # 1, and the ranks (1, 1) fit the dimensions, but im T_0 = <e_0> while
    # ker T_1 = <e_1>: the only lift e_1 left by T_0's pivot is killed by
    # T_1, so the factor at the middle space would be 0, and the walk
    # rejects the complex
    maps = [[[1.0], [0.0]], [[1e-11, 0.0]]]
    for lead in range(2):
        C = pad((1, 2, 1), maps, lead, 0)
        assert not check_exact(C)
        with pytest.raises(ExactnessError):
            determinant_exact(C)
    # an exact complex whose factor underflows to 0 raises too, on both
    # routes, rather than returning 0 or dividing by it
    for lead in range(2):
        C = pad((3, 3), [np.diag([1e-200] * 3)], lead, 0)
        assert check_exact(C)
        for rng in (None, np.random.default_rng(0)):
            with pytest.raises(ExactnessError, match=f"factor at V_{lead + 1}"):
                determinant_exact(C, rng=rng)


def svd_rank(T):
    sv = np.linalg.svd(T, compute_uv=False)
    return int(np.count_nonzero(sv > ed.RANK_TOL * sv[0]))


def walk_pivot_columns(T):
    """The pivot columns of the walk's elimination of T's columns, at its
    cutoff RANK_TOL times max |t_ij|."""
    cutoff = ed.RANK_TOL * np.abs(T).max()
    return [j for j, _ in ed._eliminate([tuple(c) for c in T.T], cutoff)]


def test_lifts_rank_matches_svd_rank(rng):
    # random rank-k products B C up to 6 x 6: the walk's elimination finds
    # one pivot per unit of rank, the rows J of T have full row rank, and
    # scaling T by 1e+-100 changes neither the count nor the columns
    for m in range(1, 7):
        for n in range(1, 7):
            for k in range(min(m, n) + 1):
                T = (rng.uniform(-1.0, 1.0, size=(m, k))
                     @ rng.uniform(-1.0, 1.0, size=(k, n)))
                J = walk_pivot_columns(T)
                assert len(J) == svd_rank(T) == k, (m, n, k)
                if k:
                    assert svd_rank(T[J, :]) == k
                for s in (1e-100, 1e100):
                    assert walk_pivot_columns(T * s) == J, (m, n, k, s)


def test_nearly_singular_map_rejected(rng):
    # T = U diag(1, ..., 1, s) V^T: with s = 1e-13 the cutoff 1e-10 counts
    # rank n - 1, so (n, n) is not exact; s = 1e-8 keeps it exact
    for n in (2, 3, 5):
        U, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(n, n)))
        V, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(n, n)))
        for s, exact in ((1e-13, False), (1e-8, True)):
            C = based((n, n), [U @ np.diag([1.0] * (n - 1) + [s]) @ V.T])
            assert check_exact(C) is exact, (n, s)
            if not exact:
                with pytest.raises(ExactnessError):
                    determinant_exact(C)


def test_det_matches_numpy_with_sign_rule(rng):
    # the product of the signed pivots against LAPACK, n = 0..7; a zero
    # column makes the matrix singular, and row or column permutations
    # change the sign by their parity
    assert ed._det([]) == 1.0
    for n in range(8):
        for _ in range(20):
            A = rng.uniform(-1.0, 1.0, size=(n, n))
            cases = [A, A[rng.permutation(n)], A[:, rng.permutation(n)]]
            if n:
                Z = A.copy()
                Z[:, rng.integers(n)] = 0.0
                cases.append(Z)
                if n > 1:
                    S = A.copy()  # rank n - 1 from a repeated row
                    S[0] = S[-1]
                    cases.append(S)
            for B in cases:
                want = np.linalg.det(B) if n else 1.0
                got = ed._det(B.tolist())
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (n, B)


def test_det_of_one_by_one_is_the_entry():
    # a real field's factors are 1 x 1: the pivot is the entry itself
    for x in (0.4812118250596034, -2.5, 1e-300, 1e300):
        assert ed._det([(x,)]) == x
    assert ed._det([(0.0,)]) == 0.0


def test_mixed_lifts_with_zero_space_and_rank_zero_map(rng):
    # (0, 1, 1) with T_0: 0 -> R and T_1 = [2]: T_0 has rank 0 and an
    # empty list of lifts, which the random mixing turns into a 0 x 0
    # matrix; the leading zero space inverts the determinant 2 of (R, R)
    C = BasedRealComplex((0, 1, 1), (((),), ((2.0,),)))
    assert determinant_exact(C) == 0.5
    assert determinant_exact(C, rng=rng) == pytest.approx(0.5, rel=1e-12)
