from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from zetachi.abelian import (
    IntMatrix,
    FgAbGroup,
    CochainComplex,
    MalformedComplexError,
    smith_normal_form,
    group_from_presentation,
    complex_cohomology,
    _snf_diagonal,
)
from zetachi.group_cohomology import cyclic_group, trivial_action, \
    build_homogeneous_complex

from bareiss import integer_determinant
from conftest import random_unimodular


def snf_invariants(M):
    r = smith_normal_form(M)
    assert (r.U @ M @ r.V).to_rows() == r.D.to_rows()
    assert abs(integer_determinant(r.U)) == 1
    assert abs(integer_determinant(r.V)) == 1
    diag = r.D.diagonal()
    assert all(x >= 0 for x in diag)
    nz = [x for x in diag if x]
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    # off-diagonal zero
    for i in range(r.D.rows):
        for j in range(r.D.cols):
            if i != j:
                assert r.D[i, j] == 0
    return r


def test_snf_identity():
    r = snf_invariants(IntMatrix.identity(2))
    assert r.D.to_rows() == [[1, 0], [0, 1]]


def test_snf_zero():
    r = snf_invariants(IntMatrix.zero(2, 3))
    assert r.D.to_rows() == [[0, 0, 0], [0, 0, 0]]


def test_snf_2x2():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    r = snf_invariants(M)
    assert r.D.diagonal() == [2, 4]
    # d1 = gcd of entries, d1*d2 = |det M|
    assert r.D[0, 0] == gcd(2, gcd(4, gcd(6, 8)))
    assert r.D[0, 0] * r.D[1, 1] == abs(integer_determinant(M))


def test_snf_empty():
    r = smith_normal_form(IntMatrix.zero(0, 3))
    assert r.D.rows == 0 and r.D.cols == 3
    r = smith_normal_form(IntMatrix.zero(0, 0))
    assert r.D.rows == 0


def dense_rows(m, n):
    return st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                    min_size=m, max_size=m)


# (rows, n): an m x n matrix as lists, 0 <= m, n <= 4
small_rows = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: dense_rows(m, n).map(lambda rows: (rows, n))
    )
)
small_matrix = small_rows.map(lambda rn: IntMatrix.from_rows(*rn))


@given(small_rows, st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_storage_matches_dense_reference(rn, data):
    rows, n = rn
    m = len(rows)
    M = IntMatrix.from_rows(rows, n)
    assert M.to_rows() == rows
    assert IntMatrix.from_rows(M.to_rows(), n) == M
    # one {column: value} dict per row: nonzeros only, ascending columns
    assert [list(r.items()) for r in M.nonzeros] == \
        [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    assert [[M[i, j] for j in range(n)] for i in range(m)] == rows
    assert M.diagonal() == [rows[i][i] for i in range(min(m, n))]
    assert M.is_zero() == (not any(map(any, rows)))
    assert M.transpose().to_rows() == [[rows[i][j] for i in range(m)]
                                       for j in range(n)]
    k = data.draw(st.integers(0, 4))
    B = data.draw(dense_rows(n, k))
    product = M @ IntMatrix.from_rows(B, k)
    assert product.to_rows() == [
        [sum(rows[i][t] * B[t][j] for t in range(n)) for j in range(k)]
        for i in range(m)
    ]
    assert all(list(r) == sorted(r) for r in product.nonzeros)
    # the elimination engine works on copies of the stored rows
    group_from_presentation(M, n)
    assert M.to_rows() == rows


def test_sparse_storage_rejects_malformed_rows():
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ({2: 1},))  # column out of range
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ({0: 0},))  # stored zero
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ({},))  # one row short


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_snf_random_properties(M):
    snf_invariants(M)


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_presentation_matches_reference_snf(M):
    nonzero = [d for d in smith_normal_form(M).D.diagonal() if d]
    expect = FgAbGroup(M.cols - len(nonzero), tuple(d for d in nonzero if d > 1))
    assert group_from_presentation(M, M.cols) == expect


def gcd_of_minors(M, k):
    rows = M.to_rows()
    g = 0
    for I in combinations(range(M.rows), k):
        for J in combinations(range(M.cols), k):
            minor = IntMatrix.from_rows([[rows[i][j] for j in J] for i in I], k)
            g = gcd(g, integer_determinant(minor))
    return g


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_invariant_factors_are_determinantal_divisors(M):
    # d_1 * ... * d_k is the gcd of the k x k minors, and 0 beyond the rank
    diag = _snf_diagonal(M)
    for k in range(1, min(M.rows, M.cols) + 1):
        expect = prod(diag[:k]) if k <= len(diag) else 0
        assert gcd_of_minors(M, k) == expect


def test_diagonal_normalised_to_divisibility_chain():
    diag = lambda a, b: IntMatrix.from_rows([[a, 0], [0, b]])
    assert _snf_diagonal(diag(4, 6)) == (2, 12)
    assert _snf_diagonal(diag(2, 3)) == (1, 6)
    assert group_from_presentation(diag(4, 6), 2) == FgAbGroup(0, (2, 12))
    assert group_from_presentation(diag(2, 3), 2) == FgAbGroup.cyclic(6)


def test_presentation_exact_beyond_int64():
    # [[1, 1], [1, 2]] @ diag(d1, d2) @ [[1, 1], [0, 1]], both unimodular
    d1 = 3 * 2**63
    d2 = 5 * d1
    M = IntMatrix.from_rows([[d1, d1 + d2], [d1, d1 + 2 * d2]])
    assert group_from_presentation(M, 2) == FgAbGroup(0, (d1, d2))
    assert smith_normal_form(M).D.diagonal() == [d1, d2]


def test_presentation_free():
    assert group_from_presentation(IntMatrix.zero(0, 2), 2) == FgAbGroup.free(2)


def test_presentation_cyclic():
    g = group_from_presentation(IntMatrix.from_rows([[2]], 1), 1)
    assert g == FgAbGroup.cyclic(2)


def test_presentation_two_factors():
    g = group_from_presentation(
        IntMatrix.from_rows([[2, 0], [0, 4], [0, 0]], 2), 2
    )
    assert g.free_rank == 0
    assert g.invariant_factors == (2, 4)


@given(small_matrix, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_presentation_unimodular_invariance(M, rnd):
    import numpy as np

    base = group_from_presentation(M, M.cols)
    rng = np.random.default_rng(rnd.randrange(10**6))
    L, _ = random_unimodular(rng, M.rows)
    assert group_from_presentation(L @ M, M.cols) == base
    # permuting generators = permuting columns
    perm = list(range(M.cols))
    rng.shuffle(perm)
    P = IntMatrix.from_rows(
        [[int(perm[j] == i) for j in range(M.cols)] for i in range(M.cols)],
        M.cols,
    )
    assert group_from_presentation(M @ P, M.cols) == base


def test_cohomology_mult_n_cokernel():
    C = CochainComplex((1, 1), (IntMatrix.from_rows([[7]]),))
    assert complex_cohomology(C, 1) == FgAbGroup.cyclic(7)
    assert complex_cohomology(C, 0) == FgAbGroup.trivial()


def test_cohomology_exact_beyond_int64():
    C = CochainComplex((1, 1), (IntMatrix.from_rows([[2**70]]),))
    assert complex_cohomology(C, 1) == FgAbGroup.cyclic(2**70)
    assert complex_cohomology(C, 0) == FgAbGroup.trivial()


def test_cohomology_zero_map_kernel():
    C = CochainComplex((1, 1), (IntMatrix.from_rows([[0]]),))
    assert complex_cohomology(C, 0) == FgAbGroup.free(1)


def test_cohomology_bar_complex_z2():
    # brute-force oracle: the homogeneous complex of the order-2 group
    G = cyclic_group(2)
    C = build_homogeneous_complex(G, trivial_action(G), 3)
    assert complex_cohomology(C, 2) == FgAbGroup.cyclic(2)


def test_cohomology_leaves_stored_rows_unchanged():
    # the engine eliminates on copies; a second call sees the same complex
    G = cyclic_group(4)
    C = build_homogeneous_complex(G, trivial_action(G), 4)
    before = [b.to_rows() for b in C.boundaries]
    first = [complex_cohomology(C, q) for q in range(len(C.dims))]
    assert [b.to_rows() for b in C.boundaries] == before
    assert [complex_cohomology(C, q) for q in range(len(C.dims))] == first
    assert [b.to_rows() for b in C.boundaries] == before


def test_cohomology_rejects_bad_composition():
    C = CochainComplex(
        (1, 1, 1),
        (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])),
    )
    with pytest.raises(MalformedComplexError):
        complex_cohomology(C, 1)


def test_cohomology_checks_every_composition():
    # H^0 reads only d_0; the bad composition d_2 d_1 must still be caught
    one, zero = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[0]])
    C = CochainComplex((1, 1, 1, 1), (zero, one, one))
    with pytest.raises(MalformedComplexError):
        complex_cohomology(C, 0)


def test_cohomology_unimodular_base_change_invariance(rng):
    G = cyclic_group(3)
    C = build_homogeneous_complex(G, trivial_action(G), 3)
    transforms = [random_unimodular(rng, d) for d in C.dims]
    new_boundaries = tuple(
        transforms[p + 1][1] @ C.boundaries[p] @ transforms[p][0]
        for p in range(len(C.boundaries))
    )
    C2 = CochainComplex(C.dims, new_boundaries)
    for q in range(len(C.dims)):
        assert complex_cohomology(C2, q) == complex_cohomology(C, q)


def test_rank_nullity_accounting():
    G = cyclic_group(4)
    C = build_homogeneous_complex(G, trivial_action(G), 3)
    ranks = [smith_normal_form(b).rank() for b in C.boundaries]
    free = sum(complex_cohomology(C, q).free_rank for q in range(len(C.dims)))
    assert sum(C.dims) == 2 * sum(ranks) + free


def test_fgabgroup_normal_form_guards():
    with pytest.raises(ValueError):
        FgAbGroup(0, (3, 4))  # not a divisibility chain
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    g = FgAbGroup(1, (2, 6))
    assert g.torsion_order == 12
    assert str(g) == "Z + Z/2 + Z/6"
    assert str(FgAbGroup.trivial()) == "0"
