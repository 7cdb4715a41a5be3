from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from zetachi.abelian import (
    IntMatrix,
    FgAbGroup,
    CochainComplex,
    MalformedComplexError,
    group_from_presentation,
    complex_cohomology,
    _pivot_sparse,
    _snf_diagonal,
)
from zetachi.group_cohomology import cyclic_group, direct_product, \
    symmetric_group, trivial_action, build_homogeneous_complex, \
    build_inhomogeneous_complex

from bareiss import integer_determinant
from conftest import random_unimodular
from smith import diagonal, pivot_per_entry, product, smith_normal_form


def snf_invariants(M):
    U, D, V = smith_normal_form(M)
    m, n = M.rows, M.cols
    U, V = IntMatrix.from_rows(U, m), IntMatrix.from_rows(V, n)
    assert product(product(U, M), V).to_rows() == D
    assert abs(integer_determinant(U)) == 1
    assert abs(integer_determinant(V)) == 1
    diag = diagonal(D)
    assert all(x >= 0 for x in diag)
    nz = [x for x in diag if x]
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    # off-diagonal zero
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    return D


def test_snf_identity():
    D = snf_invariants(IntMatrix.identity(2))
    assert D == [[1, 0], [0, 1]]


def test_snf_zero():
    D = snf_invariants(IntMatrix.zero(2, 3))
    assert D == [[0, 0, 0], [0, 0, 0]]


def test_snf_2x2():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    D = snf_invariants(M)
    assert diagonal(D) == [2, 4]
    # d1 = gcd of entries, d1*d2 = |det M|
    assert D[0][0] == gcd(2, gcd(4, gcd(6, 8)))
    assert D[0][0] * D[1][1] == abs(integer_determinant(M))


def test_snf_empty():
    U, D, V = smith_normal_form(IntMatrix.zero(0, 3))
    assert U == D == [] and len(V) == 3
    U, D, V = smith_normal_form(IntMatrix.zero(0, 0))
    assert U == D == V == []


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


@given(small_rows)
@settings(max_examples=150, deadline=None)
def test_sparse_storage_matches_dense_reference(rn):
    rows, n = rn
    M = IntMatrix.from_rows(rows, n)
    assert M.to_rows() == rows
    assert IntMatrix.from_rows(M.to_rows(), n) == M
    # one {column: value} dict per row: nonzeros only, ascending columns
    assert [list(r.items()) for r in M.nonzeros] == \
        [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    # the elimination engine works on copies of the stored rows
    group_from_presentation(M)
    assert M.to_rows() == rows


def test_sparse_storage_rejects_malformed_rows():
    with pytest.raises(ValueError):
        IntMatrix(2, ({2: 1},))  # column out of range
    with pytest.raises(ValueError):
        IntMatrix(2, ({-1: 1},))  # negative column
    with pytest.raises(ValueError):
        IntMatrix(2, ({0: 0},))  # stored zero


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_snf_random_properties(M):
    snf_invariants(M)


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_presentation_matches_reference_snf(M):
    nonzero = [d for d in diagonal(smith_normal_form(M)[1]) if d]
    expect = FgAbGroup(M.cols - len(nonzero), tuple(d for d in nonzero if d > 1))
    assert group_from_presentation(M) == expect


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


def transpose(M):
    return IntMatrix(M.rows, tuple(
        {i: r[j] for i, r in enumerate(M.nonzeros) if j in r}
        for j in range(M.cols)))


# entries small enough to meet units and remainders, or beyond int64
entries = st.one_of(st.integers(-6, 6), st.integers(-2**70, 2**70))
# tall, wide and square shapes, empty ones included
shaped_matrix = st.sampled_from(
    [(7, 3), (5, 1), (3, 0), (3, 7), (1, 5), (0, 3), (4, 4)]).flatmap(
    lambda shape: st.lists(st.lists(entries, min_size=shape[1],
                                    max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0])
    .map(lambda rows: IntMatrix.from_rows(rows, shape[1])))


@given(shaped_matrix)
@settings(max_examples=150, deadline=None)
def test_snf_diagonal_equals_transpose_and_reference(M):
    # a tall matrix is eliminated as its transpose, a wide one as stored
    T = transpose(M)
    assert T.to_rows() == [list(c) for c in zip(*M.to_rows())] or not M.rows
    expect = tuple(d for d in diagonal(smith_normal_form(M)[1]) if d)
    assert _snf_diagonal(M) == _snf_diagonal(T) == expect


# sparse rows as the engine holds them: keys in any order, values nonzero
sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 9),
                    st.integers(-5, 5).filter(bool) | st.integers(-2**70, 2**70)
                    .filter(bool), max_size=6)
    .flatmap(lambda r: st.permutations(list(r.items())).map(dict)),
    max_size=8)


@given(sparse_rows)
@settings(max_examples=300, deadline=None)
def test_pivot_matches_per_entry_rule(rows):
    assert _pivot_sparse(rows) == pivot_per_entry(rows)


def test_pivot_takes_first_unit_in_stored_order():
    rows = [{3: 4, 0: -2}, {5: 7, 2: -1, 1: 1}, {0: 1}]
    assert _pivot_sparse(rows) == pivot_per_entry(rows) == (1, 2)
    rows = [{3: 4, 0: -2}, {5: 2, 1: -3}]
    assert _pivot_sparse(rows) == pivot_per_entry(rows) == (0, 0)
    assert _pivot_sparse([]) is None


def test_diagonal_normalised_to_divisibility_chain():
    diag = lambda a, b: IntMatrix.from_rows([[a, 0], [0, b]])
    assert _snf_diagonal(diag(4, 6)) == (2, 12)
    assert _snf_diagonal(diag(2, 3)) == (1, 6)
    assert group_from_presentation(diag(4, 6)) == FgAbGroup(0, (2, 12))
    assert group_from_presentation(diag(2, 3)) == FgAbGroup.cyclic(6)


def test_presentation_exact_beyond_int64():
    # [[1, 1], [1, 2]] @ diag(d1, d2) @ [[1, 1], [0, 1]], both unimodular
    d1 = 3 * 2**63
    d2 = 5 * d1
    M = IntMatrix.from_rows([[d1, d1 + d2], [d1, d1 + 2 * d2]])
    assert group_from_presentation(M) == FgAbGroup(0, (d1, d2))
    assert diagonal(smith_normal_form(M)[1]) == [d1, d2]


def test_presentation_free():
    assert group_from_presentation(IntMatrix.zero(0, 2)) == FgAbGroup.free(2)


def test_presentation_cyclic():
    g = group_from_presentation(IntMatrix.from_rows([[2]], 1))
    assert g == FgAbGroup.cyclic(2)


def test_presentation_two_factors():
    g = group_from_presentation(IntMatrix.from_rows([[2, 0], [0, 4], [0, 0]], 2))
    assert g.free_rank == 0
    assert g.invariant_factors == (2, 4)


@given(small_matrix, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_presentation_unimodular_invariance(M, rnd):
    import numpy as np

    base = group_from_presentation(M)
    rng = np.random.default_rng(rnd.randrange(10**6))
    L, _ = random_unimodular(rng, M.rows)
    assert group_from_presentation(product(L, M)) == base
    # permuting generators = permuting columns
    perm = list(range(M.cols))
    rng.shuffle(perm)
    P = IntMatrix.from_rows(
        [[int(perm[j] == i) for j in range(M.cols)] for i in range(M.cols)],
        M.cols,
    )
    assert group_from_presentation(product(M, P)) == base


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


def test_cohomology_rank_that_vanishes_mod_the_prime():
    # d_0 = [[2^31 - 1]] vanishes mod the prime 2^31 - 1; its rank 1 over
    # Q comes from the Smith diagonal
    C = CochainComplex((1, 1), (IntMatrix.from_rows([[2**31 - 1]]),))
    assert complex_cohomology(C, 0) == FgAbGroup.trivial()
    assert complex_cohomology(C, 1) == FgAbGroup.cyclic(2**31 - 1)


def test_cohomology_bound_not_reached_above_degree_zero():
    # both maps are zero: rk d_1 = 0 lies below n_1 - rk d_0 = 1, so every
    # degree keeps its Z
    zero = IntMatrix.zero(1, 1)
    C = CochainComplex((1, 1, 1), (zero, zero))
    assert [complex_cohomology(C, q) for q in range(3)] == [FgAbGroup.free(1)] * 3


@pytest.mark.parametrize("G", [cyclic_group(6), symmetric_group(3)],
                         ids=["C6", "S3"])
def test_out_map_rank_from_smith(G):
    # H^3(G, Z) = 0 needs rk d_3 = 216 - rk d_2 of the 1296 x 216 out-map,
    # read off its Smith diagonal
    C = build_homogeneous_complex(G, trivial_action(G), 4)
    assert (C.boundaries[3].rows, C.boundaries[3].cols) == (1296, 216)
    assert complex_cohomology(C, 3) == FgAbGroup.trivial()


def test_cohomology_bar_complex_z2():
    # brute-force oracle: the homogeneous complex of the order-2 group
    G = cyclic_group(2)
    C = build_homogeneous_complex(G, trivial_action(G), 3)
    assert complex_cohomology(C, 2) == FgAbGroup.cyclic(2)


def test_cohomology_leaves_stored_rows_unchanged():
    # the engine eliminates on copies, of the rows or, for these tall
    # coboundaries, of the transpose; a second call sees the same complex
    G = cyclic_group(4)
    C = build_homogeneous_complex(G, trivial_action(G), 4)
    assert all(b.rows > b.cols for b in C.boundaries[1:])
    stored = [[list(r.items()) for r in b.nonzeros] for b in C.boundaries]
    before = [b.to_rows() for b in C.boundaries]
    first = [complex_cohomology(C, q) for q in range(len(C.dims))]
    assert [b.to_rows() for b in C.boundaries] == before
    assert [complex_cohomology(C, q) for q in range(len(C.dims))] == first
    assert [b.to_rows() for b in C.boundaries] == before
    assert [[list(r.items()) for r in b.nonzeros] for b in C.boundaries] == stored


def test_cohomology_rejects_bad_composition():
    one = IntMatrix.from_rows([[1]])
    with pytest.raises(MalformedComplexError, match="degree 0 "):
        CochainComplex((1, 1, 1), (one, one))
    # [[1, 1]] [[1], [-1]] cancels only in the sum; its mirror does not
    d1 = IntMatrix.from_rows([[1, 1]])
    CochainComplex((1, 2, 1), (IntMatrix.from_rows([[1], [-1]]), d1))
    with pytest.raises(MalformedComplexError, match="degree 0 "):
        CochainComplex((1, 2, 1), (IntMatrix.from_rows([[1], [1]]), d1))


def test_cohomology_checks_every_composition():
    # H^0 reads only d_0; the bad composition d_2 d_1 is caught anyway,
    # when the complex is built
    one, zero = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[0]])
    with pytest.raises(MalformedComplexError, match="degree 1 "):
        CochainComplex((1, 1, 1, 1), (zero, one, one))
    # d_1 d_0 cancels in every row, and of d_2 d_1 only the last row fails
    d0 = IntMatrix.from_rows([[1], [1]])
    d1 = IntMatrix.from_rows([[1, -1], [1, -1]])
    d2 = IntMatrix.from_rows([[1, -1], [0, 1]])
    with pytest.raises(MalformedComplexError, match="degree 1 "):
        CochainComplex((1, 2, 2, 2), (d0, d1, d2))


def test_composition_checked_once_per_complex(monkeypatch):
    calls = []
    check = CochainComplex.validate_composition

    def counted(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(CochainComplex, "validate_composition", counted)
    G = cyclic_group(3)
    C = build_homogeneous_complex(G, trivial_action(G), 4)
    assert calls == [C]
    for _ in range(3):
        for q in range(len(C.dims)):
            complex_cohomology(C, q)
    assert calls == [C]


def test_cohomology_unimodular_base_change_invariance(rng):
    G = cyclic_group(3)
    C = build_homogeneous_complex(G, trivial_action(G), 3)
    transforms = [random_unimodular(rng, d) for d in C.dims]
    new_boundaries = tuple(
        product(product(transforms[p + 1][1], C.boundaries[p]), transforms[p][0])
        for p in range(len(C.boundaries))
    )
    C2 = CochainComplex(C.dims, new_boundaries)
    for q in range(len(C.dims)):
        assert complex_cohomology(C2, q) == complex_cohomology(C, q)


_c2 = cyclic_group(2)
_REFERENCE_GROUPS = {"C2": _c2, "C3": cyclic_group(3), "C4": cyclic_group(4),
                     "C6": cyclic_group(6), "S3": symmetric_group(3),
                     "C2xC2": direct_product(_c2, _c2)}


@pytest.mark.parametrize("builder", [build_homogeneous_complex,
                                     build_inhomogeneous_complex],
                         ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("name", list(_REFERENCE_GROUPS))
def test_rank_nullity_accounting(name, builder):
    # every degree against the reference Smith forms; degrees 0..3 keep the
    # n^4-row term out
    G = _REFERENCE_GROUPS[name]
    C = builder(G, trivial_action(G), 3)
    diags = [()] + [tuple(x for x in diagonal(smith_normal_form(b)[1]) if x)
                    for b in C.boundaries] + [()]
    ranks = [len(d) for d in diags]
    for q, n in enumerate(C.dims):
        expect = FgAbGroup(n - ranks[q + 1] - ranks[q],
                           tuple(x for x in diags[q] if x > 1))
        assert complex_cohomology(C, q) == expect
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
