import pytest

from zetachi.abelian import FgAbGroup, complex_cohomology
from zetachi.group_cohomology import (
    FiniteGroup,
    GModuleAction,
    GroupValidationError,
    BudgetExceededError,
    cyclic_group,
    direct_product,
    symmetric_group,
    trivial_action,
    build_homogeneous_complex,
    build_inhomogeneous_complex,
    group_cohomology_q,
    TERM_BUDGET,
    _check_budget,
)

from cochains import homogeneous_blocks, inhomogeneous_blocks, reference_rows


def test_trivial_group_complex_shape():
    G = cyclic_group(1)
    C = build_homogeneous_complex(G, trivial_action(G), 3)
    assert C.dims == (1, 1, 1, 1)
    assert [b.to_rows() for b in C.boundaries] == [[[0]], [[1]], [[0]]]
    Ci = build_inhomogeneous_complex(G, trivial_action(G), 3)
    assert Ci.dims == C.dims


def test_z2_degree_two_rank_and_dd_zero():
    G = cyclic_group(2)
    C = build_homogeneous_complex(G, trivial_action(G), 3)
    assert C.dims[2] == 4
    C.validate_composition()


def test_z3_dd_zero_everywhere():
    G = cyclic_group(3)
    C = build_homogeneous_complex(G, trivial_action(G), 4)
    C.validate_composition()  # raises unless every d_(p+1) d_p is zero


def test_h0_is_invariants():
    for n in (1, 2, 5):
        G = cyclic_group(n)
        assert group_cohomology_q(G, trivial_action(G), 0) == FgAbGroup.free(1)


def test_h1_cyclic_vanishes():
    # H^1 with trivial integer coefficients is Hom(G, Z) = 0 for finite G
    for n in (2, 3, 4):
        G = cyclic_group(n)
        assert group_cohomology_q(G, trivial_action(G), 1) == FgAbGroup.trivial()


def test_h2_z2():
    G = cyclic_group(2)
    assert group_cohomology_q(G, trivial_action(G), 2) == FgAbGroup.cyclic(2)


def test_inhomogeneous_matches_z2_and_z4():
    for n, q, expect in [(2, 0, FgAbGroup.free(1)),
                         (2, 1, FgAbGroup.trivial()),
                         (2, 2, FgAbGroup.cyclic(2)),
                         (4, 2, FgAbGroup.cyclic(4))]:
        G = cyclic_group(n)
        got = group_cohomology_q(G, trivial_action(G), q,
                                 complex_builder=build_inhomogeneous_complex)
        assert got == expect


def all_groups_up_to_6():
    groups = {f"C{n}": cyclic_group(n) for n in range(1, 7)}
    groups["V4"] = direct_product(cyclic_group(2), cyclic_group(2))
    groups["S3"] = symmetric_group(3)
    return groups


@pytest.mark.parametrize("name,G", sorted(all_groups_up_to_6().items()))
def test_homogeneous_equals_inhomogeneous_up_to_q3(name, G):
    A = trivial_action(G)
    p_max = 4
    Ch = build_homogeneous_complex(G, A, p_max)
    Ci = build_inhomogeneous_complex(G, A, p_max)
    for q in range(4):
        assert complex_cohomology(Ch, q) == complex_cohomology(Ci, q), (name, q)


def regular_action(G):
    """Z[G]: each element permutes the basis by left multiplication."""
    n = G.order
    return GModuleAction(n, tuple(
        tuple(tuple(int(G.table[g][b] == a) for b in range(n)) for a in range(n))
        for g in range(n)
    ))


def sign_action(G, sign):
    return GModuleAction(1, tuple(((sign(g),),) for g in range(G.order)))


def builder_cases():
    groups = all_groups_up_to_6()
    del groups["C1"]
    cases = []
    for name, G in sorted(groups.items()):
        cases.append(pytest.param(G, trivial_action(G), id=f"{name}-Z"))
        cases.append(pytest.param(G, regular_action(G), id=f"{name}-Z[G]"))
    for n in (2, 4, 6):  # the generator acts by -1
        G = groups[f"C{n}"]
        cases.append(pytest.param(G, sign_action(G, lambda g: (-1) ** g),
                                  id=f"C{n}-Z_sign"))
    S3 = groups["S3"]  # transpositions act by -1
    cases.append(pytest.param(S3, sign_action(
        S3, lambda g: -1 if g != S3.identity and S3.table[g][g] == S3.identity
        else 1), id="S3-Z_sign"))
    # (g, h) in C2 x C2 has index 2g + h; the first factor acts by -1
    cases.append(pytest.param(groups["V4"], sign_action(
        groups["V4"], lambda g: -1 if g >= 2 else 1), id="V4-Z_sign"))
    return cases


@pytest.mark.parametrize("G,A", builder_cases())
def test_builder_rows_are_nonzero_in_ascending_columns(G, A):
    for build in (build_homogeneous_complex, build_inhomogeneous_complex):
        C = build(G, A, 3)
        for b in C.boundaries:
            for r in b.nonzeros:
                keys = list(r)
                assert all(x < y for x, y in zip(keys, keys[1:])), build
                assert all(r.values()), build
                assert all(0 <= c < b.cols for c in keys), build
        C.validate_composition()


@pytest.mark.parametrize("G,A", builder_cases())
def test_builder_rows_equal_block_reference(G, A):
    # the table-driven builders store exactly the reference's rows, dict
    # key order included, since the engine's pivot order follows it
    for build, blocks in ((build_homogeneous_complex, homogeneous_blocks),
                          (build_inhomogeneous_complex, inhomogeneous_blocks)):
        C = build(G, A, 4)
        expect = reference_rows(G, A, 4, blocks)
        assert [[list(r.items()) for r in b.nonzeros] for b in C.boundaries] \
            == [[list(r.items()) for r in D] for D in expect], build


def test_cyclic_pattern():
    for n in (2, 3, 4):
        G = cyclic_group(n)
        A = trivial_action(G)
        C = build_homogeneous_complex(G, A, 4)
        expect = [FgAbGroup.free(1), FgAbGroup.trivial(),
                  FgAbGroup.cyclic(n), FgAbGroup.trivial()]
        assert [complex_cohomology(C, q) for q in range(4)] == expect


def test_order_annihilates_higher_cohomology():
    for G in (cyclic_group(4), symmetric_group(3),
              direct_product(cyclic_group(2), cyclic_group(2))):
        A = trivial_action(G)
        C = build_homogeneous_complex(G, A, 4)
        for q in range(1, 4):
            g = complex_cohomology(C, q)
            assert g.free_rank == 0
            assert all(G.order % f == 0 for f in g.invariant_factors)


def test_invalid_group_table_rejected():
    bad = FiniteGroup(((0, 1), (1, 1)))  # not a group: 1*1 = 1 has no inverse
    with pytest.raises(GroupValidationError):
        bad.validate()
    with pytest.raises(GroupValidationError):
        build_homogeneous_complex(bad, trivial_action(cyclic_group(2)), 2)


def test_invalid_inputs_rejected_on_every_call():
    # validation is remembered per valid (group, action) pair only
    bad = FiniteGroup(((0, 1), (1, 1)))
    G = cyclic_group(2)
    doubling = GModuleAction(1, (((1,),), ((2,),)))  # 2 is not a unit
    as_lists = FiniteGroup([[0, 1], [1, 1]])
    for _ in range(3):
        for group in (bad, as_lists):
            with pytest.raises(GroupValidationError):
                build_homogeneous_complex(group, trivial_action(G), 2)
        with pytest.raises(GroupValidationError, match="not a homomorphism"):
            build_inhomogeneous_complex(G, doubling, 2)


def test_list_inputs_are_stored_as_tuples():
    # the validation cache needs hashable inputs, whatever the caller passed
    G = cyclic_group(2)
    listed = FiniteGroup([list(row) for row in G.table])
    A = GModuleAction(1, [[[1]], [[-1]]])
    assert listed == G and hash(listed) == hash(G)
    assert A == GModuleAction(1, (((1,),), ((-1,),)))
    assert group_cohomology_q(listed, A, 1) == FgAbGroup.cyclic(2)


def test_action_must_be_unimodular():
    # C2 acting on Z^2; the generator's matrix must be invertible over Z.
    # rho(g) rho(g^-1) = rho(e) = I, so one that is not breaks the
    # homomorphism law, or the identity law when it stands at e
    G = cyclic_group(2)
    one = ((1, 0), (0, 1))
    GModuleAction(2, (one, ((1, 0), (1, -1)))).validate(G)
    for M in [((1, 1), (1, -1)), ((2, 0), (0, 1)), ((1, 1), (1, 1))]:
        with pytest.raises(GroupValidationError, match="not a homomorphism"):
            GModuleAction(2, (one, M)).validate(G)
        with pytest.raises(GroupValidationError, match="identity must act"):
            GModuleAction(2, (M, one)).validate(G)


def test_budget_is_enforced():
    G = cyclic_group(6)
    with pytest.raises(BudgetExceededError):
        build_homogeneous_complex(G, trivial_action(G), 6)


def test_budget_covers_degrees_up_to_p_max():
    # 5^4 * 32 is exactly the budget: a degree-4 term of that rank passes
    G = cyclic_group(5)
    assert 5 ** 4 * 32 == TERM_BUDGET
    _check_budget(G, trivial_action(G, 32), 4)
    with pytest.raises(BudgetExceededError, match="degree-4 term has rank 20625"):
        _check_budget(G, trivial_action(G, 33), 4)
    with pytest.raises(BudgetExceededError, match="degree-5 term"):
        _check_budget(G, trivial_action(G, 32), 5)
    # the largest term of C6 up to degree 5 has 7 776 rows
    C6 = cyclic_group(6)
    _check_budget(C6, trivial_action(C6), 5)


def test_p_max_precondition():
    G = cyclic_group(2)
    with pytest.raises(ValueError):
        build_homogeneous_complex(G, trivial_action(G), 0)


@pytest.mark.parametrize("G,A", builder_cases())
def test_group_cohomology_q_equals_full_complex_route(G, A):
    # the torsion of coker d_(q-1), read at the top degree, against
    # complex_cohomology on a complex that also has d_q, whose rank comes
    # from its Smith diagonal, so nothing about |G| is assumed there
    p_max = 4 if G.order * A.rank <= 12 else 3
    for build in (build_homogeneous_complex, build_inhomogeneous_complex):
        C = build(G, A, p_max)
        for q in range(p_max):
            assert group_cohomology_q(G, A, q, complex_builder=build) \
                == complex_cohomology(C, q), (build.__name__, q)


@pytest.mark.parametrize("build", [build_homogeneous_complex,
                                   build_inhomogeneous_complex])
def test_group_cohomology_q_builds_no_degree_above_max_q_1(build):
    G = cyclic_group(3)
    A = trivial_action(G)
    seen = []

    def spy(G, A, p_max):
        seen.append(p_max)
        return build(G, A, p_max)

    got = [group_cohomology_q(G, A, q, complex_builder=spy) for q in range(4)]
    assert seen == [1, 1, 2, 3]
    assert got == [FgAbGroup.free(1), FgAbGroup.trivial(),
                   FgAbGroup.cyclic(3), FgAbGroup.trivial()]


def test_budget_bounds_only_the_terms_built():
    # H^2(C28, Z) needs degrees 0..2, whose largest term has 28^2 = 784
    # rows; the 21 952-row degree-3 term is over the budget and never built
    G = cyclic_group(28)
    A = trivial_action(G)
    assert 28 ** 3 > TERM_BUDGET
    assert group_cohomology_q(G, A, 2) == FgAbGroup.cyclic(28)
    with pytest.raises(BudgetExceededError, match="degree-3 term has rank 21952"):
        group_cohomology_q(G, A, 3)
