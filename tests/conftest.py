import numpy as np
import pytest

from zetachi.abelian import IntMatrix


def random_exact_complex(rng, map_ranks):
    """Random based exact complex with prescribed map ranks r_0..r_{n-1}.

    Dimensions are forced by exactness: d_i = r_{i-1} + r_i with r_{-1} =
    r_n = 0.  Built by conjugating shift maps with random invertible bases.
    """
    dims, maps, _ = random_exact_complex_with_bases(rng, map_ranks)
    return dims, maps


def random_exact_complex_with_bases(rng, map_ranks):
    """`random_exact_complex` and the bases S_i: T_i = S_{i+1} P_i S_i^-1,
    where the shift P_i sends the trailing r_i coordinates of V_i to the
    leading r_i of V_{i+1}."""
    ranks = [0] + list(map_ranks) + [0]
    dims = [ranks[i] + ranks[i + 1] for i in range(len(ranks) - 1)]
    bases = []
    for d in dims:
        while True:
            S = rng.uniform(-1.0, 1.0, size=(d, d))
            if d == 0 or abs(np.linalg.det(S)) > 1e-2:
                break
        bases.append(S)
    maps = []
    for i in range(len(dims) - 1):
        r = ranks[i + 1]
        P = np.zeros((dims[i + 1], dims[i]))
        for j in range(r):
            P[j, dims[i] - r + j] = 1.0
        maps.append(bases[i + 1] @ P @ np.linalg.inv(bases[i]) if dims[i] and dims[i + 1]
                    else P)
    return tuple(dims), tuple(maps), tuple(bases)


def random_unimodular(rng, n, steps=12):
    """Random unimodular integer matrix together with its exact inverse."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    Minv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n >= 2 else 0):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        c = int(rng.integers(-2, 3))
        for k in range(n):
            M[i][k] += c * M[j][k]
        # inverse accumulates the inverse operation on the other side
        for k in range(n):
            Minv[k][j] -= c * Minv[k][i]
    return IntMatrix.from_rows(M, n), IntMatrix.from_rows(Minv, n)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def fresh_profiles():
    """An empty profile cache before the test and after it, so that counts
    start from nothing and an injected fault leaves no shared profile
    behind."""
    from zetachi.weil_cohomology import cohomology_profile
    cohomology_profile.cache_clear()
    yield cohomology_profile
    cohomology_profile.cache_clear()
