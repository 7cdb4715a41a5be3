"""Smith normal form with unimodular transforms, the reference that the
transform-free `_snf_diagonal` of `zetachi.abelian` is tested against, the
per-entry pivot rule that its `_pivot_sparse` must agree with, and the
sparse product that the tests compose `IntMatrix` transforms with."""

from zetachi.abelian import IntMatrix


def product(A, B):
    """The `IntMatrix` A @ B, row keys in ascending column order."""
    if A.cols != B.rows:
        raise ValueError("shape mismatch")
    out = []
    for a in A.nonzeros:
        acc = {}
        for k, x in a.items():
            for j, y in B.nonzeros[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: acc[j] for j in sorted(acc) if acc[j]})
    return IntMatrix(B.cols, tuple(out))


def pivot_per_entry(rows):
    """(row, column) of an entry of least absolute value, visiting every
    entry in row order and stored order; the first unit ends the search."""
    best = at = None
    for i, r in enumerate(rows):
        for j, v in r.items():
            a = v if v > 0 else -v
            if best is None or a < best:
                best, at = a, (i, j)
                if a == 1:
                    return at
    return at


def _pivot(A, t, m, n):
    best = None
    for i in range(t, m):
        Ai = A[i]
        for j in range(t, n):
            v = Ai[j]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best[0]:
                    best = (a, i, j)
        if best is not None and best[0] == 1:
            break
    return best


def _swap_cols(rows, a, b):
    for r in rows:
        r[a], r[b] = r[b], r[a]


def smith_normal_form(M):
    """Diagonalize the `IntMatrix` M by unimodular transforms: U @ M @ V = D.

    Returns (U, D, V) as dense lists of rows.  The diagonal of D is
    non-negative and each nonzero entry divides the next.  Pivoting is
    deterministic (smallest absolute value, row-major).
    """
    m, n = M.rows, M.cols
    A = M.to_rows()
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(min(m, n)):
        piv = _pivot(A, t, m, n)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            _swap_cols(A, t, pj)
            _swap_cols(V, t, pj)
        while True:
            for i in range(t + 1, m):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                        U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        U[t], U[i] = U[i], U[t]
            for j in range(t + 1, n):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                        for row in V:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        _swap_cols(A, t, j)
                        _swap_cols(V, t, j)
            if any(A[i][t] for i in range(t + 1, m)):
                continue
            d = A[t][t]
            bad = next(
                (i for i in range(t + 1, m)
                 if any(A[i][j] % d for j in range(t + 1, n))),
                None,
            )
            if bad is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
            U[t] = [x + y for x, y in zip(U[t], U[bad])]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
    return U, A, V


def diagonal(D):
    """The diagonal entries of the dense matrix D."""
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
