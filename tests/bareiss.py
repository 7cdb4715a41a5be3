"""Exact integer determinant, the reference for determinantal divisors and
for the unimodularity of Smith transforms in the tests."""


def integer_determinant(M):
    """Exact determinant of a square `IntMatrix` (Bareiss elimination)."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    A = M.to_rows()
    sign = 1
    prev = 1
    for t in range(n - 1):
        if A[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if A[i][t]), None)
            if swap is None:
                return 0
            A[t], A[swap] = A[swap], A[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                A[i][j] = (A[i][j] * A[t][t] - A[i][t] * A[t][j]) // prev
            A[i][t] = 0
        prev = A[t][t]
    return sign * A[n - 1][n - 1]
