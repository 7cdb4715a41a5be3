"""Block-by-block cochain builders, the reference that the table-driven
builders of `zetachi.group_cohomology` are tested against.

Each (p+1)-tuple H of group elements at index k of the basis gives one block
of r rows: H's action matrix at a column base, plus one +-1 per face at the
column base of that face, summed, zeros dropped, keys in ascending order.
No budget is checked.
"""

import itertools


def _tuple_index(n, tup):
    i = 0
    for g in tup:
        i = i * n + g
    return i


def homogeneous_blocks(G, A, p):
    n, r, table = G.order, A.rank, G.table
    inverse = [G.inv(g) for g in range(n)]
    # omitting entry i of the tuple with index k keeps the digits after it
    # (k % w) and moves those before it (k // above) down one place
    omit = [(n ** (p - i), n ** (p - i + 1), 1 if i % 2 else -1)
            for i in range(p + 1)]

    def block(H, k):
        by_h1inv = table[inverse[H[0]]]  # left multiplication by h1^-1
        return (A.matrix(H[0]),
                _tuple_index(n, [by_h1inv[h] for h in H[1:]]) * r,
                [((k // above * w + k % w) * r, sign) for w, above, sign in omit])
    return block


def inhomogeneous_blocks(G, A, p):
    n, r, table = G.order, A.rank, G.table
    # merging entries i-1 and i into their product keeps the digits after
    # them (k % w) and moves those before them (k // above) down one place
    merge = [(i, n ** (p - i), n ** (p - i + 2), -1 if i % 2 else 1)
             for i in range(1, p + 1)]
    last, tail = -1 if (p + 1) % 2 else 1, n ** p

    def block(H, k):
        faces = [(((k // above * n + table[H[i - 1]][H[i]]) * w + k % w) * r, sign)
                 for i, w, above, sign in merge]
        faces.append((k // n * r, last))
        return A.matrix(H[0]), k % tail * r, faces
    return block


def reference_rows(G, A, p_max, blocks):
    """Sparse rows of the coboundaries in degrees 0..p_max, one list of
    {column: value} dicts per degree."""
    n, r = G.order, A.rank
    out = []
    for p in range(p_max):
        block = blocks(G, A, p)
        D = []
        for k, H in enumerate(itertools.product(range(n), repeat=p + 1)):
            act, base, faces = block(H, k)
            for a in range(r):
                acc = {base + b: v for b, v in enumerate(act[a]) if v}
                for col, sign in faces:
                    acc[col + a] = acc.get(col + a, 0) + sign
                D.append({c: acc[c] for c in sorted(acc) if acc[c]})
        out.append(D)
    return out
