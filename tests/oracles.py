"""Slow exact oracles that the tests check the library against.

Both work on Python ints and Fractions, so their entry growth is severe;
they are meant for small matrices only.
"""

from fractions import Fraction

from imtk.exactalg import ExactMatrix


def rank_exact(m: ExactMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    if m.max_degree():
        raise TypeError("rank_exact needs scalar entries")
    a = m.stack[0].tolist()  # den * m has the same rank
    nr, nc = m.nrows, m.ncols
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        for i in range(rank + 1, nr):
            fi = a[i][col]
            row_i, row_p = a[i], a[rank]
            for j in range(col, nc):
                row_i[j] = (pv * row_i[j] - fi * row_p[j]) // prev
        prev = pv
        rank += 1
        if rank == nr:
            break
    return rank


def mat_inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    n = m.nrows
    a = [[Fraction(x) for x in row] for row in m.data]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        inv[col] = [x / pv for x in inv[col]]
        for i in range(n):
            if i == col or a[i][col] == 0:
                continue
            f = a[i][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
            inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return ExactMatrix(inv)
