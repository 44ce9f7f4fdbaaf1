"""Slow oracles that the tests check the library against.

The exact ones work on Python ints and Fractions, so their entry growth is
severe; the float ones certify nothing.  All are meant for small matrices.
The kind grids at the end list the square-shaped kinds that the quotient
over the Johnson scheme ranks.
"""

from fractions import Fraction

import numpy as np

from imtk.build import A, N, U, Uge, Utl, W, Wbar, Y
from imtk.combinat import SubsetFamily, binomial
from imtk.exactalg import ExactMatrix, ModMatrix, rank_modp
from imtk.spectra import SpectrumSpec

FLOAT_CHECK_MAX_ORDER = 200


def unrank(fam: SubsetFamily, r: int) -> tuple[int, ...]:
    """The subset of lex rank r in fam, the inverse of ``fam.rank``."""
    if not 0 <= r < len(fam):
        raise ValueError(f"rank {r} out of range for {fam}")
    out = []
    prev = 0
    for i in range(fam.s):
        a = prev + 1
        while True:
            block = binomial(fam.v - a, fam.s - i - 1)
            if r < block:
                break
            r -= block
            a += 1
        out.append(a)
        prev = a
    return tuple(out)


def theta_oracle(v: int, a: int, b: int) -> np.ndarray:
    """|S cap K| over (a-subset, b-subset) pairs, as an int64 product of
    0/1 membership matrices filled one subset at a time."""
    def membership(s):
        fam = SubsetFamily(v, s)
        out = np.zeros((len(fam), v), dtype=np.int64)
        for r, sub in enumerate(fam.subsets()):
            for x in sub:
                out[r, x - 1] = 1
        return out
    return membership(a) @ membership(b).T


def psi_at_minus1(theta: int, t: int) -> int:
    """psi_{theta,t}(-1) = (-1)^t C(theta - 1, t)."""
    return (-1) ** t * binomial(theta - 1, t)


def rank_mod(m: ExactMatrix, p: int) -> int:
    """Rank over GF(p) of an integer matrix, by one elimination of the whole."""
    return rank_modp(ModMatrix(m.stack[0], p, m.mag), p)


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


def trace_powers(rows, count: int) -> list[int]:
    """tr(M^k) over Z for k < count, M a square list of int rows.

    Python ints throughout, each power M times the last with both kept as
    dicts of their rows' nonzeros, so a sparse M stays cheap.
    """
    nonzero = [{j: x for j, x in enumerate(row) if x} for row in rows]
    power = [{i: 1} for i in range(len(rows))]
    out = []
    for _ in range(count):
        out.append(sum(row.get(i, 0) for i, row in enumerate(power)))
        nxt = []
        for nz in nonzero:
            acc = {}
            for j, x in nz.items():
                for c, y in power[j].items():
                    acc[c] = acc.get(c, 0) + x * y
            nxt.append(acc)
        power = nxt
    return out


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


def float_eigenvalues(m: ExactMatrix) -> np.ndarray:
    """Double-precision eigenvalues of a small symmetric matrix, ascending."""
    if m.nrows > FLOAT_CHECK_MAX_ORDER:
        raise ValueError(f"float cross-check limited to order <= {FLOAT_CHECK_MAX_ORDER}")
    if m.max_degree():
        raise TypeError("float cross-check needs scalar entries")
    arr = m.stack[0].astype(float) / m.den
    if not np.allclose(arr, arr.T):
        raise ValueError("float cross-check needs a symmetric matrix")
    return np.linalg.eigvalsh(arr)


def float_crosscheck(m: ExactMatrix, spec: SpectrumSpec, tol: float = 1e-6) -> bool:
    """Compare the claimed spectrum with a float eigendecomposition, clustering
    computed eigenvalues within tol."""
    got = float_eigenvalues(m)
    want: list[float] = []
    for val, mult in spec.distinct():
        want.extend([float(val)] * mult)
    want.sort()
    return len(want) == len(got) and bool(np.all(np.abs(got - np.array(want)) <= tol))


def square_kinds(v_max):
    """Every square A, N, U, U^>= and U^(t,l) kind up to v_max, k > v/2 and
    parameters one past k (zero kinds, N^t = -N^k) included."""
    for v in range(1, v_max + 1):
        for k in range(v + 1):
            for x in range(k + 2):
                yield from (A(x, k, k, v), N(x, k, k, v), U(x, k, k, v), Uge(x, k, k, v))
                yield from (Utl(x, l, k, k, v) for l in range(x + 2))


def complement_kinds(v_max):
    """Every W, Wbar, A, N, U, U^>=, U^(t,l) and Y kind up to v_max whose
    columns are the complements' size, v - s != s, parameters one past
    min(s, v - s) (zero kinds, N^t = +-N^min) included; Y may be rational."""
    for v in range(1, v_max + 1):
        for s in range(v + 1):
            k = v - s
            if s == k:
                continue
            yield from (W(s, k, v), Wbar(s, k, v))
            for x in range(min(s, k) + 2):
                yield from (A(x, s, k, v), N(x, s, k, v), U(x, s, k, v), Uge(x, s, k, v))
                yield from (Utl(x, l, s, k, v) for l in range(x + 2))
            yield from (Y(s, k, kk, l, v) for kk in range(k, v + 1) for l in range(k + 1))
