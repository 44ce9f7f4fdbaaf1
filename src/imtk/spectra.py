"""Closed-form spectra and ranks of the square intersection matrices, plus
the verification engines that check them against explicitly built matrices.

All closed forms assume k <= v/2; callers get a ValueError outside that
range rather than an extrapolated answer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .build import MatrixKind, _region_blocks, build, membership_matrix
from .combinat import SubsetFamily, binomial
from .exactalg import (_FLOAT_EXACT, DEFAULT_PRIME_BITS, ExactMatrix, Poly, _centre, _reduce,
                       random_prime)
from .opcalc import L

PROBES = 8  # annihilation probe vectors per prime
EYE_BLOCK = 256  # rows per block of a scan of M; exact annihilation lists failures by such blocks
_COLUMNS = 32  # columns per block of I in exact annihilation, and of M^a in the traces
_ELL_RATIO = 128  # M is applied as ELL when its widest row has <= n / _ELL_RATIO nonzeros
_GATHER = 4  # ELL slots gathered at a time: at most 4 copies of a block of columns


def multiplicity(v: int, j: int) -> int:
    """dim V_j = C(v, j) - C(v, j-1), with C(v, -1) = 0."""
    return binomial(v, j) - binomial(v, j - 1)


def mu(v: int, k: int, t: int, j: int) -> Poly:
    """Eigenvalue polynomial of F^t_{kk}(z) on V_j."""
    _require(0 <= j <= t <= k and 2 * k <= v, "need 0 <= j <= t <= k <= v/2")
    return Poly([binomial(k - j, i - j) * binomial(v - j - i, k - i)
                 for i in range(t + 1)])


def lambda_utl(v: int, k: int, t: int, l: int, j: int) -> int:
    """Eigenvalue of U^{t,l}_{kk} on V_j.

    The sum runs from i = l; terms with i < j vanish through the extended
    binomial C(k-j, i-j).
    """
    _require(0 <= j <= t <= k and 0 <= l <= t and 2 * k <= v,
             "need 0 <= j, l <= t <= k <= v/2")
    return sum((-1) ** (l + i) * binomial(i, l) * binomial(k - j, i - j)
               * binomial(v - j - i, k - i) for i in range(l, t + 1))


def eberlein(v: int, k: int, l: int, j: int) -> int:
    """Eberlein polynomial value: eigenvalue of U^{k-l}_{kk} on V_j."""
    _require(0 <= j <= k and 0 <= l <= k, "need 0 <= j, l <= k")
    return sum((-1) ** (l - i) * binomial(k - i, l - i) * binomial(k - j, i)
               * binomial(v - k + i - j, i) for i in range(l + 1))


def lambda_uge(v: int, k: int, l: int, j: int) -> int:
    """Eigenvalue of U^{>=l}_{kk} on V_j, for l >= 1."""
    _require(1 <= l <= k and 0 <= j <= k and 2 * k <= v,
             "need 1 <= l <= k <= v/2 and 0 <= j <= k")
    return sum((-1) ** (l + i) * binomial(i - 1, l - 1) * binomial(k - j, i - j)
               * binomial(v - j - i, k - i) for i in range(l, k + 1))


def alpha(v: int, k: int, s: int, t: int, j: int) -> Poly:
    """Eigenvalue polynomial of W^T_{sk} F^t_{sk}(z) on V_j.

    Computed both from the closed form and by applying L(k, s) to mu_j; the
    two routes are asserted equal.
    """
    _require(0 <= j <= t <= s <= k and 2 * k <= v,
             "need 0 <= j <= t <= s <= k <= v/2")
    closed = Poly([(-1) ** (k + s) * binomial(k - j, i - j)
                   * binomial(v - j - i, k - i) * binomial(i - s - 1, k - s)
                   for i in range(t + 1)])
    operator_route = L(k, s).apply_poly(mu(v, k, t, j))
    if closed != operator_route:
        raise AssertionError(
            f"alpha closed form disagrees with L(k,s) mu_j at {(v, k, s, t, j)}")
    return closed


def tau(v: int, k: int, s: int, l: int, j: int) -> int:
    """Eigenvalue of W^T_{sk} U^l_{sk} on V_j.

    The sum starts at i = min(j, l); the i < l terms vanish through C(i, l).
    """
    _require(0 <= j <= s <= k and 0 <= l and 2 * k <= v,
             "need 0 <= j <= s <= k <= v/2 and l >= 0")
    return (-1) ** (k + s + l) * sum(
        (-1) ** i * binomial(i, l) * binomial(k - j, i - j)
        * binomial(v - j - i, k - i) * binomial(i - s - 1, k - s)
        for i in range(min(j, l), k + 1))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# ---------------------------------------------------------------------------
# spectra as data

@dataclass(frozen=True)
class SpectrumSpec:
    """Eigenvalues with multiplicities: one pair per invariant subspace V_j
    (j ascending), plus the zero tail of dimension order - C(v, t)."""

    pairs: tuple[tuple[object, int], ...]
    zero_tail: int
    order: int

    def __post_init__(self):
        total = sum(m for _, m in self.pairs) + self.zero_tail
        if total != self.order:
            raise ValueError(f"multiplicities sum to {total}, order is {self.order}")
        if any(m < 0 for _, m in self.pairs) or self.zero_tail < 0:
            raise ValueError("negative multiplicity")

    def distinct(self) -> list[tuple[object, int]]:
        """Pairs merged by eigenvalue, first-appearance order, tail merged into
        the first 0 (a constant Poly hashes and compares equal to its value)."""
        mult: dict = {}
        for val, m in (*self.pairs, (0, self.zero_tail)):
            mult[val] = mult.get(val, 0) + m
        return [(v, m) for v, m in mult.items() if m > 0]

    def multiplicity_of(self, value) -> int:
        return next((m for v, m in self.distinct() if v == value), 0)

    def eval_at(self, a) -> "SpectrumSpec":
        pairs = tuple((val.eval(a) if isinstance(val, Poly) else val, m)
                      for val, m in self.pairs)
        return SpectrumSpec(pairs, self.zero_tail, self.order)

    def is_scalar(self) -> bool:
        return all(not isinstance(v, Poly) for v, _ in self.pairs)

    def to_dict(self) -> dict:
        def enc(val):
            if isinstance(val, Poly):
                return [str(c) for c in val.coeffs]
            return str(val)
        return {
            "order": self.order,
            "zero_tail": self.zero_tail,
            "pairs": [{"j": j, "eigenvalue": enc(v), "multiplicity": m}
                      for j, (v, m) in enumerate(self.pairs)],
        }


def _is_zero(kind: MatrixKind) -> bool:
    """Whether the kind's entry vanishes at every theta <= min(s, k).

    A^i has entries C(theta, i), U^l and U^{>=l} are [theta = l] and
    [theta >= l], and U^(t,l) has a factor C(theta, l) and is zero for l > t.
    """
    top = min(kind.s, kind.k)
    if kind.tag == "A":
        return kind.i > top
    if kind.tag in ("U", "Uge"):
        return kind.l > top
    return kind.tag == "Utl" and kind.l > min(kind.t, top)


def spectrum_of(kind: MatrixKind) -> SpectrumSpec:
    """Full spectrum of a square intersection matrix with k <= v/2."""
    v, s, k = kind.v, kind.s, kind.k
    if kind.tag not in ("F", "A", "N", "U", "Uge", "Utl"):
        raise ValueError(f"no spectrum closed form for kind {kind.tag}")
    if s != k:
        raise ValueError("spectrum_of needs a square kind (s == k)")
    if 2 * k > v:
        raise ValueError("spectrum closed forms need k <= v/2")
    order = binomial(v, k)
    if _is_zero(kind):
        return SpectrumSpec((), order, order)

    def per_j(values, top):
        pairs = tuple((values(j), multiplicity(v, j)) for j in range(top + 1))
        return SpectrumSpec(pairs, order - binomial(v, top), order)

    if kind.tag == "F":
        t = kind.effective_t()
        return per_j(lambda j: mu(v, k, t, j), t)
    if kind.tag == "Utl":
        t = min(kind.t, k)  # U^(t,l) = U^(k,l) for t > k, as for N
        return per_j(lambda j: lambda_utl(v, k, t, kind.l, j), t)
    if kind.tag == "N":
        # N^t has entries C(theta - 1, t), so from t = k on it is (-1)^(t-k) N^k
        t, tt = kind.t, min(kind.t, k)
        return per_j(lambda j: (-1) ** t * lambda_utl(v, k, tt, 0, j), tt)
    if kind.tag == "A":
        i = kind.i
        return per_j(lambda j: lambda_utl(v, k, i, i, j), i)
    if kind.tag == "U":
        return per_j(lambda j: lambda_utl(v, k, k, kind.l, j), k)
    # Uge
    l = kind.l
    if l == 0:  # U^{>=0} is the all-ones matrix
        return per_j(lambda j: order if j == 0 else 0, k)
    return per_j(lambda j: lambda_uge(v, k, l, j), k)


def wf_spectrum(v: int, k: int, s: int, t: int) -> SpectrumSpec:
    """Spectrum of W^T_{sk} F^t_{sk}(z): alpha_j with the V_j multiplicities."""
    _require(0 <= t <= s <= k and 2 * k <= v, "need t <= s <= k <= v/2")
    order = binomial(v, k)
    pairs = tuple((alpha(v, k, s, t, j), multiplicity(v, j)) for j in range(t + 1))
    return SpectrumSpec(pairs, order - binomial(v, t), order)


def wu_spectrum(v: int, k: int, s: int, l: int) -> SpectrumSpec:
    """Spectrum of W^T_{sk} U^l_{sk}: tau_j with the V_j multiplicities."""
    _require(0 <= l <= s <= k and 2 * k <= v, "need l <= s <= k <= v/2")
    order = binomial(v, k)
    pairs = tuple((tau(v, k, s, l, j), multiplicity(v, j)) for j in range(s + 1))
    return SpectrumSpec(pairs, order - binomial(v, s), order)


def rank_formula(kind: MatrixKind) -> int:
    """Closed-form rank where one is available."""
    v, s, k = kind.v, kind.s, kind.k
    if _is_zero(kind):
        return 0
    if kind.tag in ("U", "W"):
        l = s if kind.tag == "W" else kind.l
        _require(0 <= s <= k and 2 * k <= v, "rank formula needs s <= k <= v/2")
        return sum(multiplicity(v, j) for j in range(s + 1)
                   if tau(v, k, s, l, j) != 0)
    if kind.tag == "N" and s == k and kind.t == k - 1:
        _require(2 * k <= v, "rank formula needs k <= v/2")
        if v == 2 * k:
            return binomial(2 * k, k) // 2
        return binomial(v, k - 1)
    if kind.tag in ("A", "N", "Utl", "Uge") and s == k:
        spec = spectrum_of(kind)
        return spec.order - spec.multiplicity_of(0)
    raise ValueError(f"no rank formula for {kind.describe()}")


# ---------------------------------------------------------------------------
# verification engine

@dataclass
class CheckRecord:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SpectrumReport:
    matrix: str
    order: int
    mode: str
    ok: bool = True
    primes: tuple[int, ...] = ()
    checks: list[CheckRecord] = field(default_factory=list)
    proved: bool = False  # the verdict is certain: the quotient route, or exact mode

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckRecord(name, ok, detail))
        if not ok:
            self.ok = False

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix,
            "order": self.order,
            "mode": self.mode,
            "ok": self.ok,
            "proved": self.proved,
            "primes": list(self.primes),
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
        }


def _centred_residue(x, p: int) -> int:
    """An int or Fraction x mod p, as the residue of least magnitude."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"prime {p} divides an eigenvalue denominator")
    r = x.numerator * pow(x.denominator, -1, p) % p
    return r - p if r > p // 2 else r


def _residues(a: np.ndarray, mag: int, p: int) -> np.ndarray:
    """An integer array's centred residues mod p, |x| <= p // 2, in float64.

    Entries of at most p // 2 (mag = max|a|) are their own; others are
    reduced in int64, which holds every |entry| < 2^62 plus p // 2,
    whatever a's width.
    """
    if mag <= p // 2:
        return a.astype(np.float64)
    return (np.add(a, p // 2, dtype=np.int64) % p - p // 2).astype(np.float64)


def _dot(y: np.ndarray, z: np.ndarray, p: int) -> int:
    """sum(y * z) mod p for two float64 blocks of centred residues mod p.

    Each column is summed over at most ``step`` rows at a time, so every
    partial sum is an integer below 2^53, exact in any order of summation.
    """
    step, total = (_FLOAT_EXACT - 1) // max((p // 2) ** 2, 1), 0
    for r in range(0, y.shape[0], step):
        part = np.einsum("ij,ij->j", y[r:r + step], z[r:r + step])
        _reduce(part, p)  # now |part| <= p, so the int64 sum is exact
        total += int(part.astype(np.int64).sum())
    return total % p


def _product(arr: np.ndarray, mag: int, primes):
    """The map (y, start) -> rows start.. of M y, mod each prime on its own columns.

    y is an n x (len(primes) * w) float64 block of centred residues, the w
    columns of each prime in turn, and so is the result.  M is applied in
    one of two layouts, chosen by cost from the nonzero count of its widest
    row against n:

    - ELL, where that row has at most n / _ELL_RATIO nonzeros: each row's
      nonzeros padded to that width, as column indices and values.  The rows
      of y are gathered for _GATHER slots at a time, and multiplied and
      summed by one einsum.  No dense copy of M is made.
    - Otherwise a float64 copy of M, by GEMM.

    With h the largest p // 2, each term is at most max|M| * h.  The terms,
    slots or the inner dimension, are summed in chunks whose sums stay below
    2^53, and reduced after each; where not even one term fits, M is first
    reduced to centred residues mod each prime.
    """
    n, h = arr.shape[0], max(primes) // 2
    # the nonzeros are sought EYE_BLOCK rows at a time, with small temporaries
    starts = range(0, n, EYE_BLOCK)
    width = max(int(np.count_nonzero(arr[r:r + EYE_BLOCK], axis=1).max()) for r in starts)
    index = None
    if _ELL_RATIO * width <= n:
        rows, cols = np.divmod(np.concatenate(
            [np.flatnonzero(arr[r:r + EYE_BLOCK] != 0) + r * n for r in starts]), n)
        slot = np.arange(rows.size) - np.searchsorted(rows, rows)  # its place in its row
        index = np.zeros((width, n), dtype=np.intp)
        index[slot, rows] = cols
        ell = np.zeros((width, n), dtype=np.int64)
        ell[slot, rows] = arr[rows, cols]
        arr = ell
    operands = ([(arr.astype(np.float64), mag, None)] if mag * h + h * h < _FLOAT_EXACT else
                [(_residues(arr, mag, p), p // 2, i) for i, p in enumerate(primes)])

    def mul(y: np.ndarray, start: int = 0) -> np.ndarray:
        w = y.shape[1] // len(primes)
        mods = np.repeat(np.array(primes, dtype=np.float64), w)
        out = np.zeros((n - start, y.shape[1]))
        for a, amax, i in operands:
            cols = slice(None) if i is None else slice(i * w, (i + 1) * w)
            acc, src = out[:, cols], y[:, cols]
            chunk = (_FLOAT_EXACT - 1 - h * h) // max(amax * h, 1)
            if index is None:
                for j in range(0, n, chunk):
                    acc += a[start:, j:j + chunk] @ src[j:j + chunk]
                    _reduce(acc, mods[cols])
                continue
            chunk = min(chunk, _GATHER)
            for j in range(0, a.shape[0], chunk):
                acc += np.einsum("sn,snb->nb", a[j:j + chunk, start:],
                                 src[index[j:j + chunk, start:]])
                _reduce(acc, mods[cols])
        _reduce(out, mods)  # below (p + 3) / 2 < 2^51 now: centred
        return out

    return mul


def _annihilation_failures(arr: np.ndarray, mag: int, values, primes, blocks) -> set:
    """The pairs (c, i) for which prod_lambda (M - lambda I) leaves column c nonzero mod primes[i].

    ``blocks`` yields pairs (labels, Y), Y an n x (len(primes) * w) float64
    block of the w columns named in labels, once per prime, prime by prime.
    Each factor M - lambda I is one ``_product`` of M with centred Y, less
    lambda Y, after which each prime's columns are reduced mod it.
    """
    mul, fails = _product(arr, mag, primes), set()
    for labels, y in blocks:
        w = y.shape[1] // len(primes)
        mods = np.repeat(np.array(primes, dtype=np.float64), w)
        _centre(y, mods)
        for val in values:
            z = mul(y)
            y *= np.repeat([_centred_residue(val, p) for p in primes], w)
            z -= y  # |z| <= h + h^2 < 2^51, h = p // 2
            _reduce(z, mods)
            y = z
        fails.update((int(labels[i % w]), i // w) for i in np.flatnonzero(y.any(axis=0)))
    return fails


def _power_traces(arr: np.ndarray, mag: int, p: int, count: int) -> list[int]:
    """tr(M^k) mod p for 2 <= k < count, from ``_product``s mod p, M symmetric.

    M is taken by blocks of _COLUMNS columns, and each block is carried
    through the powers X_a = M^a by products, so no power is kept whole.
    M is symmetric, so t_2a = ||X_a||^2 and t_2a+1 = <X_a, X_a+1>, and the
    powers go only up to a = count // 2.  The last of them is made only on
    the rows from the block's first on: its entries above the block mirror
    entries below earlier blocks, so its inner products take the block's
    diagonal part once and the rest twice.
    """
    if count <= 2:
        return []
    n, t, mul = arr.shape[0], [0] * count, _product(arr, mag, [p])
    for c0 in range(0, n, _COLUMNS):
        d = min(_COLUMNS, n - c0)
        y = _residues(arr[:, c0:c0 + d], mag, p)  # the block of X_1
        t[2] += _dot(y, y, p)
        for a in range(1, count // 2):
            last = a + 1 == count // 2
            z, y = (mul(y, c0), y[c0:]) if last else (mul(y), y)
            for k, u, v in ((2 * a + 1, y, z), (2 * a + 2, z, z)):
                if k < count:
                    t[k] += (_dot(u[:d], v[:d], p) + 2 * _dot(u[d:], v[d:], p) if last
                             else _dot(u, v, p))
            y = z
    return [v % p for v in t[2:]]


def _trace_multiplicities(values, traces, p: int | None = None) -> list:
    """The mu_j with sum_j mu_j r_j^k = t_k for k < d: over Q, or mod p.

    r_j are the d distinct values (residues mod p, with p) and t_k the d
    traces.  mu_j is tr L_j(M) for the Lagrange polynomial
    L_j(x) = prod_{i != j} (x - r_i) / (r_j - r_i), which is 1 at r_j and 0
    at every other r_i.  Over Q each mu_j is an int or Fraction; mod p it is
    the centred residue.
    """
    red = (lambda x: x) if p is None else (lambda x: x % p)
    out = []
    for j, rj in enumerate(values):
        coeffs, den = [1], 1
        for i, ri in enumerate(values):
            if i != j:  # times (x - r_i)
                coeffs = [red(a - ri * b) for a, b in zip([0, *coeffs], [*coeffs, 0])]
                den = red(den * (rj - ri))
        num = sum(c * tk for c, tk in zip(coeffs, traces))
        if p is None:
            out.append(Fraction(num) / den)
            continue
        mu = num * pow(den, -1, p) % p
        out.append(mu - p if mu > p // 2 else mu)
    return out


def _classes(v: int, s: int, k: int) -> tuple[np.ndarray, ...]:
    """The membership matrix of the k-subsets K of [v], the class
    |K cap S0| of each against S0 = {1..s}, the classes that occur, and the
    index of the first K of each."""
    mem = membership_matrix(v, k)
    cls = mem[:, :s].sum(axis=1).astype(np.intp)
    return (mem, cls, *np.unique(cls, return_index=True))


def _pattern(m: ExactMatrix) -> np.ndarray | None:
    """g with M = g(theta), theta = |S cap K|, or None where M is not so.

    M must be an integer matrix whose rows are tagged with the s-subsets and
    columns with the k-subsets of one [v].  g is read off row 0, since
    S0 = {1..s} meets K in every size h that any S does, and g[h] is 0 for
    the sizes that no pair meets in.  Every region of the stack
    (``build._regions``) is then compared, at the stack's own width, with
    g taken at the region's small theta, so a block shared by several
    regions is compared with each of them and no theta of M's size is made.
    """
    rows, cols = m.row_family, m.col_family
    if rows is None or cols is None or rows.v != cols.v or not m.all_int():
        return None
    arr = m.stack[0]
    _, cls, classes, reps = _classes(rows.v, rows.s, cols.s)
    g = np.zeros(min(rows.s, cols.s) + 1, dtype=arr.dtype)
    g[classes] = arr[0, reps]
    if all(np.array_equal(arr[r, c], block)
           for r, c, block in _region_blocks(g, rows.v, rows.s, cols.s)):
        return g
    return None


def _quotient_of(v: int, k: int, g: list[int]) -> list[list[int]]:
    """B, the quotient over J(v, k) of M = g(theta), in Python ints.

    M lies in the Bose-Mesner algebra of J(v, k), the partition of the
    k-subsets by |K cap K0| = h, K0 = {1..k}, is equitable, and M acts on its
    class-constant vectors by B[h][h'] = sum of M[S_h, K] over the K of
    class h', for any S_h of class h: the counts of K by their class h' and
    their theta i = |S_h cap K| against S_h, weighted by g(i).  The theta
    rows of the representatives S_h are one float32 product, exact as
    theta_matrix's.  Rows and columns of B are h = 0..k; an empty class
    (h < 2k - v) has zeros in both.
    """
    mem, cls, classes, reps = _classes(v, k, k)
    b = [[0] * (k + 1) for _ in range(k + 1)]
    for h, theta in zip(classes.tolist(), (mem[reps] @ mem.T).astype(np.intp)):
        counts = np.bincount(cls * (k + 1) + theta, minlength=(k + 1) ** 2)
        b[h] = [sum(c * gi for c, gi in zip(row, g))
                for row in counts.reshape(k + 1, k + 1).tolist()]
    return b


def _johnson_quotient(m: ExactMatrix) -> list[list[int]] | None:
    """B, the quotient matrix of M over J(v, k), or None where M has none:
    M's rows and columns are both the k-subsets of [v], and M = g(theta)
    entry by entry (``_pattern``), with B made from g (``_quotient_of``)."""
    fam = m.row_family
    if fam is None or m.col_family != fam:
        return None
    g = _pattern(m)
    return None if g is None else _quotient_of(fam.v, fam.s, g.tolist())


def _quotient_apply(b: list[list], x: list) -> list:
    """B x, in Python ints (or Fractions)."""
    return [sum(bi * xi for bi, xi in zip(row, x)) for row in b]


def _quotient_powers(b: list[list[int]], count: int) -> list[list[int]]:
    """x_a = B^a e_k for a < count, in Python ints.

    e_k stands for e_0, the indicator of K0 (the one k-subset of class k),
    and x_a for M^a e_0, column K0 of M^a.  M^a lies in the algebra, so its
    diagonal is constant, and tr(M^a) = n x_a[k] (``_quotient_traces``).
    """
    xs = [[0] * (len(b) - 1) + [1]]
    for _ in range(count - 1):
        xs.append(_quotient_apply(b, xs[-1]))
    return xs


def _quotient_annihilator(b: list[list[int]], values) -> list[int]:
    """P(B) e_k for P(x) = prod_j (q_j x - p_j), lambda_j = p_j / q_j, in Python ints.

    P(M) is q_1..q_d times prod_j (M - lambda_j I), and its column K0 is
    the class-constant vector of P(B) e_k (see ``_quotient_powers``).
    """
    y = [0] * (len(b) - 1) + [1]
    for val in map(Fraction, values):
        y = [val.denominator * u - val.numerator * w for u, w in zip(_quotient_apply(b, y), y)]
    return y


def _quotient_traces(n: int, xs: list[list[int]]) -> list[int]:
    """tr(M^a) = n x_a[k] for the x_a = B^a e_k of ``_quotient_powers``."""
    return [n * x[-1] for x in xs]


@dataclass(frozen=True)
class QuotientRank:
    """The rank of M over Q that its quotient proves, and the unit that
    carries it mod p: pi(0) for an invertible M, else q(0), pi = x q.
    For every prime p not dividing ``unit``, rank_p M = ``rank``."""

    rank: int
    unit: int

    def mod(self, p: int) -> int | None:
        """rank_p M, proved, or None where p divides ``unit``."""
        return None if self.unit % p == 0 else self.rank


def _quotient_rank(m: ExactMatrix) -> QuotientRank | None:
    """The rank of M over Q, proved from its quotient over J(v, k), or None.

    An M whose rows are the s-subsets of [v] and columns the (v - s)-subsets,
    s != v - s, is ranked as M R, R the reversal of its columns.  Complement
    reverses lex order, so column n - 1 - i of M is the complement of row
    subset i, and |S cap (complement of T)| = s - |S cap T|: M R is a
    function of theta over J(v, s) where M is one of |S cap K|.  R is a
    permutation, so M R has M's rank over Q and mod every p, and it is a
    view of M's stack, not a copy.

    P(M) for a polynomial P lies in the algebra, whose members are
    determined by their column K0, so P(M) = 0 exactly when P(B) e_k = 0,
    and the minimal polynomial pi of M is the first linear dependency of the
    vectors x_a = B^a e_k, found over Q among the first k + 2.  pi divides
    the characteristic polynomial of the integer M, so it is monic in Z[x],
    and M is symmetric, so pi has simple roots.  If pi(0) != 0, M is
    invertible.  Otherwise pi(x) = x q(x), q(0) != 0, E = q(M) / q(0) is the
    projector onto ker M, and the nullity is its trace,
    sum_a q_a tr(M^a) / q(0).

    The same holds mod a prime p not dividing the unit, pi(0) or q(0).
    With p not dividing pi(0), pi(x) = x r(x) + pi(0) gives
    M (-r(M) / pi(0)) = I mod p.  With p not dividing q(0), E reduces
    mod p, and so does I - E; both stay idempotent, E's image is ker_p M
    (M E = pi(M) / q(0) = 0, and M x = 0 gives q(M) x = q(0) x), and
    rank_p E + rank_p (I - E) = n.  A rank never rises mod p, so rank_p E
    <= rank E and rank_p (I - E) <= rank (I - E), with equality in both:
    the nullity mod p is the nullity over Q.
    """
    fam = m.row_family
    if fam is not None and fam != m.col_family == SubsetFamily(fam.v, fam.v - fam.s):
        m = ExactMatrix(m.stack[:, :, ::-1], fam, fam, den=m.den)  # M R, over J(v, s)
    b, n = _johnson_quotient(m), m.nrows
    if b is None:
        return None
    xs = _quotient_powers(b, len(b) + 1)
    basis = []  # an echelon basis of the x_a so far: (pivot, x reduced, its combination)
    for a, x in enumerate(xs):
        r, combo = [Fraction(xi) for xi in x], [Fraction(0)] * a + [Fraction(1)]
        for pivot, rb, cb in basis:
            if r[pivot]:
                f = r[pivot] / rb[pivot]
                r = [ri - f * bi for ri, bi in zip(r, rb)]
                combo = [ci - f * (cb[i] if i < len(cb) else 0) for i, ci in enumerate(combo)]
        if not any(r):
            break  # sum_i combo[i] x_i = 0, combo[a] = 1: the coefficients of pi
        basis.append((next(i for i, ri in enumerate(r) if ri), r, combo))
    if any(c.denominator != 1 for c in combo):
        raise AssertionError(f"the minimal polynomial {combo} is not in Z[x]")
    if combo[0]:
        return QuotientRank(n, int(combo[0]))
    # q = combo[1:]
    nullity = sum(qa * t for qa, t in zip(combo[1:], _quotient_traces(n, xs))) / combo[1]
    if nullity.denominator != 1 or not 0 <= nullity <= n:
        raise AssertionError(f"the quotient gives a nullity of {nullity} at order {n}")
    return QuotientRank(n - int(nullity), int(combo[1]))


def verify_spectrum(m: ExactMatrix, spec: SpectrumSpec, mode: str = "modp",
                    rng: random.Random | None = None, label: str = "") -> SpectrumReport:
    """Check a claimed spectrum against an explicitly built matrix.

    Every route checks the order and the exact trace, that
    P = prod_lambda (M - lambda I) over the d claimed distinct eigenvalues
    is 0, and every multiplicity from the power traces t_a = tr(M^a), a < d.

    Where M is a function of theta over J(v, k) (``_johnson_quotient``:
    rows and columns tagged with the k-subsets of [v], and the stack equal
    to g(theta) entry by entry), both modes take the quotient route: all of
    it is proved on M's (k + 1) x (k + 1) quotient B, in Python ints, with
    no prime and no probe.  ``report.proved`` is true, ``report.primes``
    empty and ``rng`` unused.

    Any other M takes the generic route, where the mode decides how P is
    applied: to 2 * PROBES random probes over two random primes in modp
    mode, and in exact mode to every column of I over the fewest random
    primes, drawn one by one, whose product exceeds B below.  The traces
    t_a, 2 <= a < d, come from products mod p1 (``_power_traces``), which
    need M symmetric; with d <= 2 M may be any square matrix.
    ``report.primes`` lists every prime, p1 first, then any replacement for
    p1 in the trace step.  ``report.proved`` is true in exact mode.

    Soundness, for M of order n:

    - Annihilation, quotient.  M = g(theta) lies in the Bose-Mesner algebra
      of J(v, k), and so does P(M).  A member of the algebra has the entry
      c_h wherever |S cap K| = h, so it is fixed by its column K0 = {1..k},
      which meets every nonempty class h.  The classes of K by
      |K cap K0| are an equitable partition for M, so M maps the
      class-constant vector of x to that of B x, and column K0 of P(M), the
      image of the indicator of K0, which is the class-constant vector of
      e_k, is the class-constant vector of P(B) e_k.  So P(B) e_k = 0,
      taken exactly as prod_j (q_j B - p_j I) e_k for lambda_j = p_j / q_j
      (``_quotient_annihilator``), proves P = 0 with certainty.
    - Annihilation, modp.  If the claim misses an eigenvalue of M, P is
      nonzero.  At a prime where P stays nonzero, a uniform random probe is
      annihilated anyway with probability at most #distinct/p (in fact at
      most 1/p, ker P being a proper subspace), independently per probe and
      per prime; a wrong set must survive all 2 * PROBES probes.
    - Annihilation, exact.  For lambda_j = p_j / q_j, no entry of a partial
      product of the integer matrices q_j M - p_j I exceeds B = prod_j
      (q_j ||M||_inf + |p_j|), the row-sum norm being submultiplicative
      (n * max|M| stands in for it if a row sum could overflow int64).  Mod a
      prime not dividing q_j, that product is 0 exactly when P is.  Zero mod
      distinct primes whose product exceeds B, an entry is 0 over Z (CRT), so
      P = 0 and the claimed set holds every eigenvalue, with certainty.
    - Multiplicities.  Once P = 0, every eigenvalue of M is a claimed
      lambda_j, and M is diagonalizable, its minimal polynomial dividing a
      product of distinct linear factors.  The true multiplicities mu_j then
      satisfy sum_j mu_j lambda_j^a = tr(M^a) over Q, for every a, and the
      Vandermonde system of a < d has one solution, the lambda_j being
      distinct (``_trace_multiplicities``).  On the quotient route the
      traces are exact, n (B^a e_k)[k], and the system is solved over Q, so
      a solution equal to the claimed m_j proves m_j = mu_j and
      rank(M - lambda_j I) = n - mu_j.  On the generic route it is solved
      mod p1, invertible while the lambda_j are distinct mod p1, and both
      mu_j and m_j lie in [0, n], n < 2^20 < p1, so a residue equal to m_j
      proves the same.  No prime is unlucky here: while two lambda_j
      coincide mod p1, a replacement prime is drawn, recorded and takes
      p1's place.  A multiplicity passes only when annihilation does,
      since without P = 0 the traces prove nothing about it.  So a
      verified claim is proved on the quotient route and in exact mode,
      and otherwise its one error is the probes'.  t_0 = n and t_1, the
      exact trace, need no product, so d <= 2 needs none at all.
    - Symmetry.  Annihilation alone makes M diagonalizable, so the
      multiplicities need no symmetry.  Only the shortcut t_2a = ||X_a||^2
      of ``_power_traces`` does.
    - Denominators.  On the generic route, a prime that divides a claimed
      eigenvalue's denominator raises ValueError, in the annihilation step
      for its primes and in the trace step for a replacement prime.  No
      true claim is lost so: M is an integer matrix, and its rational
      eigenvalues are integers.
    """
    if mode not in ("modp", "exact"):
        raise ValueError("mode must be 'modp' or 'exact'")
    if m.nrows != m.ncols:
        raise ValueError("matrix must be square")
    if not spec.is_scalar():
        raise TypeError("verify_spectrum needs rational eigenvalues; "
                        "evaluate polynomial spectra at a point first")
    n = m.nrows
    report = SpectrumReport(label or f"matrix of order {n}", n, mode)
    distinct = spec.distinct()
    values = [v for v, _ in distinct]
    quotient = _johnson_quotient(m)
    if quotient is None:
        _require(n < 1 << (DEFAULT_PRIME_BITS - 1), "the trace route needs order < 2^20")
        arr = m.as_int_array()
        if len(distinct) > 2 and not all(
                np.array_equal(arr[r:r + EYE_BLOCK], arr[:, r:r + EYE_BLOCK].T)
                for r in range(0, n, EYE_BLOCK)):
            raise ValueError("matrix must be symmetric")

    report.add("order", spec.order == n, f"claimed order {spec.order}, matrix order {n}")
    if not report.ok:
        return report

    trace = m.trace()  # in Python ints: an int64 sum of the diagonal could wrap
    want_trace = sum(val * mult for val, mult in distinct)
    report.add("trace", trace == want_trace,
               f"trace {trace}, spectral sum {want_trace}")

    report.proved = quotient is not None or mode == "exact"
    if quotient is None:
        annihilated, implied = _generic_checks(report, arr, m.mag, values, trace,
                                               rng or random.Random())
    else:
        y, k = _quotient_annihilator(quotient, values), len(quotient) - 1
        annihilated = not any(y)
        where = (f"M = g(theta) over J({m.row_family.v},{k}), and P(B) e_{k}"
                 f" {'=' if annihilated else '!='} 0 for its {k + 1} x {k + 1} quotient B")
        report.add("annihilation", annihilated, where + (
            ": P(M) = 0, proved with no prime" if annihilated else
            f": first nonzero in class {next(h for h, yh in enumerate(y) if yh)}"))
        implied = _trace_multiplicities(
            values, _quotient_traces(n, _quotient_powers(quotient, len(values))))
    for (val, mult), mu in zip(distinct, implied):
        report.add(f"multiplicity[{val}]", annihilated and mu == mult,
                   f"rank(M - {val} I) = {n - mu}, expected {n - mult} (mult {mult})")
    return report


def _generic_checks(report: SpectrumReport, arr: np.ndarray, mag: int, values,
                    trace: int, rng: random.Random) -> tuple[bool, list[int]]:
    """The generic route of ``verify_spectrum``: annihilation by probes or by
    every column of I, and the multiplicities mod p1 from ``_power_traces``.
    Adds the annihilation check and the primes to ``report``, and returns
    whether P = 0 held and the multiplicities that the traces imply."""
    n, mode = arr.shape[0], report.mode
    # annihilation: P y = 0 for random probes y mod two primes, or for every
    # column y of I mod the first distinct primes whose product exceeds B (exact)
    bound = 0
    if mode == "exact":
        norm = (max(int(np.abs(arr[r:r + EYE_BLOCK], dtype=np.int64).sum(axis=1).max())
                    for r in range(0, n, EYE_BLOCK))
                if n * mag < 1 << 63 else n * mag)
        bound = math.prod(Fraction(v).denominator * norm + abs(Fraction(v).numerator)
                          for v in values)
    primes = []
    while len(primes) < (2 if mode == "modp" else 1) or math.prod(primes) <= bound:
        p = random_prime(rng)
        if p not in primes:
            primes.append(p)
    report.primes, p1 = tuple(primes), primes[0]
    if mode == "modp":
        # one draw seeded from rng, uniform on [0, p) in each prime's columns
        draw = np.random.default_rng(rng.getrandbits(64))
        probes = draw.integers(0, np.repeat(primes, PROBES), size=(n, 2 * PROBES))
        blocks = [(range(PROBES), probes.astype(np.float64))]
        detail = f"{2 * PROBES} probes over primes {p1}, {primes[1]}"
    else:
        blocks = ((range(c, c + _COLUMNS),
                   np.tile(np.eye(n, min(_COLUMNS, n - c), -c), len(primes)))
                  for c in range(0, n, _COLUMNS))
        detail = f"all {n} columns of I mod primes {primes}, product > B = {bound}"
    fails = _annihilation_failures(arr, mag, values, primes, blocks)
    # by block of EYE_BLOCK columns, prime, column
    fails = [f"column {c} mod {primes[i]}"
             for c, i in sorted(fails, key=lambda f: (f[0] // EYE_BLOCK, f[1], f[0]))]
    report.add("annihilation", not fails,
               detail + (f"; {len(fails)} failed, first {fails[0]}" if fails else ""))

    # multiplicities: solved mod p1 from t_0 = n, t_1 = trace and the power
    # traces, with a replacement for p1 while two eigenvalues coincide mod it
    q = p1
    while len({_centred_residue(v, q) for v in values}) < len(values):
        q = random_prime(rng)
        report.primes += (q,)
    traces = [n, trace, *_power_traces(arr, mag, q, len(values))]
    return not fails, _trace_multiplicities([_centred_residue(v, q) for v in values], traces, q)


def sampled_eval_points() -> Sequence[Fraction]:
    """Rational sample points used to verify polynomial-valued spectra."""
    return (Fraction(1), Fraction(2), Fraction(-2))
