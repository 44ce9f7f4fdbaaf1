"""Closed-form spectra and ranks of the square intersection matrices, and
their proof on the quotient of the built matrix over J(v, k).

All closed forms assume k <= v/2; callers get a ValueError outside that
range rather than an extrapolated answer.  ``verify_spectrum`` proves a
claim on a matrix equal to g(theta) over J(v, k), and refuses any other
matrix with a ValueError rather than sampling it.  ``_quotient_rank``
proves the rank of every matrix equal to g(theta) over s- by k-subsets, on
the quotient over J(v, s) of M itself or of its Gram matrix M M^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .build import MatrixKind, _region_blocks, build, membership_matrix
from .combinat import binomial
from .exactalg import ExactMatrix, Poly
from .opcalc import L


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
# the proof on the quotient over J(v, k)

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
    primes: tuple[int, ...] = ()  # none: the quotient draws no prime
    checks: list[CheckRecord] = field(default_factory=list)
    proved: bool = True  # every verdict is proved on the quotient

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


def _trace_multiplicities(values, traces) -> list[Fraction]:
    """The mu_j with sum_j mu_j r_j^k = t_k for k < d, over Q.

    r_j are the d distinct values and t_k the d traces.  mu_j is tr L_j(M)
    for the Lagrange polynomial L_j(x) = prod_{i != j} (x - r_i) / (r_j - r_i),
    which is 1 at r_j and 0 at every other r_i.
    """
    out = []
    for j, rj in enumerate(values):
        coeffs, den = [1], 1
        for i, ri in enumerate(values):
            if i != j:  # times (x - r_i)
                coeffs = [a - ri * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
                den *= rj - ri
        out.append(Fraction(sum(c * tk for c, tk in zip(coeffs, traces))) / den)
    return out


def _classes(v: int, s: int, k: int) -> tuple[np.ndarray, ...]:
    """The membership matrix of the k-subsets K of [v], the class
    |K cap S0| of each against S0 = {1..s}, the classes that occur, and the
    index of the first K of each."""
    mem = membership_matrix(v, k)
    cls = mem[:, :s].sum(axis=1).astype(np.intp)
    return (mem, cls, *np.unique(cls, return_index=True))


def _pattern(m: ExactMatrix, classes: tuple[np.ndarray, ...]) -> np.ndarray | None:
    """g with M = g(theta), theta = |S cap K|, or None where M is not so.

    M's rows must be tagged with the s-subsets and its columns with the
    k-subsets of one [v], and ``classes`` is ``_classes(v, s, k)``.  M must
    have integer entries.  g is read off row 0, since S0 = {1..s} meets K in
    every size h that any S does, and g[h] is 0 for the sizes that no pair
    meets in.  Every region of the stack (``build._regions``) is then
    compared, at the stack's own width, with g taken at the region's small
    theta, so a block shared by several regions is compared with each of
    them and no theta of M's size is made.
    """
    if not m.all_int():
        return None
    rows, cols, arr = m.row_family, m.col_family, m.stack[0]
    _, _, present, reps = classes
    g = np.zeros(min(rows.s, cols.s) + 1, dtype=arr.dtype)
    g[present] = arr[0, reps]
    if all(np.array_equal(arr[r, c], block)
           for r, c, block in _region_blocks(g, rows.v, rows.s, cols.s)):
        return g
    return None


def _quotient_of(g: list[int], classes: tuple[np.ndarray, ...]) -> list[list[int]]:
    """B, the quotient over J(v, k) of M = g(theta), in Python ints, with
    ``classes`` = ``_classes(v, k, k)`` and k = len(g) - 1.

    M lies in the Bose-Mesner algebra of J(v, k), the partition of the
    k-subsets by |K cap K0| = h, K0 = {1..k}, is equitable, and M acts on its
    class-constant vectors by B[h][h'] = sum of M[S_h, K] over the K of
    class h', for any S_h of class h: the counts of K by their class h' and
    their theta i = |S_h cap K| against S_h, weighted by g(i).  The theta
    rows of the representatives S_h are one float32 product, exact as
    theta_matrix's.  Rows and columns of B are h = 0..k; an empty class
    (h < 2k - v) has zeros in both.
    """
    mem, cls, present, reps = classes
    k = len(g) - 1
    b = [[0] * (k + 1) for _ in range(k + 1)]
    for h, theta in zip(present.tolist(), (mem[reps] @ mem.T).astype(np.intp)):
        counts = np.bincount(cls * (k + 1) + theta, minlength=(k + 1) ** 2)
        b[h] = [sum(c * gi for c, gi in zip(row, g))
                for row in counts.reshape(k + 1, k + 1).tolist()]
    return b


def _johnson_quotient(m: ExactMatrix) -> list[list[int]] | None:
    """B, the quotient matrix of M over J(v, k), or None where M has none:
    M's rows and columns are both the k-subsets of [v], and M = g(theta)
    entry by entry (``_pattern``), with B made from g (``_quotient_of``).
    The classes of J(v, k) are counted once, for both."""
    fam = m.row_family
    if fam is None or m.col_family != fam:
        return None
    classes = _classes(fam.v, fam.s, fam.s)
    g = _pattern(m, classes)
    return None if g is None else _quotient_of(g.tolist(), classes)


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


def _count(n: int, r: int) -> int:
    """The number of r-subsets of an n-set: 0 unless 0 <= r <= n."""
    return math.comb(n, r) if 0 <= r <= n else 0


def _gram_counts(v: int, s: int, k: int, i: int, a: int, b: int) -> int:
    """n(i, a, b), the number of k-subsets K of [v] with |S cap K| = a and
    |S' cap K| = b, for s-subsets S and S' with |S cap S'| = i.

    S and S' split [v] into S cap S', S - S', S' - S and the rest, of sizes
    i, s - i, s - i and v - 2s + i; K takes c, a - c, b - c and
    k - a - b + c elements of them.  A part of negative size (no such S, S'
    exist) has no subsets.
    """
    return sum(_count(i, c) * _count(s - i, a - c) * _count(s - i, b - c)
               * _count(v - 2 * s + i, k - a - b + c) for c in range(i + 1))


def _gram_quotient(m: ExactMatrix) -> list[list[int]] | None:
    """B, the quotient over J(v, s) of G = M M^T, or None where M has none.

    M's rows must be tagged with the s-subsets and its columns with the
    k-subsets of one [v], and M = g(theta) entry by entry (``_pattern``).
    Then G[S, S'] = sum_K g(|S cap K|) g(|S' cap K|) depends on |S cap S'|
    = i only: G = g_G(theta) over J(v, s), g_G(i) = sum_{a,b} g(a) g(b)
    n(i, a, b) (``_gram_counts``), and B is made from g_G (``_quotient_of``).
    No product with M is made.  B keeps only the classes h >= 2s - v, those
    that pairs of s-subsets meet in; the others are zero rows and columns.
    """
    rows, cols = m.row_family, m.col_family
    if rows is None or cols is None or rows.v != cols.v:
        return None
    v, s, k = rows.v, rows.s, cols.s
    g = _pattern(m, _classes(v, s, k))
    if g is None:
        return None
    nonzero = [(a, ga) for a, ga in enumerate(g.tolist()) if ga]
    terms = [(a, b, ga * gb) for a, ga in nonzero for b, gb in nonzero]
    gram = [sum(w * _gram_counts(v, s, k, i, a, b) for a, b, w in terms)
            for i in range(s + 1)]
    lo = max(0, 2 * s - v)
    return [row[lo:] for row in _quotient_of(gram, _classes(v, s, s))[lo:]]


def _quotient_rank(m: ExactMatrix) -> QuotientRank | None:
    """The rank of M over Q, proved from a quotient over J(v, s), or None.

    A square M (rows and columns the same s-subsets) is ranked on its own
    quotient (``_johnson_quotient``); any other M on the quotient of its Gram
    matrix G = M M^T over J(v, s) (``_gram_quotient``).  rank_Q M =
    rank_Q G, and for a prime p that does not divide G's unit,
    rank_p M >= rank_p G = rank_Q G = rank_Q M >= rank_p M: the rank and
    the unit below carry over from G to M.  Below, M is the square matrix
    that B is the quotient of: M itself, or G.

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
    b = _johnson_quotient(m) if m.row_family == m.col_family else _gram_quotient(m)
    if b is None:
        return None
    n = m.nrows
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
                    label: str = "") -> SpectrumReport:
    """Prove or disprove a claimed spectrum of a built matrix on its quotient.

    M must be a function of theta over J(v, k) (``_johnson_quotient``: rows
    and columns tagged with the k-subsets of [v], and the stack equal to
    g(theta) entry by entry).  Any other M raises ValueError: no quotient
    proves its spectrum, and nothing is sampled in its place.  The check
    takes the order and the exact trace, then proves on M's (k + 1) x (k + 1)
    quotient B, in Python ints, that P = prod_lambda (M - lambda I) over the
    d claimed distinct eigenvalues is 0, and every multiplicity from the
    traces t_a = tr(M^a), a < d.  No prime and no probe is drawn.  The modes
    "modp" and "exact" are two spellings of this one proof, recorded in the
    report; ``report.proved`` is true and ``report.primes`` empty.

    Soundness, for M of order n:

    - Annihilation.  M = g(theta) lies in the Bose-Mesner algebra of
      J(v, k), and so does P(M).  A member of the algebra has the entry c_h
      wherever |S cap K| = h, so it is fixed by its column K0 = {1..k},
      which meets every nonempty class h.  The classes of K by |K cap K0|
      are an equitable partition for M, so M maps the class-constant vector
      of x to that of B x, and column K0 of P(M), the image of the indicator
      of K0, which is the class-constant vector of e_k, is the
      class-constant vector of P(B) e_k.  So P(B) e_k = 0, taken exactly as
      prod_j (q_j B - p_j I) e_k for lambda_j = p_j / q_j
      (``_quotient_annihilator``), proves P = 0 with certainty.  A rational
      claim is taken the same way, with no prime to divide its denominator.
    - Multiplicities.  Once P = 0, every eigenvalue of M is a claimed
      lambda_j, and M is diagonalizable, its minimal polynomial dividing a
      product of distinct linear factors.  The true multiplicities mu_j then
      satisfy sum_j mu_j lambda_j^a = tr(M^a) over Q, for every a, and the
      Vandermonde system of a < d has one solution, the lambda_j being
      distinct (``_trace_multiplicities``).  The traces are exact,
      n (B^a e_k)[k], and the system is solved over Q, so a solution equal
      to the claimed m_j proves m_j = mu_j and rank(M - lambda_j I) =
      n - mu_j.  A multiplicity passes only when annihilation does, since
      without P = 0 the traces prove nothing about it.
    """
    if mode not in ("modp", "exact"):
        raise ValueError("mode must be 'modp' or 'exact'")
    if not spec.is_scalar():
        raise TypeError("verify_spectrum needs rational eigenvalues; "
                        "evaluate polynomial spectra at a point first")
    quotient = _johnson_quotient(m)
    if quotient is None:
        raise ValueError("M is not g(theta) over J(v,k): no quotient proves its spectrum")
    n, k = m.nrows, len(quotient) - 1
    report = SpectrumReport(label or f"matrix of order {n}", n, mode)
    distinct = spec.distinct()
    values = [v for v, _ in distinct]

    report.add("order", spec.order == n, f"claimed order {spec.order}, matrix order {n}")
    if not report.ok:
        return report

    trace = m.trace()  # in Python ints: an int64 sum of the diagonal could wrap
    want_trace = sum(val * mult for val, mult in distinct)
    report.add("trace", trace == want_trace,
               f"trace {trace}, spectral sum {want_trace}")

    y = _quotient_annihilator(quotient, values)
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


def sampled_eval_points() -> Sequence[Fraction]:
    """Rational sample points used to verify polynomial-valued spectra."""
    return (Fraction(1), Fraction(2), Fraction(-2))
