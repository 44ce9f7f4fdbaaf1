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

from .build import MatrixKind, build
from .combinat import binomial
from .exactalg import (_FLOAT_EXACT, ExactMatrix, ModMatrix, Poly, _centre, _reduce,
                       random_prime, rank_modp)
from .opcalc import L

PROBES = 8  # annihilation probe vectors per prime
EYE_BLOCK = 256  # columns of I per exact annihilation block


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


def _annihilation_failures(arr: np.ndarray, mag: int, values, primes, blocks) -> set:
    """The pairs (c, i) for which prod_lambda (M - lambda I) leaves column c nonzero mod primes[i].

    ``blocks`` yields pairs (labels, Y), Y an n x (len(primes) * w) float64
    block of the w columns named in labels, once per prime, prime by prime,
    overwritten.  Each factor M - lambda I is one GEMM of the integer matrix
    with centred Y, after which each prime's columns are reduced mod it.
    With h the largest p // 2, each product is exact while
    n * max|M| * h + h^2 < 2^53; where that fails the inner dimension is
    summed in chunks within the bound, and where not even one column fits,
    M is first reduced to centred residues mod each prime.
    """
    n, h, fails = arr.shape[0], max(primes) // 2, set()
    # the residues are taken in int64, which holds p // 2 whatever arr's width
    factors = ([(arr.astype(np.float64), mag, None)] if mag * h + h * h < _FLOAT_EXACT else
               [((np.add(arr, p // 2, dtype=np.int64) % p - p // 2).astype(np.float64), p // 2, i)
                for i, p in enumerate(primes)])
    for labels, y in blocks:
        w = y.shape[1] // len(primes)
        mods = np.repeat(np.array(primes, dtype=np.float64), w)
        _centre(y, mods)
        for val in values:
            lam = np.repeat([_centred_residue(val, p) for p in primes], w)
            for a, amax, i in factors:
                cols = slice(None) if i is None else slice(i * w, (i + 1) * w)
                chunk = (_FLOAT_EXACT - 1 - h * h) // max(amax * h, 1)
                acc = y[:, cols] * -lam[cols]
                for j in range(0, n, chunk):
                    acc += a[:, j:j + chunk] @ y[j:j + chunk, cols]
                    _reduce(acc, mods[cols])
                y[:, cols] = acc
            _centre(y, mods)
        fails.update((int(labels[i % w]), i // w) for i in np.flatnonzero(y.any(axis=0)))
    return fails


def _windows(arr: np.ndarray) -> list[np.ndarray]:
    """Row sets of diagonal windows of M, each a union of whole components.

    The connected components of the pattern of M + M^T are found by a
    boolean BFS over ``arr != 0`` in order of their first row, and grouped
    whole, in that order, into windows of at least EYE_BLOCK rows (the last
    may have fewer); each window lists its rows ascending.  A connected M,
    one with a component of more than n / 2 rows, one of at most EYE_BLOCK
    rows and a non-square one are one window.
    """
    n = arr.shape[0]
    if n <= EYE_BLOCK or n != arr.shape[1]:
        return [np.arange(n)]
    pattern, unseen = arr != 0, np.ones(n, dtype=bool)
    windows, window = [], []
    for start in range(n):
        if not unseen[start]:
            continue
        unseen[start], frontier, component = False, [start], [start]
        while len(frontier):
            reach = pattern[frontier].any(axis=0) | pattern[:, frontier].any(axis=1)
            frontier = np.flatnonzero(reach & unseen)
            unseen[frontier] = False
            component += frontier.tolist()
            if 2 * len(component) > n:
                return [np.arange(n)]
        window += component
        if len(window) >= EYE_BLOCK:
            windows.append(np.sort(window))
            window = []
    if window:
        windows.append(np.sort(window))
    return windows


def _block(arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The principal block of arr on a window's rows; arr itself for one window."""
    return arr if len(rows) == arr.shape[0] else arr[np.ix_(rows, rows)]


def windowed_rank(m: ExactMatrix, p: int, shift: int = 0, windows=None) -> int:
    """Rank over GF(p) of the integer matrix M - shift*I, the sum of its
    windows' ranks (``_windows`` unless given; see ``verify_spectrum``,
    Blocks): one ``ModMatrix`` per window's block, so a split M is never
    copied whole.  Integer entries of any size; others raise TypeError.
    """
    if not m.all_int():
        raise TypeError("only an integer matrix has a mod-p reduction here")
    arr = m.stack[0]
    return sum(rank_modp(ModMatrix(_block(arr, rows), p, shift, m.mag), p)
               for rows in (_windows(arr) if windows is None else windows))


def verify_spectrum(m: ExactMatrix, spec: SpectrumSpec, mode: str = "modp",
                    rng: random.Random | None = None, label: str = "",
                    assume_diagonalizable: bool = False) -> SpectrumReport:
    """Check a claimed spectrum against an explicitly built matrix.

    Both modes check the multiplicity sum and the exact trace, that
    P = prod_lambda (M - lambda I) over the claimed distinct eigenvalues is 0,
    and one mod-p rank per distinct eigenvalue (retried with a fresh prime on
    mismatch).  P is applied to 2 * PROBES random probes over two random
    primes in modp mode, and in exact mode to every column of I over the
    fewest random primes, drawn one by one, whose product exceeds B below.
    ``report.primes`` lists them all, then the retry primes in eigenvalue order.

    The rank route equates geometric and algebraic multiplicities, so the
    matrix must be symmetric unless the caller vouches for diagonalizability
    (the W^T F products have a full eigenbasis by construction).

    Soundness, for a symmetric M of order n:

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
    - Rank.  rank(A mod p) <= rank(A) over Q for an integer A (a minor that
      vanishes over Q vanishes mod p), so the mod-p nullity of M - lambda I
      can only over-estimate the true multiplicity of lambda.
    - Multiplicities.  Once the set is complete, the true multiplicities of
      the claimed eigenvalues sum to n, as M is diagonalizable, and so do the
      claimed ones (``SpectrumSpec`` enforces it).  Mod-p nullities that
      match every claimed multiplicity bound each true one from above, so
      the sums force each to be exact.  An unlucky prime can only make a
      true claim fail (a rank that undershoots), never a false one pass;
      that failure is retried once with a fresh prime.
    - Unlucky primes.  The rank of M - lambda I drops mod p only if p
      divides a fixed nonzero minor D of order its rank, and at most
      log2|D| / 20 of the 73 586 primes of 21 bits do (``random_prime``):
      for U^3 on J(13, 6), at most 405, so at most 0.55% per draw, and at
      most 0.003% that the retry prime is unlucky too.
    - Denominators.  A prime that divides a claimed eigenvalue's denominator
      raises ValueError, in the annihilation step for its primes and in the
      rank step for a retry prime.  No true claim is lost so: M is an
      integer matrix, and its rational eigenvalues are integers.
    - Blocks.  The rows of each connected component of the pattern of
      M + M^T span a subspace that M and M^T both leave invariant, so up to
      a permutation M is the direct sum of its windows' principal blocks M_b
      (``_windows``).  Rank is additive over diagonal blocks, mod p as over
      Q, so rank(M - lambda I) is the sum of the rank(M_b - lambda I)
      (``windowed_rank``, which ``imtk rank`` uses too), and
      P(M) y = 0 exactly when P(M_b) y_b = 0 for every block, y_b the
      window's rows of y.  The probes are the same vectors as unsplit, cut
      by rows, and the columns of I are those of each block's I, so every
      bound above holds as it stands.  A matrix of one window is checked
      whole, so no input needs more memory than unsplit.
    """
    if mode not in ("modp", "exact"):
        raise ValueError("mode must be 'modp' or 'exact'")
    if m.nrows != m.ncols:
        raise ValueError("matrix must be square")
    if not spec.is_scalar():
        raise TypeError("verify_spectrum needs rational eigenvalues; "
                        "evaluate polynomial spectra at a point first")
    rng = rng or random.Random()
    n = m.nrows
    report = SpectrumReport(label or f"matrix of order {n}", n, mode)
    arr = m.as_int_array()
    if not assume_diagonalizable and not np.array_equal(arr, arr.T):
        raise ValueError("matrix must be symmetric")

    report.add("order", spec.order == n, f"claimed order {spec.order}, matrix order {n}")
    if not report.ok:
        return report

    distinct = spec.distinct()
    trace = m.trace()  # in Python ints: an int64 sum of the diagonal could wrap
    want_trace = sum(val * mult for val, mult in distinct)
    report.add("trace", trace == want_trace,
               f"trace {trace}, spectral sum {want_trace}")

    # every check below runs window by window; a window's block is gathered
    # when it is used, and a matrix of one window is used as it is
    windows = _windows(arr)

    # annihilation: P y = 0 for random probes y mod two primes, or for every
    # column y of I mod the first distinct primes whose product exceeds B (exact)
    bound = 0
    if mode == "exact":
        norm = (max(int(np.abs(_block(arr, rows), dtype=np.int64).sum(axis=1).max())
                    for rows in windows)
                if n * m.mag < 1 << 63 else n * m.mag)
        bound = math.prod(Fraction(v).denominator * norm + abs(Fraction(v).numerator)
                          for v, _ in distinct)
    primes = []
    while len(primes) < (2 if mode == "modp" else 1) or math.prod(primes) <= bound:
        p = random_prime(rng)
        if p not in primes:
            primes.append(p)
    report.primes, p1 = tuple(primes), primes[0]
    if mode == "modp":
        probes = np.array([[rng.randrange(p) for _ in range(n)] for p in primes
                           for _ in range(PROBES)], dtype=np.float64).T.copy()
        detail = f"{2 * PROBES} probes over primes {p1}, {primes[1]}"
    else:
        detail = f"all {n} columns of I mod primes {primes}, product > B = {bound}"
    values, fails = [v for v, _ in distinct], set()
    for rows in windows:
        if mode == "modp":
            blocks = [(range(PROBES), probes[rows])]
        else:
            blocks = ((rows[c:c + EYE_BLOCK],
                       np.tile(np.eye(len(rows), min(EYE_BLOCK, len(rows) - c), -c), len(primes)))
                      for c in range(0, len(rows), EYE_BLOCK))
        fails |= _annihilation_failures(_block(arr, rows), m.mag, values, primes, blocks)
    # listed as the unsplit matrix lists them: by block of columns, prime, column
    fails = [f"column {c} mod {primes[i]}"
             for c, i in sorted(fails, key=lambda f: (f[0] // EYE_BLOCK, f[1], f[0]))]
    report.add("annihilation", not fails,
               detail + (f"; {len(fails)} failed, first {fails[0]}" if fails else ""))

    # multiplicities: rank(M - lambda I) = order - mult(lambda), the sum of
    # the windows' ranks.  Each eigenvalue seeds its own retry substream, in
    # eigenvalue order, whether it retries or not, so one retry never changes
    # the primes of the next.
    def rank(val, p):
        return windowed_rank(m, p, _centred_residue(val, p), windows)

    for val, mult in distinct:
        stream = random.Random(rng.getrandbits(64))
        want = n - mult
        got = rank(val, p1)
        if got != want:
            # rank mod p can undershoot the rational rank for unlucky primes
            retry = random_prime(stream)
            report.primes += (retry,)
            got = rank(val, retry)
        report.add(f"multiplicity[{val}]", got == want,
                   f"rank(M - {val} I) = {got}, expected {want} (mult {mult})")
    return report


def sampled_eval_points() -> Sequence[Fraction]:
    """Rational sample points used to verify polynomial-valued spectra."""
    return (Fraction(1), Fraction(2), Fraction(-2))
