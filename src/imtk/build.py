"""Constructors for the intersection-matrix families.

Every matrix is built entrywise from its theta = |S cap K| formula (never
from product identities, which stay independent verification routes).  The
ten kinds are declared once, in ``KINDS``.  Subset order is lexicographic
everywhere.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from .combinat import SubsetFamily, binomial, psi, xi, xi_at_minus1
from .exactalg import ExactMatrix, Poly


def _utl_entry(theta: int, m: MatrixKind) -> int:
    # coefficient of (z+1)^l in psi_{theta,t}(z)
    if m.l > m.t:
        return 0
    return (-1) ** (m.t - m.l) * binomial(theta, m.l) * binomial(theta - m.l - 1, m.t - m.l)


def _y_entry(theta: int, m: MatrixKind) -> Fraction:
    # Taylor coefficient of xi at z = -1: C(theta, l) * xi^{k-l}_{theta-l, t-l}(-1)
    if theta < m.l:
        return Fraction(0)
    return binomial(theta, m.l) * xi_at_minus1(theta - m.l, m.t - m.l, m.k - m.l)


# tag -> (required parameters, label, entry at theta).  In a label T stands
# for the effective t.  X and Y index their columns by t-subsets.
KINDS = {
    "W": ((), "W[{s},{k}]({v})", lambda th, m: int(th == m.s)),  # S in K
    "Wbar": ((), "Wbar[{s},{k}]({v})", lambda th, m: int(th == 0)),  # S, K disjoint
    "U": (("l",), "U^{l}[{s},{k}]({v})", lambda th, m: int(th == m.l)),
    "Uge": (("l",), "U^>={l}[{s},{k}]({v})", lambda th, m: int(th >= m.l)),
    "A": (("i",), "A^{i}[{s},{k}]({v})", lambda th, m: binomial(th, m.i)),
    "N": (("t",), "N^{t}[{s},{k}]({v})", lambda th, m: binomial(th - 1, m.t)),
    # t = None means min(s, k)
    "F": ((), "F^{T}[{s},{k}]({v})(z)", lambda th, m: psi(th, m.effective_t())),
    "Utl": (("t", "l"), "U^({t},{l})[{s},{k}]({v})", _utl_entry),
    "X": (("t",), "X^{k}[{s},{t}]({v})(z)", lambda th, m: xi(th, m.t, m.k)),
    "Y": (("t", "l"), "Y^({k},{l})[{s},{t}]({v})", _y_entry),
}


@dataclass(frozen=True, slots=True)
class MatrixKind:
    """A matrix family member: tag plus its parameters.

    Rows are indexed by s-subsets; columns by k-subsets, except X and Y whose
    columns are t-subsets (k is a formula parameter there).  A parameter the
    tag does not use may be given but not negative.
    """

    tag: str
    v: int
    s: int
    k: int
    t: int | None = None
    l: int | None = None
    i: int | None = None

    def __post_init__(self):
        if self.tag not in KINDS:
            raise ValueError(f"unknown kind tag {self.tag!r}")
        need = KINDS[self.tag][0]
        v, s, k, t, l, i = self.v, self.s, self.k, self.t, self.l, self.i
        if v < 0 or not 0 <= s <= v or not 0 <= k <= v:
            raise ValueError(f"invalid subset sizes s={s}, k={k}, v={v}")
        if (t is None and "t" in need or l is None and "l" in need
                or i is None and "i" in need):
            raise ValueError(f"kind {self.tag} requires {', '.join(need)}")
        if (t is not None and t < 0 or l is not None and l < 0
                or i is not None and i < 0):
            raise ValueError("t, l and i must be >= 0")
        if self.tag == "X" and t > k:
            raise ValueError("X needs t <= k")
        if self.tag == "Y" and not l <= t <= k:
            raise ValueError("Y needs l <= t <= k")

    @property
    def row_size(self) -> int:
        return self.s

    @property
    def col_size(self) -> int:
        return self.t if self.tag in ("X", "Y") else self.k

    @property
    def row_family(self) -> SubsetFamily:
        return _family(self.v, self.row_size)

    @property
    def col_family(self) -> SubsetFamily:
        return _family(self.v, self.col_size)

    def effective_t(self) -> int:
        if self.tag == "F" and self.t is None:
            return min(self.s, self.k)
        return self.t  # type: ignore[return-value]

    def describe(self) -> str:
        return KINDS[self.tag][1].format(T=self.effective_t(), **asdict(self))


# The kind constructors are memoized: the identity suite asks for the same
# few thousand kinds tens of thousands of times, and a frozen MatrixKind can
# be shared.  A call that raises is not cached, so it raises every time.
# Uge, X and Y are not: the suite asks for each of their kinds once.
_memo = lru_cache(maxsize=4096)


@_memo
def W(s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("W", v, s, k)


@_memo
def Wbar(s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("Wbar", v, s, k)


@_memo
def U(l: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("U", v, s, k, l=l)


def Uge(l: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("Uge", v, s, k, l=l)


@_memo
def A(i: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("A", v, s, k, i=i)


@_memo
def N(t: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("N", v, s, k, t=t)


@_memo
def F(t: int | None, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("F", v, s, k, t=t)


@_memo
def Utl(t: int, l: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("Utl", v, s, k, t=t, l=l)


def X(s: int, t: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("X", v, s, k, t=t)


def Y(s: int, t: int, k: int, l: int, v: int) -> MatrixKind:
    return MatrixKind("Y", v, s, k, t=t, l=l)


# one shared SubsetFamily per (v, s), so the tags of a cached matrix cost nothing
_family = lru_cache(maxsize=1024)(SubsetFamily)


# ---------------------------------------------------------------------------
# theta matrices, whole and by region

_theta_cache: dict[tuple[int, int, int], np.ndarray] = {}
_THETA_CACHE_LIMIT = 8 << 20  # bytes: cache only theta arrays up to 8 MB
# a matrix of more entries than this is made region by region (_regions)
_REGION_ENTRIES = 1 << 16


def membership_matrix(v: int, s: int) -> np.ndarray:
    """0/1 float32 matrix, one row per s-subset in lex order, columns the ground set.

    For s > v / 2 it is made from the complements, whose lex order is the
    reverse, so that the subsets walked in Python have at most v / 2 elements.
    """
    if 2 * s > v:
        return 1 - membership_matrix(v, v - s)[::-1]
    fam = _family(v, s)
    members = np.fromiter(chain.from_iterable(fam.subsets()), np.intp, len(fam) * s)
    out = np.zeros((len(fam), v), dtype=np.float32)
    out[np.arange(len(fam)).repeat(s), members - 1] = 1
    return out


def _theta_dtype(a: int, b: int) -> np.dtype:
    return np.dtype(np.int8 if min(a, b) <= 127 else np.int64)


@lru_cache(maxsize=256)
def _regions(v: int, a: int, b: int, limit: int) -> tuple:
    """The (a-subset, b-subset) matrix over [v] cut into regions of at most
    ``limit`` entries, each as (rows, cols, key): two slices and the key
    (w, a', b', c).

    In lex order the a-subsets that hold 1 come first, and those with and
    those without 1 are each in the lex order of their rest over {2..v};
    so, as in the paper's block decompositions, the matrix splits into four
    blocks, each a theta over [v - 1], the first one plus 1.  A block of
    more than ``limit`` entries is split again at its next element, so a
    region is the a'-subsets by the b'-subsets of the last w elements, all
    its rows sharing one prefix P on the first v - w and all its columns
    one prefix Q: theta_matrix(w, a', b') shifted by c = |P cap Q|.  The
    regions are sorted by key, so the regions of one key are adjacent.
    """
    out = []

    def split(r0, c0, w, a, b, c):
        rows, cols = binomial(w, a), binomial(w, b)
        if not rows or not cols:
            return
        if rows * cols <= limit:
            out.append((slice(r0, r0 + rows), slice(c0, c0 + cols), (w, a, b, c)))
            return
        r1, c1 = r0 + binomial(w - 1, a - 1), c0 + binomial(w - 1, b - 1)
        split(r0, c0, w - 1, a - 1, b - 1, c + 1)  # both hold the next element
        split(r0, c1, w - 1, a - 1, b, c)
        split(r1, c0, w - 1, a, b - 1, c)
        split(r1, c1, w - 1, a, b, c)

    split(0, 0, v, a, b, 0)
    return tuple(sorted(out, key=lambda r: r[2]))


def _region_blocks(table: np.ndarray, v: int, a: int, b: int):
    """(rows, cols, block) for each region of the (a, b) matrix over [v]:
    ``table``, indexed by theta on its last axis, taken at theta over the
    region, that is table[..., c:] at theta_matrix(w, a', b') for the key
    (w, a', b', c).  Each key's block is made once, for all its regions.
    """
    key = block = None
    for rows, cols, k in _regions(v, a, b, _REGION_ENTRIES):
        if k != key:
            key, (w, a2, b2, c) = k, k
            block = table[..., c:].take(theta_matrix(w, a2, b2), axis=-1)
        yield rows, cols, block


def _taken(table: np.ndarray, v: int, a: int, b: int) -> np.ndarray:
    """``table``, indexed by theta on its last axis, taken at
    theta_matrix(v, a, b): one take up to _REGION_ENTRIES entries, else
    filled region by region, with no theta of more entries made."""
    if binomial(v, a) * binomial(v, b) <= _REGION_ENTRIES:
        return table.take(theta_matrix(v, a, b), axis=-1)
    out = np.empty((*table.shape[:-1], binomial(v, a), binomial(v, b)), dtype=table.dtype)
    for rows, cols, block in _region_blocks(table, v, a, b):
        out[..., rows, cols] = block
    return out


def theta_matrix(v: int, a: int, b: int) -> np.ndarray:
    """Matrix of intersection sizes |S cap K| over (a-subset, b-subset) pairs.

    Up to _REGION_ENTRIES entries it is one float32 product of membership
    matrices, exact since each entry and partial sum counts common elements,
    at most min(a, b) < 2^24.  A larger theta is assembled from the thetas
    of its regions (``_regions``).  The result is int8 while
    min(a, b) <= 127, else int64, and it is cached up to _THETA_CACHE_LIMIT
    bytes.
    """
    key = (v, a, b)
    got = _theta_cache.get(key)
    if got is None:
        dtype = _theta_dtype(a, b)
        if binomial(v, a) * binomial(v, b) <= _REGION_ENTRIES:
            got = (membership_matrix(v, a) @ membership_matrix(v, b).T).astype(dtype)
        else:
            got = _taken(np.arange(min(a, b) + 1, dtype=dtype), v, a, b)
        got.setflags(write=False)
        if got.nbytes <= _THETA_CACHE_LIMIT:
            _theta_cache[key] = got
    return got


# ---------------------------------------------------------------------------
# entrywise construction

def _entries(kind: MatrixKind) -> list:
    entry = KINDS[kind.tag][2]
    return [entry(th, kind) for th in range(min(kind.row_size, kind.col_size) + 1)]


# the narrow stack widths, each with the largest |entry| of its symmetric range
_WIDTHS = ((1 << 7) - 1, np.int8), ((1 << 15) - 1, np.int16), ((1 << 31) - 1, np.int32)


def _table(entries: list) -> tuple[np.ndarray, int]:
    """The entries per theta as a coefficient table, one row per degree, at
    the width ``build`` stores (see there), and its common denominator.

    A table of ints, or of Polys with int coefficients (F's psi), is one
    array, its width found by comparisons; a table with Fraction entries or
    coefficients goes through ``ExactMatrix``'s canonical form.  Both give
    the stack, width and den that the other would.
    """
    if all(type(x) is int for x in entries):
        rows = [entries]
    elif all(type(x) is Poly and all(type(c) is int for c in x.coeffs) for x in entries):
        rows = [[x.coeff(d) for x in entries]
                for d in range(max(len(x.coeffs) for x in entries) or 1)]
    else:
        table = ExactMatrix([entries])
        coef = table.stack[:, 0]
        width = next((w for top, w in _WIDTHS if table.mag <= top), coef.dtype)
        return coef.astype(width, copy=False), table.den
    lo, hi = min(map(min, rows)), max(map(max, rows))
    wide = np.int64 if -(1 << 63) <= lo and hi < 1 << 63 else object
    width = next((w for top, w in _WIDTHS if max(hi, -lo) <= top), wide)
    return np.array(rows, dtype=width), 1


# build keeps the _BUILT_MAX most recently used matrices of at most
# _BUILT_ENTRIES stack entries each (at most 16 MB in all, at 8 bytes an
# entry); larger ones are built on every call.  A built matrix is read-only,
# so callers share it.
_BUILT_MAX = 2048
_BUILT_ENTRIES = 1 << 10
_built: dict[MatrixKind, ExactMatrix] = {}  # in order of last use


def build(kind: MatrixKind) -> ExactMatrix:
    """Construct the matrix for ``kind`` entrywise from its theta formula.

    The entries per theta form a coefficient table, one row per degree;
    indexing its columns by the theta matrix gives the coefficient stack of
    the result.  The stack has the narrowest of int8, int16 and int32 whose
    range, taken symmetric (so int8 holds -127..127, never -128), holds
    every entry of the table; otherwise the table's own int64, or Python
    ints where an entry does not fit int64.  Arithmetic widens a stack
    before it computes, so the width only saves memory.  A matrix of at
    most _REGION_ENTRIES entries is one take at its theta; a larger one is
    filled region by region (``_taken``) from the small thetas of its
    regions, so no theta of its own size is ever made.  A small matrix is
    built once, then served from a bounded LRU cache.
    """
    got = _built.pop(kind, None)
    if got is not None:
        _built[kind] = got
        return got
    v, a, b = kind.v, kind.row_size, kind.col_size
    coef, den = _table(_entries(kind))
    stack = _taken(coef, v, a, b)
    stack.setflags(write=False)
    m = ExactMatrix(stack, kind.row_family, kind.col_family, den)
    if m.stack.size <= _BUILT_ENTRIES:
        _built[kind] = m
        if len(_built) > _BUILT_MAX:
            del _built[next(iter(_built))]
    return m


def row_support_formula(t: int, l: int, s: int, k: int, v: int) -> int:
    """Support of each row of U^{t,l}_{sk}: sum over theta in {l} u {t+1..min(s,k)}."""
    if not 0 <= l <= t <= min(s, k):
        raise ValueError("need 0 <= l <= t <= min(s, k)")
    thetas = {l} | set(range(t + 1, min(s, k) + 1))
    return sum(binomial(s, th) * binomial(v - s, k - th) for th in thetas)


# ---------------------------------------------------------------------------
# block decompositions (split after the subsets containing the element 1)

def _safe_build(tag: str, w: int, s: int, k: int, **extra) -> ExactMatrix:
    """Build at ground size w, degenerating to an empty matrix when a subset
    size exceeds w (happens at the s = v or k = v boundary of the split)."""
    if s > w or k > w or s < 0 or k < 0:
        return ExactMatrix.zeros(binomial(w, s), binomial(w, k))
    return build(MatrixKind(tag, w, s, k, **extra))


# Where S and K both contain 1, theta is one more than on S - {1}, K - {1}:
# tag -> terms (c, tag', params') of that top-left block as a sum of
# c * tag'_{s-1,k-1}(v-1), from the effective t, l and i.  A term with c = 0
# is left out, and so is A^i_{s-1,k-1} for i > min(s-1, k-1), which is zero
# (F's A^t term at t = min(s, k) is one).
_TOP_LEFT = {
    "F": lambda t, l, i: ((Poly([0] * t + [1]), "A", {"i": t}),
                          (Poly((1, 1)) if t else 0, "F", {"t": t - 1})),
    "Utl": lambda t, l, i: (((-1) ** (t - l) * binomial(t, l), "A", {"i": t}),
                            (int(t >= 1 and l >= 1), "Utl", {"t": t - 1, "l": l - 1})),
    "U": lambda t, l, i: ((int(l >= 1), "U", {"l": l - 1}),),
    "N": lambda t, l, i: ((1, "A", {"i": t}),),
    "A": lambda t, l, i: ((1, "A", {"i": i}), (int(i >= 1), "A", {"i": i - 1})),
}


def block_decompose(kind: MatrixKind):
    """Split build(kind) at row C(v-1, s-1), column C(v-1, k-1).

    Returns (actual_blocks, expected_blocks), each a (TL, TR, BL, BR) tuple.
    The expected blocks come from order-(v-1) constructors: TR, BL and BR
    are the same kind at sizes (s-1, k), (s, k-1) and (s, k), and TL is the
    sum that the paper's parts (i)-(vi) give for F, U^{t,l}, U^l, N^t and
    A^i (part (ii), the untruncated F, is part (i) at t = min(s, k)).
    """
    if kind.tag not in _TOP_LEFT:
        raise ValueError(f"no block decomposition for kind {kind.tag}")
    v, s, k = kind.v, kind.s, kind.k
    if s == 0 or k == 0 or v == 0:
        raise ValueError("degenerate split: need s, k, v >= 1")
    m = build(kind)
    r0, c0 = binomial(v - 1, s - 1), binomial(v - 1, k - 1)
    actual = (m.submatrix(0, r0, 0, c0), m.submatrix(0, r0, c0, m.ncols),
              m.submatrix(r0, m.nrows, 0, c0), m.submatrix(r0, m.nrows, c0, m.ncols))
    w = v - 1
    terms = [(c, tag, params) for c, tag, params
             in _TOP_LEFT[kind.tag](kind.effective_t(), kind.l, kind.i)
             if c and not (tag == "A" and params["i"] > min(s, k) - 1)]
    if len(terms) == 1 and terms[0][0] == 1:  # a lone unit term is a plain build
        tl = _safe_build(terms[0][1], w, s - 1, k - 1, **terms[0][2])
    else:
        tl = ExactMatrix.lincomb([(c, _safe_build(tag, w, s - 1, k - 1, **params))
                                  for c, tag, params in terms], r0, c0)
    return actual, (tl, *(_safe_build(kind.tag, w, a, b, t=kind.t, l=kind.l, i=kind.i)
                          for a, b in ((s - 1, k), (s, k - 1), (s, k))))
