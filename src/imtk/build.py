"""Constructors for the intersection-matrix families.

Every matrix is built entrywise from its theta = |S cap K| formula (never
from product identities, which stay independent verification routes).  The
supported kinds:

    W       inclusion: 1 iff S is contained in K
    Wbar    exclusion: 1 iff S and K are disjoint
    U(l)    indicator of theta = l
    Uge(l)  indicator of theta >= l
    A(i)    C(theta, i)
    N(t)    C(theta - 1, t)
    F(t)    polynomial entry psi_{theta,t}(z); t = None means min(s, k)
    Utl(t,l)  coefficient of (z+1)^l in F(t), entry (-1)^(t-l) C(theta,l) C(theta-l-1, t-l)
    X(s,t;k)  entry xi^k_{theta,t}(z), rows s-subsets, columns t-subsets
    Y(s,t;k,l) rational entry with F/U factorizations through W_{tk}

Subset order is lexicographic everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .combinat import SubsetFamily, binomial, psi, xi, xi_at_minus1
from .exactalg import ExactMatrix, Poly

_ALL_TAGS = {"W", "Wbar", "U", "Uge", "A", "N", "Utl", "F", "X", "Y"}


@dataclass(frozen=True)
class MatrixKind:
    """A matrix family member: tag plus its parameters.

    Rows are indexed by s-subsets; columns by k-subsets, except X and Y whose
    columns are t-subsets (k is a formula parameter there).
    """

    tag: str
    v: int
    s: int
    k: int
    t: int | None = None
    l: int | None = None
    i: int | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.tag not in _ALL_TAGS:
            raise ValueError(f"unknown kind tag {self.tag!r}")
        v, s, k = self.v, self.s, self.k
        if v < 0 or not 0 <= s <= v:
            raise ValueError(f"invalid subset sizes s={s}, v={v}")
        if self.tag in ("X", "Y"):
            if self.t is None or not 0 <= self.t <= k <= v:
                raise ValueError(f"{self.tag} needs 0 <= t <= k <= v")
            if self.tag == "Y" and (self.l is None or not 0 <= self.l <= self.t):
                raise ValueError("Y needs 0 <= l <= t")
            return
        if not 0 <= k <= v:
            raise ValueError(f"invalid subset sizes k={k}, v={v}")
        if self.tag in ("U", "Uge"):
            if self.l is None or self.l < 0:
                raise ValueError(f"{self.tag} needs l >= 0")
        elif self.tag == "A":
            if self.i is None or self.i < 0:
                raise ValueError("A needs i >= 0")
        elif self.tag == "N":
            if self.t is None or self.t < 0:
                raise ValueError("N needs t >= 0")
        elif self.tag == "F":
            if self.t is not None and self.t < 0:
                raise ValueError("F needs t >= 0")
        elif self.tag == "Utl":
            if self.t is None or self.l is None or self.t < 0 or self.l < 0:
                raise ValueError("Utl needs t >= 0 and l >= 0")

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
        v, s = self.v, self.s
        if self.tag == "W":
            return f"W[{s},{self.k}]({v})"
        if self.tag == "Wbar":
            return f"Wbar[{s},{self.k}]({v})"
        if self.tag in ("U", "Uge"):
            op = ">=" if self.tag == "Uge" else ""
            return f"U^{op}{self.l}[{s},{self.k}]({v})"
        if self.tag == "A":
            return f"A^{self.i}[{s},{self.k}]({v})"
        if self.tag == "N":
            return f"N^{self.t}[{s},{self.k}]({v})"
        if self.tag == "F":
            return f"F^{self.effective_t()}[{s},{self.k}]({v})(z)"
        if self.tag == "Utl":
            return f"U^({self.t},{self.l})[{s},{self.k}]({v})"
        if self.tag == "X":
            return f"X^{self.k}[{s},{self.t}]({v})(z)"
        return f"Y^({self.k},{self.l})[{s},{self.t}]({v})"


def W(s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("W", v, s, k)


def Wbar(s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("Wbar", v, s, k)


def U(l: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("U", v, s, k, l=l)


def Uge(l: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("Uge", v, s, k, l=l)


def A(i: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("A", v, s, k, i=i)


def N(t: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("N", v, s, k, t=t)


def F(t: int | None, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("F", v, s, k, t=t)


def Utl(t: int, l: int, s: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("Utl", v, s, k, t=t, l=l)


def X(s: int, t: int, k: int, v: int) -> MatrixKind:
    return MatrixKind("X", v, s, k, t=t)


def Y(s: int, t: int, k: int, l: int, v: int) -> MatrixKind:
    return MatrixKind("Y", v, s, k, t=t, l=l)


# one shared SubsetFamily per (v, s), so the tags of a cached matrix cost nothing
_family = lru_cache(maxsize=1024)(SubsetFamily)


# ---------------------------------------------------------------------------
# theta matrices

_theta_cache: dict[tuple[int, int, int], np.ndarray] = {}
_THETA_CACHE_LIMIT = 1 << 20  # cache only arrays up to ~8 MB


def membership_matrix(v: int, s: int) -> np.ndarray:
    """0/1 matrix, one row per s-subset in lex order, columns the ground set."""
    fam = SubsetFamily(v, s)
    out = np.zeros((len(fam), v), dtype=np.int64)
    for r, sub in enumerate(fam.subsets()):
        for x in sub:
            out[r, x - 1] = 1
    return out


def theta_matrix(v: int, a: int, b: int) -> np.ndarray:
    """Matrix of intersection sizes |S cap K| over (a-subset, b-subset) pairs."""
    key = (v, a, b)
    got = _theta_cache.get(key)
    if got is not None:
        return got
    arr = membership_matrix(v, a) @ membership_matrix(v, b).T
    arr.setflags(write=False)
    if arr.size <= _THETA_CACHE_LIMIT:
        _theta_cache[key] = arr
    return arr


# ---------------------------------------------------------------------------
# entrywise construction

def _utl_entry(theta: int, t: int, l: int) -> int:
    if l > t:
        return 0
    return (-1) ** (t - l) * binomial(theta, l) * binomial(theta - l - 1, t - l)


def _y_entry(theta: int, t: int, k: int, l: int) -> Fraction:
    # Taylor coefficient of xi at z = -1: C(theta, l) * xi^{k-l}_{theta-l, t-l}(-1)
    if theta < l:
        return Fraction(0)
    return binomial(theta, l) * xi_at_minus1(theta - l, t - l, k - l)


def _entries(kind: MatrixKind) -> list:
    tag, thetas = kind.tag, range(min(kind.row_size, kind.col_size) + 1)
    if tag == "W":
        return [1 if th == kind.s else 0 for th in thetas]
    if tag == "Wbar":
        return [1 if th == 0 else 0 for th in thetas]
    if tag == "U":
        return [1 if th == kind.l else 0 for th in thetas]
    if tag == "Uge":
        return [1 if th >= kind.l else 0 for th in thetas]
    if tag == "A":
        return [binomial(th, kind.i) for th in thetas]
    if tag == "N":
        return [binomial(th - 1, kind.t) for th in thetas]
    if tag == "Utl":
        return [_utl_entry(th, kind.t, kind.l) for th in thetas]
    if tag == "F":
        return [psi(th, kind.effective_t()) for th in thetas]
    if tag == "X":
        return [xi(th, kind.t, kind.k) for th in thetas]
    return [_y_entry(th, kind.t, kind.k, kind.l) for th in thetas]


# build keeps the _BUILT_MAX most recently used matrices of at most
# _BUILT_ENTRIES stack entries each (16 MB of int64 in all); larger ones are
# built on every call.  A built matrix is read-only, so callers share it.
_BUILT_MAX = 2048
_BUILT_ENTRIES = 1 << 10
_built: dict[tuple, ExactMatrix] = {}  # in order of last use


def build(kind: MatrixKind) -> ExactMatrix:
    """Construct the matrix for ``kind`` entrywise from its theta formula.

    The entries per theta form a one-row coefficient table; indexing its
    columns by the theta matrix gives the coefficient stack of the result.
    A small matrix is built once, then served from a bounded LRU cache.
    """
    key = (kind.tag, kind.v, kind.s, kind.k, kind.t, kind.l, kind.i)
    got = _built.pop(key, None)
    if got is not None:
        _built[key] = got
        return got
    theta = theta_matrix(kind.v, kind.row_size, kind.col_size)
    table = ExactMatrix([_entries(kind)])
    m = ExactMatrix(table.stack[:, 0].take(theta, axis=1), kind.row_family,
                    kind.col_family, table.den)
    if m.stack.size <= _BUILT_ENTRIES:
        _built[key] = m
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

_BLOCK_PARTS = ("i", "ii", "iii", "iv", "v", "vi")


def _safe_build(tag: str, w: int, s: int, k: int, **extra) -> ExactMatrix:
    """Build at ground size w, degenerating to an empty matrix when a subset
    size exceeds w (happens at the s = v or k = v boundary of the split)."""
    if s > w or k > w or s < 0 or k < 0:
        return ExactMatrix.zeros(binomial(w, s), binomial(w, k))
    return build(MatrixKind(tag, w, s, k, **extra))


def _expected_blocks(kind: MatrixKind, part: str):
    v, s, k = kind.v, kind.s, kind.k
    w = v - 1

    def top_left(*terms):  # sum c * _safe_build(tag, w, s-1, k-1, **extra), c != 0
        return ExactMatrix.lincomb([(c, _safe_build(tag, w, s - 1, k - 1, **extra))
                                    for c, tag, extra in terms if c],
                                   binomial(w, s - 1), binomial(w, k - 1))

    if part == "i":
        t = kind.effective_t()
        tl = top_left((Poly([0] * t + [1]), "A", {"i": t}),
                      (Poly((1, 1)) if t >= 1 else 0, "F", {"t": t - 1}))
        return (tl, _safe_build("F", w, s - 1, k, t=t),
                _safe_build("F", w, s, k - 1, t=t), _safe_build("F", w, s, k, t=t))
    if part == "ii":
        tl = _safe_build("F", w, s - 1, k - 1).scale(Poly((1, 1)))
        return (tl, _safe_build("F", w, s - 1, k), _safe_build("F", w, s, k - 1),
                _safe_build("F", w, s, k))
    if part == "iii":
        t, l = kind.t, kind.l
        tl = top_left(((-1) ** (t - l) * binomial(t, l), "A", {"i": t}),
                      (int(t >= 1 and l >= 1), "Utl", {"t": t - 1, "l": l - 1}))
        return (tl, _safe_build("Utl", w, s - 1, k, t=t, l=l),
                _safe_build("Utl", w, s, k - 1, t=t, l=l),
                _safe_build("Utl", w, s, k, t=t, l=l))
    if part == "iv":
        l = kind.l
        tl = (_safe_build("U", w, s - 1, k - 1, l=l - 1) if l >= 1
              else ExactMatrix.zeros(binomial(w, s - 1), binomial(w, k - 1)))
        return (tl, _safe_build("U", w, s - 1, k, l=l),
                _safe_build("U", w, s, k - 1, l=l), _safe_build("U", w, s, k, l=l))
    if part == "v":
        t = kind.t
        return (_safe_build("A", w, s - 1, k - 1, i=t),
                _safe_build("N", w, s - 1, k, t=t),
                _safe_build("N", w, s, k - 1, t=t), _safe_build("N", w, s, k, t=t))
    if part == "vi":
        t = kind.i
        tl = top_left((1, "A", {"i": t}), (int(t >= 1), "A", {"i": t - 1}))
        return (tl, _safe_build("A", w, s - 1, k, i=t),
                _safe_build("A", w, s, k - 1, i=t), _safe_build("A", w, s, k, i=t))
    raise ValueError(f"unknown decomposition part {part!r}")


_PART_TAGS = {"i": "F", "ii": "F", "iii": "Utl", "iv": "U", "v": "N", "vi": "A"}


def block_decompose(kind: MatrixKind, part: str):
    """Split build(kind) at row C(v-1, s-1), column C(v-1, k-1).

    Returns (actual_blocks, expected_blocks), each a (TL, TR, BL, BR) tuple;
    the expected blocks are built from order-(v-1) constructors.
    """
    if part not in _BLOCK_PARTS:
        raise ValueError(f"part must be one of {_BLOCK_PARTS}")
    if kind.tag != _PART_TAGS[part]:
        raise ValueError(f"part ({part}) applies to kind {_PART_TAGS[part]}, not {kind.tag}")
    if part == "ii" and kind.t is not None and kind.t != min(kind.s, kind.k):
        raise ValueError("part (ii) applies to the untruncated F matrix")
    if kind.s == 0 or kind.k == 0 or kind.v == 0:
        raise ValueError("degenerate split: need s, k, v >= 1")
    m = build(kind)
    r0 = binomial(kind.v - 1, kind.s - 1)
    c0 = binomial(kind.v - 1, kind.k - 1)
    actual = (m.submatrix(0, r0, 0, c0), m.submatrix(0, r0, c0, m.ncols),
              m.submatrix(r0, m.nrows, 0, c0), m.submatrix(r0, m.nrows, c0, m.ncols))
    return actual, _expected_blocks(kind, part)
