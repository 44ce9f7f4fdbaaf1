"""Exact dense linear algebra over rationals and univariate polynomials.

Scalars are Python ints or ``fractions.Fraction``; polynomial entries are
``Poly`` objects in the indeterminate z.  Matrices are immutable after
construction and all arithmetic is exact.  The mod-p kernels are exact too.
The mat-vec runs on numpy int64 in column chunks sized so that partial sums
stay below 2^62.  Gaussian rank is blocked elimination on float64 whose
products are BLAS GEMMs: residues are centred in (-p/2, p/2], so a product
with inner dimension nb is exact while nb * ((p-1)/2)^2 + p < 2^53 (see
``_panel_plan``).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .combinat import SubsetFamily

Scalar = int | Fraction


def _canon_scalar(x):
    """Demote integral Fractions to int; leave ints alone."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return x


class Poly:
    """Univariate polynomial, coefficients lowest degree first, no trailing zeros.

    The zero polynomial has empty coefficients and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_canon_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self):
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -Poly._lift(other))

    def __rsub__(self, other):
        return Poly._lift(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @staticmethod
    def _lift(x) -> "Poly":
        return x if isinstance(x, Poly) else Poly((x,))

    def derive(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def eval(self, a: Scalar):
        v = 0
        for c in reversed(self.coeffs):
            v = v * a + c
        return _canon_scalar(Fraction(v)) if isinstance(v, Fraction) else v

    def shift_basis(self, c: Scalar) -> list:
        """Coefficients a_l with p(z) = sum a_l (z - c)^l, by synthetic division."""
        out = []
        cur = list(self.coeffs)
        for _ in range(len(self.coeffs)):
            n = len(cur) - 1
            q = [0] * n
            acc = 0
            for i in range(n, 0, -1):
                acc = cur[i] + acc * c
                q[i - 1] = acc
            rem = cur[0] + (acc * c if n >= 1 else 0)
            out.append(_canon_scalar(rem))
            cur = q
        return out

    def divexact_linear(self, c: Scalar, e: int = 1) -> "Poly":
        """Exact division by (z - c)^e; raises if any remainder is nonzero."""
        cur = self
        for _ in range(e):
            coefs = list(cur.coeffs)
            if not coefs:
                cur = Poly()
                continue
            q = [0] * (len(coefs) - 1)
            acc = 0
            for i in range(len(coefs) - 1, 0, -1):
                acc = coefs[i] + acc * c
                q[i - 1] = acc
            rem = coefs[0] + acc * c
            if rem != 0:
                raise ValueError(f"polynomial not divisible by (z - {c})")
            cur = Poly(q)
        return cur

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return "Poly(" + " + ".join(terms) + ")"


Z = Poly((0, 1))
ONE = Poly((1,))


def poly_derive(p: Poly) -> Poly:
    return Poly._lift(p).derive()


def poly_eval(p: Poly, a: Scalar):
    return Poly._lift(p).eval(a)


def poly_shift_basis(p: Poly, c: Scalar) -> list:
    return Poly._lift(p).shift_basis(c)


def _canon_entry(x):
    """Normalize a matrix entry: constant Poly -> scalar, integral Fraction -> int."""
    if isinstance(x, Poly):
        return _canon_scalar(x.constant_value()) if x.is_constant() else x
    return _canon_scalar(x)


# ---------------------------------------------------------------------------
# integer / rational / polynomial matrix kernels

_INT64_SAFE = 1 << 62


def _int_matmul(a_rows, b_rows, inner: int):
    """Exact integer matmul; numpy int64 when magnitudes allow, else Python ints."""
    if inner == 0:
        return [[0] * (len(b_rows[0]) if b_rows else 0) for _ in a_rows]
    max_a = max((abs(x) for row in a_rows for x in row), default=0)
    max_b = max((abs(x) for row in b_rows for x in row), default=0)
    if max_a and max_b and inner * max_a * max_b < _INT64_SAFE:
        arr = np.array(a_rows, dtype=np.int64) @ np.array(b_rows, dtype=np.int64)
        return arr.tolist()
    bt = list(zip(*b_rows))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a_rows]


def _scalar_matmul(a_rows, b_rows, inner: int):
    """Exact matmul of scalar (int/Fraction) matrices via denominator scaling."""
    da = 1
    for row in a_rows:
        for x in row:
            if isinstance(x, Fraction):
                da = da * x.denominator // _gcd(da, x.denominator)
    db = 1
    for row in b_rows:
        for x in row:
            if isinstance(x, Fraction):
                db = db * x.denominator // _gcd(db, x.denominator)
    if da == 1 and db == 1:
        return _int_matmul(a_rows, b_rows, inner)
    ai = [[int(x * da) for x in row] for row in a_rows]
    bi = [[int(x * db) for x in row] for row in b_rows]
    prod = _int_matmul(ai, bi, inner)
    d = da * db
    return [[_canon_scalar(Fraction(x, d)) for x in row] for row in prod]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


class ExactMatrix:
    """Dense exact matrix; entries are int, Fraction, or Poly.

    Optionally tagged with the subset families indexing rows and columns;
    tags propagate through arithmetic and are checked on multiplication.
    """

    __slots__ = ("nrows", "ncols", "data", "row_family", "col_family", "_int_cache")

    def __init__(self, data: Sequence[Sequence], row_family=None, col_family=None,
                 _canon: bool = True):
        rows = [list(r) for r in data]
        if _canon:
            rows = [[_canon_entry(x) for x in r] for r in rows]
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix data")
        self.data = rows
        self.row_family = row_family
        self.col_family = col_family
        self._int_cache = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   _canon=False)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, row_family=None, col_family=None) -> "ExactMatrix":
        return cls([[0] * ncols for _ in range(nrows)], row_family, col_family,
                   _canon=False)

    @classmethod
    def ones(cls, nrows: int, ncols: int, row_family=None, col_family=None) -> "ExactMatrix":
        return cls([[1] * ncols for _ in range(nrows)], row_family, col_family,
                   _canon=False)

    @classmethod
    def from_int_array(cls, arr: np.ndarray, row_family=None, col_family=None) -> "ExactMatrix":
        m = cls(arr.tolist(), row_family, col_family, _canon=False)
        m._int_cache = np.ascontiguousarray(arr, dtype=np.int64)
        return m

    # -- basic accessors ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row(self, i: int) -> list:
        return list(self.data[i])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols})"

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(self.data[i][j] == self.data[j][i]
                   for i in range(self.nrows) for j in range(i))

    def max_degree(self) -> int:
        d = 0
        for row in self.data:
            for x in row:
                if isinstance(x, Poly) and x.degree > d:
                    d = x.degree
        return d

    def all_int(self) -> bool:
        return all(isinstance(x, int) for row in self.data for x in row)

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        t = sum(self.data[i][i] for i in range(self.nrows))
        return _canon_entry(t)

    def as_int_array(self) -> np.ndarray:
        """int64 view of an integer matrix; raises on non-int or oversized entries."""
        if self._int_cache is not None:
            return self._int_cache
        for row in self.data:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("matrix has non-integer entries")
                if abs(x) >= _INT64_SAFE:
                    raise OverflowError("entry exceeds int64-safe range")
        arr = np.array(self.data, dtype=np.int64) if self.nrows else np.zeros((0, self.ncols), dtype=np.int64)
        self._int_cache = arr
        return arr

    # -- arithmetic ---------------------------------------------------------
    def map_entries(self, f) -> "ExactMatrix":
        return ExactMatrix([[f(x) for x in row] for row in self.data],
                           self.row_family, self.col_family)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        return ExactMatrix([row[c0:c1] for row in self.data[r0:r1]], _canon=False)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([list(col) for col in zip(*self.data)] if self.data else
                           [[] for _ in range(self.ncols)],
                           self.col_family, self.row_family, _canon=False)

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return ExactMatrix([[x + y for x, y in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)],
                           self.row_family or other.row_family,
                           self.col_family or other.col_family)

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return ExactMatrix([[x - y for x, y in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)],
                           self.row_family or other.row_family,
                           self.col_family or other.col_family)

    def __neg__(self):
        return self.map_entries(lambda x: -x)

    def scale(self, c) -> "ExactMatrix":
        return self.map_entries(lambda x: x * c if not isinstance(c, Poly) else c * Poly._lift(x))

    def __matmul__(self, other):
        return mat_mul(self, other)

    def eval_at(self, a: Scalar) -> "ExactMatrix":
        return self.map_entries(lambda x: x.eval(a) if isinstance(x, Poly) else x)

    def coeff_matrix(self, i: int) -> "ExactMatrix":
        def pick(x):
            if isinstance(x, Poly):
                return x.coeff(i)
            return x if i == 0 else 0
        return self.map_entries(pick)


def mat_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a + b


def mat_sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a - b


def mat_scale(a: ExactMatrix, c) -> ExactMatrix:
    return a.scale(c)


def mat_transpose(a: ExactMatrix) -> ExactMatrix:
    return a.transpose()


def mat_eval(a: ExactMatrix, x: Scalar) -> ExactMatrix:
    return a.eval_at(x)


def mat_coeff(a: ExactMatrix, i: int) -> ExactMatrix:
    return a.coeff_matrix(i)


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact product; polynomial matrices multiply by coefficient decomposition."""
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch {a.shape} @ {b.shape}")
    if a.col_family is not None and b.row_family is not None and a.col_family != b.row_family:
        raise ValueError("inner family tags do not match")
    da, db = a.max_degree(), b.max_degree()
    if da == 0 and db == 0:
        rows = _scalar_matmul(a.data, b.data, a.ncols)
        return ExactMatrix(rows, a.row_family, b.col_family)
    acoef = [a.coeff_matrix(i).data for i in range(da + 1)]
    bcoef = [b.coeff_matrix(i).data for i in range(db + 1)]
    parts = {}
    for i in range(da + 1):
        for j in range(db + 1):
            prod = _scalar_matmul(acoef[i], bcoef[j], a.ncols)
            if (i + j) in parts:
                acc = parts[i + j]
                for r in range(len(prod)):
                    row_acc, row_p = acc[r], prod[r]
                    for c in range(len(row_p)):
                        row_acc[c] += row_p[c]
            else:
                parts[i + j] = prod
    nr, nc = a.nrows, b.ncols
    out = [[None] * nc for _ in range(nr)]
    degs = sorted(parts)
    for r in range(nr):
        for c in range(nc):
            out[r][c] = Poly([parts[d][r][c] if d in parts else 0
                              for d in range(degs[-1] + 1)])
    return ExactMatrix(out, a.row_family, b.col_family)


# ---------------------------------------------------------------------------
# permutation equivalence

def equiv_check(a: ExactMatrix, b: ExactMatrix,
                row_perm: Sequence[int], col_perm: Sequence[int]) -> bool:
    """True iff a(i, j) == b(row_perm[i], col_perm[j]) for all i, j."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    if sorted(row_perm) != list(range(a.nrows)) or sorted(col_perm) != list(range(a.ncols)):
        raise ValueError("non-bijective permutation")
    for i in range(a.nrows):
        bi = b.data[row_perm[i]]
        ai = a.data[i]
        for j in range(a.ncols):
            if ai[j] != bi[col_perm[j]]:
                return False
    return True


# ---------------------------------------------------------------------------
# exact rank (fraction-free Bareiss) and rational inverse

def rank_exact(m: ExactMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    Intended as an oracle for small matrices (entry growth is severe); the
    mod-p kernel handles large orders.
    """
    den = 1
    for row in m.data:
        for x in row:
            if isinstance(x, Poly):
                raise TypeError("rank_exact needs scalar entries")
            if isinstance(x, Fraction):
                den = den * x.denominator // _gcd(den, x.denominator)
    a = [[int(x * den) for x in row] for row in m.data]
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


# ---------------------------------------------------------------------------
# mod-p arithmetic

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


DEFAULT_PRIME_BITS = 25


def random_prime(rng: random.Random | None = None, bits: int = DEFAULT_PRIME_BITS) -> int:
    """Random prime with the given bit length.

    At the default 25 bits the float64 rank kernel runs its widest panels,
    nb = 32 columns under nb * ((p-1)/2)^2 + p < 2^53, and the int64 mat-vec
    keeps its partial sums far below 2^63.  Bits above 31 are rejected: the
    kernels need products of two residues to stay below 2^62.
    """
    if not 8 <= bits <= 31:
        raise ValueError("prime bits must be in [8, 31]")
    rng = rng or random.Random()
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(cand):
            return cand


class ModMatrix:
    """Dense matrix over GF(p), p < 2^31, stored as a reduced int64 array."""

    __slots__ = ("p", "array")

    def __init__(self, array: np.ndarray, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p.bit_length() > 31:
            raise ValueError("modulus too large for the int64 kernels")
        self.p = p
        self.array = np.ascontiguousarray(array, dtype=np.int64) % p

    @classmethod
    def from_exact(cls, m: ExactMatrix, p: int) -> "ModMatrix":
        if m.all_int():
            return cls(m.as_int_array(), p)
        rows = np.zeros((m.nrows, m.ncols), dtype=np.int64)
        for i, row in enumerate(m.data):
            for j, x in enumerate(row):
                if isinstance(x, Poly):
                    raise TypeError("polynomial entries have no mod-p reduction here")
                if isinstance(x, Fraction):
                    if x.denominator % p == 0:
                        raise ValueError(f"prime {p} divides a denominator")
                    rows[i, j] = x.numerator % p * pow(x.denominator, -1, p) % p
                else:
                    rows[i, j] = x % p
        return cls(rows, p)

    @property
    def shape(self):
        return self.array.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _matvec_mod(self.array, x, self.p)


_FLOAT_EXACT = 1 << 53   # float64 holds every integer of smaller magnitude
_PANEL_MAX = 32
_LIMB = 1 << 16
_CHUNK_ENTRIES = 1 << 16  # entries per row chunk of the Schur update (512 kB)


def _panel_plan(p: int) -> tuple[int, int]:
    """Panel width nb and limb base of the float64 elimination mod p.

    Every product of the elimination subtracts lmat @ u, inner dimension at
    most nb and operands centred (|x| <= p // 2), from entries with |x| <= p.
    That is exact in float64 when nb * (p // 2)**2 + p < 2^53, which gives
    nb = 32 for all primes below 2^25.  Where no nb >= 1 fits (p above about
    2^27.5), u is split into limbs hi * 2^16 + lo and the product takes two
    GEMMs; the returned base is then 2^16, otherwise 0.
    """
    h = p // 2
    nb = (_FLOAT_EXACT - 1 - p) // (h * h)
    if nb >= 1:
        return min(nb, _PANEL_MAX), 0
    # |L @ hi| <= nb*h*(h/B + 1) before its reduction; afterwards the entry
    # takes p + p*B from the high limb and nb*h*B/2 from the low one.
    nb = min((_FLOAT_EXACT - 1) // (h * (h // _LIMB + 1)),
             (_FLOAT_EXACT - 1 - p * (_LIMB + 1)) // (h * (_LIMB // 2)))
    return min(nb, _PANEL_MAX), _LIMB


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """x -= p * rint(x / p) in place, with x / p taken as x * (1 / p).

    For integral |x| < 2^53 this leaves |x| <= (p + 3) / 2 <= p.  For |x| <= p
    the quotient is off by less than 1 / (2p), so x becomes the centred
    residue, |x| <= p // 2.
    """
    np.multiply(x, 1.0 / p, out=scratch)
    np.rint(scratch, out=scratch)
    scratch *= p
    x -= scratch


def _limbs(u: np.ndarray, base: int):
    """(limb, scale) pairs with u = sum of limb * (scale or 1)."""
    if not base:
        return ((u, 0),)
    lo = u - base * np.rint(u / base)
    return (((u - lo) / base, base), (lo, 0))


def _sub_product(dst, lmat, limbs, p, scratch) -> None:
    """dst -= lmat @ u and reduce mod p, with u given by its limbs.

    Exact for centred operands and |dst| <= p under the bounds of
    ``_panel_plan``; each high-limb product is reduced before it is scaled.
    ``scratch`` holds two arrays of dst's shape.
    """
    prod, spare = scratch
    for limb, scale in limbs:
        np.matmul(lmat, limb, out=prod)
        if scale:
            _reduce(prod, p, spare)
            prod *= scale
        dst -= prod
    _reduce(dst, p, prod)


def _sub_centred(dst, lmat, u, p, base, buf) -> None:
    """dst -= lmat @ u, left as centred residues (a small operand's update)."""
    scratch = _scratch(buf, dst.shape)
    _sub_product(dst, lmat, _limbs(u, base), p, scratch)
    _reduce(dst, p, scratch[0])


def _scratch(buf: np.ndarray, shape) -> np.ndarray:
    """Two arrays of the given shape carved from the front of buf."""
    return buf[:, :math.prod(shape)].reshape(2, *shape)


def _swap_rows(a: np.ndarray, i: int, j: int, tmp: np.ndarray) -> None:
    tmp[:] = a[i]
    a[i] = a[j]
    a[j] = tmp


def _rank_kernel(a: np.ndarray, p: int) -> int:
    """Rank of a reduced matrix over GF(p) by right-looking blocked elimination.

    Works on one float64 copy of ``a``.  Each panel of nb columns is factored
    with row pivoting and column skipping.  The pivot rows get their trailing
    part U12 by forward substitution, and the rows whose multipliers L21 are
    not all zero get the Schur update L21 @ U12.  Every product is a float64
    GEMM that ``_panel_plan`` keeps exact, followed by a reduction mod p.
    """
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    nb, base = _panel_plan(p)
    w = a.astype(np.float64)
    tmp = np.empty(n)
    buf = np.empty((2, max(_CHUNK_ENTRIES + n, nb * max(m, n))))
    r = c = 0
    while r < m and c < n:
        c1 = min(c + nb, n)
        k, mult, strict = _factor_panel(w, r, c, c1, p, base, buf, tmp)
        if k and c1 < n:
            # U12 = L11^-1 T = T - (I - L11^-1) T
            u12 = w[r:r + k, c1:].copy()
            _reduce(u12, p, _scratch(buf, u12.shape)[0])
            if strict.any():
                _sub_centred(u12, strict, u12, p, base, buf)
            _schur_update(w, r + k, c1, mult[:k, k:].T, u12, p, base, buf, tmp)
        r += k
        c = c1
    return r


def _factor_panel(w, r, c, c1, p, base, buf, tmp):
    """Eliminate columns [c, c1) below row r, left-looking (Crout).

    Returns the pivot count k, the multipliers transposed (mult[t, i] is that
    of row r + i on pivot t) and strict = I - L11^-1.  Column j is brought up
    to date with the k pivots so far by two products: its pivot-row part
    becomes U[:k, j] = L11^-1 a_top, its other rows a_bot - L21 @ U[:k, j].
    The pivots end up in rows r .. r + k - 1; rows of w are swapped past
    column c1 only, since the panel's own columns are not read again.
    """
    # one row per column of the panel; transposing a compact copy is faster
    pt = w[r:, c:c1].copy().T.copy()
    _reduce(pt, p, _scratch(buf, pt.shape)[0])
    bw, rows = pt.shape
    mult = np.zeros_like(pt)
    strict = np.zeros((bw, bw))
    k = 0
    for j in range(bw):
        top = pt[j, :k].copy()
        if strict[:k, :k].any() and top.any():
            _sub_centred(top, strict[:k, :k], top, p, base, buf)
        bot = pt[j, k:].copy()
        if top.any():
            _sub_centred(bot, mult[:k, k:].T, top, p, base, buf)
        nz = np.flatnonzero(bot)
        if nz.size == 0:
            continue
        if nz[0]:
            # the rows before nz[0] are zero here, so nz[1:] stays put
            piv = k + int(nz[0])
            pt[:, [k, piv]] = pt[:, [piv, k]]
            mult[:, [k, piv]] = mult[:, [piv, k]]
            _swap_rows(w[:, c1:], r + k, r + piv, tmp[:w.shape[1] - c1])
        if nz.size > 1:
            f = (bot[nz[1:]].astype(np.int64) * pow(int(bot[nz[0]]), -1, p)) % p
            mult[k, k + nz[1:]] = np.where(f > p // 2, f - p, f)
        if k and mult[:k, k].any():
            # row k of I - L11^-1 is l - l @ (I - L11^-1)[:k, :k], l = L11[k, :k]
            row = mult[:k, k].copy()
            _sub_centred(row, mult[:k, k], strict[:k, :k], p, base, buf)
            strict[k, :k] = row
        k += 1
    return k, mult, strict[:k, :k]


def _schur_update(w, r0, c1, l21, u12, p, base, buf, tmp) -> None:
    """w[r0:, c1:] -= l21 @ u12 (mod p) on the rows with nonzero multipliers.

    Those rows are first swapped to the front of the block, so the update
    runs on contiguous row chunks through the buffer.
    """
    live = l21.any(axis=1)
    q = int(np.count_nonzero(live))
    if q == 0:
        return
    holes = np.flatnonzero(~live[:q])
    fills = q + np.flatnonzero(live[q:])
    ncols = w.shape[1] - c1
    for i, j in zip(holes.tolist(), fills.tolist()):
        _swap_rows(w[:, c1:], r0 + i, r0 + j, tmp[:ncols])
        l21[[i, j]] = l21[[j, i]]
    limbs = _limbs(u12, base)
    step = max(1, _CHUNK_ENTRIES // ncols)
    for s in range(0, q, step):
        e = min(q, s + step)
        _sub_product(w[r0 + s:r0 + e, c1:], l21[s:e], limbs, p,
                     _scratch(buf, (e - s, ncols)))


def rank_modp(m: ExactMatrix | ModMatrix, p: int) -> int:
    """Rank over GF(p) of the matrix reduced mod p.

    The error is one-sided: rank mod p <= rank over Q, because a minor that
    vanishes over Q vanishes mod p.  The rank drops exactly when p divides
    every nonzero minor of order r, r the rank over Q, so only finitely many
    primes undershoot.
    """
    if isinstance(m, ModMatrix):
        if m.p != p:
            raise ValueError("modulus mismatch")
        return _rank_kernel(m.array, p)
    return _rank_kernel(ModMatrix.from_exact(m, p).array, p)


def _matvec_mod(a: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """(a @ x) mod p with column chunking so partial sums stay below 2^62."""
    x = np.asarray(x, dtype=np.int64) % p
    n = a.shape[1]
    chunk = max(1, _INT64_SAFE // (p * p))
    if n <= chunk:
        return (a @ x) % p
    acc = np.zeros(a.shape[0], dtype=np.int64)
    for j in range(0, n, chunk):
        acc = (acc + a[:, j:j + chunk] @ x[j:j + chunk]) % p
    return acc
