"""Exact dense linear algebra over rationals and univariate polynomials.

A matrix M(z) = (C_0 + C_1 z + ... + C_d z^d) / den is stored as one integer
coefficient stack C of shape (d+1, rows, cols) and one positive common
denominator, so integer, rational and polynomial matrices are one type.  The
form is canonical: trailing zero degrees are trimmed (degree 0 is always
kept) and den is coprime to the entries taken together.  The stack is numpy
int64; it holds Python ints (object dtype) only when some |entry| >= 2^62.
Every operation first bounds the magnitude of its result from its operands'
and runs in int64 only while that bound is below 2^62, so no int64
intermediate can wrap.  ``Poly`` remains for scalar polynomials.

The mod-p kernels are exact too.  The mat-vec runs on numpy int64 in column
chunks sized so that partial sums stay below 2^62.  Gaussian rank is blocked
elimination on float64 whose products are BLAS GEMMs: residues are centred
in (-p/2, p/2], so a product with inner dimension nb is exact while
nb * ((p-1)/2)^2 + p < 2^53 (see ``_panel_plan``).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

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


# ---------------------------------------------------------------------------
# coefficient-stack matrices

_INT64_SAFE = 1 << 62


def _dtype(bound: int):
    """int64 while every value is known to stay below 2^62, else Python ints."""
    return np.int64 if bound < _INT64_SAFE else object


def _integral(values) -> tuple[list[int], int]:
    """Integers n_i and the least den > 0 with n_i / den == values[i]."""
    den = math.lcm(1, *(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _entry(coeffs, den: int):
    """The canonical int, Fraction or Poly with these coefficients over den."""
    p = Poly([Fraction(c, den) for c in coeffs] if den != 1 else coeffs)
    return p if p.degree > 0 else p.constant_value()


def _stack_of(rows) -> tuple[np.ndarray, int]:
    """Coefficient stack and common denominator of nested int/Fraction/Poly rows."""
    rows = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix data")
    flat = [x for row in rows for x in row]
    depth = 1
    if any(isinstance(x, Poly) for x in flat):
        depth = max(len(x.coeffs) if isinstance(x, Poly) else 1 for x in flat) or 1
        flat = [x.coeff(d) if isinstance(x, Poly) else x if d == 0 else 0
                for d in range(depth) for x in flat]
    ints, den = _integral(flat)
    stack = np.array(ints)  # int64 when every value fits
    if stack.dtype != np.int64:
        stack = np.array(ints, dtype=object)
    return stack.reshape(depth, len(rows), ncols), den


def _magnitude(stack: np.ndarray) -> int:
    return max(int(stack.max(initial=0)), -int(stack.min(initial=0)))


def _lifted(stack: np.ndarray, dtype, factor: int, depth: int) -> np.ndarray:
    """factor * stack in dtype, zero-padded to depth degrees."""
    stack = stack.astype(dtype, copy=False)
    if factor != 1:
        stack = stack * factor
    if len(stack) < depth:
        stack = np.concatenate((stack, np.zeros((depth - len(stack), *stack.shape[1:]), dtype)))
    return stack


class ExactMatrix:
    """Dense exact matrix (C_0 + C_1 z + ... + C_d z^d) / den.

    ``stack`` holds the integer coefficients C, shape (d+1, rows, cols), and
    is read-only; ``den`` is the positive common denominator.  The form is
    canonical (see the module docstring), so equal matrices have equal
    denominators and stacks of equal values.  A matrix is made from nested
    rows of int / Fraction / Poly entries, or from an integer array of shape
    (rows, cols) or (d+1, rows, cols) whose entries are divided by ``den``;
    such an array is kept without a copy and must not be changed afterwards.
    ``data`` gives the entries back as rows of canonical Python values.

    Optionally tagged with the subset families indexing rows and columns;
    tags propagate through arithmetic and are checked on multiplication.
    """

    __slots__ = ("stack", "den", "row_family", "col_family", "_mag")

    def __init__(self, data, row_family=None, col_family=None, den: int = 1):
        if isinstance(data, np.ndarray):
            if data.dtype.kind not in "iuO":
                raise TypeError("coefficient arrays must have an integer dtype")
            stack = data if data.ndim == 3 else data[None]
        else:
            stack, d = _stack_of(data)
            den *= d
        if stack.ndim != 3 or not stack.shape[0] or den < 1:
            raise ValueError("need a (deg+1, rows, cols) stack and den >= 1")
        depth = stack.shape[0]
        while depth > 1 and not stack[depth - 1].any():
            depth -= 1
        stack = stack[:depth]
        if stack.dtype != np.int64:
            stack = stack.astype(object)
        if den != 1:
            g = math.gcd(den, int(np.gcd.reduce(stack, axis=None)))
            if g != 1:
                stack, den = stack // g, den // g
        if stack.dtype == object and _magnitude(stack) < _INT64_SAFE:
            stack = stack.astype(np.int64)
        stack = stack.view()
        stack.flags.writeable = False
        self.stack, self.den, self._mag = stack, den, None
        self.row_family = row_family
        self.col_family = col_family

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, nrows: int, ncols: int, row_family=None, col_family=None) -> "ExactMatrix":
        return cls(np.zeros((nrows, ncols), dtype=np.int64), row_family, col_family)

    @classmethod
    def ones(cls, nrows: int, ncols: int, row_family=None, col_family=None) -> "ExactMatrix":
        return cls(np.ones((nrows, ncols), dtype=np.int64), row_family, col_family)

    # -- basic accessors ----------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.stack.shape[1]

    @property
    def ncols(self) -> int:
        return self.stack.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self.stack.shape[1:]

    @property
    def mag(self) -> int:
        """The largest |entry| of the stack, computed on first use."""
        if self._mag is None:
            self._mag = _magnitude(self.stack)
        return self._mag

    @property
    def data(self) -> list[list]:
        """Rows of canonical int / Fraction / Poly entries, made on each access."""
        if self.stack.shape[0] == 1 and self.den == 1:
            return self.stack[0].tolist()
        return [[_entry(c, self.den) for c in row]
                for row in self.stack.transpose(1, 2, 0).tolist()]

    def entry(self, i: int, j: int):
        return _entry(self.stack[:, i, j].tolist(), self.den)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.den == other.den and self.stack.shape == other.stack.shape
                and bool((self.stack == other.stack).all()))

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols})"

    def is_symmetric(self) -> bool:
        return (self.nrows == self.ncols
                and np.array_equal(self.stack, self.stack.transpose(0, 2, 1)))

    def max_degree(self) -> int:
        return self.stack.shape[0] - 1

    def all_int(self) -> bool:
        return self.stack.shape[0] == 1 and self.den == 1

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        diagonal = self.stack.diagonal(axis1=1, axis2=2).tolist()
        return _entry([sum(d) for d in diagonal], self.den)

    def as_int_array(self) -> np.ndarray:
        """The stored int64 array of an integer matrix, not copied (read-only).

        Raises TypeError on non-integer entries and OverflowError when an entry
        has |x| >= 2^62.
        """
        if not self.all_int():
            raise TypeError("matrix has non-integer entries")
        if self.mag >= _INT64_SAFE:
            raise OverflowError("entry exceeds int64-safe range")
        return self.stack[0]

    # -- arithmetic ---------------------------------------------------------
    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        return ExactMatrix(self.stack[:, r0:r1, c0:c1], den=self.den)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.stack.transpose(0, 2, 1), self.col_family,
                           self.row_family, self.den)

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        den = math.lcm(self.den, other.den)
        depth = max(self.stack.shape[0], other.stack.shape[0])
        dtype = _dtype(self.mag * (den // self.den) + other.mag * (den // other.den))
        a, b = (_lifted(m.stack, dtype, den // m.den, depth) for m in (self, other))
        return ExactMatrix(a + b, self.row_family or other.row_family,
                           self.col_family or other.col_family, den)

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(-self.stack.astype(_dtype(self.mag), copy=False),
                           self.row_family, self.col_family, self.den)

    def along_degrees(self, t) -> "ExactMatrix":
        """The matrix whose degree-i coefficient is sum_j t[i][j] C_j.

        t is a rational matrix with one column per degree of self.  Products
        by a scalar or a Poly, evaluation, coefficient extraction, derivatives
        and changes of polynomial basis are all maps of this form.
        """
        width = self.stack.shape[0]
        ints, den = _integral([x for row in t for x in row])
        bound = self.mag * max(sum(map(abs, ints[i:i + width]))
                               for i in range(0, len(ints), width))
        dtype = _dtype(bound)
        _, nr, nc = self.stack.shape
        flat = self.stack.astype(dtype, copy=False).reshape(width, nr * nc)
        out = np.array(ints, dtype=dtype).reshape(len(t), width) @ flat
        return ExactMatrix(out.reshape(len(t), nr, nc), self.row_family,
                           self.col_family, den * self.den)

    def scale(self, c) -> "ExactMatrix":
        """c * M for an int, Fraction or Poly c (a convolution over degrees)."""
        cs = (c.coeffs if isinstance(c, Poly) else (c,)) or (0,)
        width = self.stack.shape[0]
        return self.along_degrees([[cs[i - j] if 0 <= i - j < len(cs) else 0
                                    for j in range(width)]
                                   for i in range(width + len(cs) - 1)])

    def __matmul__(self, other):
        return mat_mul(self, other)

    def eval_at(self, a: Scalar) -> "ExactMatrix":
        """M(a) = sum_j C_j a^j / den, for an int or Fraction a."""
        return self.along_degrees([[Fraction(a) ** j for j in range(self.stack.shape[0])]])

    def coeff_matrix(self, i: int) -> "ExactMatrix":
        """The coefficient of z^i, zero beyond the degree."""
        return self.along_degrees([[int(j == i) for j in range(self.stack.shape[0])]])

    def derive(self) -> "ExactMatrix":
        """Entrywise d/dz."""
        width = self.stack.shape[0]
        return self.along_degrees([[j if j == i + 1 else 0 for j in range(width)]
                                   for i in range(max(width - 1, 1))])

    def shift_basis(self, c: Scalar) -> "ExactMatrix":
        """Taylor coefficients at c: degree l holds A_l with M = sum_l A_l (z - c)^l."""
        width = self.stack.shape[0]
        c = Fraction(c)
        return self.along_degrees([[math.comb(j, l) * c ** (j - l) if j >= l else 0
                                    for j in range(width)] for l in range(width)])

    def divexact_linear(self, c: Scalar, e: int = 1) -> "ExactMatrix":
        """Exact entrywise division by (z - c)^e; raises if any remainder is nonzero."""
        taylor = self.shift_basis(c)
        if taylor.stack[:e].any():
            raise ValueError(f"matrix not divisible by (z - {c})^{e}")
        rest = taylor.stack[e:] if len(taylor.stack) > e else np.zeros_like(taylor.stack)
        return ExactMatrix(rest, self.row_family, self.col_family,
                           taylor.den).shift_basis(-c)


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact product: the sum of C_i D_j over degree pairs, placed at degree i + j.

    All pairs come from one matmul of the stacked coefficient slices.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch {a.shape} @ {b.shape}")
    if a.col_family is not None and b.row_family is not None and a.col_family != b.row_family:
        raise ValueError("inner family tags do not match")
    (da, nr, inner), (db, _, nc) = a.stack.shape, b.stack.shape
    dtype = _dtype(inner * a.mag * b.mag * min(da, db))
    left = a.stack.astype(dtype, copy=False).reshape(da * nr, inner)
    right = b.stack.astype(dtype, copy=False).transpose(1, 0, 2).reshape(inner, db * nc)
    prod = (left @ right).reshape(da, nr, db, nc).transpose(0, 2, 1, 3)
    out = np.zeros((da + db - 1, nr, nc), dtype)
    for i in range(da):
        out[i:i + db] += prod[i]
    return ExactMatrix(out, a.row_family, b.col_family, a.den * b.den)


# ---------------------------------------------------------------------------
# permutation equivalence

def equiv_check(a: ExactMatrix, b: ExactMatrix,
                row_perm: Sequence[int], col_perm: Sequence[int]) -> bool:
    """True iff a(i, j) == b(row_perm[i], col_perm[j]) for all i, j."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    if sorted(row_perm) != list(range(a.nrows)) or sorted(col_perm) != list(range(a.ncols)):
        raise ValueError("non-bijective permutation")
    return a == ExactMatrix(b.stack[:, list(row_perm)][:, :, list(col_perm)], den=b.den)


# ---------------------------------------------------------------------------
# exact rank (fraction-free Bareiss) and rational inverse

def rank_exact(m: ExactMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    Intended as an oracle for small matrices (entry growth is severe); the
    mod-p kernel handles large orders.
    """
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
        if m.max_degree():
            raise TypeError("polynomial entries have no mod-p reduction here")
        if m.den % p == 0:
            raise ValueError(f"prime {p} divides a denominator")
        a = m.stack[0]
        if a.dtype == object:
            a = (a % p).astype(np.int64)
        if m.den != 1:
            a = a % p * pow(m.den, -1, p)
        return cls(a, p)

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
