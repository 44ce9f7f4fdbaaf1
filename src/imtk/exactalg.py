"""Exact dense linear algebra over rationals and univariate polynomials.

A matrix M(z) = (C_0 + C_1 z + ... + C_d z^d) / den is stored as one integer
coefficient stack C of shape (d+1, rows, cols) and one positive common
denominator, so integer, rational and polynomial matrices are one type.  The
form is canonical: trailing zero degrees are trimmed (degree 0 is always
kept) and den is coprime to the entries taken together.  The stack is a
numpy signed integer array of any width (``build`` stores each matrix at the
narrowest of int8, int16, int32 and int64 that holds its entries); it holds
Python ints (object dtype) only when some |entry| >= 2^62.  Every operation
first bounds the magnitude of its result from its operands' and widens its
operands to int64 while that bound is below 2^62, else to Python ints, so no
intermediate can wrap whatever width a stack is stored at.  A linear
combination sum c * M with int, Fraction or Poly coefficients
(``ExactMatrix.lincomb``) is one matmul of a table of integer coefficients
against the stacked degree slices of every M.  ``Poly`` remains for scalar
polynomials.

``rank_modp`` is a plain reference elimination of one ``ModMatrix``, an
integer matrix over GF(p) for a prime of at most 21 bits.  No command calls
it: ``imtk rank`` proves every rank on a quotient over the Johnson scheme
(``spectra._quotient_rank``), and a prime there only has to not divide the
quotient's unit.  The tests rank by it as a second route.
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
    if not rows:
        raise ValueError("no rows give no column count: use ExactMatrix.zeros(0, n)")
    ncols = len(rows[0])
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


def _combined_stack(table, mats) -> np.ndarray:
    """Integer array whose slice i is sum_j table[i][j] S_j, S_j the stacked
    degree slices of mats: one matmul, int64 while all sum_j |table[i][j]|
    max(mag S_j, 1) < 2^62 (a zero S_j counts as 1, so its coefficient must
    fit in int64 too)."""
    mags = [max(m.mag, 1) for m in mats for _ in range(len(m.stack))]
    dtype = _dtype(max(sum(abs(x) * g for x, g in zip(row, mags)) for row in table))
    _, nr, nc = mats[0].stack.shape
    flat = [m.stack.astype(dtype, copy=False).reshape(len(m.stack), nr * nc) for m in mats]
    out = np.array(table, dtype=dtype) @ (flat[0] if len(flat) == 1 else np.concatenate(flat))
    return out.reshape(len(table), nr, nc)


def _combine(table, mats, den: int, row_family, col_family) -> "ExactMatrix":
    """Degree i holds sum_j table[i][j] S_j / den (see _combined_stack)."""
    return ExactMatrix(_combined_stack(table, mats), row_family, col_family, den)


class ExactMatrix:
    """Dense exact matrix (C_0 + C_1 z + ... + C_d z^d) / den.

    ``stack`` holds the integer coefficients C, shape (d+1, rows, cols), and
    is read-only; ``den`` is the positive common denominator.  The form is
    canonical (see the module docstring), so equal matrices have equal
    denominators and stacks of equal values, though not always of equal
    width.  A matrix is made from nested rows of int / Fraction / Poly
    entries (an int64 stack), or from an integer array of shape (rows, cols)
    or (d+1, rows, cols) whose entries are divided by ``den``; a signed
    integer array of any width is kept as given, without a copy, and must
    not be changed afterwards.  Arithmetic widens a stack before it
    computes, so a narrow stack only saves memory.
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
        if depth < len(stack):
            stack = stack[:depth]
        if stack.dtype.kind != "i":
            stack = stack.astype(object)
        if den != 1:
            g = math.gcd(den, int(np.gcd.reduce(stack, axis=None)))
            if g != 1:
                if stack.dtype != object and g > np.iinfo(stack.dtype).max:
                    stack = stack.astype(_dtype(g))  # so that g itself fits
                stack, den = stack // g, den // g
        if stack.dtype == object and _magnitude(stack) < _INT64_SAFE:
            stack = stack.astype(np.int64)
        if stack.flags.writeable:  # through a view, so the caller's array stays writable
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
        """The stored array of an integer matrix, at its stored width, not
        copied (read-only): widen it before computing with it.

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
        t = ExactMatrix(self.stack.transpose(0, 2, 1), self.col_family, self.row_family,
                        self.den)
        t._mag = self._mag  # the same entries
        return t

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        den = math.lcm(self.den, other.den)
        depth = max(len(self.stack), len(other.stack))
        cols = [[den // m.den * (d == j) for d in range(depth)]  # one per stacked slice
                for m in (self, other) for j in range(len(m.stack))]
        return _combine(list(zip(*cols)), [self, other], den, self.row_family or other.row_family,
                        self.col_family or other.col_family)

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def along_degrees(self, t) -> "ExactMatrix":
        """The matrix whose degree-i coefficient is sum_j t[i][j] C_j.

        t is a rational matrix with one column per degree of self.
        Evaluation, coefficient extraction, derivatives and changes of
        polynomial basis are all maps of this form.
        """
        width = self.stack.shape[0]
        ints, den = _integral([x for row in t for x in row])
        return _combine([ints[i:i + width] for i in range(0, len(ints), width)], [self],
                        den * self.den, self.row_family, self.col_family)

    @staticmethod
    def lincomb(pairs, nrows: int, ncols: int) -> "ExactMatrix":
        """sum c * M over the (c, M) pairs, for int, Fraction or Poly c.

        One matmul of an integer table against the stacked degree slices of
        every M over the common denominator den: c * M puts c_d den / M.den
        on M's slice C_j at degree d + j.  The tags are the first M's; with
        no nonzero c the result is the zero nrows x ncols matrix.
        """
        pairs = [(c.coeffs if isinstance(c, Poly) else (c,), m) for c, m in pairs]
        if any(m.shape != (nrows, ncols) for _, m in pairs):
            raise ValueError(f"shape mismatch: every term must be {nrows} x {ncols}")
        tags = (pairs[0][1].row_family, pairs[0][1].col_family) if pairs else (None, None)
        terms = [(cs, m) for cs, m in pairs if any(cs)]
        if not terms:
            return ExactMatrix.zeros(nrows, ncols, *tags)
        den = math.lcm(*(m.den * x.denominator for cs, m in terms for x in cs))
        depth = max(len(cs) + len(m.stack) - 1 for cs, m in terms)
        cols = []  # one column of the table per stacked slice
        for cs, m in terms:
            ints = [x.numerator * (den // m.den // x.denominator) for x in cs]
            cols += ([0] * j + ints + [0] * (depth - j - len(ints)) for j in range(len(m.stack)))
        return _combine(list(zip(*cols)), [m for _, m in terms], den, *tags)

    def scale(self, c) -> "ExactMatrix":
        """c * M for an int, Fraction or Poly c (a convolution over degrees)."""
        return ExactMatrix.lincomb(((c, self),), *self.shape)

    def __matmul__(self, other):
        return mat_mul(self, other)

    def eval_at(self, a: Scalar) -> "ExactMatrix":
        """M(a) = sum_j C_j a^j / den, for an int or Fraction a."""
        return self.along_degrees([[Fraction(a) ** j for j in range(self.stack.shape[0])]])

    def coeff_matrix(self, i: int) -> "ExactMatrix":
        """The coefficient of z^i, zero beyond the degree: slice i over den."""
        if not 0 <= i < len(self.stack):
            return ExactMatrix.zeros(*self.shape, self.row_family, self.col_family)
        return ExactMatrix(self.stack[i], self.row_family, self.col_family, self.den)

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
    if da == 1:  # one left degree: no two pairs share a degree
        out = prod[0]
    else:
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


DEFAULT_PRIME_BITS = 21


def random_prime(rng: random.Random | None = None) -> int:
    """Random prime of DEFAULT_PRIME_BITS = 21 bits, uniform over those primes.

    ``imtk rank`` prints the primes it draws.  The rank it prints is that of
    M over Q, proved on a quotient over the Johnson scheme
    (``spectra._quotient_rank``), and it is the rank mod every prime that
    does not divide the quotient's unit: the first prime drawn that does not
    divide the unit proves it mod that prime, with no elimination and no
    chance of error.  A prime that divides the unit proves nothing, and the
    next one is drawn.
    """
    rng = rng or random.Random()
    while True:
        cand = rng.getrandbits(DEFAULT_PRIME_BITS) | (1 << (DEFAULT_PRIME_BITS - 1)) | 1
        if is_prime(cand):
            return cand


class ModMatrix:
    """The integer matrix ``array`` over GF(p), p < 2^21, held as its int64
    residues in [0, p): a copy, reduced once on construction.  An array of
    Python ints (object dtype) or of an unsigned type is reduced before it is
    cast, so no entry wraps."""

    __slots__ = ("p", "array")

    def __init__(self, array: np.ndarray, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p.bit_length() > DEFAULT_PRIME_BITS:
            raise ValueError(f"modulus {p} too large: mod-p ranks take primes of at most "
                             f"{DEFAULT_PRIME_BITS} bits, the width random_prime draws")
        array = np.asarray(array)
        if array.dtype.kind != "i":
            array = array % p
        self.p, self.array = p, array.astype(np.int64) % p


def rank_modp(m: ModMatrix, p: int) -> int:
    """Rank over GF(p) of one ``ModMatrix``, p < 2^21, by plain elimination.

    Column by column, the first row at or below the pivot row that is
    nonzero mod p in the column becomes the pivot row, scaled by the inverse
    of that entry, and only the rows below it that are nonzero mod p in the
    column are updated.  The pivot column and the pivot row are reduced when
    they are read; the rows below are not.  Each update subtracts a product
    of two residues, at most (p - 1)^2 < 2^42, once per pivot, and entries
    start in [0, p), so after r pivots they lie in (-r 2^42, p): within int64
    for every r < 2^21, and a matrix with 2^21 pivots would have at least 2^42
    entries.  The error is one-sided: rank mod p <= rank over Q, because a
    minor that vanishes over Q vanishes mod p.  ``imtk rank`` does not call
    it: every rank it prints is proved on a quotient
    (``spectra._quotient_rank``).
    """
    if m.p != p:
        raise ValueError("modulus mismatch")
    # a wide matrix is transposed, so the loop runs over the shorter side
    a = (m.array.T if m.array.shape[1] > m.array.shape[0] else m.array).copy()
    r = 0
    for c in range(a.shape[1]):
        col = a[r:, c] % p
        nz = np.flatnonzero(col)
        if not nz.size:
            continue
        if nz[0]:  # the rows before nz[0] are zero in column c, so nz[1:] stays put
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        pivot = a[r, c:] % p * pow(int(col[nz[0]]), -1, p) % p
        if nz.size > 1:
            a[r + nz[1:], c:] -= np.multiply.outer(col[nz[1:]], pivot)
        r += 1
    return r
