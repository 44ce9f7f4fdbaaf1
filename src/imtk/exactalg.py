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

The mod-p rank is exact too: ``rank_modp`` eliminates one ``ModMatrix``,
an integer matrix over GF(p) for a prime of at most 21 bits, by float64 GEMMs whose
every partial sum is an integer below 2^53 (see _NB and _PASSES), so the rank
does not depend on how BLAS splits a sum.  ``imtk rank`` eliminates only a
matrix that has no quotient over the Johnson scheme (``spectra._quotient_rank``
proves the rank of every square-shaped kind), so in practice a non-square one.
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

    Unlucky primes.  Let A be an integer matrix of rank r over Q and D a
    nonzero r x r minor of it.  The rank of A mod p drops only if p divides
    D.  Hadamard's bound caps |D| by the product of the norms of D's rows,
    and a prime of b bits is at least 2^(b-1), so at most log2|D| / (b - 1)
    primes of b bits divide D.  There are 73 586 primes of 21 bits.  For
    U^3 on J(13, 6), 1716 rows of 700 ones, log2|D| <= 1716 * log2(sqrt(700))
    < 8110: at most 405 of them are unlucky, a chance of at most 0.55% per
    draw, and of at most 0.003% that two independent draws both are.
    A rank mod p never exceeds the rank over Q, so one of min(rows, cols),
    or one equal to the rank that the quotient over J(v, k) proves for a
    square kind (``spectra._quotient_rank``), is the rank over Q with no
    error at all.  That quotient's rank is also the rank mod every prime
    not dividing its unit, so ``imtk rank`` eliminates only where there is
    no quotient, and ranks mod its second prime only below full rank.
    """
    rng = rng or random.Random()
    while True:
        cand = rng.getrandbits(DEFAULT_PRIME_BITS) | (1 << (DEFAULT_PRIME_BITS - 1)) | 1
        if is_prime(cand):
            return cand


def _check_modulus(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p.bit_length() > DEFAULT_PRIME_BITS:
        raise ValueError(f"modulus {p} too large: the float64 rank kernel needs "
                         f"p < 2^{DEFAULT_PRIME_BITS}")


_FLOAT_EXACT = 1 << 53    # float64 holds every integer of smaller magnitude


class ModMatrix:
    """The integer matrix ``array`` over GF(p), p < 2^21.

    While max|array| < 2^53 a signed integer ``array`` of any width is kept
    as given, without a copy, and must not be changed afterwards:
    ``rank_modp`` makes its float64 working copy straight from it, exactly.
    An array of another dtype is copied to int64.  From 2^53 on ``array``
    is reduced once with ``% p``.  ``mag`` is max|array|, computed when not
    given.
    """

    __slots__ = ("p", "array", "mag")

    def __init__(self, array: np.ndarray, p: int, mag: int | None = None):
        _check_modulus(p)
        array = np.asarray(array)
        mag = _magnitude(array) if mag is None else mag
        if mag >= _FLOAT_EXACT:
            array, mag = array % p, p - 1
        self.p, self.mag = p, mag
        self.array = array if array.dtype.kind == "i" else array.astype(np.int64)


# The elimination's two constants, sound for every p < 2^21 that
# _check_modulus lets through.  Products are of centred residues, |x| <= h =
# p // 2 < 2^20, with inner dimension at most _NB, so one pass adds at most
# _NB * h^2 < 2^46 to an entry and is exact from any entry below 2^52.
# Entries start below p, so after _PASSES passes they are below
# p + _PASSES * _NB * h^2 < 2^51, where one _reduce gives the centred
# residue; at 2097143, the largest 21-bit prime, 33 passes could reach 2^51.
_NB = 64  # pivots per panel; measured: 128 slowed the sparse order-3432 golden ranks
_PASSES = 32  # Schur passes between reductions of the trailing block
_CHUNK_ENTRIES = 1 << 16  # entries per row chunk of the Schur update (512 kB)


def _reduce(x: np.ndarray, p) -> None:
    """x -= p * rint(x / p) in place, with x / p taken as x * (1 / p).

    For integral |x| < 2^53 this leaves |x| <= (p + 3) / 2 <= p.  For odd p
    and |x| < 2^51 it leaves the centred residue, |x| <= p // 2: x / p is
    then at least 1 / (2p) from a half-integer and the computed quotient
    errs by less, so rint rounds it as it would the exact one.  p = 2 also
    leaves |x| <= 1: 1 / 2 is a power of two, so x / 2 is computed exactly,
    and rint moves an integer or half-integer by at most 1 / 2.  p may be
    an array that broadcasts against x.  The one temporary is the size of x.
    """
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q


def _centre(x: np.ndarray, p) -> None:
    """Integral |x| < 2^53 to centred residues, |x| <= p // 2, in place."""
    _reduce(x, p)
    _reduce(x, p)


def _reduce_rows(x: np.ndarray, p: int) -> None:
    """_reduce on a 2-D block, in row chunks of at most _CHUNK_ENTRIES entries."""
    step = max(1, _CHUNK_ENTRIES // max(1, x.shape[1]))
    for s in range(0, x.shape[0], step):
        _reduce(x[s:s + step], p)


def _sub_centred(dst, lmat, u, p) -> None:
    """dst -= lmat @ u, left as centred residues (a small operand's update).

    Every operand is a centred residue and the inner dimension is at most
    _NB, so before the reduction |dst| <= h + _NB * h^2 < 2^47 (h = p // 2
    < 2^20), below 2^51: one ``_reduce`` gives the centred residue.
    """
    dst -= lmat @ u
    _reduce(dst, p)


def _rank_kernel(w: np.ndarray, p: int, bound: int) -> int:
    """Rank over GF(p) of the float64 integer matrix w, |w| <= bound < 2^53.

    Right-looking blocked elimination, in place on w.  ``_factor_panel``
    gathers a panel of _NB pivots, or as many as the columns hold.  The pivot
    rows then get their trailing part U12 = L11^-1 T, and the rows whose
    multipliers L21 are not all zero get the Schur update L21 @ U12, where
    they stand.  Every product is a float64 GEMM of operands reduced to
    centred residues.  The trailing block is not reduced after every pass
    but once in every _PASSES Schur passes.  A pass that skips a row still
    counts for it, so every stored entry stays below 2^51.
    """
    m, n = w.shape
    if bound > p:
        _reduce_rows(w, p)
    r = c = npass = 0
    while r < m and c < n:
        k, c, mult = _factor_panel(w, r, c, p)
        if r + k < m and c < n:  # a full panel with a trailing block
            # U12 = L11^-1 T = T - (I - L11^-1) T
            u12 = w[r:r + k, c:].copy()
            _reduce(u12, p)
            if mult[:k, :k].any():
                _sub_centred(u12, _strict_inverse(mult[:k, :k], p), u12, p)
            _schur_update(w, r + k, c, mult[k:, :k], u12)
            npass += 1
            if npass % _PASSES == 0:
                _reduce_rows(w[r + k:, c:], p)
        r += k
    return r


def _strict_inverse(low: np.ndarray, p: int) -> np.ndarray:
    """I - L^-1 mod p, centred, for L = I + low with low strictly lower triangular.

    low is nilpotent, so L^-1 = sum_i (-low)^i = (I + q)(I + q^2)(I + q^4)...
    with q = -low: a doubling that takes about 2 log2(k) products of k x k.
    """
    k = low.shape[0]
    q = -low
    inv = np.eye(k) + q
    span = 2
    while span < k and q.any():
        q = q @ q
        _reduce(q, p)
        _sub_centred(inv, -inv, q, p)  # inv += inv @ q
        span *= 2
    return np.eye(k) - inv


def _factor_panel(w, r, c, p):
    """Gather up to _NB pivots below row r, from column c on (left-looking).

    The panel pulls blocks of _NB columns.  A block is first brought up to
    date with the panel's k pivots so far by two products: its pivot-row
    part becomes U = L11^-1 T, its other rows B - L21 @ U.  A block that is
    then zero below the pivot rows holds no pivot and is skipped whole; the
    others are factored column by column (Crout) against the pivots found in
    the block so far; the U row of each new pivot is brought up to date on
    the block's later columns as soon as the pivot is found.  The panel
    closes on its _NB-th pivot or at the last column, so elimination ends
    once the trailing columns are used up.

    Returns the pivot count k, the column where the panel ends and the
    multipliers (mult[i, t] is that of row r + i on pivot t).  The pivots end
    up in rows r .. r + k - 1; rows of w are swapped from the current block
    on, since the columns before it are not read again.

    A pivot's multipliers are its column's entries times the centred inverse
    of the pivot, in float64.  Both factors are centred residues, so the
    product is at most h^2 < 2^40 in magnitude (h = p // 2 < 2^20): exact,
    and one ``_reduce`` gives the centred residue.
    """
    m, n = w.shape
    rows = m - r
    h = p // 2
    mult = np.zeros((rows, _NB))
    k = 0
    while c < n and k < min(_NB, rows):
        c1 = min(c + _NB, n)
        # one row per column of the block; transposing a compact copy is faster
        pt = w[r:, c:c1].copy().T.copy()
        _reduce(pt, p)
        k0 = k
        if k and pt[:, :k].any():
            # transposed: U^T = T^T - T^T strict^T, then B^T -= U^T L21^T
            u = pt[:, :k].copy()
            if mult[:k, :k].any():
                _sub_centred(u, pt[:, :k], _strict_inverse(mult[:k, :k], p).T, p)
            _sub_centred(pt[:, k:], u, mult[k:, :k].T, p)
        if not pt[:, k:].any():
            c = c1
            continue
        bw = c1 - c
        for j in range(bw):
            # Column j is current with the pivots before k0, and rows k0..k-1
            # of pt already hold U; bring the other rows up to date with the
            # block's pivots (left-looking).  pt[j] is not read again.
            bot, top = pt[j, k:], pt[j, k0:k]
            if top.any():
                _sub_centred(bot, mult[k:, k0:k], top, p)
            nz = bot.nonzero()[0]
            if nz.size == 0:
                continue
            if nz[0]:
                # the rows before nz[0] are zero here, so nz[1:] stays put
                piv = k + int(nz[0])
                pt[:, [k, piv]] = pt[:, [piv, k]]
                mult[[k, piv]] = mult[[piv, k]]
                w[[r + k, r + piv], c:] = w[[r + piv, r + k], c:]
            rest = nz[1:]
            if rest.size:
                inv = pow(int(bot[0]), -1, p)
                f = bot[rest] * (inv - p if inv > h else inv)  # |f| <= h^2 < 2^40
                _reduce(f, p)
                mult[k + rest, k] = f
            k += 1
            if k == min(_NB, rows):
                return k, c + j + 1, mult
            if j + 1 < bw and mult[k - 1, k0:k - 1].any():
                # the new pivot row's U on the later columns of the block
                _sub_centred(pt[j + 1:, k - 1], pt[j + 1:, k0:k - 1],
                             mult[k - 1, k0:k - 1], p)
        c = c1
    return k, c, mult


def _schur_update(w, r0, c1, l21, u12) -> None:
    """w[r0:, c1:] -= l21 @ u12 on the rows with nonzero multipliers, unreduced.

    Rows stay where they are: the live rows are gathered by index, updated
    and written back, in chunks of at most _CHUNK_ENTRIES entries.  A row
    whose multipliers are all zero is not touched.
    """
    live = np.flatnonzero(l21.any(axis=1))
    step = max(1, _CHUNK_ENTRIES // (w.shape[1] - c1))
    for s in range(0, live.size, step):
        idx = live[s:s + step]
        w[r0 + idx, c1:] -= l21[idx] @ u12


def rank_modp(m: ModMatrix, p: int) -> int:
    """Rank over GF(p) of one ``ModMatrix``, p < 2^21.

    The error is one-sided: rank mod p <= rank over Q, because a minor that
    vanishes over Q vanishes mod p.  The rank drops exactly when p divides
    every nonzero minor of order r, r the rank over Q, so it is enough that
    p does not divide one of them, D; ``random_prime`` bounds how many
    primes of a given length can divide D.  The float64 working copy is made
    straight from M's integers, at their stored width.  The kernel
    eliminates on it in place; its own temporaries, a panel of _NB columns
    with its multipliers and one chunk of the Schur update, add about one
    more copy for a 256-row matrix and less for larger ones.  ``imtk rank``
    calls it only for a matrix with no quotient over the Johnson scheme
    (``spectra._quotient_rank``), and ranks the whole matrix at once.
    """
    if m.p != p:
        raise ValueError("modulus mismatch")
    return _rank_kernel(m.array.astype(np.float64), p, m.mag)
