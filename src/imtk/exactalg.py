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

The mod-p rank is exact too.  Its one input is a ``ModMatrix``: M - shift*I
over GF(p), kept as M's own int64 array while max|M| + |shift| < 2^53 and
copied and reduced mod p only past that.  The rank is blocked Gaussian
elimination on a float64 copy whose products are BLAS GEMMs of centred
residues, |x| <= p // 2:
a product with inner dimension nb is exact while nb * (p // 2)^2 + p < 2^53,
and a trailing row is reduced only once in as many passes as keep it below
2^51 (see ``_panel_plan``).  Primes are refused from 2^27 on, where nb
would fall below 2; the program draws 21-bit primes.  Every partial sum of
a product is an integer below 2^53, so the rank does not depend on how BLAS
splits the sum.
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

    At 21 bits the float64 rank kernel closes its panels on 64 pivots and
    reduces a trailing row only once in 32 or more Schur passes (see
    ``_panel_plan``).

    Unlucky primes.  Let A be an integer matrix of rank r over Q and D a
    nonzero r x r minor of it.  The rank of A mod p drops only if p divides
    D.  Hadamard's bound caps |D| by the product of the norms of D's rows,
    and a prime of b bits is at least 2^(b-1), so at most log2|D| / (b - 1)
    primes of b bits divide D.  There are 73 586 primes of 21 bits and
    985 818 of 25 bits.  For U^3 on J(13, 6), 1716 rows of 700 ones,
    log2|D| <= 1716 * log2(sqrt(700)) < 8110: at most 405 of the 21-bit
    primes are unlucky, a chance of at most 0.55% per draw (0.034% at 25
    bits), and of at most 0.003% that two independent draws both are.
    """
    rng = rng or random.Random()
    while True:
        cand = rng.getrandbits(DEFAULT_PRIME_BITS) | (1 << (DEFAULT_PRIME_BITS - 1)) | 1
        if is_prime(cand):
            return cand


def _check_modulus(p: int) -> None:
    # below 2^27, 2 * (p // 2)^2 + p < 2^53: a panel holds nb >= 2 pivots with
    # one exact product per update (see _panel_plan)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p.bit_length() > 27:
        raise ValueError(f"modulus {p} too large: the float64 rank kernel needs p < 2^27")


_FLOAT_EXACT = 1 << 53    # float64 holds every integer of smaller magnitude
_CENTRED_EXACT = 1 << 51  # below this one _reduce gives the centred residue


class ModMatrix:
    """The integer matrix ``array - shift * I`` over GF(p), p < 2^27.

    While max|array| + |shift| < 2^53 an int64 ``array`` is kept as given,
    without a copy, and must not be changed afterwards: ``rank_modp`` makes
    its float64 working copy straight from it, exactly.  Otherwise ``array``
    is reduced once with ``% p`` and ``shift`` mod p.  ``mag`` is max|array|,
    computed when not given.
    """

    __slots__ = ("p", "array", "shift", "mag")

    def __init__(self, array: np.ndarray, p: int, shift: int = 0, mag: int | None = None):
        _check_modulus(p)
        array = np.asarray(array)
        if shift and array.shape[0] != array.shape[1]:
            raise ValueError("only a square matrix can be shifted")
        mag = _magnitude(array) if mag is None else mag
        if mag + abs(shift) >= _FLOAT_EXACT:
            array, shift, mag = array % p, shift % p, p - 1
        self.p, self.shift, self.mag = p, shift, mag
        self.array = array.astype(np.int64, copy=False)

    @classmethod
    def from_exact(cls, m: ExactMatrix, p: int) -> "ModMatrix":
        """The integer matrix m over GF(p), its stack not copied below 2^53."""
        if not m.all_int():
            raise TypeError("only an integer matrix has a mod-p reduction here")
        return cls(m.stack[0], p, mag=m.mag)


_PANEL_MAX = 64   # measured: 128 slowed the sparse order-3432 golden ranks
_CHUNK_ENTRIES = 1 << 16  # entries per row chunk of the Schur update (512 kB)


def _panel_plan(p: int) -> tuple[int, int]:
    """Pivots per panel nb and reduction interval of the elimination mod p.

    Every product subtracts lmat @ u, inner dimension at most nb and operands
    centred (|x| <= h = p // 2), so one pass adds at most nb * h^2 to an
    entry.  nb is the largest with nb * h^2 + p < 2^53, capped at 64: 64 for
    every prime below about 2^24.5, 32 at 25 bits and 2 at 134217689, the
    largest prime below 2^27 that ``_check_modulus`` lets through.

    A stored entry is reduced again once it has taken ``passes`` passes, the
    most with passes * nb * h^2 + p < 2^51, but at least one: 32 or more for
    every 21-bit prime, 1 from 24 bits.  Stored entries thus stay below 2^51,
    where one ``_reduce`` gives the centred residue.
    """
    h = p // 2
    nb = min((_FLOAT_EXACT - 1 - p) // (h * h), _PANEL_MAX)
    return nb, max(1, (_CENTRED_EXACT - 1 - p) // (nb * h * h))


def _reduce(x: np.ndarray, p, scratch: np.ndarray) -> None:
    """x -= p * rint(x / p) in place, with x / p taken as x * (1 / p).

    For integral |x| < 2^53 this leaves |x| <= (p + 3) / 2 <= p.  For odd p
    and |x| < 2^51 it leaves the centred residue, |x| <= p // 2: x / p is
    then at least 1 / (2p) from a half-integer and the computed quotient
    errs by less, so rint rounds it as it would the exact one.  p = 2 also
    leaves |x| <= 1: 1 / 2 is a power of two, so x / 2 is computed exactly,
    and rint moves an integer or half-integer by at most 1 / 2.  p may be
    an array that broadcasts against x.
    """
    np.multiply(x, 1.0 / p, out=scratch)
    np.rint(scratch, out=scratch)
    scratch *= p
    x -= scratch


def _centre(x: np.ndarray, p, scratch: np.ndarray) -> None:
    """Integral |x| < 2^53 to centred residues, |x| <= p // 2, in place."""
    _reduce(x, p, scratch)
    _reduce(x, p, scratch)


def _reduce_rows(x: np.ndarray, p: int, buf: np.ndarray) -> None:
    """_reduce on a 2-D block, in row chunks through buf."""
    step = max(1, _CHUNK_ENTRIES // max(1, x.shape[1]))
    for s in range(0, x.shape[0], step):
        chunk = x[s:s + step]
        _reduce(chunk, p, _scratch(buf, chunk.shape))


def _sub_centred(dst, lmat, u, p, buf) -> None:
    """dst -= lmat @ u, left as centred residues (a small operand's update)."""
    prod = _scratch(buf, dst.shape)
    np.matmul(lmat, u, out=prod)
    dst -= prod
    _centre(dst, p, prod)


def _scratch(buf: np.ndarray, shape) -> np.ndarray:
    """An array of the given shape carved from the front of buf."""
    return buf[:math.prod(shape)].reshape(shape)


def _swap_rows(a: np.ndarray, i: int, j: int, tmp: np.ndarray) -> None:
    tmp[:] = a[i]
    a[i] = a[j]
    a[j] = tmp


def _rank_kernel(w: np.ndarray, p: int, bound: int) -> int:
    """Rank over GF(p) of the float64 integer matrix w, |w| <= bound < 2^53.

    Right-looking blocked elimination, in place on w.  ``_factor_panel``
    gathers a panel of nb pivots, or as many as the columns hold.  The pivot
    rows then get their trailing part U12 = L11^-1 T, and the rows whose
    multipliers L21 are not all zero get the Schur update L21 @ U12.  Every
    product is a float64 GEMM of operands reduced to centred residues.  The
    trailing rows are not reduced after every pass: a row is reduced right
    after the pass that uses up its interval from ``_panel_plan``, which
    keeps every stored entry below 2^51.
    """
    m, n = w.shape
    if m == 0 or n == 0:
        return 0
    nb, passes = _panel_plan(p)
    tmp = np.empty(max(n, nb))
    buf = np.empty(max(_CHUNK_ENTRIES + n, nb * max(m, n)))
    if bound > p:
        _reduce_rows(w, p, buf)
    ages = np.zeros(m, dtype=np.int64)  # passes taken by each row since its last reduction
    r = c = 0
    while r < m and c < n:
        k, c, mult = _factor_panel(w, r, c, p, nb, buf, tmp, ages)
        if r + k < m and c < n:  # a full panel with a trailing block
            # U12 = L11^-1 T = T - (I - L11^-1) T
            u12 = w[r:r + k, c:].copy()
            _reduce(u12, p, _scratch(buf, u12.shape))
            if mult[:k, :k].any():
                _sub_centred(u12, _strict_inverse(mult[:k, :k], p, buf), u12, p, buf)
            _schur_update(w, r + k, c, mult[k:, :k], u12, p, passes, buf, tmp, ages)
        r += k
    return r


def _strict_inverse(low: np.ndarray, p: int, buf: np.ndarray) -> np.ndarray:
    """I - L^-1 mod p, centred, for L = I + low with low strictly lower triangular.

    low is nilpotent, so L^-1 = sum_i (-low)^i = (I + q)(I + q^2)(I + q^4)...
    with q = -low: a doubling that takes about 2 log2(k) products of k x k.
    """
    k = low.shape[0]
    q = -low
    inv = np.eye(k) + q
    span = 2
    while span < k and q.any():
        square = np.zeros_like(q)
        _sub_centred(square, -q, q, p, buf)
        q = square
        _sub_centred(inv, -inv, q, p, buf)  # inv += inv @ q
        span *= 2
    return np.eye(k) - inv


def _factor_panel(w, r, c, p, nb, buf, tmp, ages):
    """Gather up to nb pivots below row r, from column c on (left-looking).

    The panel pulls blocks of nb columns.  A block is first brought up to
    date with the panel's k pivots so far by two products: its pivot-row
    part becomes U = L11^-1 T, its other rows B - L21 @ U.  A block that is
    then zero below the pivot rows holds no pivot and is skipped whole; the
    others are factored column by column (Crout) against the pivots found in
    the block so far; the U row of each new pivot is brought up to date on
    the block's later columns as soon as the pivot is found.  The panel
    closes on its nb-th pivot or at the last column, so elimination ends
    once the trailing columns are used up.

    Returns the pivot count k, the column where the panel ends and the
    multipliers (mult[i, t] is that of row r + i on pivot t).  The pivots end
    up in rows r .. r + k - 1; rows of w are swapped from the current block
    on, since the columns before it are not read again.
    """
    m, n = w.shape
    rows = m - r
    h = p // 2
    mult = np.zeros((rows, nb))
    k = 0
    while c < n and k < min(nb, rows):
        c1 = min(c + nb, n)
        # one row per column of the block; transposing a compact copy is faster
        pt = w[r:, c:c1].copy().T.copy()
        _reduce(pt, p, _scratch(buf, pt.shape))
        k0 = k
        if k and pt[:, :k].any():
            # transposed: U^T = T^T - T^T strict^T, then B^T -= U^T L21^T
            u = pt[:, :k].copy()
            if mult[:k, :k].any():
                _sub_centred(u, pt[:, :k], _strict_inverse(mult[:k, :k], p, buf).T, p, buf)
            _sub_centred(pt[:, k:], u, mult[k:, :k].T, p, buf)
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
                prod = _scratch(buf, bot.shape)
                np.matmul(mult[k:, k0:k], top, out=prod)
                bot -= prod
                _reduce(bot, p, prod)
            nz = bot.nonzero()[0]
            if nz.size == 0:
                continue
            if nz[0]:
                # the rows before nz[0] are zero here, so nz[1:] stays put
                piv = k + int(nz[0])
                pt[:, [k, piv]] = pt[:, [piv, k]]
                _swap_rows(mult, k, piv, tmp[:nb])
                _swap_rows(w[:, c:], r + k, r + piv, tmp[:n - c])
                ages[r + k], ages[r + piv] = ages[r + piv], ages[r + k]
            rest = nz[1:]
            if rest.size:
                f = (bot[rest].astype(np.int64) * pow(int(bot[0]), -1, p)) % p
                f[f > h] -= p
                mult[k + rest, k] = f
            k += 1
            if k == min(nb, rows):
                return k, c + j + 1, mult
            if j + 1 < bw and mult[k - 1, k0:k - 1].any():
                # the new pivot row's U on the later columns of the block
                _sub_centred(pt[j + 1:, k - 1], pt[j + 1:, k0:k - 1],
                             mult[k - 1, k0:k - 1], p, buf)
        c = c1
    return k, c, mult


def _schur_update(w, r0, c1, l21, u12, p, passes, buf, tmp, ages) -> None:
    """w[r0:, c1:] -= l21 @ u12 on the rows with nonzero multipliers.

    Those rows are first swapped to the front of the block, so the update
    runs on contiguous row chunks through the buffer.  A chunk is reduced
    right after its product, while still in cache, once one of its rows has
    taken ``passes`` passes since its last reduction (``ages`` counts them).
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
        ages[r0 + i], ages[r0 + j] = ages[r0 + j], ages[r0 + i]
    step = max(1, _CHUNK_ENTRIES // ncols)
    for s in range(0, q, step):
        e = min(q, s + step)
        dst, prod = w[r0 + s:r0 + e, c1:], _scratch(buf, (e - s, ncols))
        np.matmul(l21[s:e], u12, out=prod)
        dst -= prod
        taken = ages[r0 + s:r0 + e]
        taken += 1
        if taken.max() >= passes:
            _reduce(dst, p, prod)
            taken[:] = 0


def rank_modp(m: ExactMatrix | ModMatrix, p: int) -> int:
    """Rank over GF(p) of the matrix reduced mod p.

    The error is one-sided: rank mod p <= rank over Q, because a minor that
    vanishes over Q vanishes mod p.  The rank drops exactly when p divides
    every nonzero minor of order r, r the rank over Q, so it is enough that
    p does not divide one of them, D; ``random_prime`` bounds how many
    primes of a given length can divide D.  The input is one ``ModMatrix``
    with p < 2^27 (an ExactMatrix must have integer entries and is first made
    one by ``ModMatrix.from_exact``; other entries raise TypeError): M -
    shift*I over GF(p), copied and reduced only past 2^53.  Its float64
    working copy is made from M's integers and the shift subtracted on the
    copy's diagonal.
    """
    if isinstance(m, ExactMatrix):
        m = ModMatrix.from_exact(m, p)
    elif m.p != p:
        raise ValueError("modulus mismatch")
    w = m.array.astype(np.float64)
    if m.shift:
        idx = np.arange(w.shape[0])
        w[idx, idx] -= m.shift
    return _rank_kernel(w, p, m.mag + abs(m.shift))
