"""Differential-operator calculus for the algebra spanned by z^r D^r.

Operators are kept in the canonical form sum_r c_r z^r D^r (D = d/dz) with
rational coefficients; composition normalizes through the Leibniz rule
    D^a (z^b g) = sum_j C(a, j) (b)_{a-j} z^{b-a+j} D^j g,
so equality of operators is equality of coefficient maps.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .combinat import binomial, falling_factorial, stirling2
from .exactalg import ExactMatrix, Poly, _canon_scalar


class OperatorExpr:
    """A finite sum sum_r c_r z^r D^r in canonical form (no zero terms)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        for r, c in (terms or {}).items():
            if r < 0:
                raise ValueError("operator order must be >= 0")
            c = _canon_scalar(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
            if c != 0:
                clean[r] = c
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out.get(r, 0) + c
        return OperatorExpr(out)

    def __sub__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out.get(r, 0) - c
        return OperatorExpr(out)

    def __neg__(self):
        return OperatorExpr({r: -c for r, c in self.terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return OperatorExpr({r: c * scalar for r, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def apply_poly(self, p: Poly) -> Poly:
        """Apply sum c_r z^r D^r to a polynomial, exactly.

        z^r D^r z^d = (d)_r z^d, so the operator acts diagonally on monomials
        with weight sum_r c_r (d)_r in degree d.
        """
        p = Poly._lift(p)
        return Poly([self._weight(d) * c for d, c in enumerate(p.coeffs)])

    def _weight(self, d: int):
        return sum(c * falling_factorial(d, r) for r, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "OperatorExpr(0)"
        bits = []
        for r, c in self.terms.items():
            if r == 0:
                bits.append(f"{c}")
            else:
                bits.append(f"{c}*z^{r}D^{r}")
        return "OperatorExpr(" + " + ".join(bits) + ")"


def identity_op() -> OperatorExpr:
    return OperatorExpr({0: 1})


zD = OperatorExpr({1: 1})


def op_compose(p: OperatorExpr, q: OperatorExpr) -> OperatorExpr:
    """Canonical form of the composition p o q."""
    out: dict[int, object] = {}
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            # z^a D^a z^b D^b = sum_j C(a,j) (b)_{a-j} z^{b+j} D^{b+j}
            for j in range(a + 1):
                coef = ca * cb * binomial(a, j) * falling_factorial(b, a - j)
                if coef:
                    out[b + j] = out.get(b + j, 0) + coef
    return OperatorExpr(out)


def zD_power(n: int) -> OperatorExpr:
    """(zD)^n = sum_k S(n, k) z^k D^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return identity_op()
    return OperatorExpr({k: stirling2(n, k) for k in range(1, n + 1)})


def zD_falling(n: int) -> OperatorExpr:
    """(zD)_n = z^n D^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return OperatorExpr({n: 1})


def zD_shifted_falling(k: int, n: int) -> OperatorExpr:
    """(zD - k)_n = n! sum_r C(n+k-r-1, n-r) (-1)^{n-r} z^r D^r / r!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    nf = factorial(n)
    return OperatorExpr({
        r: Fraction((-1) ** (n - r) * binomial(n + k - r - 1, n - r) * nf,
                    factorial(r))
        for r in range(n + 1)
    })


def L(s: int, i: int) -> OperatorExpr:
    """The operator with W_{is}^T F^t_{ik} = L(s, i) applied to F^t_{sk}.

    Canonical form sum_{r=0}^{s-i} (-1)^r C(s-r, i) z^r D^r / r!; equals
    ((-1)^(s-i) / (s-i)!) (zD - i - 1)_{s-i}.
    """
    if not 0 <= i <= s:
        raise ValueError("L needs 0 <= i <= s")
    return OperatorExpr({
        r: Fraction((-1) ** r * binomial(s - r, i), factorial(r))
        for r in range(s - i + 1)
    })


def op_apply(p: OperatorExpr, m: ExactMatrix) -> ExactMatrix:
    """Apply an operator to a polynomial matrix entrywise.

    z^r D^r acts diagonally on degrees, so each degree slice of the
    coefficient stack is scaled by its weight, as in apply_poly.
    """
    width = m.max_degree() + 1
    return m.along_degrees([[p._weight(i) if i == j else 0 for j in range(width)]
                            for i in range(width)])
