"""Johnson scheme J(v, k): class matrices, the three Bose-Mesner bases, basis
conversions, intersection numbers, and axiom verification.

Indexing convention: the scheme's class matrices X_i are indexed by
"distance" i (pairs with |K1 cap K2| = k - i), while the intersection
numbers r and p are indexed by intersection size; ``p_distance`` gives p in
distance indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .build import A, U, Uge, MatrixKind, build
from .combinat import binomial
from .exactalg import ExactMatrix

_BASIS_TAGS = ("X", "A", "Uge")


def intersection_r(v: int, k: int, i: int, j: int, l: int) -> int:
    """Structure constant of A^i A^j = sum_l r A^l over J(v, k)."""
    return (binomial(v - i - j, k - i - j + l) * binomial(k - l, i - l)
            * binomial(k - l, j - l))


def intersection_p(v: int, k: int, i: int, j: int, l: int) -> int:
    """Structure constant of U^i U^j = sum_l p U^l over J(v, k).

    Indices are intersection sizes; use p_distance for the X-basis axiom.
    """
    return sum(binomial(l, e) * binomial(k - l, i - e) * binomial(k - l, j - e)
               * binomial(v - 2 * k + l, k - i - j + e)
               for e in range(l + 1))


def p_distance(v: int, k: int, i: int, j: int, l: int) -> int:
    """Intersection number of the scheme axiom X_i X_j = sum_l p X_l."""
    return intersection_p(v, k, k - i, k - j, k - l)


@dataclass(frozen=True)
class SchemeBasis:
    """k+1 ordered members of one of the Bose-Mesner bases of J(v, k)."""

    v: int
    k: int
    tag: str
    mats: tuple[ExactMatrix, ...]

    def member(self, i: int) -> ExactMatrix:
        return self.mats[i]

    def __len__(self) -> int:
        return self.k + 1


def _member_kind(tag: str, i: int, v: int, k: int) -> MatrixKind:
    if tag == "X":
        return U(k - i, k, k, v)
    if tag == "A":
        return A(i, k, k, v)
    return Uge(i, k, k, v)


def scheme_basis(v: int, k: int, tag: str) -> SchemeBasis:
    """Build the X (class), A, or Uge basis of J(v, k)."""
    if tag not in _BASIS_TAGS:
        raise ValueError(f"basis tag must be one of {_BASIS_TAGS}")
    if not 0 <= k <= v:
        raise ValueError("need 0 <= k <= v")
    return SchemeBasis(v, k, tag,
                       tuple(build(_member_kind(tag, i, v, k)) for i in range(k + 1)))


def _coeffs_to_u(tag: str, k: int) -> list[list[int]]:
    """Coefficients expressing basis members in the U basis (U^l indexed by l)."""
    n = k + 1
    out = [[0] * n for _ in range(n)]
    for m in range(n):
        if tag == "X":
            out[m][k - m] = 1
        elif tag == "A":
            for l in range(n):
                out[m][l] = binomial(l, m)
        else:  # Uge^m = sum_{l >= m} U^l
            for l in range(m, n):
                out[m][l] = 1
    return out


def _coeffs_from_u(tag: str, k: int) -> list[list[int]]:
    """Coefficients expressing the U basis in the target basis."""
    n = k + 1
    out = [[0] * n for _ in range(n)]
    for l in range(n):
        if tag == "X":
            out[l][k - l] = 1
        elif tag == "A":
            # U^l = sum_i (-1)^(i-l) C(i, l) A^i
            for i in range(l, n):
                out[l][i] = (-1) ** (i - l) * binomial(i, l)
        else:
            # U^l = Uge^l - Uge^{l+1}
            out[l][l] = 1
            if l + 1 < n:
                out[l][l + 1] = -1
    return out


def conversion_matrix(v: int, k: int, from_tag: str, to_tag: str) -> list[list[int]]:
    """Integer matrix C with to_basis[m] = sum_n C[m][n] * from_basis[n]."""
    for tag in (from_tag, to_tag):
        if tag not in _BASIS_TAGS:
            raise ValueError(f"basis tag must be one of {_BASIS_TAGS}")
    n = k + 1
    to_u = _coeffs_to_u(to_tag, k)        # to[m] = sum_l to_u[m][l] U^l
    u_from = _coeffs_from_u(from_tag, k)  # U^l = sum_n u_from[l][n] from[n]
    return [[sum(to_u[m][l] * u_from[l][nn] for l in range(n)) for nn in range(n)]
            for m in range(n)]


def basis_convert(basis: SchemeBasis, to_tag: str) -> SchemeBasis:
    """Exact change of basis; round trips are the identity."""
    coef = conversion_matrix(basis.v, basis.k, basis.tag, to_tag)
    return SchemeBasis(basis.v, basis.k, to_tag, tuple(
        ExactMatrix.lincomb(zip(row, basis.mats), *basis.mats[0].shape) for row in coef))


@dataclass
class SchemeAxiomReport:
    v: int
    k: int
    ok: bool = True
    failures: list[str] = field(default_factory=list)
    products_checked: int = 0

    def fail(self, msg: str) -> None:
        self.ok = False
        self.failures.append(msg)

    def to_dict(self) -> dict:
        return {"v": self.v, "k": self.k, "ok": self.ok,
                "products_checked": self.products_checked,
                "failures": list(self.failures)}


def verify_scheme_axioms(v: int, k: int) -> SchemeAxiomReport:
    """Check the association-scheme axioms for the class matrices of J(v, k).

    (i) sum X_i = J, (ii) X_0 = I, (iii) symmetry, (iv) X_i X_j expands with
    the intersection numbers translated from intersection_p.
    """
    report = SchemeAxiomReport(v, k)
    xs = scheme_basis(v, k, "X").mats
    n = binomial(v, k)
    if ExactMatrix.lincomb(((1, x) for x in xs), n, n) != ExactMatrix.ones(n, n):
        report.fail("sum of class matrices is not the all-ones matrix")
    if xs[0] != ExactMatrix.identity(n):
        report.fail("X_0 is not the identity")
    for i, x in enumerate(xs):
        if not x.is_symmetric():
            report.fail(f"X_{i} is not symmetric")
    for i in range(k + 1):
        for j in range(k + 1):
            prod = xs[i] @ xs[j]
            expected = ExactMatrix.lincomb(
                ((p_distance(v, k, i, j, l), xs[l]) for l in range(k + 1)), n, n)
            report.products_checked += 1
            if prod != expected:
                report.fail(f"X_{i} X_{j} does not match its p-number expansion")
                return report
    return report
