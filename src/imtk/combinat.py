"""Combinatorial primitives: extended binomials, subset ranking, Stirling
numbers, falling factorials, and the scalar generating functions psi and xi.

Subsets of {1..v} are plain tuples of strictly increasing ints; families
enumerate them in lexicographic order, so the first C(v-1, s-1) subsets are
exactly those containing the element 1 (the block decompositions rely on
this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .exactalg import Poly


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the extended conventions.

    C(n, k) = 0 for k < 0; for n < 0 and k >= 0,
    C(n, k) = (-1)^k C(k - n - 1, k).
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** k * math.comb(k - n - 1, k)


@dataclass(frozen=True)
class SubsetFamily:
    """All s-subsets of {1..v} in lexicographic order over sorted tuples."""

    v: int
    s: int

    def __post_init__(self):
        if not 0 <= self.s <= self.v:
            raise ValueError(f"invalid family parameters v={self.v}, s={self.s}")

    def __len__(self) -> int:
        return binomial(self.v, self.s)

    def subsets(self) -> Iterator[tuple[int, ...]]:
        return combinations(range(1, self.v + 1), self.s)

    def check(self, subset: tuple[int, ...]) -> None:
        if len(subset) != self.s:
            raise ValueError(f"subset {subset} does not have size {self.s}")
        prev = 0
        for x in subset:
            if not isinstance(x, int) or x <= prev or x > self.v:
                raise ValueError(f"malformed subset {subset} for ground set 1..{self.v}")
            prev = x

    def rank(self, subset: tuple[int, ...]) -> int:
        self.check(tuple(subset))
        r = 0
        prev = 0
        for i, c in enumerate(subset):
            for a in range(prev + 1, c):
                r += binomial(self.v - a, self.s - i - 1)
            prev = c
        return r

    def complement_permutation(self) -> list[int]:
        """Rank map S -> {1..v} \\ S into the (v, v-s) family."""
        co = SubsetFamily(self.v, self.v - self.s)
        full = set(range(1, self.v + 1))
        return [co.rank(tuple(sorted(full - set(sub)))) for sub in self.subsets()]


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return -(n - 1) * stirling1(n - 1, k) + stirling1(n - 1, k - 1)


def falling_factorial(x, n: int):
    """(x)_n = x (x-1) ... (x-n+1); accepts ints, Fractions, or Poly."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    out = 1
    for i in range(n):
        out = out * (x - i)
    return out


def psi(theta: int, t: int) -> Poly:
    """psi_{theta,t}(z) = sum_{i=0}^{t} C(theta, i) z^i."""
    if theta < 0 or t < 0:
        raise ValueError("psi needs theta, t >= 0")
    return Poly([binomial(theta, i) for i in range(t + 1)])


def xi(theta: int, t: int, k: int) -> Poly:
    """xi^k_{theta,t}(z) = sum_{i=0}^{t} C(theta, i) / C(k-i, t-i) z^i."""
    if not 0 <= theta <= t <= k:
        raise ValueError(f"xi needs 0 <= theta <= t <= k, got {(theta, t, k)}")
    return Poly([Fraction(binomial(theta, i), binomial(k - i, t - i))
                 for i in range(t + 1)])


def xi_at_minus1(theta: int, t: int, k: int) -> Fraction:
    """Closed form for xi^k_{theta,t}(-1).

    For theta = 0 the value is 1/C(k, t) (the k-t factor cancels), which also
    settles the (k-t, theta) = (0, 0) case to 1.
    """
    if not 0 <= theta <= t <= k:
        raise ValueError(f"xi needs 0 <= theta <= t <= k, got {(theta, t, k)}")
    if theta == 0:
        return Fraction(1, binomial(k, t))
    return Fraction((-1) ** theta * (k - t),
                    (k - t + theta) * binomial(k, t - theta))
