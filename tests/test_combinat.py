from fractions import Fraction
from itertools import combinations

import pytest

from imtk.combinat import (SubsetFamily, binomial, falling_factorial, psi,
                           stirling1, stirling2, xi, xi_at_minus1)
from imtk.exactalg import Poly
from oracles import psi_at_minus1, unrank


# ---------------------------------------------------------------------------
# binomial

def test_binomial_basic():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, 7) == 0


@pytest.mark.parametrize("n", range(-6, 7))
def test_binomial_negative_k_is_zero(n):
    assert binomial(n, -1) == 0
    assert binomial(n, -4) == 0


def test_binomial_negative_upper():
    # C(-1, 7) and the lambda_0 computation for N^5_{6,6}(13)
    assert binomial(-1, 7) == -1
    assert binomial(-2, 6) == 7
    assert 1 - binomial(-2, 6) == -6


def test_binomial_negative_upper_identity():
    # the extended value agrees with (n)_k / k! for negative n
    for n in range(-8, 0):
        for k in range(0, 9):
            ff = falling_factorial(Fraction(n), k)
            assert Fraction(binomial(n, k)) == ff / falling_factorial(Fraction(k), k)


# ---------------------------------------------------------------------------
# subset ranking

def test_rank_two_subsets_of_three():
    fam = SubsetFamily(3, 2)
    assert [fam.rank(s) for s in [(1, 2), (1, 3), (2, 3)]] == [0, 1, 2]


def test_unrank_zero_is_prefix():
    for v in range(1, 9):
        for s in range(v + 1):
            assert unrank(SubsetFamily(v, s), 0) == tuple(range(1, s + 1))


def test_first_block_contains_element_one():
    fam = SubsetFamily(4, 2)
    with_one = [r for r, sub in enumerate(fam.subsets()) if 1 in sub]
    assert with_one == [0, 1, 2]
    for v in range(1, 9):
        for s in range(1, v + 1):
            fam = SubsetFamily(v, s)
            head = binomial(v - 1, s - 1)
            for r, sub in enumerate(fam.subsets()):
                assert (1 in sub) == (r < head)


def test_rank_unrank_roundtrip_up_to_v10():
    for v in range(0, 11):
        for s in range(v + 1):
            fam = SubsetFamily(v, s)
            for r, sub in enumerate(fam.subsets()):
                assert fam.rank(sub) == r
                assert unrank(fam, r) == sub


def test_rank_errors():
    fam = SubsetFamily(5, 2)
    with pytest.raises(ValueError):
        unrank(fam, 10)
    with pytest.raises(ValueError):
        fam.rank((2, 2))
    with pytest.raises(ValueError):
        fam.rank((1, 2, 3))
    assert unrank(fam, 9) == (4, 5)


def test_complement_permutation():
    fam = SubsetFamily(5, 2)
    co = SubsetFamily(5, 3)
    perm = fam.complement_permutation()
    assert sorted(perm) == list(range(10))
    for r, sub in enumerate(fam.subsets()):
        assert unrank(co, perm[r]) == tuple(sorted(set(range(1, 6)) - set(sub)))


# ---------------------------------------------------------------------------
# stirling numbers

def _partitions_into(n, k):
    """Brute force: number of ways to partition {0..n-1} into k nonempty parts."""
    def rec(elems, parts):
        if not elems:
            return 1 if len(parts) == k else 0
        if len(parts) > k:
            return 0
        first, rest = elems[0], elems[1:]
        total = 0
        for i in range(len(parts)):
            total += rec(rest, parts[:i] + [parts[i] + [first]] + parts[i + 1:])
        total += rec(rest, parts + [[first]])
        return total
    return rec(list(range(n)), [])


def test_stirling2_against_partition_enumeration():
    assert stirling2(3, 2) == _partitions_into(3, 2) == 3
    for n in range(7):
        for k in range(n + 1):
            assert stirling2(n, k) == _partitions_into(n, k)


def test_stirling1_diagonal():
    for n in range(10):
        assert stirling1(n, n) == 1


def test_stirling_recursions():
    for n in range(10):
        for k in range(1, n + 2):
            assert stirling2(n + 1, k) == k * stirling2(n, k) + stirling2(n, k - 1)
            assert stirling1(n + 1, k) == -n * stirling1(n, k) + stirling1(n, k - 1)


def test_stirling1_generates_falling_factorial():
    x = Poly((0, 1))
    for n in range(1, 7):
        expansion = Poly([stirling1(n, k) if k >= 1 else 0 for k in range(n + 1)])
        assert expansion == falling_factorial(x, n)


def test_stirling_orthogonality():
    for n in range(11):
        for m in range(11):
            total = sum(stirling1(n, k) * stirling2(k, m) for k in range(m, n + 1))
            assert total == (1 if n == m else 0)


# ---------------------------------------------------------------------------
# falling factorial

def test_falling_factorial_values():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(Fraction(5), 0) == 1
    assert falling_factorial(Poly((0, 1)), 1) == Poly((0, 1))
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_falling_factorial_negation_identity():
    # (-k)_i = (-1)^i (k+i-1)_i
    for k in range(7):
        for i in range(7):
            assert falling_factorial(-k, i) == (-1) ** i * falling_factorial(k + i - 1, i)


# ---------------------------------------------------------------------------
# psi

def test_psi_small_cases():
    assert psi(2, 3) == Poly((1, 1)) ** 2
    assert psi(3, 1) == Poly((1, 3))
    assert psi(3, 2).eval(-1) == 1


def test_psi_binomial_theorem_case():
    for theta in range(6):
        for t in range(theta, 9):
            assert psi(theta, t) == Poly((1, 1)) ** theta


def test_psi_at_minus1_closed_form():
    for theta in range(11):
        for t in range(11):
            assert psi(theta, t).eval(-1) == psi_at_minus1(theta, t)
            assert psi_at_minus1(theta, t) == (-1) ** t * binomial(theta - 1, t)


def test_psi_recursions():
    z = Poly((0, 1))
    for theta in range(11):
        for t in range(11):
            lhs = psi(theta + 1, t + 1)
            assert lhs == (z + 1) * psi(theta, t) + binomial(theta, t + 1) * z ** (t + 1)
            assert lhs.derive() == (theta + 1) * psi(theta, t)


# ---------------------------------------------------------------------------
# xi

def test_xi_equals_binomial_power_at_t_equals_k():
    for theta in range(7):
        for t in range(theta, 9):
            assert xi(theta, t, t) == Poly((1, 1)) ** theta


def test_xi_examples():
    assert xi(1, 1, 2).eval(-1) == Fraction(-1, 2)
    # direct defining sum: 1/C(2,1) + z
    assert xi(1, 1, 2) == Poly((Fraction(1, 2), 1))
    for t in range(5):
        for k in range(t, 8):
            assert xi(0, t, k) == Poly((Fraction(1, binomial(k, t)),))


def test_xi_parameter_validation():
    with pytest.raises(ValueError):
        xi(2, 1, 3)
    with pytest.raises(ValueError):
        xi(1, 3, 2)
    with pytest.raises(ValueError):
        xi_at_minus1(1, 3, 2)


def test_xi_recursions_to_ten():
    z = Poly((0, 1))
    for k in range(11):
        for t in range(k + 1):
            for theta in range(t + 1):
                assert xi(theta + 1, t + 1, k + 1) == xi(theta, t + 1, k + 1) + z * xi(theta, t, k)
                assert xi(theta + 1, t + 1, k + 1).derive() == (theta + 1) * xi(theta, t, k)


def test_xi_derivative_factor_is_theta_plus_one():
    # the theta-factor variant fails already at theta = 0
    lhs = xi(1, 1, 1).derive()
    assert lhs == 1 * xi(0, 0, 0)
    assert lhs != 0 * xi(0, 0, 0)


def test_xi_at_minus1_closed_form_incl_convention():
    for k in range(11):
        for t in range(k + 1):
            for theta in range(t + 1):
                assert xi(theta, t, k).eval(-1) == xi_at_minus1(theta, t, k)
    # the (k - t, theta) = (0, 0) convention resolves to 1
    assert xi_at_minus1(0, 3, 3) == 1


# ---------------------------------------------------------------------------
# the alternating binomial convolution identity

def test_alternating_binomial_convolution_identity():
    for l in range(9):
        for m in range(9):
            for n in range(9):
                for s in range(9):
                    lhs = sum((-1) ** k * binomial(l - k, m) * binomial(s, k - n)
                              for k in range(l + 1))
                    assert lhs == (-1) ** (l + m) * binomial(s - m - 1, l - m - n)
