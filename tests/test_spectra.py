import importlib
import itertools
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from imtk.build import A, F, N, U, Uge, Utl, W, _entries, build
from imtk.combinat import SubsetFamily, binomial
from imtk.exactalg import ExactMatrix, ModMatrix, Poly, random_prime, rank_modp
from imtk.spectra import (_ELL_RATIO, EYE_BLOCK, PROBES, SpectrumSpec,
                          _annihilation_failures, _johnson_quotient, _pattern, _power_traces,
                          _product, _quotient_powers, _quotient_rank, _quotient_traces, alpha,
                          eberlein, lambda_uge, lambda_utl, mu, multiplicity, rank_formula,
                          sampled_eval_points, spectrum_of, tau, verify_spectrum, wf_spectrum,
                          wu_spectrum)

from oracles import (complement_kinds, float_crosscheck, float_eigenvalues, mat_inverse,
                     rank_exact, rank_mod, square_kinds, trace_powers)

RNG_SEED = 1234

# the package binds the name imtk.build to the function, so fetch the module
build_module = importlib.import_module("imtk.build")


def a_matrix_eigenvalue(v, k, i, j):
    """Eigenvalue of A^i_kk on V_j."""
    return binomial(k - j, i - j) * binomial(v - j - i, k - i) if i >= j else 0


# ---------------------------------------------------------------------------
# closed forms

def test_mu_t0_is_order():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            assert mu(v, k, 0, 0) == Poly((binomial(v, k),))


def test_mu_coefficients_are_a_matrix_eigenvalues():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for t in range(k + 1):
                for j in range(t + 1):
                    p = mu(v, k, t, j)
                    for i in range(t + 1):
                        assert p.coeff(i) == a_matrix_eigenvalue(v, k, i, j)


def test_mu_row_sum_oracle():
    # mu_0(1) equals the constant row sum of F_kk(1) (all-ones eigenvector)
    f = build(F(2, 2, 2, 5)).eval_at(1)
    row_sums = {sum(row) for row in f.data}
    assert row_sums == {mu(5, 2, 2, 0).eval(1)}


def test_lambda_utl_big_examples():
    # N^6_{7,7}(14) = U^{6,0}: eigenvalues 1 + (-1)^j
    for j in range(7):
        assert lambda_utl(14, 7, 6, 0, j) == 1 + (-1) ** j
        assert lambda_utl(14, 7, 6, 0, j) == 1 - binomial(2 * 7 - 14 - 1, 7 - j)
    # N^5_{6,6}(13) = -U^{5,0}: value on V_0 is -6
    assert -lambda_utl(13, 6, 5, 0, 0) == -6
    assert [-lambda_utl(13, 6, 5, 0, j) for j in range(6)] == [-6, 7, -4, 5, -2, 3]


def test_lambda_utl_identity_case():
    # l = t = k: U^{kk}_kk = A^k = I
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for j in range(k + 1):
                assert lambda_utl(v, k, k, k, j) == 1


def test_lambda_utl_low_terms_vanish():
    # the eigenvalue sum may start below j; those terms are identically zero
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for t in range(k + 1):
                for l in range(t + 1):
                    for j in range(t + 1):
                        for i in range(l, min(j, t + 1)):
                            term = ((-1) ** (l + i) * binomial(i, l)
                                    * binomial(k - j, i - j) * binomial(v - j - i, k - i))
                            assert term == 0


def test_eberlein_j52():
    assert [eberlein(5, 2, 1, j) for j in range(3)] == [6, 1, -2]
    assert [eberlein(5, 2, 0, j) for j in range(3)] == [1, 1, 1]


def test_eberlein_float_oracle_j52():
    got = float_eigenvalues(build(U(1, 2, 2, 5)))
    assert np.allclose(sorted(got), [-2] * 5 + [1] * 4 + [6])


def test_eberlein_equals_utl_eigenvalue_under_index_map():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for l in range(k + 1):
                for j in range(k + 1):
                    assert eberlein(v, k, l, j) == lambda_utl(v, k, k, k - l, j)


def test_lambda_uge_identity_case():
    for v in range(2, 9):
        for k in range(1, v // 2 + 1):
            for j in range(k + 1):
                assert lambda_uge(v, k, k, j) == 1


def test_utl_eigenvalue_from_a_matrix_eigenvalues():
    # lambda_utl is the alternating binomial combination of the A^i eigenvalues
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for t in range(k + 1):
                for l in range(t + 1):
                    for j in range(t + 1):
                        want = sum((-1) ** (i - l) * binomial(i, l)
                                   * a_matrix_eigenvalue(v, k, i, j)
                                   for i in range(l, t + 1))
                        assert lambda_utl(v, k, t, l, j) == want


def test_alpha_dual_route_and_validation():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for s in range(k + 1):
                for t in range(s + 1):
                    for j in range(t + 1):
                        alpha(v, k, s, t, j)  # raises if the two routes differ
    with pytest.raises(ValueError):
        alpha(7, 3, 2, 3, 0)  # t > s


def test_tau_trivial_cases():
    # s = k, l = k: W^T_kk U^k_kk = I, all tau_j = 1
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for j in range(k + 1):
                assert tau(v, k, k, k, j) == 1


def test_tau_lower_bound_variants_agree():
    # starting the sum at min(j,l) or at l gives the same value
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for s in range(k + 1):
                for l in range(s + 1):
                    for j in range(s + 1):
                        full = tau(v, k, s, l, j)
                        tail = (-1) ** (k + s + l) * sum(
                            (-1) ** i * binomial(i, l) * binomial(k - j, i - j)
                            * binomial(v - j - i, k - i) * binomial(i - s - 1, k - s)
                            for i in range(l, k + 1))
                        assert full == tail


# ---------------------------------------------------------------------------
# spectrum_of / rank_formula

def test_spectrum_n14():
    spec = spectrum_of(N(6, 7, 7, 14))
    assert spec.order == 3432
    assert spec.distinct() == [(2, 1716), (0, 1716)]


def test_spectrum_n13():
    spec = spectrum_of(N(5, 6, 6, 13))
    assert spec.order == 1716
    assert spec.distinct() == [(-6, 1), (7, 12), (-4, 65), (5, 208),
                               (-2, 429), (3, 572), (0, 429)]


def test_spectrum_a0_is_all_ones():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            spec = spectrum_of(A(0, k, k, v))
            n = binomial(v, k)
            assert spec.distinct() == ([(n, 1), (0, n - 1)] if n > 1 else [(1, 1)])


def test_spectrum_refuses_large_k():
    with pytest.raises(ValueError):
        spectrum_of(N(2, 3, 3, 5))
    with pytest.raises(ValueError):
        spectrum_of(U(1, 2, 3, 8))  # non-square


def test_spectrum_multiplicities_sum():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for t in range(k + 1):
                spec = spectrum_of(F(t, k, k, v))
                assert sum(m for _, m in spec.pairs) + spec.zero_tail == spec.order
                assert [m for _, m in spec.pairs] == [multiplicity(v, j)
                                                      for j in range(t + 1)]


def test_rank_formula_golden():
    assert rank_formula(N(6, 7, 7, 14)) == 1716
    assert rank_formula(N(5, 6, 6, 13)) == 1287


def test_rank_formula_of_a_above_min_s_k_is_0():
    # A^i is zero once i > min(s, k), square or not, whatever v is
    for v in range(1, 7):
        for s in range(v + 1):
            for k in range(v + 1):
                for i in range(min(s, k) + 1, min(s, k) + 3):
                    assert not build(A(i, s, k, v)).stack.any()
                    assert rank_formula(A(i, s, k, v)) == 0


def test_rank_formula_n_cases():
    for k in range(2, 6):
        assert rank_formula(N(k - 1, k, k, 2 * k)) == binomial(2 * k, k) // 2
    for k in range(2, 5):
        for v in range(2 * k + 1, 11):
            assert rank_formula(N(k - 1, k, k, v)) == binomial(v, k - 1)


def test_rank_formula_w_equals_subset_count():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for s in range(k + 1):
                assert rank_formula(W(s, k, v)) == binomial(v, s)
                assert rank_formula(U(s, s, k, v)) == binomial(v, s)


def test_n_and_utl_above_k_certify_as_their_t_equals_k_spectra():
    # for t > k, N^t = (-1)^(t-k) N^k and U^(t,l) = U^(k,l): the binomials
    # C(theta - 1, t) and C(theta - l - 1, t - l) vanish for l < theta <= k
    rng = random.Random(RNG_SEED)
    for v in range(2, 10):
        for k in range(v // 2 + 1):
            for t in (k + 1, k + 2):
                for kind in [N(t, k, k, v)] + [Utl(t, l, k, k, v) for l in range(k + 1)]:
                    spec = spectrum_of(kind)
                    for mode in ("modp", "exact"):
                        rep = verify_spectrum(build(kind), spec, mode=mode, rng=rng)
                        assert rep.ok, (kind.describe(), mode)
                    assert rank_formula(kind) == spec.order - spec.multiplicity_of(0)


def test_rank_formula_outside_hypotheses():
    with pytest.raises(ValueError):
        rank_formula(N(2, 3, 3, 5))
    with pytest.raises(ValueError):
        rank_formula(F(1, 2, 2, 6))


def test_u_rank_formula_matches_modp_grid():
    rng = random.Random(RNG_SEED)
    from imtk.exactalg import random_prime
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for s in range(k + 1):
                for l in range(s + 1):
                    want = rank_formula(U(l, s, k, v))
                    m = build(U(l, s, k, v))
                    assert rank_mod(m, random_prime(rng)) == want


# ---------------------------------------------------------------------------
# verify_spectrum

def test_verify_identity_matrix():
    spec = SpectrumSpec(((1, 4),), 0, 4)
    rep = verify_spectrum(ExactMatrix.identity(4), spec, mode="exact",
                          rng=random.Random(RNG_SEED))
    assert rep.ok


def test_verify_all_ones():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            n = binomial(v, k)
            spec = SpectrumSpec(((n, 1),), n - 1, n)
            rep = verify_spectrum(ExactMatrix.ones(n, n), spec,
                                  rng=random.Random(RNG_SEED))
            assert rep.ok


def _diagonal(values):
    return ExactMatrix([[x if i == j else 0 for j in range(len(values))]
                        for i, x in enumerate(values)])


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_verify_replaces_a_prime_at_which_two_eigenvalues_coincide(mode):
    # verify_spectrum draws its first prime p1 before anything else, and
    # 0, p1 and 2 p1 are one residue mod p1, where the traces cannot tell
    # them apart: one replacement prime q, the next draw, is recorded
    p1 = random_prime(random.Random(RNG_SEED))
    m = _diagonal((0, 0, p1, p1, 2 * p1, 2 * p1))
    rep = verify_spectrum(m, _spec({0: 2, p1: 2, 2 * p1: 2}), mode=mode,
                          rng=random.Random(RNG_SEED))
    assert rep.ok, rep.checks
    rng = random.Random(RNG_SEED)
    primes = []
    while len(primes) < len(rep.primes) - 1:
        p = random_prime(rng)
        if p not in primes:
            primes.append(p)
    if mode == "modp":
        rng.getrandbits(64)  # the probes' seed
    assert rep.primes == (*primes, random_prime(rng)) and rep.primes[0] == p1
    assert len(set(rep.primes)) == len(rep.primes)
    assert rep.to_dict()["primes"] == list(rep.primes)
    # the same order, trace and eigenvalue set with a 0 and a 2 p1 traded
    # for two p1: only tr(M^2) mod the replacement prime tells them apart
    rep = verify_spectrum(m, _spec({0: 1, p1: 4, 2 * p1: 1}), mode=mode,
                          rng=random.Random(RNG_SEED))
    status = {c.name: c.ok for c in rep.checks}
    assert status["trace"] and status["annihilation"] and len(rep.primes) == len(primes) + 1
    assert not status[f"multiplicity[{p1}]"] and not rep.ok
    # the rank line reads n less the multiplicity that the traces imply
    assert rep.checks[-2].detail == f"rank(M - {p1} I) = 4, expected 2 (mult 4)"


def test_float_crosscheck_order_limit():
    n = 250
    spec = SpectrumSpec(((1, n),), 0, n)
    with pytest.raises(ValueError):
        float_crosscheck(ExactMatrix.identity(n), spec)


def test_verify_detects_wrong_multiplicity():
    spec = SpectrumSpec(((1, 3), (0, 1)), 0, 4)
    rep = verify_spectrum(ExactMatrix.identity(4), spec,
                          rng=random.Random(RNG_SEED))
    assert not rep.ok
    assert any(not c.ok and c.name.startswith("multiplicity") for c in rep.checks)


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_verify_detects_wrong_multiplicities_of_the_right_eigenvalues(mode):
    # order, trace (0+4+2 = 6) and the eigenvalue set all match; only the
    # rank route can tell 1^4 from 1^2
    m = ExactMatrix([[x if i == j else 0 for j in range(6)]
                     for i, x in enumerate((0, 0, 1, 1, 2, 2))])
    spec = SpectrumSpec(((0, 1), (1, 4), (2, 1)), 0, 6)
    rep = verify_spectrum(m, spec, mode=mode, rng=random.Random(RNG_SEED))
    status = {c.name: c.ok for c in rep.checks}
    assert status["order"] and status["trace"] and status["annihilation"]
    assert not status["multiplicity[1]"]
    assert not rep.ok


@pytest.mark.parametrize("scale, mode", [
    pytest.param(scale, mode, id=str(scale) + ("-exact" if mode == "exact" else ""))
    for mode in ("modp", "exact") for scale in (1, 2 ** 32 + 1, 2 ** 40 + 1, 2 ** 55 + 1)])
def test_verify_spectrum_is_exact_at_every_entry_size(scale, mode):
    # scale * J of order 4 has eigenvalues 4 * scale once and 0 three times.
    # Odd scales, so that a sum past 2^53 would be rounded: near 2^32 the
    # annihilation products are summed in chunks, near 2^40 M is first
    # reduced mod each prime, and near 2^55 the rank takes the int64 route
    # and exact mode needs a long list of primes for its bound B.
    n = 4
    m = ExactMatrix.ones(n, n).scale(scale)
    good = SpectrumSpec(((n * scale, 1), (0, n - 1)), 0, n)
    rep = verify_spectrum(m, good, mode=mode, rng=random.Random(RNG_SEED))
    assert rep.ok
    if mode == "exact":
        bound = (n * scale + n * scale) * n * scale  # prod (||M||_inf + |lambda|)
        primes = rep.primes  # no retry prime: every first rank is right
        assert len(set(primes)) == len(primes) and prod(primes) > bound
        assert prod(primes[:-1]) <= bound  # no prime past the first product > B
        assert f"product > B = {bound}" in rep.checks[2].detail
    # the right order and trace, the wrong eigenvalue set
    bad = SpectrumSpec(((n * scale - 1, 1), (1, 1), (0, n - 2)), 0, n)
    rep = verify_spectrum(m, bad, mode=mode, rng=random.Random(RNG_SEED))
    status = {c.name: c.ok for c in rep.checks}
    assert status["order"] and status["trace"] and not status["annihilation"]


def test_verify_spectrum_fails_a_claimed_eigenvalue_beyond_2_62():
    # M - lambda I has an entry near -2^62: lambda is taken mod p like any
    # other eigenvalue, and the false claim fails its checks instead of
    # raising.  The multiplicities are solved jointly from the traces, so the
    # unclaimed eigenvalue 4 * scale fails them all, multiplicity[0] too
    n, scale, lam = 4, 2 ** 55 + 1, 2 ** 62 + 1
    m = ExactMatrix.ones(n, n).scale(scale)
    spec = SpectrumSpec(((lam, 1), (0, n - 1)), 0, n)
    rep = verify_spectrum(m, spec, rng=random.Random(RNG_SEED))
    status = {c.name: c.ok for c in rep.checks}
    assert not status["trace"] and not status["annihilation"]
    assert not status[f"multiplicity[{lam}]"] and not status["multiplicity[0]"]
    assert not rep.ok


def _two_by_two_blocks(n, symmetric, seed):
    """A permuted direct sum of n / 2 random 2 x 2 blocks of entries -1, 0, 1."""
    gen = np.random.default_rng(seed)
    arr = np.zeros((n, n), dtype=np.int64)
    for r in range(0, n, 2):
        block = gen.integers(-1, 2, size=(2, 2))
        arr[r:r + 2, r:r + 2] = block + block.T - np.diag(block.diagonal()) if symmetric else block
    perm = gen.permutation(n)
    return arr[np.ix_(perm, perm)]


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
@pytest.mark.parametrize("ell", [True, False], ids=["ELL", "GEMM"])
@pytest.mark.parametrize("scale", [1, 2 ** 32 + 1, 2 ** 40 + 1, 2 ** 55 + 1])
def test_power_traces_match_bigint_traces_at_every_entry_size(scale, ell, symmetric):
    # 256 rows of at most 2 nonzeros are applied as ELL, 12 dense rows by
    # GEMM.  Near 2^32 the products are summed in chunks, near 2^40 M is
    # first reduced mod the prime, and near 2^55 that reduction is in int64
    if ell:
        arr = _two_by_two_blocks(256, symmetric, seed=scale % 1000)
    else:
        gen = np.random.default_rng(scale % 1000)
        arr = gen.integers(-1, 2, size=(12, 12))
        arr = arr + arr.T if symmetric else arr
    arr = arr * scale
    n, width = arr.shape[0], int(np.count_nonzero(arr, axis=1).max())
    assert (_ELL_RATIO * width <= n) == ell
    if not symmetric:
        # the traces rest on t_2a = ||X_a||^2: a general M with more than two
        # claimed eigenvalues, and no quotient, is refused before any product
        assert not np.array_equal(arr, arr.T)
        claim = SpectrumSpec(((1, 1), (2, 1), (0, n - 2)), 0, n)
        with pytest.raises(ValueError, match="symmetric"):
            verify_spectrum(ExactMatrix(arr), claim, rng=random.Random(RNG_SEED))
        return
    p, count = random_prime(random.Random(RNG_SEED)), 8
    want = trace_powers(arr.tolist(), count)
    got = _power_traces(arr, int(np.abs(arr).max()), p, count)
    assert got == [t % p for t in want[2:]]


@pytest.mark.parametrize("ell", [True, False], ids=["ELL", "GEMM"])
def test_products_sum_in_chunks_that_stay_below_2_53(ell):
    # entries just below (2^53 - h^2) / h and operands just below h, all
    # positive: one term fits below 2^53, but a row of three or eight sums
    # to about 2^55, where float64 rounds odd integers, so each term is a
    # chunk of its own and reduced before the next
    p = random_prime(random.Random(RNG_SEED))
    h = p // 2
    mag = (2 ** 53 - 1 - h * h) // h
    gen = np.random.default_rng(53)
    n = 3 * _ELL_RATIO if ell else 8
    arr = gen.integers(mag - 100, mag + 1, size=(n, n))
    if ell:  # three nonzeros a row, on a permuted band
        arr *= (np.subtract.outer(np.arange(n), np.arange(n)) % n < 3)[np.ix_(*[gen.permutation(n)] * 2)]
    y = gen.integers(h - 100, h + 1, size=(n, 5))
    assert (_ELL_RATIO * int(np.count_nonzero(arr, axis=1).max()) <= n) == ell
    want = arr.astype(object) @ y.astype(object) % p
    want = np.where(want > h, want - p, want).astype(np.int64)
    mul = _product(arr, mag, [p])
    for start in (0, 5):
        assert np.array_equal(mul(y.astype(np.float64), start), want[start:])


def test_verify_spectrum_ranks_rational_claims_mod_p():
    # rational eigenvalues of an integer matrix are always false claims: the
    # rank of M - lambda I is taken with lambda's residue, and fails; a
    # prime that divides a denominator raises
    m = ExactMatrix.identity(2)
    half = SpectrumSpec(((Fraction(1, 2), 1), (Fraction(3, 2), 1)), 0, 2)
    status = {c.name: c.ok for c in verify_spectrum(m, half, rng=random.Random(RNG_SEED)).checks}
    assert status["trace"] and not status["annihilation"]
    assert not status["multiplicity[1/2]"] and not status["multiplicity[3/2]"]
    from imtk.exactalg import random_prime
    p1 = random_prime(random.Random(RNG_SEED))
    bad = SpectrumSpec(((Fraction(1, p1), 1), (2 - Fraction(1, p1), 1)), 0, 2)
    with pytest.raises(ValueError, match="denominator"):
        verify_spectrum(m, bad, rng=random.Random(RNG_SEED))


def test_verify_detects_wrong_eigenvalue():
    spec = SpectrumSpec(((2, 4),), 0, 4)
    rep = verify_spectrum(ExactMatrix.identity(4), spec,
                          rng=random.Random(RNG_SEED))
    assert not rep.ok


def test_verify_rejects_asymmetric_without_flag():
    # symmetry is checked only where _power_traces needs it.  With d <= 2
    # claimed eigenvalues annihilation alone decides: the nilpotent M is not
    # 0, so its claim 0^2 fails there
    m = ExactMatrix([[0, 1], [0, 0]])
    rep = verify_spectrum(m, SpectrumSpec(((0, 2),), 0, 2), rng=random.Random(RNG_SEED))
    status = {c.name: c.ok for c in rep.checks}
    assert status["order"] and status["trace"] and not status["annihilation"]
    assert not rep.ok
    # d > 2 and no quotient over J(v, k): the matrix must be symmetric
    m = ExactMatrix([[1, 1, 0], [0, 2, 0], [0, 0, 3]])
    with pytest.raises(ValueError, match="symmetric"):
        verify_spectrum(m, SpectrumSpec(((1, 1), (2, 1), (3, 1)), 0, 3))


def test_verify_exact_mode_has_no_order_limit():
    # order 400 spans two blocks of columns of I; B = 1 + 1 needs one prime
    spec = SpectrumSpec(((1, 400),), 0, 400)
    rep = verify_spectrum(ExactMatrix.identity(400), spec, mode="exact",
                          rng=random.Random(RNG_SEED))
    assert rep.ok and len(rep.primes) == 1
    assert rep.checks[2].detail == (f"all 400 columns of I mod primes {list(rep.primes)}, "
                                    "product > B = 2")


def test_verify_exact_draws_primes_until_their_product_exceeds_b():
    # M = [[5]] and lambda = 5 - p1 p2: M - lambda I = p1 p2 vanishes mod both
    # shared primes, and B = 1 * 5 + |lambda| = p1 p2 is not exceeded by their
    # product, so exact mode draws a third prime, which finds the wrong claim
    from imtk.exactalg import random_prime
    rng = random.Random(RNG_SEED)
    p1, p2 = random_prime(rng), random_prime(rng)
    assert p1 != p2
    m, spec = ExactMatrix([[5]]), SpectrumSpec(((5 - p1 * p2, 1),), 0, 1)
    status = {c.name: c.ok for c in verify_spectrum(m, spec, rng=random.Random(RNG_SEED)).checks}
    assert status["annihilation"]
    rep = verify_spectrum(m, spec, mode="exact", rng=random.Random(RNG_SEED))
    status = {c.name: c.ok for c in rep.checks}
    assert not status["annihilation"]
    assert rep.primes[:2] == (p1, p2) and len(rep.primes) == 3
    assert f"product > B = {p1 * p2};" in rep.checks[2].detail


@pytest.mark.parametrize("seed", range(20))
def test_verify_exact_fails_a_wrong_eigenvalue_at_every_seed(seed):
    # U^1 on J(5, 2) has spectrum 6^1 1^4 (-2)^5; the claim swaps 1^4 for
    # 3^2 (-1)^2, keeping order and trace, so only annihilation can tell
    m = build(U(1, 2, 2, 5))
    spec = SpectrumSpec(((6, 1), (3, 2), (-1, 2), (-2, 5)), 0, 10)
    status = {c.name: c.ok for c in verify_spectrum(
        m, spec, mode="exact", rng=random.Random(seed)).checks}
    assert status["order"] and status["trace"] and not status["annihilation"]


@pytest.mark.parametrize("mode", ["modp", "exact"])
@pytest.mark.parametrize("last", [2 ** 61 - 1, 2 ** 61])
def test_verify_spectrum_sums_the_trace_exactly_past_int64(mode, last):
    # diagonal sums of 2^63 - 1, the largest int64, and of 2^63, where an
    # int64 sum wraps to -2^63 and a true claim would fail its trace
    big = 2 ** 61
    diagonal = (big, big, big, last)
    m = ExactMatrix([[x if i == j else 0 for j in range(4)] for i, x in enumerate(diagonal)])
    spec = SpectrumSpec(((big, 3), (last, 1)), 0, 4)
    rep = verify_spectrum(m, spec, mode=mode, rng=random.Random(RNG_SEED))
    assert rep.checks[1].detail == f"trace {sum(diagonal)}, spectral sum {sum(diagonal)}"
    assert rep.ok


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
def test_exact_bound_takes_the_row_sum_norm_of_a_narrow_stack_widened(dtype):
    # |-128| wraps to -128 in int8, which would give B = 0 for this claim
    m = ExactMatrix(np.array([[-128, 0], [0, -128]], dtype=dtype))
    rep = verify_spectrum(m, SpectrumSpec(((-128, 2),), 0, 2), mode="exact",
                          rng=random.Random(RNG_SEED))
    assert rep.ok and rep.checks[2].detail.endswith("product > B = 256")


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_verify_keeps_a_one_sided_coupling_in_one_window(mode):
    # M - I != 0, so a claim of 1^n fails annihilation
    rep = verify_spectrum(ExactMatrix([[1, 1], [0, 1]]), SpectrumSpec(((1, 2),), 0, 2),
                          mode=mode, rng=random.Random(RNG_SEED))
    assert not {c.name: c.ok for c in rep.checks}["annihilation"]
    # at order 2 * EYE_BLOCK, rows 0 and n - 1 meet only through the one
    # entry that couples them, above the diagonal or below it: a check that
    # took M apart by the pattern of its rows or of its columns alone would
    # miss it in one of the two cases
    n = 2 * EYE_BLOCK
    for i, j in ((0, n - 1), (n - 1, 0)):
        arr = np.eye(n, dtype=np.int64)
        arr[i, j] = 1
        rep = verify_spectrum(ExactMatrix(arr), SpectrumSpec(((1, n),), 0, n), mode=mode,
                              rng=random.Random(RNG_SEED))
        assert not {c.name: c.ok for c in rep.checks}["annihilation"]


# blocks with known spectra: a swap, [[2, 1], [1, 2]], J_3 and [1]
_DIRECT_SUM_BLOCKS = (([[0, 1], [1, 0]], (1, -1)), ([[2, 1], [1, 2]], (3, 1)),
                      ([[1, 1, 1]] * 3, (3, 0, 0)), ([[1]], (1,)))


def _permuted_direct_sum(copies, seed):
    """P (B_1 + ... + B_r) P^T, `copies` of each block, and its multiplicities."""
    blocks = [b for b in _DIRECT_SUM_BLOCKS for _ in range(copies)]
    n = sum(len(b) for b, _ in blocks)
    arr, mult, r = np.zeros((n, n), dtype=np.int64), {}, 0
    for b, values in blocks:
        arr[r:r + len(b), r:r + len(b)] = b
        r += len(b)
        for val in values:
            mult[val] = mult.get(val, 0) + 1
    perm = np.random.default_rng(seed).permutation(n)
    return ExactMatrix(arr[np.ix_(perm, perm)]), mult


def _spec(mult):
    return SpectrumSpec(tuple(mult.items()), 0, sum(mult.values()))


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_verify_certifies_a_permuted_direct_sum(mode):
    m, mult = _permuted_direct_sum(75, seed=3)  # order 600, blocks of at most 3 rows
    rep = verify_spectrum(m, _spec(mult), mode=mode, rng=random.Random(RNG_SEED))
    assert rep.ok, rep.checks


@pytest.mark.parametrize("mode", ["modp", "exact"])
@pytest.mark.parametrize("seed", range(10))
def test_verify_fails_a_wrong_multiplicity_in_a_direct_sum_at_every_seed(mode, seed):
    # two 1s traded for a -1 and a 3: order, trace and eigenvalue set all
    # match, so only the power traces can tell
    m, mult = _permuted_direct_sum(75, seed)
    mult[1], mult[-1], mult[3] = mult[1] - 2, mult[-1] + 1, mult[3] + 1
    rep = verify_spectrum(m, _spec(mult), mode=mode, rng=random.Random(seed))
    status = {c.name: c.ok for c in rep.checks}
    assert status["order"] and status["trace"] and status["annihilation"]
    assert not status["multiplicity[1]"] and not rep.ok


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_a_split_annihilation_reports_what_the_unsplit_matrix_does(mode):
    # the claim misses eigenvalue 0, so P(M) leaves every column of each J_3 nonzero
    m, mult = _permuted_direct_sum(75, seed=5)
    mult[2] = mult.pop(0)
    rng = random.Random(RNG_SEED)
    rep = verify_spectrum(m, _spec(mult), mode=mode, rng=random.Random(RNG_SEED))
    detail = rep.checks[2].detail
    arr, n, values = m.as_int_array(), m.nrows, list(mult)
    if mode == "modp":
        # the primes and the probe block, drawn as verify_spectrum draws them
        primes = []
        while len(primes) < 2:
            p = random_prime(rng)
            if p not in primes:
                primes.append(p)
        draw = np.random.default_rng(rng.getrandbits(64))
        probes = draw.integers(0, np.repeat(primes, PROBES), size=(n, 2 * PROBES))
        blocks = [(range(PROBES), probes.astype(np.float64))]
    else:
        listed = re.search(r"mod primes \[([0-9, ]+)\]", detail).group(1)
        primes = [int(p) for p in listed.split(", ")]
        blocks = [(range(c, c + EYE_BLOCK),
                   np.tile(np.eye(n, min(EYE_BLOCK, n - c), -c), len(primes)))
                  for c in range(0, n, EYE_BLOCK)]
    # the unsplit matrix, one block of columns at a time, each by prime, then column
    fails = [f for block in blocks for f in sorted(
        _annihilation_failures(arr, m.mag, values, primes, [block]), key=lambda f: (f[1], f[0]))]
    if mode == "exact":
        j3_rows = np.flatnonzero((arr.diagonal() == 1) & (arr.sum(axis=1) == 3))
        assert sorted({c for c, _ in fails}) == j3_rows.tolist()
    c, i = fails[0]
    assert detail.endswith(f"; {len(fails)} failed, first column {c} mod {primes[i]}")


def test_verify_spectrum_makes_no_dense_copy_of_a_split_matrix():
    kind = N(5, 6, 6, 12)  # order 924, 462 pairs {K, complement of K}
    m, spec = build(kind), spectrum_of(kind)
    n = m.nrows
    # the tagged M is proved on its quotient; the untagged copy of its stack
    # takes the generic route
    for x, mode in itertools.product((m, ExactMatrix(m.stack)), ("modp", "exact")):
        x.mag  # computed before tracing
        tracemalloc.start()
        try:
            rep = verify_spectrum(x, spec, mode=mode, rng=random.Random(RNG_SEED))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok and rep.proved == (x is m or mode == "exact")
        # one float64 copy of M, a whole rank's working copy, is n * n * 8
        # bytes.  Off the quotient, M has 2 nonzeros a row and 2 distinct
        # eigenvalues, so it is applied as ELL and needs no power trace:
        # modp peaks at about 0.13 of a copy, and exact at about 0.29, in its
        # blocks of 32 columns of I and their products
        assert peak < n * n * 8 / 2, (mode, peak)


def test_verify_spectrum_of_a_connected_matrix_makes_no_dense_copy(monkeypatch):
    # N^5_(6,6)(13) is connected, with 7 distinct eigenvalues and 8 nonzeros
    # in each row.  The tagged M is proved on its quotient over J(13,6).  On
    # the generic route, which the untagged copy of its stack takes, the
    # probes or the columns of I, and the power traces, go through ELL
    # products.  No rank is taken on either
    kind = N(5, 6, 6, 13)
    m, spec = build(kind), spectrum_of(kind)
    n = m.nrows
    assert len(spec.distinct()) == 7
    monkeypatch.setattr("imtk.exactalg._rank_kernel", None)
    for x in (m, ExactMatrix(m.stack)):
        x.mag  # computed before tracing
        for mode, share in (("modp", 0.35), ("exact", 0.5)):
            tracemalloc.start()
            try:
                rep = verify_spectrum(x, spec, mode=mode, rng=random.Random(RNG_SEED))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.ok
            # one float64 copy of M, each rank's working copy before, is n * n
            # * 8 bytes.  Off the quotient, modp peaks at about 0.18 of
            # it, in the gathered probes and their products, and exact at
            # about 0.31, its blocks of I having 32 columns for each of
            # its two primes
            assert peak < share * n * n * 8, (mode, peak / (n * n * 8))


def test_rank_modp_of_a_window_peaks_below_two_and_a_half_copies_of_it():
    # rank_modp holds the float64 working copy of the block and the kernel's
    # own temporaries: a panel, its multipliers, and one chunk of live rows
    # (at most _CHUNK_ENTRIES entries) gathered with its product: about 2.0
    # copies of the block in all
    m = build(N(5, 6, 6, 12))
    arr, n = m.as_int_array(), m.nrows
    # M[K, K] = 1 and M[K, complement of K] = -1, and complement reverses lex
    # order: rows i and n - 1 - i, i < 128, are 128 such pairs
    rows = np.sort(np.concatenate([np.arange(128), n - 1 - np.arange(128)]))
    block = arr[np.ix_(rows, rows)]
    p = random_prime(random.Random(RNG_SEED))
    for shift, want in ((0, 128), (3, 256)):  # 128 pairs, each of rank 1
        mm = ModMatrix(block - shift * np.eye(len(rows), dtype=block.dtype), p)
        tracemalloc.start()
        try:
            got = rank_modp(mm, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2.5 * block.size * 8, (shift, peak / (block.size * 8))


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
def test_modmatrix_ranks_a_permuted_direct_sum_as_its_residues(wide):
    m, _ = _permuted_direct_sum(75, seed=7)
    arr = m.as_int_array()
    if wide:  # entries past 2^62: an object stack, reduced mod p by ModMatrix
        arr = arr.astype(object) * (2 ** 70 + 1)
        assert ExactMatrix(arr).stack.dtype == object
    for shift in (0, 1, -1, 2 ** 53 + 1):  # past 2^53, ModMatrix reduces mod p
        shifted = arr - shift * np.eye(600, dtype=np.int64).astype(arr.dtype)
        for p in (3, 1000003, 2097143):
            residues = np.array((shifted % p).tolist(), dtype=np.int64)
            assert rank_modp(ModMatrix(shifted, p), p) == rank_modp(ModMatrix(residues, p), p)
    if not wide:  # 1 is an eigenvalue of each swap, [[2, 1], [1, 2]] and [1]
        assert rank_mod(ExactMatrix(arr - np.eye(600, dtype=np.int64)), 1000003) == 600 - 3 * 75


def test_f_spectrum_at_sampled_points():
    rng = random.Random(RNG_SEED)
    for v in range(2, 8):
        for k in range(min(3, v // 2) + 1):
            for t in range(k + 1):
                spec = spectrum_of(F(t, k, k, v))
                m = build(F(t, k, k, v))
                for z0 in sampled_eval_points():
                    rep = verify_spectrum(m.eval_at(z0), spec.eval_at(z0),
                                          mode="exact", rng=rng)
                    assert rep.ok, (v, k, t, z0, [c for c in rep.checks if not c.ok])


def test_spectrum_utl_and_uge_against_floats():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for t in range(k + 1):
                for l in range(t + 1):
                    spec = spectrum_of(Utl(t, l, k, k, v))
                    assert float_crosscheck(build(Utl(t, l, k, k, v)), spec)
            for l in range(k + 1):
                spec = spectrum_of(Uge(l, k, k, v))
                assert float_crosscheck(build(Uge(l, k, k, v)), spec)


def test_wf_spectrum_at_sampled_points():
    rng = random.Random(RNG_SEED)
    for v in range(2, 8):
        for k in range(v // 2 + 1):
            for s in range(k + 1):
                for t in range(s + 1):
                    spec = wf_spectrum(v, k, s, t)
                    m = build(W(s, k, v)).transpose() @ build(F(t, s, k, v))
                    for z0 in (Fraction(1), Fraction(-2)):
                        rep = verify_spectrum(m.eval_at(z0), spec.eval_at(z0), rng=rng)
                        assert rep.ok, (v, k, s, t, z0)


def test_wu_product_spectrum_verifies():
    rng = random.Random(RNG_SEED)
    for v in range(2, 8):
        for k in range(v // 2 + 1):
            for s in range(k + 1):
                for l in range(s + 1):
                    spec = wu_spectrum(v, k, s, l)
                    m = build(W(s, k, v)).transpose() @ build(U(l, s, k, v))
                    rep = verify_spectrum(m, spec, rng=rng)
                    assert rep.ok, (v, k, s, l)


# ---------------------------------------------------------------------------
# the quotient over J(v, k)

def test_quotient_rank_matches_two_prime_ranks_and_rank_formulas():
    rng, kinds, formulas = random.Random(RNG_SEED), 0, 0
    for kind in square_kinds(9):
        m = build(kind)
        got = _quotient_rank(m).rank
        # a rank mod p never exceeds the rank over Q
        assert got == max(rank_mod(m, random_prime(rng)),
                          rank_mod(m, random_prime(rng))), kind.describe()
        kinds += 1
        if 2 * kind.k <= kind.v:
            assert got == rank_formula(kind), kind.describe()
            formulas += 1
    assert (kinds, formulas) == (2352, 727)


def test_lex_complement_reverses_order():
    for v in range(13):
        for s in range(v + 1):
            n = binomial(v, s)
            assert SubsetFamily(v, s).complement_permutation() == list(range(n - 1, -1, -1))


def test_quotient_rank_of_a_complement_shaped_kind_is_its_elimination_rank():
    # s + k = v, s != k: M R, R the column reversal, is a function of theta
    # over J(v, s), so the reversed quotient proves M's rank
    rng, counts = random.Random(RNG_SEED), Counter()
    for kind in complement_kinds(9):
        m = build(kind)
        q = _quotient_rank(m)
        if not m.all_int():
            assert q is None, kind.describe()
            counts["rational"] += 1
            continue
        p = random_prime(rng)
        while q.mod(p) is None:
            p = random_prime(rng)
        assert q.rank == rank_mod(m, p), kind.describe()
        if not m.stack.any():
            assert q.rank == 0, kind.describe()
            counts["zero"] += 1
        if m.nrows <= 36:
            assert q.rank == rank_exact(m), kind.describe()
            counts["exact"] += 1
        counts["kinds"] += 1
    assert counts == {"kinds": 1680, "zero": 560, "exact": 1339, "rational": 250}


def test_quotient_rank_is_the_rank_mod_every_prime_not_dividing_its_unit():
    # the second route: the kernel's rank mod small primes, where p | unit
    # happens often, against the quotient's claim wherever it makes one
    proved, kinds = Counter(), 0
    for kind in square_kinds(8):
        m = build(kind)
        q = _quotient_rank(m)
        for p in (2, 3, 5, 7, 11, 13):
            got = rank_modp(ModMatrix(m.stack[0], p, m.mag), p)
            if q.mod(p) is not None:
                assert got == q.rank, (kind.describe(), p)
            proved[q.mod(p) is not None, got == q.rank] += 1
        kinds += 1
    # (claim made, kernel agrees): 8995 proved ranks, and 1457 cases where
    # p | unit, 1095 of them with a rank that drops mod p
    assert kinds == 1742 and proved == {(True, True): 8995, (False, False): 1095,
                                        (False, True): 362}
    # where p divides the unit the rank can drop: N^5_(6,6)(13) has
    # pi = x q, q(0) = -5040 = -2^4 3^2 5 7
    m = build(N(5, 6, 6, 13))
    q = _quotient_rank(m)
    assert (q.rank, q.unit) == (1287, -5040)
    for p, rank in ((2, 1222), (5, 1275)):
        assert q.mod(p) is None
        assert rank_modp(ModMatrix(m.stack[0], p, m.mag), p) == rank
    assert q.mod(11) == 1287


def test_quotient_traces_of_golden_n13_equal_its_power_traces():
    kind = N(5, 6, 6, 13)
    m = build(kind)
    b, d = _johnson_quotient(m), len(spectrum_of(kind).distinct())
    assert len(b) == 7 and d == 7
    p = random_prime(random.Random(RNG_SEED))
    traces = _quotient_traces(m.nrows, _quotient_powers(b, d))
    assert traces[:2] == [1716, m.trace()]
    assert [t % p for t in traces[2:]] == _power_traces(m.as_int_array(), m.mag, p, d)


def test_the_quotient_over_the_theta_cache_limit_holds_no_whole_theta():
    # theta(14, 7, 7) would be 11.8 MB of int8, over the 8 MB cache limit:
    # the stack is compared region by region with g at the regions' small
    # thetas, and B comes from the 8 representatives' theta rows, so the
    # quotient peaks far below the int8 stack (about 0.07 of it)
    m = build(N(6, 7, 7, 14))
    n = m.nrows
    m.mag  # computed before tracing
    tracemalloc.start()
    try:
        b = _johnson_quotient(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    squares = int((m.as_int_array().astype(np.int64) ** 2).sum())  # tr M^2, M symmetric
    assert _quotient_traces(n, _quotient_powers(b, 3)) == [n, m.trace(), squares]
    assert peak < 0.2 * m.stack.nbytes, peak / m.stack.nbytes


def _off_pattern(kind, i, j):
    """build(kind) with the symmetric pair (i, j), (j, i) moved off its class value."""
    m = build(kind)
    arr = m.as_int_array().astype(np.int64)
    arr[i, j] = arr[j, i] = arr[i, j] + 1
    return ExactMatrix(arr, m.row_family, m.col_family)


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_a_matrix_off_the_class_pattern_takes_the_generic_route(mode):
    kind = N(1, 3, 3, 7)  # 5 distinct eigenvalues
    spec, off = spectrum_of(kind), _off_pattern(kind, 1, 2)
    assert _johnson_quotient(build(kind)) is not None and _johnson_quotient(off) is None
    # order 462 is compared in two blocks of rows; a pair in the last one
    big = N(2, 5, 5, 11)
    assert _johnson_quotient(build(big)) is not None
    assert _johnson_quotient(_off_pattern(big, 460, 461)) is None
    untagged = ExactMatrix(off.stack)  # no families, so no quotient is sought
    reports = [verify_spectrum(x, spec, mode=mode, rng=random.Random(RNG_SEED), label="M")
               for x in (off, untagged)]
    assert reports[0].to_dict() == reports[1].to_dict() and not reports[0].ok


def _region_corners(v, k, cap):
    """The first entry of the first and of the last region of the k-subset
    matrix over [v], in the order they are compared, and of the first region
    whose key an earlier region has."""
    regions = build_module._regions(v, k, k, cap)
    keys = [key for _, _, key in regions]
    repeat = next(i for i, key in enumerate(keys) if key in keys[:i])
    return {where: (regions[i][0].start, regions[i][1].start)
            for where, i in (("first", 0), ("last", -1), ("repeated key", repeat))}


def test_the_pattern_compare_reads_g_off_any_kind_of_s_by_k_subsets():
    # g is the entry per theta, 0 where no S meets any K in that many
    # elements (theta < s + k - v); U^1_(5,7)(12), 792 x 792, is compared
    # region by region
    for kind in (W(2, 3, 6), A(1, 5, 4, 7), N(1, 4, 2, 7), U(1, 5, 7, 12)):
        m = build(kind)
        lo = max(0, kind.s + kind.k - kind.v)
        assert _pattern(m).tolist() == [0] * lo + _entries(kind)[lo:], kind.describe()
        arr = m.as_int_array().astype(np.int64)
        arr[-1, -1] += 1
        assert _pattern(ExactMatrix(arr, m.row_family, m.col_family)) is None
        assert _pattern(ExactMatrix(m.stack)) is None  # untagged
    m = build(W(2, 3, 6))
    assert _pattern(ExactMatrix(m.stack, m.row_family, SubsetFamily(7, 3))) is None


@pytest.mark.parametrize("where", ["first", "last", "repeated key"])
def test_one_entry_off_the_pattern_in_any_region_fails_the_compare(monkeypatch, where):
    # regions of at most 64 entries cut the order-35 matrices over J(7,3)
    # 2 and 3 elements deep, so many regions share a key and with it one
    # g-block; one entry moved off its class value, in the first region, the
    # last, or one whose key an earlier region has, must fail the compare,
    # so every region is compared, not every key once
    monkeypatch.setattr(build_module, "_REGION_ENTRIES", 64)
    i, j = _region_corners(7, 3, 64)[where]
    kind = N(1, 3, 3, 7)
    m = build(kind)
    arr = m.as_int_array().astype(np.int64)
    arr[i, j] += 1
    assert _johnson_quotient(m) is not None
    assert _johnson_quotient(ExactMatrix(arr, m.row_family, m.col_family)) is None
    # moved symmetrically, M takes verify_spectrum's generic route
    rep = verify_spectrum(_off_pattern(kind, i, j), spectrum_of(kind),
                          rng=random.Random(RNG_SEED))
    assert not rep.ok and not rep.proved and len(rep.primes) >= 2
    # through _quotient_rank's column-reversed view: U^1 over 3- by 4-subsets
    # of [7] is ranked as M R over J(7,3), and entry (i, j) of M R is
    # entry (i, 34 - j) of M
    rect = build(U(1, 3, 4, 7))
    arr = rect.as_int_array().astype(np.int64)
    arr[i, 34 - j] += 1
    assert _quotient_rank(rect) is not None
    assert _quotient_rank(ExactMatrix(arr, rect.row_family, rect.col_family)) is None


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_the_quotient_route_fails_a_swapped_multiplicity_and_a_shifted_eigenvalue(
        monkeypatch, mode):
    kind = N(3, 4, 4, 9)  # order 126: -4^1 5^8 -2^27 3^48 0^42
    m, spec = build(kind), spectrum_of(kind)
    distinct = spec.distinct()
    assert len(distinct) > 2 and _johnson_quotient(m) is not None
    monkeypatch.setattr("imtk.spectra._power_traces", None)  # never reached
    assert verify_spectrum(m, spec, mode=mode, rng=random.Random(RNG_SEED)).ok

    def status(pairs):
        rep = verify_spectrum(m, SpectrumSpec(tuple(pairs), 0, spec.order), mode=mode,
                              rng=random.Random(RNG_SEED))
        assert not rep.ok
        return {c.name: c.ok for c in rep.checks}

    (v1, m1), (v2, m2) = distinct[1], distinct[2]
    swapped = status([(v1, m2), (v2, m1), *distinct[:1], *distinct[3:]])
    assert swapped["annihilation"]
    assert not swapped[f"multiplicity[{v1}]"] and not swapped[f"multiplicity[{v2}]"]
    shifted = status([(distinct[0][0] + 1, distinct[0][1]), *distinct[1:]])
    assert not shifted["annihilation"]


def _raise(*args, **kwargs):
    raise AssertionError("the quotient route makes no product with M and draws no prime")


@pytest.fixture
def generic_route_raises(monkeypatch):
    """Every product, probe and prime of the generic route raises when called."""
    for name in ("_annihilation_failures", "_product", "_power_traces", "random_prime"):
        monkeypatch.setattr(f"imtk.spectra.{name}", _raise)


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_the_quotient_route_fails_a_wrong_eigenvalue_with_the_trace_kept(
        generic_route_raises, mode):
    # golden N^5_(6,6)(13) with 5^208 split into 4^104 6^104: the same order
    # and trace, one eigenvalue of M missed, so P(B) e_6 != 0
    kind = N(5, 6, 6, 13)
    m, spec = build(kind), spectrum_of(kind)
    good = verify_spectrum(m, spec, mode=mode)
    assert good.ok and good.proved and good.primes == ()
    assert good.checks[2].detail == ("M = g(theta) over J(13,6), and P(B) e_6 = 0 for its "
                                     "7 x 7 quotient B: P(M) = 0, proved with no prime")
    mult = dict(spec.distinct())
    assert mult.pop(5) == 208
    mult[4] = mult[6] = 104
    rep = verify_spectrum(m, _spec(mult), mode=mode)
    status = {c.name: c.ok for c in rep.checks}
    assert status["order"] and status["trace"] and not status["annihilation"]
    assert not any(ok for name, ok in status.items() if name.startswith("multiplicity"))
    assert rep.checks[2].detail.startswith("M = g(theta) over J(13,6), and P(B) e_6 != 0 ")
    assert rep.proved and rep.primes == () and not rep.ok


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_the_quotient_route_fails_only_the_multiplicities_it_disproves(
        generic_route_raises, mode):
    # golden N^5_(6,6)(13) with one -2 traded for a -4 and a 0: the same
    # order, trace and eigenvalue set, so only the traces over Q tell
    kind = N(5, 6, 6, 13)
    mult = dict(spectrum_of(kind).distinct())
    mult[-4], mult[-2], mult[0] = mult[-4] + 1, mult[-2] - 2, mult[0] + 1
    rep = verify_spectrum(build(kind), _spec(mult), mode=mode)
    failed = {c.name for c in rep.checks if not c.ok}
    assert failed == {"multiplicity[-4]", "multiplicity[-2]", "multiplicity[0]"}
    # the ranks that the traces imply are the true ones: 1716 - 65, 1716 - 429
    line = next(c.detail for c in rep.checks if c.name == "multiplicity[-2]")
    assert line == "rank(M - -2 I) = 1287, expected 1289 (mult 427)"


def _complement_swap_off_pattern(k):
    """U^0 over J(2k, k), the complement involution R, with the pair of K0
    and its complement (rows 0 and n - 1, lex complement reversing order)
    moved from 1 to 2, and its spectrum: 2^1 -2^1 1^(n/2 - 1) -1^(n/2 - 1)."""
    m = build(U(0, k, k, 2 * k))
    arr = m.as_int_array().astype(np.int64)
    n = len(arr)
    assert arr[0, n - 1] == 1
    arr[0, n - 1] = arr[n - 1, 0] = 2
    return ExactMatrix(arr, m.row_family, m.col_family), {2: 1, -2: 1, 1: n // 2 - 1,
                                                           -1: n // 2 - 1}


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_one_pair_off_the_class_pattern_is_judged_on_the_generic_route(mode):
    m, mult = _complement_swap_off_pattern(5)  # order 252
    n = m.nrows
    assert _johnson_quotient(m) is None and _johnson_quotient(build(U(0, 5, 5, 10)))
    rep = verify_spectrum(m, _spec(mult), mode=mode, rng=random.Random(RNG_SEED))
    assert rep.ok, rep.checks
    assert rep.proved == (mode == "exact") and rep.primes
    if mode == "exact":
        # the annihilation line lists the primes and the bound B they exceed:
        # ||M||_inf = 2, so B = (2 + 2) (2 + 2) (2 + 1) (2 + 1) < 2^20, one prime
        assert len(rep.primes) == 1
        assert rep.checks[2].detail == (f"all {n} columns of I mod primes {list(rep.primes)}, "
                                        "product > B = 144")
    # a missed eigenvalue, with the trace kept: 2 and -2 claimed as 0^2
    wrong = {0: 2, 1: n // 2 - 1, -1: n // 2 - 1}
    status = {c.name: c.ok for c in verify_spectrum(
        m, _spec(wrong), mode=mode, rng=random.Random(RNG_SEED)).checks}
    assert status["trace"] and not status["annihilation"]
    # a 1 and a -1 traded for a 2 and a -2: only the multiplicities fail
    traded = {2: 2, -2: 2, 1: n // 2 - 2, -1: n // 2 - 2}
    rep = verify_spectrum(m, _spec(traded), mode=mode, rng=random.Random(RNG_SEED))
    assert {c.name for c in rep.checks if not c.ok} == {f"multiplicity[{x}]" for x in traded}


@pytest.mark.parametrize("mode", ["modp", "exact"])
@pytest.mark.parametrize("args", [
    "--kind N --t 6 --k 7 --v 14", "--kind N --t 5 --k 6 --v 13",
    "--kind U --l 3 --k 6 --v 13", "--kind A --i 3 --k 6 --v 13",
    "--kind F --t 2 --k 3 --v 7"], ids=["N14", "N13", "U13", "A13", "F7"])
def test_on_pattern_spectra_are_proved_with_no_product_probe_or_prime(
        generic_route_raises, capsys, args, mode):
    from imtk.cli import main
    assert main(["--seed", "1", "spectrum", *args.split(), "--check", mode]) == 0
    out = capsys.readouterr().out.splitlines()
    checks = [line for line in out if line.startswith("check[")]
    assert len(checks) == (3 if "F" in args else 1)
    assert all(line.endswith(f"mode={mode} primes=[]") for line in checks)
    assert sum("P(M) = 0, proved with no prime" in line for line in out) == len(checks)
    assert out[-1] == "verified"


def test_a_report_says_whether_it_is_proved():
    # proved: the quotient route in either mode, and exact mode off it
    kind = U(1, 2, 2, 5)
    m, spec = build(kind), spectrum_of(kind)
    untagged = ExactMatrix(m.stack)  # no families, so the generic route
    for x, mode, proved in ((m, "modp", True), (m, "exact", True),
                            (untagged, "modp", False), (untagged, "exact", True)):
        rep = verify_spectrum(x, spec, mode=mode, rng=random.Random(RNG_SEED))
        assert rep.ok and rep.proved is proved and rep.to_dict()["proved"] is proved
        assert bool(rep.primes) is (x is untagged)


# ---------------------------------------------------------------------------
# eigenprojector realization of the A-matrix eigenvalues

def _projector_onto_row_space(w: ExactMatrix) -> ExactMatrix:
    gram = w @ w.transpose()
    return w.transpose() @ mat_inverse(gram) @ w


def test_projector_eigenrelation_for_a_matrices():
    for v in range(2, 8):
        for k in range(min(3, v // 2) + 1):
            n = binomial(v, k)
            projectors = []
            prev = ExactMatrix.zeros(n, n)
            for j in range(k + 1):
                pr = _projector_onto_row_space(build(W(j, k, v)))
                projectors.append(pr - prev)
                prev = pr
            total = projectors[0]
            for pv in projectors[1:]:
                total = total + pv
            assert total == ExactMatrix.identity(n)
            for i in range(k + 1):
                a = build(A(i, k, k, v))
                for j in range(k + 1):
                    lam = a_matrix_eigenvalue(v, k, i, j)
                    assert a @ projectors[j] == projectors[j].scale(lam), (v, k, i, j)
