import importlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from imtk.build import A, F, N, U, Uge, Utl, W, _entries, build, membership_matrix
from imtk.combinat import SubsetFamily, binomial
from imtk.exactalg import ExactMatrix, ModMatrix, Poly, random_prime, rank_modp
from imtk.spectra import (SpectrumSpec, _classes, _gram_counts, _johnson_quotient, _pattern,
                          _quotient_powers, _quotient_rank, _quotient_traces, alpha, eberlein,
                          lambda_uge, lambda_utl, mu, multiplicity, rank_formula,
                          sampled_eval_points, spectrum_of, tau, verify_spectrum, wf_spectrum,
                          wu_spectrum)

from oracles import (complement_kinds, float_crosscheck, float_eigenvalues, integer_kinds,
                     mat_inverse, rank_exact, rank_mod, square_kinds, trace_powers)

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
    for v in range(2, 10):
        for k in range(v // 2 + 1):
            for t in (k + 1, k + 2):
                for kind in [N(t, k, k, v)] + [Utl(t, l, k, k, v) for l in range(k + 1)]:
                    spec = spectrum_of(kind)
                    for mode in ("modp", "exact"):
                        rep = verify_spectrum(build(kind), spec, mode=mode)
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

def _identity(n):
    """I of order n, built as A^1 over J(n, 1): C(theta, 1) is 1 on the
    diagonal only."""
    m = build(A(1, 1, 1, n))
    assert m == ExactMatrix.identity(n)
    return m


def test_verify_identity_matrix():
    spec = SpectrumSpec(((1, 4),), 0, 4)
    rep = verify_spectrum(_identity(4), spec, mode="exact")
    assert rep.ok


def test_verify_all_ones():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            n = binomial(v, k)
            spec = SpectrumSpec(((n, 1),), n - 1, n)
            rep = verify_spectrum(build(A(0, k, k, v)), spec)
            assert rep.ok


def test_float_crosscheck_order_limit():
    n = 250
    spec = SpectrumSpec(((1, n),), 0, n)
    with pytest.raises(ValueError):
        float_crosscheck(ExactMatrix.identity(n), spec)


def test_verify_detects_wrong_multiplicity():
    spec = SpectrumSpec(((1, 3), (0, 1)), 0, 4)
    rep = verify_spectrum(_identity(4), spec)
    assert not rep.ok
    assert any(not c.ok and c.name.startswith("multiplicity") for c in rep.checks)


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_verify_detects_wrong_multiplicities_of_the_right_eigenvalues(mode):
    # N^3_(4,4)(9) has -4^1 5^8 -2^27 3^48 0^42; a -2 traded for a -4 and a
    # 0 keeps order, trace and the eigenvalue set, so only the traces tell
    kind = N(3, 4, 4, 9)
    mult = dict(spectrum_of(kind).distinct())
    mult[-4], mult[-2], mult[0] = mult[-4] + 1, mult[-2] - 2, mult[0] + 1
    rep = verify_spectrum(build(kind), _spec(mult), mode=mode)
    status = {c.name: c.ok for c in rep.checks}
    assert status["order"] and status["trace"] and status["annihilation"]
    assert not status["multiplicity[-2]"]
    assert not rep.ok


@pytest.mark.parametrize("scale, mode", [
    pytest.param(scale, mode, id=str(scale) + ("-exact" if mode == "exact" else ""))
    for mode in ("modp", "exact") for scale in (1, 2 ** 32 + 1, 2 ** 40 + 1, 2 ** 55 + 1)])
def test_verify_spectrum_is_exact_at_every_entry_size(scale, mode):
    # scale * J of order 4, built as A^0 over J(4,1) and scaled, which keeps
    # it g(theta), has eigenvalues 4 * scale once and 0 three times.  Odd
    # scales, so that a sum past 2^53 would be rounded; the quotient is
    # taken in Python ints at every size
    n = 4
    m = build(A(0, 1, 1, n)).scale(scale)
    good = SpectrumSpec(((n * scale, 1), (0, n - 1)), 0, n)
    rep = verify_spectrum(m, good, mode=mode)
    assert rep.ok and rep.proved and rep.primes == ()
    # the right order and trace, the wrong eigenvalue set
    bad = SpectrumSpec(((n * scale - 1, 1), (1, 1), (0, n - 2)), 0, n)
    rep = verify_spectrum(m, bad, mode=mode)
    status = {c.name: c.ok for c in rep.checks}
    assert status["order"] and status["trace"] and not status["annihilation"]


def test_verify_spectrum_fails_a_claimed_eigenvalue_beyond_2_62():
    # M - lambda I has an entry near -2^62, and the false claim fails its
    # checks instead of raising.  The multiplicities are solved jointly from
    # the traces, so the unclaimed eigenvalue 4 * scale fails them all,
    # multiplicity[0] too
    n, scale, lam = 4, 2 ** 55 + 1, 2 ** 62 + 1
    m = build(A(0, 1, 1, n)).scale(scale)
    spec = SpectrumSpec(((lam, 1), (0, n - 1)), 0, n)
    rep = verify_spectrum(m, spec)
    status = {c.name: c.ok for c in rep.checks}
    assert not status["trace"] and not status["annihilation"]
    assert not status[f"multiplicity[{lam}]"] and not status["multiplicity[0]"]
    assert not rep.ok


def test_verify_spectrum_fails_rational_claims_with_no_prime():
    # rational eigenvalues of an integer matrix are always false claims:
    # lambda = p / q is taken as q M - p I on the quotient, so a claim fails
    # annihilation and the multiplicities, and no denominator can meet a prime
    m = _identity(2)
    for q in (2, 2097143):  # a small denominator and the largest 21-bit prime
        half = SpectrumSpec(((Fraction(1, q), 1), (2 - Fraction(1, q), 1)), 0, 2)
        rep = verify_spectrum(m, half)
        status = {c.name: c.ok for c in rep.checks}
        assert status["trace"] and not status["annihilation"] and rep.primes == ()
        assert not any(ok for name, ok in status.items() if name.startswith("multiplicity"))


def test_verify_detects_wrong_eigenvalue():
    spec = SpectrumSpec(((2, 4),), 0, 4)
    rep = verify_spectrum(_identity(4), spec)
    assert not rep.ok


def test_verify_rejects_asymmetric_without_flag():
    # a matrix that is not g(theta) over J(v, k), a non-symmetric one among
    # them, has no quotient, so its claim is refused, not sampled
    for m, spec in ((ExactMatrix([[0, 1], [0, 0]]), SpectrumSpec(((0, 2),), 0, 2)),
                    (ExactMatrix([[1, 1, 0], [0, 2, 0], [0, 0, 3]]),
                     SpectrumSpec(((1, 1), (2, 1), (3, 1)), 0, 3))):
        with pytest.raises(ValueError, match="no quotient proves its spectrum"):
            verify_spectrum(m, spec)
    # tagged over J(2,1) and J(3,1), but off the class pattern
    with pytest.raises(ValueError, match="no quotient"):
        verify_spectrum(ExactMatrix([[0, 1], [0, 0]], *[_identity(2).row_family] * 2),
                        SpectrumSpec(((0, 2),), 0, 2))


def test_verify_exact_mode_has_no_order_limit():
    # I of order 3432, A^7 over J(14,7), proved on its 8 x 8 quotient
    m = build(A(7, 7, 7, 14))
    rep = verify_spectrum(m, SpectrumSpec(((1, 3432),), 0, 3432), mode="exact")
    assert rep.ok and rep.primes == ()
    assert rep.checks[2].detail == ("M = g(theta) over J(14,7), and P(B) e_7 = 0 for its "
                                    "8 x 8 quotient B: P(M) = 0, proved with no prime")


@pytest.mark.parametrize("seed", range(20))
def test_verify_exact_fails_a_wrong_eigenvalue_at_every_seed(seed):
    # U^1 on J(5, 2) has spectrum 6^1 1^4 (-2)^5; the claim splits 1^4 into
    # (1 + d)^2 (1 - d)^2, d = seed + 1, keeping order and trace and missing
    # the eigenvalue 1, so only annihilation can tell
    m, d = build(U(1, 2, 2, 5)), seed + 1
    spec = SpectrumSpec(((6, 1), (1 + d, 2), (1 - d, 2), (-2, 5)), 0, 10)
    status = {c.name: c.ok for c in verify_spectrum(m, spec, mode="exact").checks}
    assert status["order"] and status["trace"] and not status["annihilation"]


@pytest.mark.parametrize("mode", ["modp", "exact"])
@pytest.mark.parametrize("last", [2 ** 61 - 1, 2 ** 61])
def test_verify_spectrum_sums_the_trace_exactly_past_int64(mode, last):
    # diagonal sums of 3 * 2^61 + last: 2^63 - 1, the largest int64, and
    # 2^63, where an int64 sum wraps to -2^63 and a true claim would fail its
    # trace.  A g(theta) has a constant diagonal, so the two are c I over
    # J(7,1), c = (2^63 - 1) / 7, and over J(4,1), c = 2^61
    total = 3 * 2 ** 61 + last
    n = 7 if total % 7 == 0 else 4
    m = _identity(n).scale(total // n)
    rep = verify_spectrum(m, SpectrumSpec(((total // n, n),), 0, n), mode=mode)
    assert rep.checks[1].detail == f"trace {total}, spectral sum {total}"
    assert rep.ok


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


def _traced_peak(f, *args, **kwargs):
    """f(*args, **kwargs) and the peak of the memory that tracemalloc saw it take."""
    tracemalloc.start()
    try:
        out = f(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_spectrum_makes_no_dense_copy_of_a_split_matrix():
    kind = N(5, 6, 6, 12)  # order 924, 462 pairs {K, complement of K}
    m, spec = build(kind), spectrum_of(kind)
    n = m.nrows
    m.mag  # computed before tracing
    for mode in ("modp", "exact"):
        rep, peak = _traced_peak(verify_spectrum, m, spec, mode=mode)
        assert rep.ok and rep.proved
        # one float64 copy of M, a whole rank's working copy, is n * n * 8
        # bytes; the compare with g(theta) and the 7 x 7 quotient peak at
        # about 0.10 of it (0.81 of the int8 stack)
        assert peak < n * n * 8 / 5, (mode, peak / (n * n * 8))
    # the untagged copy of its stack is refused before anything is made
    with pytest.raises(ValueError, match="no quotient"):
        verify_spectrum(ExactMatrix(m.stack), spec)


def test_verify_spectrum_of_a_connected_matrix_makes_no_dense_copy(monkeypatch):
    # N^5_(6,6)(13) is connected, with 7 distinct eigenvalues and 8 nonzeros
    # in each row.  It is proved on its quotient over J(13,6), and no rank is
    # taken
    kind = N(5, 6, 6, 13)
    m, spec = build(kind), spectrum_of(kind)
    n = m.nrows
    assert len(spec.distinct()) == 7
    monkeypatch.setattr("imtk.exactalg.rank_modp", None)
    m.mag  # computed before tracing
    for mode in ("modp", "exact"):
        rep, peak = _traced_peak(verify_spectrum, m, spec, mode=mode)
        assert rep.ok
        # one float64 copy of M, each rank's working copy before, is n * n
        # * 8 bytes; the proof peaks at about 0.03 of it, compared region by
        # region
        assert peak < n * n * 8 / 10, (mode, peak / (n * n * 8))


def test_rank_modp_of_a_window_peaks_below_two_and_a_half_copies_of_it():
    # rank_modp holds its int64 working copy of the block, as large as a
    # float64 copy, and per pivot the rows it updates, gathered, with their
    # product: a pair of rows here, so about one copy of the block in all
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
    for shift in (0, 1, -1, 2 ** 53 + 1):  # the last past float64's exact integers
        shifted = arr - shift * np.eye(600, dtype=np.int64).astype(arr.dtype)
        for p in (3, 1000003, 2097143):
            residues = np.array((shifted % p).tolist(), dtype=np.int64)
            assert rank_modp(ModMatrix(shifted, p), p) == rank_modp(ModMatrix(residues, p), p)
    if not wide:  # 1 is an eigenvalue of each swap, [[2, 1], [1, 2]] and [1]
        assert rank_mod(ExactMatrix(arr - np.eye(600, dtype=np.int64)), 1000003) == 600 - 3 * 75


def test_f_spectrum_at_sampled_points():
    for v in range(2, 8):
        for k in range(min(3, v // 2) + 1):
            for t in range(k + 1):
                spec = spectrum_of(F(t, k, k, v))
                m = build(F(t, k, k, v))
                for z0 in sampled_eval_points():
                    rep = verify_spectrum(m.eval_at(z0), spec.eval_at(z0), mode="exact")
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
    # W^T F is tagged with the k-subsets on both sides and is g(theta) over
    # J(v, k), so its spectrum is proved on its quotient
    for v in range(2, 8):
        for k in range(v // 2 + 1):
            for s in range(k + 1):
                for t in range(s + 1):
                    spec = wf_spectrum(v, k, s, t)
                    m = build(W(s, k, v)).transpose() @ build(F(t, s, k, v))
                    for z0 in (Fraction(1), Fraction(-2)):
                        rep = verify_spectrum(m.eval_at(z0), spec.eval_at(z0))
                        assert rep.ok, (v, k, s, t, z0)


def test_wu_product_spectrum_verifies():
    for v in range(2, 8):
        for k in range(v // 2 + 1):
            for s in range(k + 1):
                for l in range(s + 1):
                    spec = wu_spectrum(v, k, s, l)
                    m = build(W(s, k, v)).transpose() @ build(U(l, s, k, v))
                    rep = verify_spectrum(m, spec)
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
    # s + k = v, s != k: ranked, like every non-square kind, on the quotient
    # of M M^T over J(v, s); a rational kind has none
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


def test_gram_route_ranks_every_non_square_integer_kind():
    # every non-square integer kind at v <= 9, s > k, s + k = v, X and Y
    # included, is ranked on the quotient of M M^T over J(v, s): against the
    # elimination mod a prime that does not divide the unit, and against
    # Bareiss over Q up to 36 rows
    rng, counts = random.Random(RNG_SEED), Counter()
    for kind in integer_kinds(9):
        if kind.col_size == kind.s:
            continue
        m = build(kind)
        q = _quotient_rank(m)
        p = random_prime(rng)
        while q.mod(p) is None:
            p = random_prime(rng)
        assert q.rank == rank_mod(m, p), kind.describe()
        if m.nrows <= 36:
            assert q.rank == rank_exact(m), kind.describe()
            counts["exact"] += 1
        counts["kinds"] += 1
        counts["s > k"] += kind.s > kind.col_size
        counts["s + k = v"] += kind.s + kind.col_size == kind.v
        counts["X, Y"] += kind.tag in ("X", "Y")
        counts["zero"] += not m.stack.any()
    assert counts == {"kinds": 15155, "exact": 11843, "s > k": 7541, "s + k = v": 1811,
                      "X, Y": 3581, "zero": 6112}


def test_gram_counts_equal_the_counts_of_k_subsets_by_both_intersections():
    # n(i, a, b) against the k-subsets K of [v] counted by |S0 cap K| = a
    # and |S cap K| = b, S0 = {1..s} and S one s-subset with |S0 cap S| = i,
    # from the rows of the membership matrices; an i that no pair of
    # s-subsets meets in counts nothing
    cases = 0
    for v in range(8):
        for s in range(v + 1):
            mem_s = membership_matrix(v, s)
            meets = mem_s[:, :s].sum(axis=1).astype(int)  # |S0 cap S| of every S
            for k in range(v + 1):
                mem_k = membership_matrix(v, k)
                a = mem_k[:, :s].sum(axis=1).astype(int)
                for i in range(s + 1):
                    found = np.flatnonzero(meets == i)
                    b = (mem_k @ mem_s[found[0]]).astype(int) if found.size else None
                    for x in range(min(s, k) + 1):
                        for y in range(min(s, k) + 1):
                            want = int(((a == x) & (b == y)).sum()) if found.size else 0
                            assert _gram_counts(v, s, k, i, x, y) == want, (v, s, k, i, x, y)
                            cases += 1
    assert cases == 10242


def test_quotient_rank_is_the_rank_mod_every_prime_not_dividing_its_unit():
    # the second route: rank_modp mod small primes, where p | unit happens
    # often, against the quotient's claim wherever it makes one
    proved, kinds = Counter(), 0
    for kind in square_kinds(8):
        m = build(kind)
        q = _quotient_rank(m)
        for p in (2, 3, 5, 7, 11, 13):
            got = rank_modp(ModMatrix(m.stack[0], p), p)
            if q.mod(p) is not None:
                assert got == q.rank, (kind.describe(), p)
            proved[q.mod(p) is not None, got == q.rank] += 1
        kinds += 1
    # (claim made, rank_modp agrees): 8995 proved ranks, and 1457 cases where
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
        assert rank_modp(ModMatrix(m.stack[0], p), p) == rank
    assert q.mod(11) == 1287


def test_quotient_traces_equal_bigint_power_traces_of_every_square_kind():
    # the second route: tr(M^a) of the built M in Python ints, a <= k + 1,
    # every power that the quotient's minimal polynomial can need
    kinds = 0
    for kind in square_kinds(7):
        m = build(kind)
        b = _johnson_quotient(m)
        count = len(b) + 1
        assert (_quotient_traces(m.nrows, _quotient_powers(b, count))
                == trace_powers(m.stack[0].tolist(), count)), kind.describe()
        kinds += 1
    assert kinds == 1253


def test_quotient_traces_of_golden_n13_equal_its_power_traces():
    # its power traces from the closed form, sum_j m_j lambda_j^a, twice as
    # far as the 7 that its 7 distinct eigenvalues need
    kind = N(5, 6, 6, 13)
    m, distinct = build(kind), spectrum_of(kind).distinct()
    b = _johnson_quotient(m)
    assert len(b) == 7 and len(distinct) == 7
    traces = _quotient_traces(m.nrows, _quotient_powers(b, 14))
    assert traces[:2] == [1716, m.trace()]
    assert traces == [sum(mult * val ** a for val, mult in distinct) for a in range(14)]


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
def test_a_matrix_off_the_class_pattern_is_refused(mode):
    kind = N(1, 3, 3, 7)  # 5 distinct eigenvalues
    spec, off = spectrum_of(kind), _off_pattern(kind, 1, 2)
    assert _johnson_quotient(build(kind)) is not None and _johnson_quotient(off) is None
    # order 462 is compared in two blocks of rows; a pair in the last one
    big = N(2, 5, 5, 11)
    assert _johnson_quotient(build(big)) is not None
    assert _johnson_quotient(_off_pattern(big, 460, 461)) is None
    untagged = ExactMatrix(off.stack)  # no families, so no quotient is sought
    for x in (off, untagged):
        with pytest.raises(ValueError, match="no quotient proves its spectrum"):
            verify_spectrum(x, spec, mode=mode)


def _region_corners(v, s, k, cap):
    """The first entry of the first and of the last region of the s- by
    k-subset matrix over [v], in the order they are compared, and of the
    first region whose key an earlier region has."""
    regions = build_module._regions(v, s, k, cap)
    keys = [key for _, _, key in regions]
    repeat = next(i for i, key in enumerate(keys) if key in keys[:i])
    return {where: (regions[i][0].start, regions[i][1].start)
            for where, i in (("first", 0), ("last", -1), ("repeated key", repeat))}


def _pattern_of(m):
    """``_pattern`` of a tagged M, with the classes of its own families."""
    rows, cols = m.row_family, m.col_family
    return _pattern(m, _classes(rows.v, rows.s, cols.s))


def test_the_pattern_compare_reads_g_off_any_kind_of_s_by_k_subsets():
    # g is the entry per theta, 0 where no S meets any K in that many
    # elements (theta < s + k - v); U^1_(5,7)(12), 792 x 792, is compared
    # region by region
    for kind in (W(2, 3, 6), A(1, 5, 4, 7), N(1, 4, 2, 7), U(1, 5, 7, 12)):
        m = build(kind)
        lo = max(0, kind.s + kind.k - kind.v)
        assert _pattern_of(m).tolist() == [0] * lo + _entries(kind)[lo:], kind.describe()
        arr = m.as_int_array().astype(np.int64)
        arr[-1, -1] += 1
        assert _pattern_of(ExactMatrix(arr, m.row_family, m.col_family)) is None
    # the quotient needs both sides tagged with the same k-subsets: untagged,
    # or tagged with the 4-subsets of [7] on one side, the same 35, M has none
    m = build(N(1, 3, 3, 7))
    assert _johnson_quotient(ExactMatrix(m.stack)) is None
    assert _johnson_quotient(ExactMatrix(m.stack, m.row_family, SubsetFamily(7, 4))) is None


@pytest.mark.parametrize("where", ["first", "last", "repeated key"])
def test_one_entry_off_the_pattern_in_any_region_fails_the_compare(monkeypatch, where):
    # regions of at most 64 entries cut the order-35 matrices over J(7,3)
    # 2 and 3 elements deep, so many regions share a key and with it one
    # g-block; one entry moved off its class value, in the first region, the
    # last, or one whose key an earlier region has, must fail the compare,
    # so every region is compared, not every key once
    monkeypatch.setattr(build_module, "_REGION_ENTRIES", 64)
    i, j = _region_corners(7, 3, 3, 64)[where]
    kind = N(1, 3, 3, 7)
    m = build(kind)
    arr = m.as_int_array().astype(np.int64)
    arr[i, j] += 1
    assert _johnson_quotient(m) is not None
    assert _johnson_quotient(ExactMatrix(arr, m.row_family, m.col_family)) is None
    # moved symmetrically, M is refused by verify_spectrum
    with pytest.raises(ValueError, match="no quotient"):
        verify_spectrum(_off_pattern(kind, i, j), spectrum_of(kind))
    # through _quotient_rank's Gram route: U^1 over 3- by 4-subsets of [7]
    # is compared with g(theta) over its own regions, cut the same way
    i, j = _region_corners(7, 3, 4, 64)[where]
    rect = build(U(1, 3, 4, 7))
    arr = rect.as_int_array().astype(np.int64)
    arr[i, j] += 1
    assert _quotient_rank(rect) is not None
    assert _quotient_rank(ExactMatrix(arr, rect.row_family, rect.col_family)) is None


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_the_quotient_route_fails_a_swapped_multiplicity_and_a_shifted_eigenvalue(mode):
    kind = N(3, 4, 4, 9)  # order 126: -4^1 5^8 -2^27 3^48 0^42
    m, spec = build(kind), spectrum_of(kind)
    distinct = spec.distinct()
    assert len(distinct) > 2 and _johnson_quotient(m) is not None
    assert verify_spectrum(m, spec, mode=mode).ok

    def status(pairs):
        rep = verify_spectrum(m, SpectrumSpec(tuple(pairs), 0, spec.order), mode=mode)
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
def no_prime_or_product(monkeypatch):
    """Every prime draw, elimination and matrix product raises when called."""
    for target in ("imtk.exactalg.random_prime", "imtk.cli.random_prime",
                   "imtk.exactalg.rank_modp"):
        monkeypatch.setattr(target, _raise)
    monkeypatch.setattr(ExactMatrix, "__matmul__", _raise)


@pytest.mark.parametrize("mode", ["modp", "exact"])
def test_the_quotient_route_fails_a_wrong_eigenvalue_with_the_trace_kept(
        no_prime_or_product, mode):
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
        no_prime_or_product, mode):
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


@pytest.mark.parametrize("mode", ["modp", "exact"])
@pytest.mark.parametrize("args", [
    "--kind N --t 6 --k 7 --v 14", "--kind N --t 5 --k 6 --v 13",
    "--kind U --l 3 --k 6 --v 13", "--kind A --i 3 --k 6 --v 13",
    "--kind F --t 2 --k 3 --v 7"], ids=["N14", "N13", "U13", "A13", "F7"])
def test_on_pattern_spectra_are_proved_with_no_product_probe_or_prime(
        no_prime_or_product, capsys, args, mode):
    from imtk.cli import main
    assert main(["--seed", "1", "spectrum", *args.split(), "--check", mode]) == 0
    out = capsys.readouterr().out.splitlines()
    checks = [line for line in out if line.startswith("check[")]
    assert len(checks) == (3 if "F" in args else 1)
    assert all(line.endswith(f"mode={mode} primes=[]") for line in checks)
    assert sum("P(M) = 0, proved with no prime" in line for line in out) == len(checks)
    assert out[-1] == "verified"


def test_a_report_says_whether_it_is_proved():
    # every report is proved, in either spelling of the check, with no
    # prime; a matrix with no quotient gets no report at all
    kind = U(1, 2, 2, 5)
    m, spec = build(kind), spectrum_of(kind)
    for mode in ("modp", "exact"):
        rep = verify_spectrum(m, spec, mode=mode)
        assert rep.ok and rep.proved is True and rep.to_dict()["proved"] is True
        assert rep.primes == () and rep.to_dict()["primes"] == []
    with pytest.raises(ValueError, match="no quotient"):
        verify_spectrum(ExactMatrix(m.stack), spec)


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
