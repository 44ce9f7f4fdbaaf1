import random
from fractions import Fraction

import numpy as np
import pytest

from imtk.build import A, F, N, U, Uge, Utl, W, build
from imtk.combinat import binomial
from imtk.exactalg import ExactMatrix, Poly, rank_modp
from imtk.spectra import (SpectrumSpec, alpha, eberlein, float_crosscheck,
                          float_eigenvalues, lambda_uge, lambda_utl, mu,
                          multiplicity, rank_formula, sampled_eval_points,
                          spectrum_of, tau, verify_spectrum, wf_spectrum,
                          wu_spectrum)

from oracles import mat_inverse

RNG_SEED = 1234


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
                    assert rank_modp(m, random_prime(rng)) == want


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


def test_verify_threaded_path():
    spec = spectrum_of(N(2, 3, 3, 7))
    rep = verify_spectrum(build(N(2, 3, 3, 7)), spec, threads=3,
                          rng=random.Random(RNG_SEED))
    assert rep.ok and len(rep.checks) >= 4


def _unlucky_case(seed):
    """A correct claim whose shifted ranks both drop mod the first prime.

    verify_spectrum draws its first prime before anything else, so with
    p1 = random_prime(Random(seed)) the matrix diag(1, 1 + p1) has
    rank(M - 1 I) = rank(M - (1 + p1) I) = 1 over Q but 0 mod p1.
    """
    from imtk.exactalg import random_prime
    p1 = random_prime(random.Random(seed))
    m = ExactMatrix([[1, 0], [0, 1 + p1]])
    return m, SpectrumSpec(((1, 1), (1 + p1, 1)), 0, 2), p1


def test_verify_records_retry_primes():
    m, spec, p1 = _unlucky_case(RNG_SEED)
    rep = verify_spectrum(m, spec, rng=random.Random(RNG_SEED))
    assert rep.ok
    assert rep.primes[0] == p1 and len(rep.primes) == 4
    assert len(set(rep.primes)) == 4
    assert rep.to_dict()["primes"] == list(rep.primes)


def test_verify_report_does_not_depend_on_threads():
    m, spec, _ = _unlucky_case(RNG_SEED)
    reports = [verify_spectrum(m, spec, rng=random.Random(RNG_SEED),
                               threads=threads).to_dict() for threads in (1, 2)]
    assert len(reports[0]["primes"]) == 4
    assert reports[0] == reports[1]


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


@pytest.mark.parametrize("scale", [1, 2 ** 32 + 1, 2 ** 40 + 1, 2 ** 55 + 1])
def test_verify_spectrum_is_exact_at_every_entry_size(scale):
    # scale * J of order 4 has eigenvalues 4 * scale once and 0 three times.
    # Odd scales, so that a sum past 2^53 would be rounded: near 2^32 the
    # probe products are summed in chunks, near 2^40 M is first reduced mod
    # each prime, and near 2^55 the rank takes the int64 route.
    n = 4
    m = ExactMatrix.ones(n, n).scale(scale)
    good = SpectrumSpec(((n * scale, 1), (0, n - 1)), 0, n)
    assert verify_spectrum(m, good, rng=random.Random(RNG_SEED)).ok
    # the right order and trace, the wrong eigenvalue set
    bad = SpectrumSpec(((n * scale - 1, 1), (1, 1), (0, n - 2)), 0, n)
    status = {c.name: c.ok for c in verify_spectrum(m, bad, rng=random.Random(RNG_SEED)).checks}
    assert status["order"] and status["trace"] and not status["annihilation"]


def test_verify_spectrum_fails_a_claimed_eigenvalue_beyond_2_62():
    # M - lambda I has an entry near -2^62: its rank is taken mod p like any
    # other, and the false claim fails its checks instead of raising
    n, scale, lam = 4, 2 ** 55 + 1, 2 ** 62 + 1
    m = ExactMatrix.ones(n, n).scale(scale)
    spec = SpectrumSpec(((lam, 1), (0, n - 1)), 0, n)
    rep = verify_spectrum(m, spec, rng=random.Random(RNG_SEED))
    status = {c.name: c.ok for c in rep.checks}
    assert not status["trace"] and not status["annihilation"]
    assert not status[f"multiplicity[{lam}]"] and status["multiplicity[0]"]
    assert not rep.ok


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
    m = ExactMatrix([[0, 1], [0, 0]])
    spec = SpectrumSpec(((0, 2),), 0, 2)
    with pytest.raises(ValueError):
        verify_spectrum(m, spec)


def test_verify_exact_order_limit():
    spec = SpectrumSpec(((1, 400),), 0, 400)
    with pytest.raises(ValueError):
        verify_spectrum(ExactMatrix.identity(400), spec, mode="exact")


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
                        rep = verify_spectrum(
                            m.eval_at(z0), spec.eval_at(z0), rng=rng,
                            assume_diagonalizable=True)
                        assert rep.ok, (v, k, s, t, z0)


def test_wu_product_spectrum_verifies():
    rng = random.Random(RNG_SEED)
    for v in range(2, 8):
        for k in range(v // 2 + 1):
            for s in range(k + 1):
                for l in range(s + 1):
                    spec = wu_spectrum(v, k, s, l)
                    m = build(W(s, k, v)).transpose() @ build(U(l, s, k, v))
                    rep = verify_spectrum(m, spec, rng=rng,
                                          assume_diagonalizable=True)
                    assert rep.ok, (v, k, s, l)


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
