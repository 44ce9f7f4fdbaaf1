"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The heavy cases (orders 1716 and 3432, and the full
v <= 8 identity grid) run the same code paths as the CLI.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from imtk.build import (A, F, N, U, Utl, W, Y, build, row_support_formula,
                        theta_matrix)
from imtk.combinat import binomial, xi_at_minus1
from imtk.exactalg import ExactMatrix, Poly, random_prime
from imtk.opcalc import L, identity_op, op_apply, op_compose, zD, zD_falling, \
    zD_power, zD_shifted_falling
from imtk.scheme import intersection_p, verify_scheme_axioms
from imtk.spectra import eberlein, lambda_utl, rank_formula, spectrum_of, tau
from imtk.verify import REGISTRY, a_pl, run_suite

from oracles import float_crosscheck, rank_mod

SRC = str(Path(__file__).resolve().parent.parent / "src")
# the CLI runs in a clean environment, but with the caller's BLAS thread count
BLAS_ENV = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",) if k in os.environ}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "imtk.cli", *args],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", **BLAS_ENV},
    )


def _report(num, detail):
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def n14():
    return build(N(6, 7, 7, 14))


@pytest.fixture(scope="module")
def n13():
    return build(N(5, 6, 6, 13))


def test_criterion_1_golden_spectrum_n14():
    start = time.monotonic()
    proc = run_cli("--seed", "20240814", "spectrum", "--kind", "N", "--t", "6",
                   "--k", "7", "--v", "14", "--check", "modp")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert "order 3432" in proc.stdout
    assert "distinct: 2^1716 0^1716" in proc.stdout
    assert "ok  trace: trace 3432" in proc.stdout
    assert "rank(M - 2 I) = 1716" in proc.stdout
    assert "rank(M - 0 I) = 1716" in proc.stdout
    assert "ok  annihilation" in proc.stdout
    assert "verified" in proc.stdout
    assert elapsed <= 300, f"took {elapsed:.0f}s, budget 300s"
    _report(1, f"N^6_(7,7)(14): {{2:1716, 0:1716}}, rank 1716, verified "
               f"mod-p in {elapsed:.1f}s")


def test_criterion_2_golden_spectrum_n13():
    start = time.monotonic()
    proc = run_cli("--seed", "20240814", "spectrum", "--kind", "N", "--t", "5",
                   "--k", "6", "--v", "13", "--check", "modp")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert "order 1716" in proc.stdout
    assert "distinct: -6^1 7^12 -4^65 5^208 -2^429 3^572 0^429" in proc.stdout
    assert "rank(M - 0 I) = 1287" in proc.stdout
    assert "verified" in proc.stdout
    assert elapsed <= 180, f"took {elapsed:.0f}s, budget 180s"
    rank_proc = run_cli("--seed", "7", "rank", "--kind", "N", "--t", "5",
                        "--k", "6", "--v", "13", "--method", "both")
    assert rank_proc.returncode == 0
    assert "rank[formula] = 1287" in rank_proc.stdout
    assert "match" in rank_proc.stdout
    _report(2, f"N^5_(6,6)(13): seven eigenvalues exact, rank 1287, "
               f"verified in {elapsed:.1f}s")


def test_criterion_3_rank_formulas():
    rng = random.Random(33)
    cases = 0
    for k in range(2, 6):
        want = binomial(2 * k, k) // 2
        assert rank_formula(N(k - 1, k, k, 2 * k)) == want
        got = rank_mod(build(N(k - 1, k, k, 2 * k)), random_prime(rng))
        assert got == want, (k, got, want)
        cases += 1
    for k in range(2, 5):
        for v in range(2 * k + 1, 11):
            want = binomial(v, k - 1)
            assert rank_formula(N(k - 1, k, k, v)) == want
            got = rank_mod(build(N(k - 1, k, k, v)), random_prime(rng))
            assert got == want, (k, v, got, want)
            cases += 1
    _report(3, f"N^(k-1) rank formulas exact on {cases} cases "
               f"(k=2..5 at v=2k; k=2..4 for 2k<v<=10)")


def test_criterion_4_identity_suite_v8():
    start = time.monotonic()
    proc = run_cli("verify", "--identity", "all", "--v-max", "8")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert ", 0 failures" in proc.stdout
    assert elapsed <= 600, f"took {elapsed:.0f}s, budget 600s"
    total = next(line for line in proc.stdout.splitlines()
                 if line.startswith("total:"))
    assert total.startswith("total: 93027 cases, 0 failures"), total
    _report(4, f"full registry at v<=8: {total.strip()} (budget 600s, "
               f"took {elapsed:.0f}s)")


def test_criterion_5_eberlein_crosscheck():
    cases = 0
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for l in range(k + 1):
                for j in range(k + 1):
                    assert eberlein(v, k, l, j) == lambda_utl(v, k, k, k - l, j)
                spec = spectrum_of(U(k - l, k, k, v))
                assert float_crosscheck(build(U(k - l, k, k, v)), spec, tol=1e-6)
                cases += 1
    assert [eberlein(5, 2, 1, j) for j in range(3)] == [6, 1, -2]
    spec52 = spectrum_of(U(1, 2, 2, 5))
    assert spec52.distinct() == [(6, 1), (1, 4), (-2, 5)]
    _report(5, f"Eberlein closed form matches the index-mapped eigenvalues "
               f"and float spectra (1e-6) on {cases} matrices; "
               f"J(5,2) = 6^1 1^4 (-2)^5")


def test_criterion_6_support_counts(n14, n13):
    cases = 0
    for v in range(1, 9):
        for s in range(min(v, 4) + 1):
            for k in range(min(v, 4) + 1):
                for t in range(min(s, k) + 1):
                    for l in range(t + 1):
                        want = row_support_formula(t, l, s, k, v)
                        m = build(Utl(t, l, s, k, v))
                        arr = m.as_int_array()
                        assert (np.count_nonzero(arr, axis=1) == want).all()
                        cases += 1
    rng = random.Random(6)
    rows14 = rng.sample(range(n14.nrows), 20)
    arr14 = n14.as_int_array()
    assert all(np.count_nonzero(arr14[r]) == 2 for r in rows14)
    assert row_support_formula(6, 0, 7, 7, 14) == 2
    rows13 = rng.sample(range(n13.nrows), 20)
    arr13 = n13.as_int_array()
    assert all(np.count_nonzero(arr13[r]) == 8 for r in rows13)
    assert row_support_formula(5, 0, 6, 6, 13) == 8
    _report(6, f"row supports match the closed form on {cases} grids; "
               f"20 sampled rows each of the order-3432 (support 2) and "
               f"order-1716 (support 8) matrices")


def test_criterion_7_operator_calculus():
    # Lemma 6 expansions against brute-force composition, n, k <= 8
    for n in range(9):
        brute = identity_op()
        for _ in range(n):
            brute = op_compose(brute, zD)
        assert brute == zD_power(n)
    for k in range(9):
        for n in range(9):
            brute = identity_op()
            for i in range(n):
                brute = op_compose(brute, zD - (k + i) * identity_op())
            assert brute == zD_shifted_falling(k, n)
            if k == 0:
                assert brute == zD_falling(n)
    # W_is^T F^t_ik = L(s,i) F^t_sk for i <= s <= k <= 4, v <= 8, t <= s
    op_cases = 0
    for v in range(1, 9):
        for k in range(min(v, 4) + 1):
            for s in range(k + 1):
                for i in range(s + 1):
                    for t in range(s + 1):
                        lhs = build(W(i, s, v)).transpose() @ build(F(t, i, k, v))
                        rhs = op_apply(L(s, i), build(F(t, s, k, v)))
                        assert lhs == rhs, (v, k, s, i, t)
                        op_cases += 1
    # Prop 8 product formula on the same grid bounds
    p8_cases = 0
    for name in ("eq23", "eq24", "eq25"):
        check = REGISTRY[name]
        for params in check.domain(8):
            result = check.run(**params)
            assert result.ok, (name, params, result.detail)
            p8_cases += 1
    _report(7, f"Lemma 6 vs composition (n,k<=8); L-operator route on "
               f"{op_cases} grids; Prop 8 exact on {p8_cases} cases")


def test_criterion_8_scheme_axioms():
    checked = 0
    for v in range(1, 9):
        for k in range(v // 2 + 1):
            report = verify_scheme_axioms(v, k)
            assert report.ok, report.failures
            checked += report.products_checked
    # p(1,1,2) = 6 for J(5,2) against the direct count
    ground = [frozenset(s) for s in
              __import__("itertools").combinations(range(1, 6), 2)]
    direct = sum(1 for b in ground if len(b & ground[0]) == 1)
    assert direct == 6 == intersection_p(5, 2, 1, 1, 2)
    _report(8, f"scheme axioms pass for all k <= v/2, v <= 8 "
               f"({checked} products); p(1,1,2) = 6 matches the direct count")


def _y_entry_rejected_variant(theta, t, k, l):
    """The rejected (k-l) numerator variant; returns None on 0/0."""
    if binomial(theta, l) == 0:
        return Fraction(0)
    den = (k - t + theta - l) * binomial(k - l, t - theta)
    if den == 0:
        return None
    return Fraction((-1) ** (theta - l) * binomial(theta, l) * (k - l), den)


def test_criterion_9_open_question_resolutions():
    # (a) Y-variant: the shipped (k-t) numerator validates on the whole
    # grid (registry eq30); the alternative (k-l) reading must fail somewhere.
    check = REGISTRY["eq30"]
    for params in check.domain(6):
        assert check.run(**params).ok, params
    rejected_variant_fails = False
    for v in range(1, 7):
        for k in range(v + 1):
            for t in range(k + 1):
                for s in range(v + 1):
                    for l in range(t + 1):
                        th = theta_matrix(v, s, t)
                        y = [[_y_entry_rejected_variant(int(x), t, k, l)
                              for x in row] for row in th]
                        if any(e is None for row in y for e in row):
                            rejected_variant_fails = True
                            continue
                        lhs = build(Utl(t, l, s, k, v))
                        rhs = ExactMatrix(y) @ build(W(t, k, v))
                        if lhs != rhs:
                            rejected_variant_fails = True
    assert rejected_variant_fails, "the (k-l) variant unexpectedly validates"
    # shipped Y uses the validated (k-t) closed form
    got = build(Y(2, 2, 3, 1, 6)).data[0][0]
    assert got == 2 * xi_at_minus1(1, 1, 2) == -1

    # (b) eigenvalue-sum lower bounds: the out-of-range terms of lambda_utl
    # and tau vanish identically, so both bound conventions agree.
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for t in range(k + 1):
                for l in range(t + 1):
                    for j in range(t + 1):
                        for i in range(l, min(j, t + 1)):
                            assert ((-1) ** (l + i) * binomial(i, l)
                                    * binomial(k - j, i - j)
                                    * binomial(v - j - i, k - i)) == 0
            for s in range(k + 1):
                for l in range(s + 1):
                    for j in range(s + 1):
                        for i in range(min(j, l), l):
                            assert binomial(i, l) == 0
                        alt = (-1) ** (k + s + l) * sum(
                            (-1) ** i * binomial(i, l) * binomial(k - j, i - j)
                            * binomial(v - j - i, k - i) * binomial(i - s - 1, k - s)
                            for i in range(l, k + 1))
                        assert tau(v, k, s, l, j) == alt

    # (c) same class of resolution for the eq24 expansion: a_{p,l} needs
    # (-1)^r; the unsigned variant fails already at (v,s,j,k) = (3,0,1,1).
    def unsigned_a(p, l, s, j, k, v):
        return sum(binomial(r, l) * binomial(v - s - r, v - j)
                   * binomial(v - s - k, r - p) for r in range(j - s + 1))
    assert a_pl(0, 0, 0, 1, 1, 3) == 1
    assert unsigned_a(0, 0, 0, 1, 1, 3) == 5
    lhs = build(W(0, 1, 3)) @ build(F(None, 1, 1, 3))
    assert lhs.data[0][0] == Poly((3, 1))       # z + 3: matches the signed a
    _report(9, "Y numerator (k-t) validated, (k-l) refuted; eigenvalue-sum "
               "lower-bound terms vanish; the a_{p,l} sign is fixed and "
               "witnessed")
