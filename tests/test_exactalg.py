import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imtk.build import A, F, N, U, Utl, W, Wbar, Y, build
from imtk.cli import main
from imtk.combinat import SubsetFamily, binomial, psi
from imtk.exactalg import (_INT64_SAFE, DEFAULT_PRIME_BITS, ExactMatrix, ModMatrix, Poly,
                           equiv_check, is_prime, mat_mul, random_prime, rank_modp)

from oracles import mat_inverse, rank_exact, rank_mod


# ---------------------------------------------------------------------------
# Poly

def test_poly_canonical_form():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(()).degree == -1
    assert Poly((Fraction(4, 2),)).coeffs == (2,)


def test_poly_arith():
    z = Poly((0, 1))
    assert (z + 1) * (z - 1) == z ** 2 - 1
    assert 2 * z == z + z
    assert (z + 1) ** 0 == Poly((1,))


def test_poly_derive():
    assert Poly((1, 3, 0, 1)).derive() == Poly((3, 0, 3))


def test_poly_eval():
    p = Poly((1, 0, 2))
    assert p.eval(3) == 19
    assert p.eval(Fraction(1, 2)) == Fraction(3, 2)


def _taylor(p: Poly, c) -> list:
    """Coefficients a_l with p(z) = sum a_l (z - c)^l, through a 1 x 1 ExactMatrix."""
    m = ExactMatrix([[p]]).shift_basis(c)
    return [m.coeff_matrix(l).entry(0, 0) for l in range(m.max_degree() + 1)]


def test_shift_basis_simple():
    assert _taylor(Poly((1, 1)) ** 2, -1) == [0, 0, 1]
    p = Poly((5, -2, 7))
    coeffs = _taylor(p, 3)
    rebuilt = Poly((0,))
    for l, a in enumerate(coeffs):
        rebuilt = rebuilt + a * (Poly((-3, 1)) ** l)
    assert rebuilt == p


def test_shift_basis_of_psi_closed_form():
    # Taylor coefficients of psi at -1
    for theta in range(9):
        for t in range(9):
            coeffs = _taylor(psi(theta, t), -1)
            for l, a in enumerate(coeffs):
                want = ((-1) ** (t - l) * binomial(theta, l)
                        * binomial(theta - l - 1, t - l))
                assert a == want


def test_divexact_linear():
    p = (Poly((1, 1)) ** 3) * Poly((2, 5))
    assert ExactMatrix([[p]]).divexact_linear(-1, 3) == ExactMatrix([[Poly((2, 5))]])
    with pytest.raises(ValueError):
        ExactMatrix([[Poly((1, 1))]]).divexact_linear(-1, 2)


# ---------------------------------------------------------------------------
# ExactMatrix arithmetic

def _random_matrix(rng, rows, cols, rational=False):
    def entry():
        if rational:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        return rng.randint(-9, 9)
    return ExactMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


def test_nested_rows_need_at_least_one_row():
    # with no rows the column count is unknown; 0 x n matrices come from zeros
    with pytest.raises(ValueError, match=r"zeros\(0, n\)"):
        ExactMatrix([])
    assert ExactMatrix.zeros(0, 3).shape == (0, 3)
    assert ExactMatrix([[]]).shape == (1, 0)


def test_identity_is_neutral():
    rng = random.Random(5)
    a = _random_matrix(rng, 4, 4)
    assert mat_mul(ExactMatrix.identity(4), a) == a
    assert mat_mul(a, ExactMatrix.identity(4)) == a


def test_matmul_associative_and_distributive():
    rng = random.Random(17)
    for rational in (False, True):
        a = _random_matrix(rng, 3, 4, rational)
        b = _random_matrix(rng, 4, 2, rational)
        c = _random_matrix(rng, 2, 5, rational)
        d = _random_matrix(rng, 4, 2, rational)
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + d) == a @ b + a @ d


def test_polynomial_matmul_matches_pointwise_evaluation():
    rng = random.Random(23)
    z = Poly((0, 1))
    a = ExactMatrix([[z + rng.randint(-3, 3), rng.randint(-3, 3) * z ** 2]
                     for _ in range(2)])
    b = ExactMatrix([[z ** 2 - 1, Fraction(1, 2) * z],
                     [3, z + 4]])
    prod = a @ b
    for point in (0, 1, -2, Fraction(1, 3)):
        assert prod.eval_at(point) == a.eval_at(point) @ b.eval_at(point)


def test_w_chain_product_row_of_twos():
    lhs = build(W(0, 1, 3)) @ build(W(1, 2, 3))
    assert lhs == build(W(0, 2, 3)).scale(2)


def test_family_tag_mismatch_rejected():
    a = build(W(1, 2, 4))   # 4x6, column family (v=4, 2-subsets)
    b = build(W(1, 2, 6))   # 6x15, row family (v=6, 1-subsets)
    with pytest.raises(ValueError):
        mat_mul(a, b)


def test_mat_coeff_extracts_a_matrices():
    for v in range(1, 7):
        for s in range(min(v, 3) + 1):
            for k in range(min(v, 3) + 1):
                t = min(s, k)
                f = build(F(t, s, k, v))
                for i in range(t + 1):
                    assert f.coeff_matrix(i) == build(A(i, s, k, v))


def test_transpose_of_f():
    for v in range(1, 6):
        for s in range(v + 1):
            for k in range(v + 1):
                t = min(s, k)
                assert build(F(t, s, k, v)).transpose() == build(F(t, k, s, v))


# ---------------------------------------------------------------------------
# permutation equivalence

def test_equiv_check_identity():
    a = build(U(1, 2, 2, 5))
    n = a.nrows
    assert equiv_check(a, a, list(range(n)), list(range(n)))


def test_equiv_check_rejects_non_bijection():
    a = ExactMatrix.identity(3)
    with pytest.raises(ValueError):
        equiv_check(a, a, [0, 0, 1], [0, 1, 2])


def test_exclusion_is_permuted_inclusion():
    for v in range(1, 7):
        for s in range(min(v, 3) + 1):
            for k in range(min(v, 3) + 1):
                wbar = build(Wbar(s, k, v))
                wco = build(W(s, v - k, v))
                rperm = list(range(binomial(v, s)))
                cperm = SubsetFamily(v, k).complement_permutation()
                assert equiv_check(wbar, wco, rperm, cperm)


def test_u_complement_equivalences():
    for v in range(1, 7):
        for s in range(min(v, 3) + 1):
            for k in range(min(v, 3) + 1):
                for l in range(min(s, k) + 1):
                    u = build(U(l, s, k, v))
                    ident = list(range(binomial(v, s)))
                    cperm = SubsetFamily(v, k).complement_permutation()
                    assert equiv_check(u, build(U(s - l, s, v - k, v)), ident, cperm)
                    rperm = SubsetFamily(v, s).complement_permutation()
                    ident_c = list(range(binomial(v, k)))
                    assert equiv_check(u, build(U(k - l, v - s, k, v)), rperm, ident_c)


# ---------------------------------------------------------------------------
# ranks

def test_rank_identity():
    for n in (1, 4, 9):
        assert rank_mod(ExactMatrix.identity(n), 1000003) == n
        assert rank_exact(ExactMatrix.identity(n)) == n


def test_rank_w23_is_15():
    w = build(W(2, 3, 6))
    assert rank_exact(w) == 15 == binomial(6, 2)
    assert rank_mod(w, 1000003) == 15


def test_rank_n_small():
    m = build(N(1, 2, 2, 4))
    assert rank_mod(m, 999983) == 3
    assert binomial(4, 2) // 2 == 3


LARGEST_PRIME = 2097143  # the largest prime of DEFAULT_PRIME_BITS bits


def test_rank_modp_matches_exact_oracle():
    rng = random.Random(99)
    for trial in range(12):
        rows, cols = rng.randint(1, 14), rng.randint(1, 14)
        rk = rng.randint(0, min(rows, cols))
        # random matrix of rank <= rk: product of (rows x rk) and (rk x cols)
        a = _random_matrix(rng, rows, rk) if rk else ExactMatrix.zeros(rows, rk)
        b = _random_matrix(rng, rk, cols) if rk else ExactMatrix.zeros(rk, cols)
        m = ExactMatrix([[sum(a.data[i][h] * b.data[h][j] for h in range(rk))
                          for j in range(cols)] for i in range(rows)])
        exact = rank_exact(m)
        assert exact <= rk
        assert rank_mod(m, random_prime(rng)) <= exact
        # the largest prime rank_modp takes; entries here are far too small
        # for it to be unlucky
        assert rank_mod(m, LARGEST_PRIME) == exact


def test_rank_modp_rational_entries_and_denominator_rejection(capsys):
    # only an integer matrix is reduced mod p: `imtk rank` refuses a
    # rational kind (Y^(2,0)[1,1](2), denominator 2) and a polynomial one
    assert build(Y(1, 1, 2, 0, 2)).den == 2 and build(F(None, 2, 2, 4)).max_degree()
    for args in ("--kind Y --s 1 --t 1 --k 2 --l 0 --v 2", "--kind F --k 2 --v 4"):
        assert main(["--seed", "1", "rank", *args.split(), "--method", "modp"]) == 2
        assert capsys.readouterr().err == "error: mod-p rank needs an integer matrix kind\n"


def test_rank_modp_rejects_nonprime():
    with pytest.raises(ValueError):
        rank_mod(ExactMatrix.identity(2), 1000000)


def test_random_prime_properties():
    rng = random.Random(0)
    for _ in range(10):
        p = random_prime(rng)
        assert is_prime(p)
        assert p.bit_length() == DEFAULT_PRIME_BITS == 21


def test_mat_inverse():
    m = ExactMatrix([[2, 1], [1, 1]])
    inv = mat_inverse(m)
    assert m @ inv == ExactMatrix.identity(2)
    with pytest.raises(ValueError):
        mat_inverse(ExactMatrix([[1, 1], [1, 1]]))


def test_bareiss_vs_modp_grid_of_built_matrices():
    # cross-check the two rank routes on real intersection matrices
    rng = random.Random(4)
    for v in range(1, 7):
        for s in range(v + 1):
            for k in range(v + 1):
                for l in range(min(s, k) + 1):
                    m = build(Utl(min(s, k), l, s, k, v))
                    if m.nrows * m.ncols == 0:
                        continue
                    p = random_prime(rng)
                    assert rank_mod(m, p) == rank_exact(m)


# ---------------------------------------------------------------------------
# rank_modp against an int64 column-by-column oracle

def _oracle_rank(a, p: int) -> int:
    """Row reduction over GF(p) with delayed reduction (entries stay int64-safe)."""
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    slack = max(1, _INT64_SAFE // (p * p))
    since = 0
    r = 0
    for c in range(n):
        if r >= m:
            break
        if since >= slack:
            a[r:] %= p
            since = 0
        col = a[r:, c] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        piv = int(nz[0]) + r
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c:] %= p
        inv = pow(int(a[r, c]), -1, p)
        row = (a[r, c:] * inv) % p
        a[r, c:] = row
        if r + 1 < m:
            factors = a[r + 1:, c] % p
            idx = np.flatnonzero(factors)
            if idx.size:
                sub = a[r + 1:, c:]
                if idx.size * 2 < sub.shape[0]:
                    sub[idx] -= factors[idx, None] * row[None, :]
                else:
                    sub -= factors[:, None] * row[None, :]
                since += 1
        r += 1
    return r


# 8 and 21 bits: 1048583 and 2097143 are the smallest and the largest prime
# of DEFAULT_PRIME_BITS = 21 bits, the widest rank_modp takes.
ORACLE_PRIMES = (131, 251, 1048583, LARGEST_PRIME)


@st.composite
def _low_rank_mod_p(draw):
    p = draw(st.sampled_from(ORACLE_PRIMES))
    dim = st.one_of(st.integers(0, 70), st.sampled_from((63, 64, 65)), st.integers(192, 204))
    m, n = draw(dim), draw(dim)
    rk = draw(st.one_of(st.integers(0, min(m, n)), st.integers(0, min(m, n, 6))))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # (m x rk) full-range residues times (rk x n) small entries: rank <= rk,
    # and the int64 product cannot overflow
    a = gen.integers(0, p, size=(m, rk)) @ gen.integers(-9, 10, size=(rk, n)) % p
    a = a.reshape(m, n)
    if m and draw(st.booleans()):
        a[gen.integers(0, m, size=3)] = 0
    if n and draw(st.booleans()):
        a[:, gen.integers(0, n, size=3)] = 0
    if n and draw(st.booleans()):
        a[:, gen.integers(0, n)] = p - 1
    if n > 1 and draw(st.booleans()):
        # a run of columns that are multiples of an earlier one
        j = int(gen.integers(1, n))
        run = slice(j, min(n, j + int(gen.integers(1, 128))))
        a[:, run] = a[:, [int(gen.integers(0, j))]] * gen.integers(0, p, size=a[:, run].shape[1]) % p
    if m and n and draw(st.booleans()):
        a[int(gen.integers(0, m)):, int(gen.integers(0, n)):] = 0  # an all-zero trailing block
    if draw(st.booleans()):
        a *= gen.random(a.shape) < 0.02  # a few scattered entries
    return a, p


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_low_rank_mod_p())
def test_rank_modp_matches_int64_oracle(case):
    a, p = case
    assert rank_modp(ModMatrix(a, p), p) == _oracle_rank(a, p)


def test_rank_modp_worst_magnitudes_at_the_largest_prime():
    p = LARGEST_PRIME
    for shape in ((70, 70), (33, 65), (65, 33), (1, 40)):
        a = np.full(shape, p - 1, dtype=np.int64)
        assert rank_modp(ModMatrix(a, p), p) == 1 == _oracle_rank(a, p)
    # entries at the edges of the centred range, +-(p-1)/2 and (p+1)/2
    gen = np.random.default_rng(31)
    a = gen.choice(np.array([p // 2, p // 2 + 1, p - 1, 1]), size=(70, 70))
    assert rank_modp(ModMatrix(a, p), p) == _oracle_rank(a, p)


@pytest.mark.parametrize("p", [131, 1048583, LARGEST_PRIME])
def test_shifted_matrix_rank_matches_the_reduced_matrix(p):
    gen = np.random.default_rng(5)
    a = gen.integers(-3, 4, size=(90, 6)) @ gen.integers(-3, 4, size=(6, 90))
    for shift in (0, 5, -(p // 2), 3 * p + 1):
        shifted = a - shift * np.eye(90, dtype=np.int64)
        assert rank_modp(ModMatrix(shifted, p), p) == _oracle_rank(shifted, p)
    # entries beyond p are reduced before elimination
    big = a * (2 ** 40)
    assert rank_modp(ModMatrix(big, p), p) == _oracle_rank(big % p, p)
    with pytest.raises(ValueError, match="not prime"):
        ModMatrix(np.eye(2, dtype=np.int64), 2 ** 21)


@pytest.mark.parametrize("p", [131, LARGEST_PRIME])
@pytest.mark.parametrize("sign", [1, -1])
def test_modmatrix_is_copied_and_reduced_only_from_2_53(p, sign):
    # max|array| = 2^53 - 1 and 2^53, on both sides of the last integer that
    # float64 holds exactly: both rank as the int64 oracle ranks them
    gen = np.random.default_rng(53)
    a = gen.integers(-3, 4, size=(70, 5)) @ gen.integers(-3, 4, size=(5, 70))
    for mag in (2 ** 53 - 1, 2 ** 53):
        a[0, 0] = sign * mag
        assert rank_modp(ModMatrix(a, p), p) == _oracle_rank(a, p)


def test_modmatrix_ranks_int64_extremes_and_a_bigint_shift():
    p = LARGEST_PRIME
    top = 2 ** 63 - 1
    a = np.array([[top, -top, 1], [-top, top, -1], [5, 7, top]], dtype=np.int64)
    assert rank_modp(ModMatrix(a, p), p) == 2 == rank_mod(ExactMatrix(a), p)
    for shift in (2 ** 64 + 3, -(2 ** 70), top):  # Python ints past int64
        shifted = [[x - (shift if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(a.tolist())]
        want = _oracle_rank([[x % p for x in row] for row in shifted], p)
        assert rank_modp(ModMatrix(np.array(shifted, dtype=object), p), p) == want


def _wilson_p_rank(v: int, t: int, k: int, p: int) -> int:
    """rank of W_tk(v) mod p from Wilson's diagonal form, t <= min(k, v - k).

    R. M. Wilson, "A diagonal form for the incidence matrices of t-subsets
    vs. k-subsets", European J. Combin. 11 (1990).
    """
    return sum(binomial(v, i) - binomial(v, i - 1) for i in range(t + 1)
               if binomial(k - i, t - i) % p)


def test_rank_modp_matches_wilson_p_ranks():
    cases = 0
    for v in range(2, 11):
        for k in range(v + 1):
            for t in range(min(k, v - k) + 1):
                m = build(W(t, k, v))
                for p in (2, 3, 5, 7):
                    assert rank_mod(m, p) == _wilson_p_rank(v, t, k, p), (v, t, k, p)
                    cases += 1
    assert cases == 632


def test_rank_modp_matches_wilson_below_the_rational_rank_at_golden_scale():
    # W_{6,7}(14) is 3003 x 3432 of rational rank 3003; its rank drops mod 7
    # and mod 2, so these are true ranks that an unlucky prime would give
    m = build(W(6, 7, 14))
    assert rank_mod(m, 7) == 3002 == _wilson_p_rank(14, 6, 7, 7)
    assert rank_mod(m, 2) == 1716 == _wilson_p_rank(14, 6, 7, 2)


# ---------------------------------------------------------------------------
# int64 guards at their exact edges: an operation runs in int64 only while a
# bound on its result is below 2^62, and is exact on both sides of the edge

EDGE = 2 ** 62


def _python_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("a_entry,b_entry,inner,want_dtype", [
    (2 ** 31 - 1, 715827883, 3, np.int64),   # bound 3 (2^31 - 1) 715827883 = 2^62 - 1
    (2 ** 30, 2 ** 30, 4, object),           # bound 2^62
    (-(2 ** 31), 2 ** 31, 4, object),        # bound 2^64: int64 would wrap
    (2 ** 31 - 1, 2 ** 31 - 1, 4, object),   # each term < 2^62, the sum is not
    # three degree pairs meet at z^2: m^2 < 2^62 <= 3 m^2
    (Poly((1925000000,) * 3), Poly((1925000000,) * 3), 1, object),
])
def test_matmul_at_the_int64_edge(a_entry, b_entry, inner, want_dtype):
    a = ExactMatrix([[a_entry] * inner, [1] * inner])
    b = ExactMatrix([[b_entry] for _ in range(inner)])
    prod = a @ b
    assert prod.data == _python_product(a.data, b.data)
    assert prod.stack.dtype == want_dtype


@pytest.mark.parametrize("x,y,want_dtype", [
    (2 ** 61, 2 ** 61 - 1, np.int64),        # bound 2^62 - 1
    (2 ** 61, 2 ** 61, object),              # bound 2^62
    (Fraction(2 ** 61, 3), Fraction(2 ** 61 - 1, 3), np.int64),
])
def test_linear_combination_at_the_int64_edge(x, y, want_dtype):
    a, b = ExactMatrix([[x, -x]]), ExactMatrix([[y, -y]])
    total = a + b
    assert total.data == [[x + y, -x - y]]
    assert total.stack.dtype == want_dtype
    assert (a - b.scale(-1)).data == [[x + y, -x - y]]
    # common denominator 15: bound 5 * 2^60 + 3 * 2^60 = 2^63
    mixed = ExactMatrix([[Fraction(2 ** 60, 3)]]) + ExactMatrix([[Fraction(2 ** 60, 5)]])
    assert mixed.data == [[Fraction(2 ** 60, 3) + Fraction(2 ** 60, 5)]]


@pytest.mark.parametrize("pairs,want_dtype", [
    # bound 3 * 2^60 + (2^60 - 1) = 2^62 - 1, reached at entry 0
    ([(3, [[2 ** 60, -(2 ** 60)]]), (1, [[2 ** 60 - 1, 5]])], np.int64),
    # bound 2^62, reached: the sum is computed in Python ints
    ([(3, [[2 ** 60, -(2 ** 60)]]), (1, [[2 ** 60, 5]])], object),
    # per output degree: z^0 gets 2^61, z^1 gets 2^61 + 2^61 - 1 = 2^62 - 1
    ([(Poly((1, 1)), [[2 ** 61, 0]]), (Poly((0, 1)), [[2 ** 61 - 1, 1]])], np.int64),
    ([(Poly((1, 1)), [[2 ** 61, 0]]), (Poly((0, 1)), [[2 ** 61, 1]])], object),
    # over the common denominator 3: bounds 2^62 - 1 and 2^62
    ([(Fraction(1, 3), [[2 ** 61 + 1, 0]]), (Fraction(2, 3), [[2 ** 60 - 1, 1]])], np.int64),
    ([(Fraction(1, 3), [[2 ** 61 + 2, 0]]), (Fraction(2, 3), [[2 ** 60 - 1, 1]])], object),
])
def test_lincomb_at_the_int64_edge(pairs, want_dtype):
    terms = [(c, ExactMatrix(rows)) for c, rows in pairs]
    got = ExactMatrix.lincomb(terms, 1, 2)
    want = [sum((c * m.data[0][j] for c, m in terms), Poly()) for j in range(2)]
    assert [Poly._lift(x) for x in got.data[0]] == want
    assert got.stack.dtype == want_dtype


def test_huge_coefficients_of_zero_matrices_stay_exact():
    zero = ExactMatrix.zeros(2, 2)
    assert zero.scale(2 ** 70) == zero
    assert ExactMatrix.lincomb([(2 ** 70, zero), (Poly((0, 2 ** 80)), zero)], 2, 2) == zero
    one = ExactMatrix.identity(2)
    total = ExactMatrix.lincomb([(2 ** 70, zero), (3, one)], 2, 2)
    assert total.data == [[3, 0], [0, 3]] and total.stack.dtype == np.int64


@pytest.mark.parametrize("entry,c,want_dtype", [
    (2 ** 31 - 1, 2 ** 31 + 1, np.int64),    # bound 2^62 - 1
    (2 ** 31, 2 ** 31, object),              # bound 2^62
    (2 ** 31 - 1, Poly((2 ** 31 + 1, 1)), np.int64),
    (2 ** 31, Poly((1, -(2 ** 31))), object),
    (2 ** 31 - 1, Fraction(2 ** 31 + 1, 7), np.int64),
])
def test_scale_at_the_int64_edge(entry, c, want_dtype):
    m = ExactMatrix([[entry, -entry, 0]])
    got = m.scale(c)
    assert got.data == [[(c * x if isinstance(c, Poly) else x * c) for x in row]
                        for row in m.data]
    assert got.stack.dtype == want_dtype


@pytest.mark.parametrize("coeff,point,want_dtype", [
    (2 ** 31 - 1, 2 ** 31, np.int64),        # bound (2^31 - 1)(1 + 2^31) = 2^62 - 1
    (2 ** 31, 2 ** 31 - 1, object),          # bound 2^62
    (2 ** 31, -(2 ** 31 - 1), object),
    (2 ** 31 - 1, Fraction(2 ** 31 - 1, 2), np.int64),
])
def test_eval_at_the_int64_edge(coeff, point, want_dtype):
    m = ExactMatrix([[Poly((coeff, coeff)), Poly((-coeff, coeff))]])
    got = m.eval_at(point)
    assert got.data == [[x.eval(point) for x in row] for row in m.data]
    assert got.stack.dtype == want_dtype


def test_as_int_array_raises_at_2_62_and_not_below():
    ok = ExactMatrix([[EDGE - 1, -(EDGE - 1)]])
    arr = ok.as_int_array()
    assert arr.dtype == np.int64 and arr.tolist() == [[EDGE - 1, -(EDGE - 1)]]
    assert np.shares_memory(arr, ok.stack)  # the stored array, not a copy
    for bad in ([[EDGE]], [[-EDGE]], [[1, EDGE + 5]]):
        with pytest.raises(OverflowError):
            ExactMatrix(bad).as_int_array()
    # int64 storage may hold entries in [2^62, 2^63); the guard still applies
    with pytest.raises(OverflowError):
        ExactMatrix(np.array([[EDGE]], dtype=np.int64)).as_int_array()
    with pytest.raises(TypeError):
        ExactMatrix([[Fraction(1, 2)]]).as_int_array()


def test_modmatrix_prime_width_edge():
    p = LARGEST_PRIME  # the largest prime of DEFAULT_PRIME_BITS bits
    assert is_prime(p) and not any(is_prime(n) for n in range(p + 1, 2 ** DEFAULT_PRIME_BITS))
    assert rank_modp(ModMatrix(np.array([[p + 3]]), p), p) == 1
    assert rank_modp(ModMatrix(np.array([[p, 2 * p], [-p, 3]]), p), p) == 1
    assert rank_mod(ExactMatrix.identity(2), p) == 2
    above = next(n for n in range(2 ** DEFAULT_PRIME_BITS, 2 ** DEFAULT_PRIME_BITS + 100)
                 if is_prime(n))
    assert above == 2097169
    with pytest.raises(ValueError, match="too large"):
        ModMatrix(np.array([[1]]), above)
    with pytest.raises(ValueError, match="too large"):
        rank_mod(ExactMatrix.identity(2), above)


# ---------------------------------------------------------------------------
# narrow stacks: a stack of int8, int16 or int32 is kept at its width, and
# every operation widens it first, so it gives what the int64 copy gives

NARROW = [(np.int8, 127), (np.int16, 2 ** 15 - 1), (np.int32, 2 ** 31 - 1)]


def _narrow_and_wide(rows, dtype, den=1):
    return (ExactMatrix(np.array(rows, dtype=dtype), den=den),
            ExactMatrix(np.array(rows, dtype=np.int64), den=den))


@pytest.mark.parametrize("dtype,top", NARROW, ids=["int8", "int16", "int32"])
def test_narrow_stacks_compute_as_their_int64_copies(dtype, top):
    m, wide = _narrow_and_wide([[top, -top, 0], [-top, 1, top], [top, top, -1]], dtype)
    o, owide = _narrow_and_wide([[top] * 3, [-top, top, -top], [1, -top, 0]], dtype)
    # (z - 1) C: degree slices -C and C, each at the width's extremes
    c1 = np.array(m.stack[0])
    lin, lin_wide = _narrow_and_wide([-c1, c1], dtype)
    assert m.stack.dtype == o.stack.dtype == lin.stack.dtype == dtype  # kept as given
    assert np.shares_memory(m.as_int_array(), m.stack) and m.mag == top
    pairs = [
        (m + o, wide + owide), (m - o, wide - owide), (-m, -wide), (-o, -owide),
        (m.scale(top), wide.scale(top)),
        (m.scale(Fraction(-1, top)), wide.scale(Fraction(-1, top))),
        (m.scale(Poly((top, -top))), wide.scale(Poly((top, -top)))),
        (ExactMatrix.lincomb([(top, m), (Poly((0, -1)), o)], 3, 3),
         ExactMatrix.lincomb([(top, wide), (Poly((0, -1)), owide)], 3, 3)),
        (m @ o, wide @ owide), (m @ m, wide @ wide), (lin @ lin, lin_wide @ lin_wide),
        (lin.divexact_linear(1), lin_wide.divexact_linear(1)),
    ]
    for got, want in pairs:
        assert got == want and got.den == want.den and got.data == want.data
    assert lin.divexact_linear(1) == wide
    assert m == wide and wide == m and lin == lin_wide and m != o and m != lin
    assert m.trace() == wide.trace() == top and lin.trace() == lin_wide.trace()
    p = LARGEST_PRIME
    for shift in (0, top, -top, 2 ** 53):
        eye = shift * np.eye(3, dtype=np.int64)
        mm = ModMatrix(m.as_int_array() - eye, p)
        assert rank_modp(mm, p) == rank_modp(ModMatrix(wide.as_int_array() - eye, p), p)
    assert rank_mod(m, p) == rank_mod(wide, p) == 3
    assert rank_mod(lin.divexact_linear(1), p) == 3


def test_narrow_minimum_is_widened_before_negation_and_division():
    # build never stores -128 in int8, but a caller's array may hold it
    m = ExactMatrix(np.array([[-128, 0], [0, 127]], dtype=np.int8))
    assert m.stack.dtype == np.int8 and m.mag == 128
    assert (-m).data == [[128, 0], [0, -127]]
    assert (m - m.scale(2)).data == [[128, 0], [0, -127]]
    # den 256 and gcd 128 = -(-128): 128 does not fit int8
    half = ExactMatrix(np.array([[-128, 0]], dtype=np.int8), den=256)
    assert half.den == 2 and half.data == [[Fraction(-1, 2), 0]]


def test_a_given_array_is_kept_read_only_and_the_caller_s_flag_is_left_alone():
    writable = np.arange(6, dtype=np.int8).reshape(1, 2, 3)
    m = ExactMatrix(writable)
    assert np.shares_memory(m.stack, writable) and not m.stack.flags.writeable
    assert writable.flags.writeable  # made read-only through a view
    frozen = np.arange(6, dtype=np.int16).reshape(1, 2, 3)
    frozen.setflags(write=False)
    assert ExactMatrix(frozen).stack is frozen  # already read-only: kept itself
    assert build(N(1, 2, 2, 5)).stack.base is None  # build's own array, no view


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_a_zero_narrow_stack_over_a_large_denominator_is_canonical(dtype):
    # gcd(1000, 0) = 1000, which an int8 stack cannot hold
    zero = ExactMatrix(np.zeros((2, 3), dtype=dtype), den=1000)
    assert zero.den == 1 and zero == ExactMatrix.zeros(2, 3)
    big = ExactMatrix(np.zeros((1, 1), dtype=dtype), den=2 ** 70)  # beyond int64 too
    assert big.den == 1 and big.data == [[0]]
    third = ExactMatrix(np.array([[3, -6]], dtype=dtype), den=1000)
    assert third.den == 1000 and third.data == [[Fraction(3, 1000), Fraction(-6, 1000)]]
