"""Property tests: ExactMatrix against an entrywise oracle, and the
combinatorial properties of the built matrices over random small parameters.

The oracle works on ``.data`` with Python int / Fraction / Poly arithmetic,
one entry at a time, and never touches the coefficient stack.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imtk.build import F, Utl, build, row_support_formula
from imtk.combinat import SubsetFamily
from imtk.exactalg import ExactMatrix, Poly
from imtk.verify import run_identity
from oracles import unrank

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# the entrywise oracle

def canon(x):
    """Constant Poly -> scalar, integral Fraction -> int."""
    if isinstance(x, Poly):
        x = x if x.degree > 0 else x.constant_value()
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def typed(rows):
    """Entries with their types, so an int never equals an integral Fraction."""
    return [[(type(x).__name__, x) for x in row] for row in rows]


def same(m: ExactMatrix, rows) -> bool:
    return m.shape == (len(rows), len(rows[0]) if rows else m.ncols) and \
        typed(m.data) == typed([[canon(x) for x in row] for row in rows])


def o_mul(a, b, ncols):
    bt = [[row[j] for row in b] for j in range(ncols)]
    return [[sum((x * y for x, y in zip(row, col)), 0) for col in bt] for row in a]


def o_eval(x, point):
    return x.eval(point) if isinstance(x, Poly) else x


def o_coeff(x, i):
    if isinstance(x, Poly):
        return x.coeff(i)
    return x if i == 0 else 0


# ---------------------------------------------------------------------------
# strategies

small_int = st.integers(-6, 6)
fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
poly = st.builds(Poly, st.lists(st.one_of(small_int, fraction), max_size=4))
ENTRIES = {"int": small_int, "rational": st.one_of(small_int, fraction),
           "poly": st.one_of(small_int, fraction, poly)}
dims = st.integers(0, 4)
# integer stacks stored narrow, as build stores them, with entries up to the
# width's symmetric extremes
NARROW = (np.int8, np.int16, np.int32)


@st.composite
def matrices(draw, rows, cols):
    kind = draw(st.sampled_from(sorted(ENTRIES) + ["narrow"]))
    # nested rows cannot say how many columns a 0-row matrix has; and a zero
    # operand now and then
    if rows == 0 or draw(st.integers(0, 5)) == 0:
        return ExactMatrix.zeros(rows, cols)
    if kind == "narrow":
        width = draw(st.sampled_from(NARROW))
        top = int(np.iinfo(width).max)
        entry = st.one_of(small_int, st.sampled_from((top, -top)), st.integers(-top, top))
        rows = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
        return ExactMatrix(np.array(rows, dtype=width))
    return ExactMatrix([[draw(ENTRIES[kind]) for _ in range(cols)] for _ in range(rows)])


@st.composite
def pairs(draw):
    r, c = draw(dims), draw(dims)
    return draw(matrices(r, c)), draw(matrices(r, c))


@st.composite
def products(draw):
    r, n, c = draw(dims), draw(dims), draw(dims)
    return draw(matrices(r, n)), draw(matrices(n, c))


scalars = st.one_of(small_int, fraction, poly, st.integers(-2 ** 40, 2 ** 40))


# ---------------------------------------------------------------------------
# ExactMatrix against the oracle

@SETTINGS
@given(products())
def test_matmul_matches_oracle(ab):
    a, b = ab
    assert same(a @ b, o_mul(a.data, b.data, b.ncols))


@SETTINGS
@given(pairs())
def test_add_sub_eq_match_oracle(ab):
    a, b = ab
    ad, bd = a.data, b.data
    assert same(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ad, bd)])
    assert same(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ad, bd)])
    assert same(-a, [[-x for x in r] for r in ad])
    assert (a == b) == all(x == y for r, s in zip(ad, bd) for x, y in zip(r, s))
    assert not a.nrows or a == ExactMatrix(ad)


@SETTINGS
@given(dims.flatmap(lambda r: dims.flatmap(lambda c: matrices(r, c))), scalars)
def test_scale_matches_oracle(a, c):
    want = [[(c * x if isinstance(c, Poly) else x * c) for x in row] for row in a.data]
    assert same(a.scale(c), want)


@st.composite
def combinations(draw):
    """Up to four (c, M) terms of one shape; M of mixed denominators and
    degrees, c an int, Fraction or Poly and now and then zero."""
    r, c = draw(dims), draw(dims)
    coefficient = st.one_of(st.just(0), st.just(Poly()), scalars)
    return draw(st.lists(st.tuples(coefficient, matrices(r, c)), max_size=4)), r, c


@SETTINGS
@given(combinations())
def test_lincomb_matches_the_fold_of_scale_and_add(case):
    pairs, r, c = case
    got = ExactMatrix.lincomb(pairs, r, c)
    want = [[0] * c for _ in range(r)]
    for coef, m in pairs:
        want = [[w + (coef * x if isinstance(coef, Poly) else x * coef)
                 for w, x in zip(wrow, mrow)] for wrow, mrow in zip(want, m.data)]
    assert same(got, want)
    fold = ExactMatrix.zeros(r, c)
    for coef, m in pairs:
        fold = fold + m.scale(coef)
    assert got == fold


@SETTINGS
@given(dims.flatmap(lambda r: dims.flatmap(lambda c: matrices(r, c))),
       st.one_of(small_int, fraction), st.integers(-1, 5))
def test_eval_coeff_transpose_match_oracle(a, point, i):
    d = a.data
    assert same(a.eval_at(point), [[o_eval(x, point) for x in row] for row in d])
    assert same(a.coeff_matrix(i), [[o_coeff(x, i) for x in row] for row in d])
    t = a.transpose()
    assert t.shape == (a.ncols, a.nrows)
    assert same(t, [[row[j] for row in d] for j in range(a.ncols)])


@SETTINGS
@given(dims.flatmap(lambda n: matrices(n, n)))
def test_trace_matches_oracle(a):
    want = canon(sum((a.data[i][i] for i in range(a.nrows)), 0))
    got = a.trace()
    assert (type(got), got) == (type(want), want)


# ---------------------------------------------------------------------------
# combinatorial properties over random small parameters

@SETTINGS
@given(st.integers(0, 10).flatmap(lambda v: st.tuples(
    st.just(v), st.integers(0, v))), st.data())
def test_rank_unrank_bijection(vs, data):
    v, s = vs
    fam = SubsetFamily(v, s)
    r = data.draw(st.integers(0, len(fam) - 1))
    assert fam.rank(unrank(fam, r)) == r
    subset = tuple(sorted(data.draw(st.permutations(range(1, v + 1)))[:s]))
    assert unrank(fam, fam.rank(subset)) == subset


@st.composite
def tsk(draw, v_max=7):
    v = draw(st.integers(1, v_max))
    s, k = draw(st.integers(0, v)), draw(st.integers(0, v))
    t = draw(st.integers(0, min(s, k)))
    return t, s, k, v


@SETTINGS
@given(tsk())
def test_f_transpose_swaps_s_and_k(params):
    t, s, k, v = params
    assert build(F(t, s, k, v)).transpose() == build(F(t, k, s, v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 9).flatmap(lambda v: st.tuples(
    st.integers(0, v), st.integers(0, v), st.just(v))))
def test_eq17_complement_symmetry(abv):
    a, b, v = abv
    assert run_identity("eq17", a=a, b=b, v=v).ok


@SETTINGS
@given(tsk(v_max=9), st.data())
def test_row_support_matches_built_utl(params, data):
    t, s, k, v = params
    l = data.draw(st.integers(0, t))
    want = row_support_formula(t, l, s, k, v)
    m = build(Utl(t, l, s, k, v))
    assume(m.nrows)
    assert all(sum(1 for x in row if x) == want for row in m.data)
