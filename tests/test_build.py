import functools
import importlib
import json
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from imtk.build import (A, F, MatrixKind, N, U, Uge, Utl, W, Wbar, X, Y, _entries,
                        block_decompose, build, membership_matrix,
                        row_support_formula, theta_matrix)
from imtk.combinat import SubsetFamily, binomial
from imtk.exactalg import ExactMatrix, Poly

import kind_grid
import oracles

# the package binds the name imtk.build to the function, so fetch the module
build_module = importlib.import_module("imtk.build")


def test_w_example():
    assert build(W(1, 2, 3)).data == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]


def test_theta_matrix_diagonal():
    th = theta_matrix(5, 2, 2)
    assert th.shape == (10, 10)
    assert all(th[i, i] == 2 for i in range(10))
    assert membership_matrix(5, 2).sum() == 20


def test_membership_matrix_rows_are_the_subsets_in_lex_order():
    # over v / 2 the rows are made from the complements, in reverse order
    for v in range(10):
        for s in range(v + 1):
            want = np.zeros((binomial(v, s), v), dtype=np.float32)
            for r, sub in enumerate(SubsetFamily(v, s).subsets()):
                want[r, [x - 1 for x in sub]] = 1
            got = membership_matrix(v, s)
            assert got.dtype == np.float32 and np.array_equal(got, want), (v, s)


def test_theta_matrix_equals_the_int64_membership_product():
    for v in range(9):
        for a in range(v + 1):
            for b in range(v + 1):
                th = theta_matrix(v, a, b)
                assert th.dtype == np.int8 and not th.flags.writeable
                assert np.array_equal(th, oracles.theta_oracle(v, a, b)), (v, a, b)


def test_theta_dtype_widens_exactly_above_127():
    assert theta_matrix(127, 127, 127).dtype == np.int8
    assert theta_matrix(127, 127, 127).tolist() == [[127]]
    assert theta_matrix(128, 128, 128).dtype == np.int64
    assert theta_matrix(128, 128, 128).tolist() == [[128]]
    th = theta_matrix(129, 128, 129)  # min(a, b) = 128: one column of 128s
    assert th.dtype == np.int64 and th.tolist() == [[128]] * 129
    assert theta_matrix(129, 127, 128).dtype == np.int8


def test_theta_cache_limit_is_in_bytes(monkeypatch):
    th = theta_matrix(6, 3, 3)
    assert build_module._THETA_CACHE_LIMIT == 8 << 20
    for limit, kept in ((th.nbytes, True), (th.nbytes - 1, False)):
        monkeypatch.setattr(build_module, "_theta_cache", {})
        monkeypatch.setattr(build_module, "_THETA_CACHE_LIMIT", limit)
        assert np.array_equal(theta_matrix(6, 3, 3), th)
        assert ((6, 3, 3) in build_module._theta_cache) is kept


def test_a_large_theta_is_assembled_from_small_cached_thetas(monkeypatch):
    # with regions of at most 200 entries, theta(8, 3, 4) (56 x 70) is
    # assembled from thetas over the last elements of [8], of at most 200
    # entries each; those are cached, and the whole only while it fits the
    # limit
    monkeypatch.setattr(build_module, "_REGION_ENTRIES", 200)
    want = oracles.theta_oracle(8, 3, 4)
    for limit in (build_module._THETA_CACHE_LIMIT, 0):
        monkeypatch.setattr(build_module, "_THETA_CACHE_LIMIT", limit)
        monkeypatch.setattr(build_module, "_theta_cache", {})
        for _ in range(2):
            th = theta_matrix(8, 3, 4)
            assert th.dtype == np.int8 and not th.flags.writeable
            assert np.array_equal(th, want)
            cached = build_module._theta_cache
            assert ((8, 3, 4) in cached) is bool(limit)
            assert all(x.size <= 200 for key, x in cached.items() if key != (8, 3, 4))
            assert len(cached) > 1 or not limit


def test_f_untruncated_entries_are_binomial_powers():
    for v in range(1, 7):
        for s in range(v + 1):
            for k in range(v + 1):
                f = build(F(None, s, k, v))
                th = theta_matrix(v, s, k)
                data = f.data
                for i in range(f.nrows):
                    for j in range(f.ncols):
                        assert Poly._lift(data[i][j]) == Poly((1, 1)) ** th[i, j]


def test_f_degree_bound():
    f = build(F(2, 2, 3, 6))
    assert f.max_degree() <= 2


def test_n_14_structure_small_analog():
    # same structure as the order-3432 case: 1 iff equal or disjoint
    m = build(N(2, 3, 3, 6))
    th = theta_matrix(6, 3, 3)
    data = m.data
    for i in range(m.nrows):
        for j in range(m.ncols):
            assert data[i][j] == (1 if th[i, j] in (0, 3) else 0)
        assert sum(1 for x in data[i] if x) == 2


def test_n_13_structure_small_analog():
    # +1 on the diagonal, -1 on disjoint pairs, 0 otherwise
    m = build(N(1, 2, 2, 5))
    th = theta_matrix(5, 2, 2)
    data = m.data
    for i in range(m.nrows):
        for j in range(m.ncols):
            want = 1 if th[i, j] == 2 else (-1 if th[i, j] == 0 else 0)
            assert data[i][j] == want


def test_integer_kinds_expose_int_array():
    m = build(N(1, 2, 2, 5))
    arr = m.as_int_array()
    assert arr.shape == (10, 10)
    assert arr.tolist() == m.data


def test_x_matrix_rational_poly_entries():
    x = build(X(2, 2, 3, 6))
    assert x.nrows == binomial(6, 2) and x.ncols == binomial(6, 2)
    entry = Poly._lift(x.data[0][0])  # theta = 2 on the diagonal
    assert entry.coeff(0) == Fraction(1, binomial(3, 2))


def test_y_matrix_values():
    y = build(Y(2, 2, 3, 1, 6))
    assert y.nrows == binomial(6, 2) and y.ncols == binomial(6, 2)
    # theta = 2 entry: C(2,1) * xi^{2}_{1,1}(-1) = 2 * (-1/2) = -1
    assert y.data[0][0] == -1


def test_kind_validation_errors():
    with pytest.raises(ValueError):
        MatrixKind("nosuch", 4, 1, 2)
    with pytest.raises(ValueError):
        W(3, 2, 2)           # s > v
    with pytest.raises(ValueError):
        U(-1, 1, 2, 4)       # negative l
    with pytest.raises(ValueError):
        A(None, 1, 2, 4)     # missing i
    with pytest.raises(ValueError):
        X(1, 3, 2, 4)        # t > k
    with pytest.raises(ValueError):
        Y(1, 2, 3, 3, 6)     # l > t


@pytest.mark.parametrize("tag", kind_grid.TAGS)
@pytest.mark.parametrize("field", ["t", "l", "i"])
def test_kind_refuses_a_negative_t_l_or_i_for_every_tag(tag, field):
    params = {"t": 1, "l": 0, "i": 0, field: -1}
    with pytest.raises(ValueError):
        MatrixKind(tag, 4, 1, 2, **params)
    MatrixKind(tag, 4, 1, 2, **{**params, field: 0})


def test_kind_describe():
    assert build(F(None, 2, 3, 6)).max_degree() == 2
    assert [kind.describe() for kind in (
        W(1, 2, 4), Wbar(1, 2, 4), U(1, 2, 3, 6), Uge(1, 2, 3, 6), A(2, 2, 3, 6),
        N(1, 2, 3, 6), F(None, 2, 3, 6), F(1, 2, 3, 6), Utl(2, 1, 2, 3, 6),
        X(2, 1, 3, 6), Y(2, 2, 3, 1, 6))] == [
        "W[1,2](4)", "Wbar[1,2](4)", "U^1[2,3](6)", "U^>=1[2,3](6)", "A^2[2,3](6)",
        "N^1[2,3](6)", "F^2[2,3](6)(z)", "F^1[2,3](6)(z)", "U^(2,1)[2,3](6)",
        "X^3[2,1](6)(z)", "Y^(3,1)[2,2](6)"]


def test_kind_constructors_share_one_kind_and_refuse_bad_calls_every_time():
    constructors = ((W, (1, 2, 4)), (Wbar, (1, 2, 4)), (U, (1, 2, 3, 6)),
                    (A, (2, 2, 3, 6)), (N, (1, 2, 3, 6)), (F, (None, 2, 3, 6)),
                    (Utl, (2, 1, 2, 3, 6)))
    for make, args in constructors:
        assert make(*args) is make(*args)
    # the suite asks for each Uge, X and Y kind once, so they are not memoized:
    # equal kinds, one cache key for build
    for make, args in ((Uge, (1, 2, 3, 6)), (X, (2, 1, 3, 6)), (Y, (2, 2, 3, 1, 6))):
        assert make(*args) == make(*args) and hash(make(*args)) == hash(make(*args))
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match="X needs t <= k"):
            X(2, 4, 3, 6)
        with pytest.raises(ValueError, match="invalid subset sizes"):
            A(1, 7, 3, 6)


# the grid record of the library before the kinds were declared as one table
GRID = json.loads((Path(__file__).parent / "data" / "kind_grid.json").read_text())


@pytest.fixture(scope="module")
def grid_now():
    return kind_grid.record()


def test_kind_labels_and_builds_match_the_recorded_grid(grid_now):
    assert grid_now["digest"] == GRID["digest"]


def test_kinds_refused_since_the_record_are_exactly_those_with_a_negative_parameter(grid_now):
    now = grid_now["accepted"]
    n = len(kind_grid.SIZES) ** 3 * len(kind_grid.PARAMS) ** 3
    newly_refused = 0
    for tag in kind_grid.TAGS:
        was = kind_grid.accepted_bits(GRID["accepted"][tag], n)
        got = kind_grid.accepted_bits(now[tag], n)
        for point, before, after in zip(kind_grid.points(tag), was, got):
            assert after == (before and not kind_grid.is_negative(point)), point
            newly_refused += before and not after
    assert newly_refused == 16427  # e.g. W with t = -1 passed before


# ---------------------------------------------------------------------------
# support counts

def test_row_support_formula_examples():
    assert row_support_formula(6, 0, 7, 7, 14) == 2
    assert row_support_formula(5, 0, 6, 6, 13) == 8


def test_row_support_formula_top_case_matches_built_matrix():
    # t = l = s = k reduces to the single theta = s term, C(s,s) C(v-s,0) = 1
    for v in range(1, 8):
        for s in range(1, v + 1):
            want = row_support_formula(s, s, s, s, v)
            assert want == 1
            m = build(Utl(s, s, s, s, v))
            for row in m.data:
                assert sum(1 for x in row if x) == want


def test_row_support_matches_formula_on_grid():
    for v in range(1, 8):
        for s in range(v + 1):
            for k in range(v + 1):
                for t in range(min(s, k) + 1):
                    for l in range(t + 1):
                        want = row_support_formula(t, l, s, k, v)
                        m = build(Utl(t, l, s, k, v))
                        for row in m.data:
                            assert sum(1 for x in row if x) == want


def test_row_support_formula_validation():
    with pytest.raises(ValueError):
        row_support_formula(1, 2, 3, 3, 6)  # l > t
    with pytest.raises(ValueError):
        row_support_formula(4, 0, 3, 3, 6)  # t > min(s, k)


# ---------------------------------------------------------------------------
# the build cache

def _kinds_of_every_tag(v_max):
    """For each (v, s, k) with v <= v_max, one kind of every tag, with its
    parameters inside their valid range."""
    for v in range(1, v_max + 1):
        for s in range(v + 1):
            for k in range(v + 1):
                m, t = min(s, k), k // 2
                yield from (W(s, k, v), Wbar(s, k, v), U(m // 2, s, k, v),
                            Uge((m + 1) // 2, s, k, v), A(m // 2, s, k, v),
                            N(m // 2, s, k, v), Utl(m, m // 2, s, k, v), F(None, s, k, v),
                            X(s, t, k, v), Y(s, t, k, t // 2, v))


def _fresh(kind):
    """The matrix of kind made entry by entry from |S cap K|, with no cache."""
    table = _entries(kind)
    cols = [set(sub) for sub in kind.col_family.subsets()]
    return ExactMatrix([[table[len(set(row) & col)] for col in cols]
                        for row in kind.row_family.subsets()])


def test_cached_builds_equal_fresh_entrywise_builds_of_every_tag():
    seen = set()
    for kind in _kinds_of_every_tag(6):
        m = build(kind)
        seen.add(kind.tag)
        assert m == _fresh(kind), kind.describe()
        # one shared SubsetFamily per (v, s) tags every matrix
        assert m.row_family is kind.row_family and m.col_family is kind.col_family
        assert not m.stack.flags.writeable
        with pytest.raises(ValueError):
            m.stack[(0,) * m.stack.ndim] = 7
        # a repeated call is served from the cache exactly when m is small enough
        assert (build(kind) is m) == (m.stack.size <= build_module._BUILT_ENTRIES)
    assert seen == {"W", "Wbar", "U", "Uge", "A", "N", "Utl", "F", "X", "Y"}


# region caps for the layout tests: every region one entry, and a middle cap
# under which the matrices at v <= 9 split from 0 to 5 elements deep
_CAPS = [1, 64]


@functools.cache
def _prefixes(v, a, e):
    """The prefix S cap [e] of each a-subset S of [v], in lex order, and
    how many subsets share each prefix."""
    got = [frozenset(x for x in sub if x <= e) for sub in SubsetFamily(v, a).subsets()]
    return got, Counter(got)


def _sharing(v, a, e, r):
    """How many a-subsets of [v] share the prefix on [e] of the r-th."""
    got, counts = _prefixes(v, a, e)
    return counts[got[r]]


def _group(v, a, e, span):
    """The prefix on [e] that the subsets in ``span`` share, checking that
    they share one and that no other a-subset has it."""
    got, counts = _prefixes(v, a, e)
    p = got[span.start]
    assert set(got[span]) == {p} and counts[p] == span.stop - span.start
    return p


@pytest.mark.parametrize("region_cap", _CAPS, ids=lambda cap: f"cap{cap}")
def test_regions_tile_every_matrix_once_and_assemble_its_theta(region_cap, monkeypatch):
    monkeypatch.setattr(build_module, "_REGION_ENTRIES", region_cap)
    monkeypatch.setattr(build_module, "_theta_cache", {})
    for v in range(10):
        for a in range(v + 1):
            for b in range(v + 1):
                cover = np.zeros((binomial(v, a), binomial(v, b)), dtype=np.int64)
                for rows, cols, (w, a2, b2, c) in build_module._regions(v, a, b, region_cap):
                    cover[rows, cols] += 1
                    assert cover[rows, cols].shape == (binomial(w, a2), binomial(w, b2))
                    assert cover[rows, cols].size <= region_cap
                    # the rows are the a-subsets of one prefix P on the first
                    # e elements, the columns those of one prefix Q
                    e = v - w
                    p, q = _group(v, a, e, rows), _group(v, b, e, cols)
                    assert (len(p), len(q), len(p & q)) == (a - a2, b - b2, c)
                    if e:  # split no deeper than needed: one element less is over the cap
                        assert (_sharing(v, a, e - 1, rows.start)
                                * _sharing(v, b, e - 1, cols.start) > region_cap)
                assert (cover == 1).all(), (v, a, b)
                table = np.arange(min(a, b) + 1, dtype=np.int8)
                got = build_module._taken(table, v, a, b)
                assert np.array_equal(got, oracles.theta_oracle(v, a, b)), (v, a, b)
                assert np.array_equal(theta_matrix(v, a, b), got)


def test_region_builds_equal_fresh_entrywise_builds_of_every_tag(monkeypatch):
    # under each cap every stack of more entries is filled region by region,
    # from the thetas of its regions, and the regions of one key share one
    # block; the entrywise reference is made once per kind
    monkeypatch.setattr(build_module, "_theta_cache", {})
    for kind in _kinds_of_every_tag(9):
        want = _fresh(kind)
        for cap in _CAPS:
            monkeypatch.setattr(build_module, "_REGION_ENTRIES", cap)
            monkeypatch.setattr(build_module, "_built", {})
            assert build(kind) == want, (kind.describe(), cap)


@pytest.mark.parametrize("kind", [N(6, 7, 7, 14), U(3, 6, 6, 13)], ids=["N14", "U13"])
def test_build_allocates_little_beyond_its_result(kind, monkeypatch):
    # no theta of the matrix's size is made: besides the result, build makes
    # the small thetas of its regions (cached here, from an empty cache), one
    # block per key and take's intp copy of one region's theta indices
    monkeypatch.setattr(build_module, "_theta_cache", {})
    tracemalloc.start()
    try:
        m = build(kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.stack.dtype == np.int8
    assert peak <= 1.5 * m.stack.nbytes, peak / m.stack.nbytes


def test_a_build_over_the_theta_cache_limit_holds_no_whole_theta():
    # theta(14, 7, 7) would be 11.8 MB of int8, over the 8 MB cache limit;
    # build fills N^6_(7,7)(14) region by region from thetas over [10] and,
    # in a fresh interpreter, peaks near its int8 stack alone
    code = ("import tracemalloc\n"
            "from imtk.build import N, build\n"
            "tracemalloc.start()\n"
            "m = build(N(6, 7, 7, 14))\n"
            "print(m.stack.nbytes, tracemalloc.get_traced_memory()[1])\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    nbytes, peak = map(int, proc.stdout.split())
    assert nbytes == 3432 * 3432 and peak < 1.5 * nbytes, peak / nbytes


def test_build_stores_the_golden_n_and_a_wider_entry_at_their_widths():
    assert build(N(6, 7, 7, 14)).stack.dtype == np.int8  # entries 0 and 1
    a3 = build(A(3, 11, 11, 11))  # 1 x 1: C(11, 3) = 165 > 127
    assert a3.stack.dtype == np.int16 and a3.data == [[165]]
    assert build(A(9, 18, 18, 18)).stack.dtype == np.int32  # C(18, 9) = 48620
    assert build(A(17, 34, 34, 34)).stack.dtype == np.int64  # C(34, 17) > 2^31
    assert build(A(34, 68, 68, 68)).stack.dtype == object  # C(68, 34) > 2^64


@pytest.mark.parametrize("entry,dtype", [
    (127, np.int8), (-127, np.int8), (128, np.int16), (-128, np.int16),
    (2 ** 15 - 1, np.int16), (-(2 ** 15), np.int32), (2 ** 31 - 1, np.int32),
    (-(2 ** 31), np.int64), (-(2 ** 63), np.int64), (2 ** 63, object),
])
def test_build_width_is_the_narrowest_symmetric_range(monkeypatch, entry, dtype):
    # the range is taken symmetric, so -128 widens int8 to int16 as 128 does
    monkeypatch.setitem(build_module.KINDS, "W", ((), "W", lambda th, m: entry * (th == m.s)))
    monkeypatch.setattr(build_module, "_built", {})
    m = build(W(1, 2, 4))
    assert m.stack.dtype == dtype
    assert m.data == [[entry * (th == 1) for th in row] for row in theta_matrix(4, 1, 2).tolist()]


def _table_by_exact_matrix(entries):
    """The reference for build's _table: the entries as one ExactMatrix row,
    in its canonical form, narrowed by np.iinfo."""
    table = ExactMatrix([entries])
    coef = table.stack[:, 0]
    width = next((w for w in (np.int8, np.int16, np.int32) if table.mag <= np.iinfo(w).max),
                 coef.dtype)
    return coef.astype(width, copy=False), table.den


def _assert_same_table(entries):
    got, den = build_module._table(entries)
    want, want_den = _table_by_exact_matrix(entries)
    assert (got.dtype, got.shape, den) == (want.dtype, want.shape, want_den), entries
    assert got.tolist() == want.tolist(), entries


def test_table_path_matches_the_exact_matrix_route_for_every_kind():
    tags = set()
    for kind in _kinds_of_every_tag(6):
        tags.add(kind.tag)
        _assert_same_table(_entries(kind))
    assert tags == set(build_module.KINDS)  # Y's Fraction and F's, X's Poly tables too


@pytest.mark.parametrize("entries", [
    [0], [127, -127], [-128, 0], [2 ** 15 - 1], [-(2 ** 15)], [2 ** 31 - 1, 0],
    [-(2 ** 31)], [2 ** 62, -1], [-(2 ** 63), 0], [2 ** 63 - 1, -(2 ** 63)],
    [2 ** 63, 0], [2 ** 63, -1], [-(2 ** 63) - 1], [2 ** 64, 1],
    [Fraction(1, 2), 3], [Fraction(4, 2), Fraction(-6, 3)], [Poly((1, 2)), 0, 5],
    # Polys with int coefficients, F's psi tables, take the array path
    [Poly(()), Poly(())], [Poly((1,)), Poly((1, 1)), Poly((1, 2, 1))], [Poly((-128, 1))],
    [Poly((2 ** 62, 1)), Poly((3,))], [Poly((0, 2 ** 63)), Poly((1,))],
    [Poly((1, Fraction(1, 2))), Poly((1,))],
])
def test_table_path_matches_the_exact_matrix_route_at_the_extremes(entries):
    _assert_same_table(entries)


def test_build_cache_never_exceeds_its_bound_and_evicts_the_least_recent(monkeypatch):
    monkeypatch.setattr(build_module, "_BUILT_MAX", 8)
    monkeypatch.setattr(build_module, "_built", {})
    kinds = [A(i, 2, 2, v) for v in range(2, 9) for i in range(3)]
    first, second = build(kinds[0]), build(kinds[1])
    for kind in kinds[2:]:
        build(kind)
        assert build(kinds[0]) is first  # used again, so never the least recent
        assert len(build_module._built) <= 8
    assert len(build_module._built) == 8
    again = build(kinds[1])  # evicted long ago: built afresh, equal but new
    assert again == second and again is not second
    for kind in _kinds_of_every_tag(6):
        build(kind)
        assert len(build_module._built) <= 8


def test_a_matrix_above_the_entry_cap_is_not_retained():
    cap = build_module._BUILT_ENTRIES
    assert cap == 32 * 32
    at_cap = build(W(1, 1, 32))  # 32 x 32, exactly at the cap: retained
    assert at_cap.stack.size == cap and build(W(1, 1, 32)) is at_cap
    above = build(W(1, 1, 33))  # 33 x 33: built on every call, never kept
    assert above.stack.size == cap + 65
    assert build(W(1, 1, 33)) is not above and build(W(1, 1, 33)) == above
    assert all(m is not above for m in build_module._built.values())
    big = build(A(3, 6, 6, 12))  # order 924, as the CLI builds them
    assert all(m is not big for m in build_module._built.values())


# ---------------------------------------------------------------------------
# block decompositions

def test_w_block_structure():
    # the classical recursive structure of W: top-right block is zero
    for v in range(2, 8):
        for k in range(1, v):
            for s in range(1, k + 1):
                m = build(W(s, k, v))
                r0, c0 = binomial(v - 1, s - 1), binomial(v - 1, k - 1)
                assert m.submatrix(0, r0, 0, c0) == build(W(s - 1, k - 1, v - 1))
                tr = m.submatrix(0, r0, c0, m.ncols)
                assert all(x == 0 for row in tr.data for x in row)
                assert m.submatrix(r0, m.nrows, c0, m.ncols) == build(W(s, k, v - 1))


# the paper's parts (i)-(vi); part (ii) is F at t = min(s, k)
@pytest.mark.parametrize("part,kind_fn", [
    ("i", lambda t, l, s, k, v: F(t, s, k, v)),
    ("iii", lambda t, l, s, k, v: Utl(t, l, s, k, v)),
])
def test_blocks_with_t_and_l(part, kind_fn):
    for v in range(1, 7):
        for s in range(1, v + 1):
            for k in range(1, v + 1):
                for t in range(min(s, k) + 1):
                    for l in range(t + 1) if part == "iii" else [0]:
                        actual, expected = block_decompose(kind_fn(t, l, s, k, v))
                        assert list(actual) == list(expected), (part, t, l, s, k, v)


@pytest.mark.parametrize("part,kind_fn", [
    ("ii", lambda p, s, k, v: F(None, s, k, v)),
    ("iv", lambda p, s, k, v: U(p, s, k, v)),
    ("v", lambda p, s, k, v: N(p, s, k, v)),
    ("vi", lambda p, s, k, v: A(p, s, k, v)),
])
def test_blocks_single_parameter(part, kind_fn):
    for v in range(1, 7):
        for s in range(1, v + 1):
            for k in range(1, v + 1):
                params = [0] if part == "ii" else range(min(s, k) + 1)
                for p in params:
                    actual, expected = block_decompose(kind_fn(p, s, k, v))
                    assert list(actual) == list(expected), (part, p, s, k, v)


def test_block_decompose_part_vi_top_left_sum():
    actual, expected = block_decompose(A(2, 3, 3, 7))
    want = build(A(2, 2, 2, 6)) + build(A(1, 2, 2, 6))
    assert actual[0] == want == expected[0]


def test_block_decompose_top_left_skips_lincomb_for_a_lone_unit_term():
    # N and U at l >= 1 have one term of coefficient 1: the cached build itself
    assert block_decompose(N(2, 3, 3, 6))[1][0] is build(A(2, 2, 2, 5))
    assert block_decompose(U(1, 3, 3, 6))[1][0] is build(U(0, 2, 2, 5))
    # F at t = min(s, k) leaves out the zero A^t term: (z+1) F^{t-1}
    actual, expected = block_decompose(F(None, 3, 3, 6))
    assert actual[0] == expected[0] == build(F(2, 2, 2, 5)).scale(Poly((1, 1)))


def test_block_decompose_errors():
    for kind in (W(1, 2, 4), Wbar(1, 2, 4), X(1, 1, 2, 4), Y(1, 1, 2, 0, 4)):
        with pytest.raises(ValueError, match="no block decomposition"):
            block_decompose(kind)
    with pytest.raises(ValueError):
        block_decompose(F(1, 0, 2, 4))      # degenerate split s = 0
    with pytest.raises(TypeError):
        block_decompose(F(1, 1, 2, 4), "i")  # the part follows from the kind
