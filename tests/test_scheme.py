from itertools import combinations

import pytest

from imtk.build import A, U, Uge, build
from imtk.combinat import binomial
from imtk.exactalg import ExactMatrix
from imtk.scheme import (SchemeBasis, basis_convert, conversion_matrix,
                         intersection_p, intersection_r, p_distance,
                         scheme_basis, verify_scheme_axioms)

from oracles import rank_exact


def test_r_at_zero_is_order():
    for v in range(2, 9):
        for k in range(v + 1):
            assert intersection_r(v, k, 0, 0, 0) == binomial(v, k)


def test_p_direct_count_j52():
    # p(1,1,2): pairs A = C with |B cap A| = 1 = |B cap C|, i.e. the degree
    # of the Johnson graph J(5,2)
    ground = list(combinations(range(1, 6), 2))
    a = ground[0]
    count = sum(1 for b in ground if len(set(a) & set(b)) == 1)
    assert count == 6
    assert intersection_p(5, 2, 1, 1, 2) == 6


def test_p_symmetry():
    for v in range(2, 9):
        for k in range(v // 2 + 1):
            for i in range(k + 1):
                for j in range(k + 1):
                    for l in range(k + 1):
                        assert intersection_p(v, k, i, j, l) == intersection_p(v, k, j, i, l)


def test_a_products_expand_with_r():
    for v in range(2, 8):
        for k in range(v + 1):
            mats = [build(A(i, k, k, v)) for i in range(k + 1)]
            for i in range(k + 1):
                for j in range(k + 1):
                    prod = mats[i] @ mats[j]
                    acc = ExactMatrix.zeros(binomial(v, k), binomial(v, k))
                    for l in range(k + 1):
                        c = intersection_r(v, k, i, j, l)
                        if c:
                            acc = acc + mats[l].scale(c)
                    assert prod == acc


def test_scheme_basis_members():
    basis = scheme_basis(4, 2, "X")
    assert len(basis) == 3
    assert basis.member(0) == ExactMatrix.identity(6)
    assert basis.member(0) == build(U(2, 2, 2, 4))
    with pytest.raises(ValueError):
        scheme_basis(4, 2, "Z")


def test_uge0_is_all_ones():
    for v in range(2, 8):
        for k in range(v // 2 + 1):
            n = binomial(v, k)
            assert build(Uge(0, k, k, v)) == ExactMatrix.ones(n, n)


def test_basis_round_trips():
    for v in range(2, 9):
        for k in range(min(4, v) + 1):
            for src in ("X", "A", "Uge"):
                basis = scheme_basis(v, k, src)
                for dst in ("X", "A", "Uge"):
                    there = basis_convert(basis, dst)
                    back = basis_convert(there, src)
                    assert all(a == b for a, b in zip(back.mats, basis.mats))
                    direct = scheme_basis(v, k, dst)
                    assert all(a == b for a, b in zip(there.mats, direct.mats))


def test_uge_expansion_in_a_basis():
    # U^{>=l} = sum_i (-1)^(i-l) C(i-1, l-1) A^i for l >= 1
    for v in range(2, 9):
        for k in range(min(4, v) + 1):
            for l in range(1, k + 1):
                acc = ExactMatrix.zeros(binomial(v, k), binomial(v, k))
                for i in range(l, k + 1):
                    c = (-1) ** (i - l) * binomial(i - 1, l - 1)
                    if c:
                        acc = acc + build(A(i, k, k, v)).scale(c)
                assert build(Uge(l, k, k, v)) == acc


def test_bases_linearly_independent():
    # each basis has k+1 independent members (k <= v/2; smaller ground sets
    # cannot realize all intersection sizes)
    for v in range(2, 7):
        for k in range(min(3, v // 2) + 1):
            for tag in ("X", "A", "Uge"):
                basis = scheme_basis(v, k, tag)
                rows = [[x for row in m.data for x in row] for m in basis.mats]
                assert rank_exact(ExactMatrix(rows)) == k + 1


def test_conversion_matrices_invert():
    for v in range(2, 8):
        for k in range(min(4, v) + 1):
            n = k + 1
            for src in ("X", "A", "Uge"):
                for dst in ("X", "A", "Uge"):
                    fwd = ExactMatrix(conversion_matrix(v, k, src, dst))
                    bwd = ExactMatrix(conversion_matrix(v, k, dst, src))
                    assert bwd @ fwd == ExactMatrix.identity(n)


def test_axioms_j52_with_srg_parameters():
    report = verify_scheme_axioms(5, 2)
    assert report.ok and report.products_checked == 9
    # X_1 X_1 = 6 X_0 + 3 X_1 + 4 X_2: the triangular graph T(5) is srg(10,6,3,4)
    assert p_distance(5, 2, 1, 1, 0) == 6
    assert p_distance(5, 2, 1, 1, 1) == 3
    assert p_distance(5, 2, 1, 1, 2) == 4
    xs = scheme_basis(5, 2, "X").mats
    want = (xs[0].scale(6) + xs[1].scale(3) + xs[2].scale(4))
    assert xs[1] @ xs[1] == want


def test_axioms_complete_graph_scheme():
    for v in range(2, 9):
        assert verify_scheme_axioms(v, 1).ok


def test_axioms_j84():
    report = verify_scheme_axioms(8, 4)
    assert report.ok
    assert report.products_checked == 25


def test_axioms_all_small():
    for v in range(1, 8):
        for k in range(v // 2 + 1):
            assert verify_scheme_axioms(v, k).ok
