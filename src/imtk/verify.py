"""The identity catalog: every numbered identity as a named, parameterized,
executable check, plus a grid runner with reporting.

Left and right sides are always computed by independent routes: left sides
by products of entrywise-built matrices, right sides by closed forms, never
sharing intermediates.  Registry keys use 'p' for primed variants
(prop5.ip is the right-multiplication twin of prop5.i).

An identity may declare its innermost axes grouped (eq19 and eq20 over
(i, j), thm2.i over l, among others).  The runner then calls its check once
per inner grid, the run of consecutive points that share the outer axes:
the left sides are the built matrices, or their products from one product
of stacked factors, and the right sides come from one combination of the
built basis with the closed-form coefficients.  The routes stay independent
as above, and every point still gets its own result; a point that differs
is compared again alone, so its witness is the one an ungrouped check gives.
``run_identity`` runs a group of one point.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from fractions import Fraction
from itertools import groupby
from math import factorial
from typing import Callable, Iterable

import numpy as np

from . import opcalc
from .build import (A, F, N, U, Uge, Utl, W, Wbar, X, Y, block_decompose,
                    build, row_support_formula)
from .combinat import SubsetFamily, binomial, xi, xi_at_minus1
from .exactalg import ExactMatrix, Poly, _combined_stack, equiv_check, mat_mul
from .scheme import intersection_p, intersection_r

# ---------------------------------------------------------------------------
# small helpers

def _first_difference(lhs: ExactMatrix, rhs: ExactMatrix) -> tuple[int, int]:
    """Row and column of the first entry, in row-major order, where two
    unequal matrices of one shape differ."""
    i, j = np.argwhere((lhs - rhs).stack.any(axis=0))[0]
    return int(i), int(j)


def _cmp(lhs: ExactMatrix, rhs: ExactMatrix) -> str | None:
    """None when equal, else a witness naming the first differing entry."""
    if lhs.shape != rhs.shape:
        return f"shape {lhs.shape} != {rhs.shape}"
    if lhs == rhs:
        return None
    i, j = _first_difference(lhs, rhs)
    return f"entry ({i},{j}): {lhs.entry(i, j)!r} != {rhs.entry(i, j)!r}"


def _cmp_poly(lhs: Poly, rhs: Poly, what: str) -> str | None:
    if lhs != rhs:
        return f"{what}: {lhs!r} != {rhs!r}"
    return None


def _zp1(e: int) -> Poly:
    return Poly((1, 1)) ** e


def _scale_zp1(m: ExactMatrix, e: int) -> ExactMatrix:
    """Multiply by (z+1)^e; negative e divides exactly entrywise."""
    if e >= 0:
        return m.scale(_zp1(e))
    return m.divexact_linear(-1, -e)


# ---------------------------------------------------------------------------
# registry plumbing

@dataclass
class CheckResult:
    name: str
    params: dict
    ok: bool
    detail: str = ""


@dataclass
class IdentityCheck:
    name: str
    description: str
    domain: Callable[[int], Iterable[dict]]
    check: Callable[..., str | None | list[str | None]]
    note: str = ""
    grouped: tuple[str, ...] = ()

    def run(self, **params) -> CheckResult:
        if self.grouped:
            return self.run_group([params])[0]
        witness = self.check(**params)
        return CheckResult(self.name, params, witness is None, witness or "")

    def run_group(self, points: list[dict]) -> list[CheckResult]:
        """One result per point, for points that differ only on the grouped axes."""
        witnesses = self.check(**{**points[0], **{key: tuple(p[key] for p in points)
                                                  for key in self.grouped}})
        return [CheckResult(self.name, p, w is None, w or "") for p, w in zip(points, witnesses)]

    def results(self, v_max: int) -> Iterable[CheckResult]:
        """One result per point of the domain, in order, from one call of
        the check per run of consecutive points that agree off the grouped axes."""
        points = self.domain(v_max)
        if not self.grouped:
            return (self.run(**p) for p in points)
        runs = groupby(points, key=lambda p: [x for key, x in p.items() if key not in self.grouped])
        return (result for _, run in runs for result in self.run_group(list(run)))


REGISTRY: dict[str, IdentityCheck] = {}


def _grid(spec: str, keys: list[str],
          where: str = "") -> Callable[[int], Iterable[dict]]:
    """Compile a domain spec such as ``"v=1..V k=0..v s=0..k"`` once into a
    function of v_max that yields one parameter dict per grid point.

    Axes run outermost first, each over inclusive bounds that may name outer
    axes, ``V`` (the suite's v_max), ``min`` and ``max``; the optional
    ``where`` expression keeps only the points where it is true.  Dict keys
    come out in ``keys`` order, which is the check function's parameter order.
    """
    axes = [axis.split("=") for axis in spec.split()]
    if sorted(name for name, _ in axes) != sorted(keys):
        raise ValueError(f"domain {spec!r} does not name exactly {keys}")
    loops = "".join(" for {} in range({}, {} + 1)".format(name, *bounds.split(".."))
                    for name, bounds in axes)
    point = ", ".join(f"{key!r}: {key}" for key in keys)
    cond = f" if {where}" if where else ""
    code = compile(f"({{{point}}}{loops}{cond})", spec, "eval")
    return lambda v_max: eval(code, {"__builtins__": {}, "range": range,
                                     "min": min, "max": max, "V": v_max})


def _register(name: str, description: str, domain: str, where: str = "",
              note: str = "", grouped: str = ""):
    """Register a check over the grid that ``domain`` and ``where`` declare
    (see ``_grid``).

    ``grouped`` names innermost axes that the check takes together: it is
    called once per run of consecutive points that agree on every other
    axis, with each grouped parameter as a tuple of its values at the
    points, and returns one witness or None per point.
    """
    def deco(fn):
        keys = list(inspect.signature(fn).parameters)
        REGISTRY[name] = IdentityCheck(name, description, _grid(domain, keys, where),
                                       fn, note, tuple(grouped.split()))
        return fn
    return deco


# A grouped check stacks the left sides of its points into one integer array,
# slice p for point p, and passes it to _expansions with the closed-form
# coefficients.  Left sides are built matrices (_stacked) or their products
# (_products); every matrix in play is an integer one.

def _stacked(mats) -> np.ndarray:
    return np.stack([m.stack[0] for m in mats])


def _products(lefts: dict, rights: dict, points) -> np.ndarray:
    """lefts[x] @ rights[y] for each point (x, y), all from one product: the
    lefts stacked vertically times the rights stacked horizontally, under
    ``mat_mul``'s int64-or-Python-int guard."""
    xs, ys = list(lefts), list(rights)
    prod = mat_mul(ExactMatrix(np.concatenate([lefts[x].stack[0] for x in xs])),
                   ExactMatrix(np.concatenate([rights[y].stack[0] for y in ys], axis=1)))
    nr, nc = lefts[xs[0]].nrows, rights[ys[0]].ncols
    return prod.stack[0].reshape(len(xs), nr, len(ys), nc)[
        [xs.index(x) for x, _ in points], :, [ys.index(y) for _, y in points]]


def _expansions(lhs: np.ndarray, basis, table) -> list[str | None]:
    """Witnesses, per point p, of lhs[p] == sum_n table[p][n] basis[n].

    Every right side comes from one combination of the basis, under the
    guard of ``_combined_stack``.  A point that differs is compared again
    as two ExactMatrix blocks by ``_cmp``, so its witness is the one that a
    check of that point alone gives.
    """
    rhs = _combined_stack(table, basis)
    same = (lhs == rhs).reshape(len(table), -1).all(axis=1)
    return [None if ok else _cmp(ExactMatrix(lhs[p]), ExactMatrix(rhs[p]))
            for p, ok in enumerate(same.tolist())]


# ---------------------------------------------------------------------------
# inclusion, exclusion, and binomial-entry matrices

@_register("eq1", "W_is W_sk = C(k-i, s-i) W_ik", "v=1..V k=0..v s=0..k i=0..s")
def _chk_eq1(i, s, k, v):
    lhs = build(W(i, s, v)) @ build(W(s, k, v))
    rhs = build(W(i, k, v)).scale(binomial(k - i, s - i))
    return _cmp(lhs, rhs)


@_register("eq2", "Wbar_sk = sum (-1)^i W_is^T W_ik", "v=1..V s=0..v k=0..v")
def _chk_eq2(s, k, v):
    rhs = ExactMatrix.lincomb((((-1) ** i, build(W(i, s, v)).transpose() @ build(W(i, k, v)))
                                for i in range(s + 1)), binomial(v, s), binomial(v, k))
    return _cmp(build(Wbar(s, k, v)), rhs)


@_register("eq3", "W_sk = sum (-1)^i W_is^T Wbar_ik", "v=1..V s=0..v k=0..v")
def _chk_eq3(s, k, v):
    rhs = ExactMatrix.lincomb((((-1) ** i, build(W(i, s, v)).transpose() @ build(Wbar(i, k, v)))
                                for i in range(s + 1)), binomial(v, s), binomial(v, k))
    return _cmp(build(W(s, k, v)), rhs)


@_register("eq4", "A^i_sk = W_is^T W_ik", "v=1..V s=0..v k=0..v i=0..min(s,k)")
def _chk_eq4(i, s, k, v):
    lhs = build(A(i, s, k, v))
    rhs = build(W(i, s, v)).transpose() @ build(W(i, k, v))
    return _cmp(lhs, rhs)


@_register("eq5", "Wbar_sk = sum (-1)^i A^i_sk", "v=1..V s=0..v k=0..v")
def _chk_eq5(s, k, v):
    rhs = ExactMatrix.lincomb((((-1) ** i, build(A(i, s, k, v))) for i in range(s + 1)),
                               binomial(v, s), binomial(v, k))
    return _cmp(build(Wbar(s, k, v)), rhs)


@_register("eq6", "N^t_sk = sum (-1)^(t-i) A^i_sk; Wbar = (-1)^min N^min",
           "v=1..V s=0..v k=0..v t=0..min(s,k)", grouped="t")
def _chk_eq6(t, s, k, v):
    ins = range(max(t) + 1)
    bad = _expansions(_stacked(build(N(x, s, k, v)) for x in t),
                      [build(A(i, s, k, v)) for i in ins],
                      [[(-1) ** (x - i) if i <= x else 0 for i in ins] for x in t])
    return [w or (_cmp(build(Wbar(s, k, v)), build(N(x, s, k, v)).scale((-1) ** x))
                  if x == min(s, k) else None) for x, w in zip(t, bad)]


# ---------------------------------------------------------------------------
# the generating matrix F, its Taylor coefficients, and product expansions

@_register("eq12", "F^t = sum_l U^{tl} (z+1)^l", "v=1..V s=0..v k=0..v t=0..min(s,k)")
def _chk_eq12(t, s, k, v):
    shape = (binomial(v, s), binomial(v, k))
    rhs = ExactMatrix.lincomb(((_zp1(l), build(Utl(t, l, s, k, v))) for l in range(t + 1)), *shape)
    return _cmp(build(F(t, s, k, v)), rhs)


@_register("eq15", "U^{tl} = sum_i (-1)^(i-l) C(i,l) A^i",
           "v=1..V s=0..v k=0..v t=0..min(s,k) l=0..t", grouped="l")
def _chk_eq15(t, l, s, k, v):
    ins = range(t + 1)
    return _expansions(_stacked(build(Utl(t, x, s, k, v)) for x in l),
                       [build(A(i, s, k, v)) for i in ins],
                       [[(-1) ** (i - x) * binomial(i, x) if i >= x else 0 for i in ins]
                        for x in l])


@_register("eq16", "A^i = sum_l C(l,i) U^{tl}",
           "v=1..V s=0..v k=0..v t=0..min(s,k) i=0..t", grouped="i")
def _chk_eq16(t, i, s, k, v):
    ls = range(t + 1)
    return _expansions(_stacked(build(A(x, s, k, v)) for x in i),
                       [build(Utl(t, l, s, k, v)) for l in ls],
                       [[binomial(l, x) for l in ls] for x in i])


@_register("thm2.i", "U^{tl} entries, nonzero set, and row support",
           "v=1..V s=0..v k=0..v t=0..min(s,k)+1 l=0..t", grouped="l")
def _chk_thm2_i(t, l, s, k, v):
    # dual route: Taylor coefficients at z = -1 of the built F^t, shifted once
    taylor = build(F(t, s, k, v)).shift_basis(-1)
    return [_thm2_i_at(taylor, t, x, s, k, v) for x in l]


def _thm2_i_at(taylor, t, l, s, k, v):
    got = build(Utl(t, l, s, k, v))
    want = taylor.coeff_matrix(l)
    if got != want:
        r, c = _first_difference(got, want)
        return f"entry ({r},{c}): built {got.entry(r, c)}, Taylor {want.entry(r, c)}"
    support_set = {l} | set(range(t + 1, min(s, k) + 1))
    theta_ok = all(
        (th in support_set) == (((-1) ** (t - l) * binomial(th, l)
                                 * binomial(th - l - 1, t - l)) != 0)
        for th in range(min(s, k) + 1))
    if not theta_ok:
        return "nonzero set differs from {l} u {t+1..min(s,k)}"
    if l <= t <= min(s, k):
        want_support = row_support_formula(t, l, s, k, v)
        support = got.stack.any(axis=0).sum(axis=1)
        bad = np.flatnonzero(support != want_support)
        if bad.size:
            r = int(bad[0])
            return f"row {r} support {support[r]}, formula {want_support}"
    return None


@_register("thm2.ii", "U^{t,0} = (-1)^t N^t; U^{s,l} = U^l; U^{t,t} = A^t",
           "v=1..V s=0..v k=0..v t=0..min(s,k)", grouped="t")
def _chk_thm2_ii(t, s, k, v):
    # U^{s,l} = U^l does not depend on t: checked once for the group
    middle = None
    for l in range(s + 1):
        bad = _cmp(build(Utl(s, l, s, k, v)), build(U(l, s, k, v)))
        if bad:
            middle = f"U^(s,{l}) vs U^{l}: " + bad
            break
    return [_thm2_ii_at(x, s, k, v, middle) for x in t]


def _thm2_ii_at(t, s, k, v, middle):
    bad = _cmp(build(Utl(t, 0, s, k, v)), build(N(t, s, k, v)).scale((-1) ** t))
    if bad:
        return "U^{t,0} vs N: " + bad
    if middle:
        return middle
    bad = _cmp(build(Utl(t, t, s, k, v)), build(A(t, s, k, v)))
    return ("U^(t,t) vs A^t: " + bad) if bad else None


@_register("thm2.iii", "U^{tl} expanded in the U^theta basis",
           "v=1..V s=0..v k=0..v t=0..min(s,k) l=0..t", grouped="l")
def _chk_thm2_iii(t, l, s, k, v):
    ths = range(min(s, k) + 1)
    return _expansions(_stacked(build(Utl(t, x, s, k, v)) for x in l),
                       [build(U(th, s, k, v)) for th in ths],
                       [[int(th == x) if th <= t else
                         (-1) ** (t - x) * binomial(th, x) * binomial(th - x - 1, t - x)
                         for th in ths] for x in l])


@_register("lemma3.i", "(F^t_sk)^T = F^t_ks", "v=1..V s=0..v k=0..v t=0..min(s,k)")
def _chk_lemma3_i(t, s, k, v):
    return _cmp(build(F(t, s, k, v)).transpose(), build(F(t, k, s, v)))


@_register("lemma3.ii", "F^t_sk = F_sk for t >= min(s,k)",
           "v=1..V s=0..v k=0..v t=min(s,k)..min(s,k)+3", where="t != min(s, k) + 2")
def _chk_lemma3_ii(t, s, k, v):
    return _cmp(build(F(t, s, k, v)), build(F(None, s, k, v)))


_SAMPLE_PAIRS = ((1, 2), (1, -2), (2, -2))


@_register("lemma3.iii", "F_kk(z) F_kk(u) commute (sampled rational points)",
           "v=1..V k=0..v")
def _chk_lemma3_iii(k, v):
    f = build(F(None, k, k, v))
    for a, b in _SAMPLE_PAIRS:
        fa, fb = f.eval_at(a), f.eval_at(b)
        bad = _cmp(fa @ fb, fb @ fa)
        if bad:
            return f"at (z,u)=({a},{b}): " + bad
    return None


@_register("lemma3.iv", "A^i_kk and A^j_kk commute", "v=1..V k=0..v i=0..k j=i..k")
def _chk_lemma3_iv(i, j, k, v):
    ai, aj = build(A(i, k, k, v)), build(A(j, k, k, v))
    return _cmp(ai @ aj, aj @ ai)


@_register("lemma3.v", "U^i_kk and U^j_kk commute", "v=1..V k=0..v i=0..k j=i..k")
def _chk_lemma3_v(i, j, k, v):
    ui, uj = build(U(i, k, k, v)), build(U(j, k, k, v))
    return _cmp(ui @ uj, uj @ ui)


@_register("eq17", "F_{v-a,v-b} ~ (z+1)^{v-a-b} F_ab under complements",
           "v=1..V a=0..v b=0..v")
def _chk_eq17(a, b, v):
    lhs = build(F(None, v - a, v - b, v))
    rhs = _scale_zp1(build(F(None, a, b, v)), v - a - b)
    rperm = SubsetFamily(v, v - a).complement_permutation()
    cperm = SubsetFamily(v, v - b).complement_permutation()
    if not equiv_check(lhs, rhs, rperm, cperm):
        return "complement-permuted matrices differ"
    return None


@_register("eq18", "W_ak W_bk^T = sum_n C(v-b-a, v-k-n) A^n_ab",
           "v=1..V k=0..v a=0..k b=0..k")
def _chk_eq18(a, b, k, v):
    lhs = build(W(a, k, v)) @ build(W(b, k, v)).transpose()
    rhs = ExactMatrix.lincomb(((binomial(v - b - a, v - k - n), build(A(n, a, b, v)))
                                for n in range(min(a, b) + 1)), binomial(v, a), binomial(v, b))
    return _cmp(lhs, rhs)


def _eq19_coef(i, j, n, a, b, c, v):
    """Coefficient of A^n_ac in A^i_ab A^j_bc."""
    if n > min(i, j):
        return 0
    return binomial(a - n, i - n) * binomial(c - n, j - n) * binomial(v - i - j, b + n - i - j)


@_register("eq19", "A^i_ab A^j_bc expansion in A^n_ac",
           "v=1..V a=0..v b=0..v c=0..v i=0..min(a,b) j=0..min(b,c)", grouped="i j")
def _chk_eq19(a, b, c, i, j, v):
    ns, points = range(min(a, c) + 1), list(zip(i, j))
    lhs = _products({x: build(A(x, a, b, v)) for x in dict.fromkeys(i)},
                    {y: build(A(y, b, c, v)) for y in dict.fromkeys(j)}, points)
    return _expansions(lhs, [build(A(n, a, c, v)) for n in ns],
                       [[_eq19_coef(x, y, n, a, b, c, v) for n in ns] for x, y in points])


def _eq20_coef(i, j, l, a, b, c, v):
    """Coefficient of U^l_ac in U^i_ab U^j_bc: the sum over n <= l, less
    the terms whose binomials have a negative lower index, which are 0."""
    return sum(binomial(l, n) * binomial(c - l, j - n) * binomial(a - l, i - n)
               * binomial(v - a - c + l, b - i - j + n)
               for n in range(max(0, i + j - b), min(l, i, j) + 1))


@_register("eq20", "U^i_ab U^j_bc expansion in U^l_ac",
           "v=1..V a=0..v b=0..v c=0..v i=0..min(a,b) j=0..min(b,c)", grouped="i j")
def _chk_eq20(a, b, c, i, j, v):
    ls, points = range(min(a, c) + 1), list(zip(i, j))
    lhs = _products({x: build(U(x, a, b, v)) for x in dict.fromkeys(i)},
                    {y: build(U(y, b, c, v)) for y in dict.fromkeys(j)}, points)
    return _expansions(lhs, [build(U(l, a, c, v)) for l in ls],
                       [[_eq20_coef(x, y, l, a, b, c, v) for l in ls] for x, y in points])


# ---------------------------------------------------------------------------
# the summation identity, the zD calculus, and the W^T F ladder

@_register("eq21", "sum_k (-1)^k C(l-k,m) C(s,k-n) = (-1)^(l+m) C(s-m-1, l-m-n)",
           "l=0..max(8,min(V,10)) m=0..max(8,min(V,10)) "
           "n=0..max(8,min(V,10)) s=0..max(8,min(V,10))")
def _chk_eq21(l, m, n, s):
    lhs = sum((-1) ** k * binomial(l - k, m) * binomial(s, k - n)
              for k in range(l + 1))
    rhs = (-1) ** (l + m) * binomial(s - m - 1, l - m - n)
    if lhs != rhs:
        return f"{lhs} != {rhs}"
    return None


@_register("lemma6.i", "(zD)^n = sum_k S(n,k) z^k D^k", "n=0..8")
def _chk_lemma6_i(n):
    brute = opcalc.identity_op()
    for _ in range(n):
        brute = opcalc.op_compose(brute, opcalc.zD)
    if brute != opcalc.zD_power(n):
        return f"composition {brute!r} != closed form {opcalc.zD_power(n)!r}"
    return None


@_register("lemma6.ii", "(zD)_n = z^n D^n", "n=0..8")
def _chk_lemma6_ii(n):
    brute = opcalc.identity_op()
    for i in range(n):
        brute = opcalc.op_compose(brute, opcalc.zD - i * opcalc.identity_op())
    if brute != opcalc.zD_falling(n):
        return f"composition {brute!r} != z^n D^n"
    return None


@_register("lemma6.iii", "(zD-k)_n closed form", "k=0..8 n=0..8")
def _chk_lemma6_iii(k, n):
    brute = opcalc.identity_op()
    for i in range(n):
        brute = opcalc.op_compose(brute, opcalc.zD - (k + i) * opcalc.identity_op())
    if brute != opcalc.zD_shifted_falling(k, n):
        return f"composition {brute!r} != closed form"
    return None


@_register("eq22", "W_is^T F^t_ik = L_si F^t_sk (product-form operator)",
           "v=1..V k=0..min(v,4) s=0..k i=0..s t=0..s", grouped="t")
def _chk_eq22(i, s, t, k, v):
    # independent route: L_si as the composed product (s-zD)...(i+1-zD)/(s-i)!,
    # composed once for the group
    op = opcalc.identity_op()
    for m in range(i + 1, s + 1):
        op = opcalc.op_compose(op, m * opcalc.identity_op() - opcalc.zD)
    op = Fraction(1, factorial(s - i)) * op
    wt = build(W(i, s, v)).transpose()
    return [_cmp(wt @ build(F(x, i, k, v)), opcalc.op_apply(op, build(F(x, s, k, v))))
            for x in t]


@_register("prop5.i", "W_{s-1,s}^T F^t_{s-1,k} = s F^t_sk - z D F^t_sk",
           "v=1..V s=1..v k=0..v t=0..min(s,k)")
def _chk_prop5_i(t, s, k, v):
    lhs = build(W(s - 1, s, v)).transpose() @ build(F(t, s - 1, k, v))
    fm = build(F(t, s, k, v))
    rhs = opcalc.op_apply(s * opcalc.identity_op() - opcalc.zD, fm)
    return _cmp(lhs, rhs)


@_register("prop5.ip", "F^t_{s,k-1} W_{k-1,k} = k F^t_sk - z D F^t_sk",
           "v=1..V s=0..v k=1..v t=0..min(s,k)")
def _chk_prop5_ip(t, s, k, v):
    lhs = build(F(t, s, k - 1, v)) @ build(W(k - 1, k, v))
    fm = build(F(t, s, k, v))
    rhs = opcalc.op_apply(k * opcalc.identity_op() - opcalc.zD, fm)
    return _cmp(lhs, rhs)


@_register("prop5.ii", "W_{s-1,s}^T F_{s-1,k} = s F_sk - z D F_sk",
           "v=1..V s=1..v k=0..v")
def _chk_prop5_ii(s, k, v):
    lhs = build(W(s - 1, s, v)).transpose() @ build(F(None, s - 1, k, v))
    fm = build(F(None, s, k, v))
    rhs = opcalc.op_apply(s * opcalc.identity_op() - opcalc.zD, fm)
    return _cmp(lhs, rhs)


@_register("prop5.iip", "F_{s,k-1} W_{k-1,k} = k F_sk - z D F_sk",
           "v=1..V s=0..v k=1..v")
def _chk_prop5_iip(s, k, v):
    lhs = build(F(None, s, k - 1, v)) @ build(W(k - 1, k, v))
    fm = build(F(None, s, k, v))
    rhs = opcalc.op_apply(k * opcalc.identity_op() - opcalc.zD, fm)
    return _cmp(lhs, rhs)


def _ladder(m: int, l, basis) -> list[list[int]]:
    """Per point x of l, the coefficients (m - x) of basis[x] and (x + 1) of
    basis[x + 1] in prop5's U ladders, over every member of the basis."""
    return [[(m - x) * (h == x) + (x + 1) * (h == x + 1) for h in range(len(basis))]
            for x in l]


@_register("prop5.iii",
           "W_{s-1,s}^T U^{t,l}_{s-1,k} = (s-l) U^{t,l}_sk + (l+1) U^{t,l+1}_sk",
           "v=1..V s=1..v k=0..v t=0..min(s,k) l=0..t", grouped="l")
def _chk_prop5_iii(t, l, s, k, v):
    basis = [build(Utl(t, h, s, k, v)) for h in range(t + 2)]
    lhs = _products({0: build(W(s - 1, s, v)).transpose()},
                    {x: build(Utl(t, x, s - 1, k, v)) for x in l}, [(0, x) for x in l])
    return _expansions(lhs, basis, _ladder(s, l, basis))


@_register("prop5.iiip",
           "U^{t,l}_{s,k-1} W_{k-1,k} = (k-l) U^{t,l}_sk + (l+1) U^{t,l+1}_sk",
           "v=1..V s=0..v k=1..v t=0..min(s,k) l=0..t", grouped="l")
def _chk_prop5_iiip(t, l, s, k, v):
    basis = [build(Utl(t, h, s, k, v)) for h in range(t + 2)]
    lhs = _products({x: build(Utl(t, x, s, k - 1, v)) for x in l},
                    {0: build(W(k - 1, k, v))}, [(x, 0) for x in l])
    return _expansions(lhs, basis, _ladder(k, l, basis))


@_register("prop5.iv",
           "W_{s-1,s}^T U^l_{s-1,k} = (s-l) U^l_sk + (l+1) U^{l+1}_sk",
           "v=1..V s=1..v k=0..v l=0..min(s,k)", grouped="l")
def _chk_prop5_iv(l, s, k, v):
    basis = [build(U(h, s, k, v)) for h in range(min(s, k) + 2)]
    lhs = _products({0: build(W(s - 1, s, v)).transpose()},
                    {x: build(U(x, s - 1, k, v)) for x in l}, [(0, x) for x in l])
    return _expansions(lhs, basis, _ladder(s, l, basis))


@_register("prop5.ivp",
           "U^l_{s,k-1} W_{k-1,k} = (k-l) U^l_sk + (l+1) U^{l+1}_sk",
           "v=1..V s=0..v k=1..v l=0..min(s,k)", grouped="l")
def _chk_prop5_ivp(l, s, k, v):
    basis = [build(U(h, s, k, v)) for h in range(min(s, k) + 2)]
    lhs = _products({x: build(U(x, s, k - 1, v)) for x in l},
                    {0: build(W(k - 1, k, v))}, [(x, 0) for x in l])
    return _expansions(lhs, basis, _ladder(k, l, basis))


@_register("prop7.i", "W_is^T F^t_ik = L(s,i) F^t_sk, plus the transposed twin",
           "v=1..V k=0..min(v,4) s=0..k i=0..s t=0..s",
           note="the right-multiplication twin is checked by transposition")
def _chk_prop7_i(i, s, t, k, v):
    lhs = build(W(i, s, v)).transpose() @ build(F(t, i, k, v))
    rhs = opcalc.op_apply(opcalc.L(s, i), build(F(t, s, k, v)))
    bad = _cmp(lhs, rhs)
    if bad:
        return bad
    # transposed right-multiplication analog
    lhs_t = build(F(t, k, i, v)) @ build(W(i, s, v))
    rhs_t = opcalc.op_apply(opcalc.L(s, i), build(F(t, k, s, v)))
    bad = _cmp(lhs_t, rhs_t)
    return ("transposed twin: " + bad) if bad else None


def _prop7_table(i, s, l, top) -> list[list[int]]:
    """Per point x of l, the coefficients C(h,x) C(s-h,i-x) for x <= h <= top(x)."""
    return [[binomial(h, x) * binomial(s - h, i - x) if x <= h <= top(x) else 0
             for h in range(top(max(l)) + 1)] for x in l]


@_register("prop7.ii", "W_is^T U^{tl}_ik = sum_h C(h,l) C(s-h,i-l) U^{th}_sk",
           "v=1..V k=0..min(v,4) s=0..k i=0..s t=0..min(s,k) l=0..t", grouped="l")
def _chk_prop7_ii(i, l, t, s, k, v):
    table = _prop7_table(i, s, l, lambda x: x + s - i)
    lhs = _products({0: build(W(i, s, v)).transpose()},
                    {x: build(Utl(t, x, i, k, v)) for x in l}, [(0, x) for x in l])
    return _expansions(lhs, [build(Utl(t, h, s, k, v)) for h in range(len(table[0]))], table)


@_register("prop7.iip", "W_is^T U^l_ik = sum_h C(h,l) C(s-h,i-l) U^h_sk",
           "v=1..V k=0..min(v,4) s=0..k i=0..s l=0..min(i,k)", grouped="l")
def _chk_prop7_iip(i, l, s, k, v):
    table = _prop7_table(i, s, l, lambda x: s)
    lhs = _products({0: build(W(i, s, v)).transpose()},
                    {x: build(U(x, i, k, v)) for x in l}, [(0, x) for x in l])
    return _expansions(lhs, [build(U(h, s, k, v)) for h in range(len(table[0]))], table)


# ---------------------------------------------------------------------------
# products W F (left multiplication by an inclusion matrix)

@_register("eq23", "W_sj F_jk as a (z+1)-conjugated operator expression",
           "v=1..V k=0..min(v,4) j=0..k s=0..j")
def _chk_eq23(s, j, k, v):
    lhs = build(W(s, j, v)) @ build(F(None, j, k, v))
    g = _scale_zp1(build(F(None, s, k, v)), v - s - k)
    op = opcalc.OperatorExpr({r: Fraction((-1) ** r * binomial(v - s - r, v - j), factorial(r))
                              for r in range(j - s + 1)})
    rhs = _scale_zp1(opcalc.op_apply(op, g), j + k - v)
    return _cmp(lhs, rhs)


def a_pl(p: int, l: int, s: int, j: int, k: int, v: int) -> int:
    """Coefficient a_{p,l} of the W_sj F_jk expansion (validated variant).

    The alternating (-1)^r inside the sum is required for the eq24 expansion
    to hold; the unsigned variant fails already at (v,s,j,k) = (3,0,1,1).
    """
    return sum((-1) ** r * binomial(r, l) * binomial(v - s - r, v - j)
               * binomial(v - s - k, r - p) for r in range(j - s + 1))


@_register("eq24", "W_sj F_jk = sum_p (z+1)^p D^p F_sk / p! * sum_l ...",
           "v=1..V k=0..min(v,4) j=0..k s=0..j",
           note="a_{p,l} carries (-1)^r inside the r-sum (validated variant)")
def _chk_eq24(s, j, k, v):
    lhs = build(W(s, j, v)) @ build(F(None, j, k, v))
    fsk = build(F(None, s, k, v))
    n = j - s
    pairs = []
    for p in range(n + 1):
        outer = sum((_zp1(n - l) * ((-1) ** l * a_pl(p, l, s, j, k, v))
                     for l in range(n + 1)), Poly())
        pairs.append((_zp1(p) * outer * Fraction(1, factorial(p)), fsk))
        fsk = fsk.derive()
    return _cmp(lhs, ExactMatrix.lincomb(pairs, *fsk.shape))


@_register("eq25", "a_{p,l}: terms with r < p vanish",
           "v=1..V k=0..min(v,4) j=0..k s=0..j",
           note="C(v-s-k, r-p) = 0 for r < p by the extended convention")
def _chk_eq25(s, j, k, v):
    n = j - s
    for p in range(n + 1):
        for l in range(n + 1):
            head = sum((-1) ** r * binomial(r, l) * binomial(v - s - r, v - j)
                       * binomial(v - s - k, r - p) for r in range(p))
            if head != 0:
                return f"r < p terms sum to {head} at (p,l)=({p},{l})"
            tail = sum((-1) ** r * binomial(r, l) * binomial(v - s - r, v - j)
                       * binomial(v - s - k, r - p) for r in range(p, n + 1))
            if a_pl(p, l, s, j, k, v) != tail:
                return f"full sum differs from r >= p sum at (p,l)=({p},{l})"
    return None


# ---------------------------------------------------------------------------
# factoring through W_tk

@_register("eq26", "F^t_sk = X^k_st W_tk", "v=1..V k=0..v t=0..k s=0..v")
def _chk_eq26(s, t, k, v):
    lhs = build(F(t, s, k, v))
    rhs = build(X(s, t, k, v)) @ build(W(t, k, v))
    return _cmp(lhs, rhs)


@_register("eq27", "xi^{k+1}_{theta+1,t+1} = xi^{k+1}_{theta,t+1} + z xi^k_{theta,t}",
           "k=0..max(8,min(V+2,10)) t=0..k theta=0..t")
def _chk_eq27(theta, t, k):
    lhs = xi(theta + 1, t + 1, k + 1)
    rhs = xi(theta, t + 1, k + 1) + Poly((0, 1)) * xi(theta, t, k)
    return _cmp_poly(lhs, rhs, f"xi recursion at {(theta, t, k)}")


@_register("eq28", "D xi^{k+1}_{theta+1,t+1} = (theta+1) xi^k_{theta,t}",
           "k=0..max(8,min(V+2,10)) t=0..k theta=0..t",
           note="the derivative carries theta+1 (validated; matches psi's recursion)")
def _chk_eq28(theta, t, k):
    lhs = xi(theta + 1, t + 1, k + 1).derive()
    rhs = xi(theta, t, k) * (theta + 1)
    return _cmp_poly(lhs, rhs, f"xi derivative at {(theta, t, k)}")


@_register("eq29", "xi^k_{theta,t}(-1) closed form incl. the (0,0) convention",
           "k=0..max(8,min(V+2,10)) t=0..k theta=0..t")
def _chk_eq29(theta, t, k):
    direct = xi(theta, t, k).eval(-1)
    closed = xi_at_minus1(theta, t, k)
    if direct != closed:
        return f"xi({theta},{t},{k})(-1): defining sum {direct} != closed form {closed}"
    return None


@_register("eq30", "U^{tl}_sk = Y^{kl}_st W_tk", "v=1..V k=0..v t=0..k s=0..v l=0..t",
           note="Y numerator (k-t) validated; the (k-l) variant fails the grid")
def _chk_eq30(s, t, k, l, v):
    lhs = build(Utl(t, l, s, k, v))
    rhs = build(Y(s, t, k, l, v)) @ build(W(t, k, v))
    return _cmp(lhs, rhs)


# ---------------------------------------------------------------------------
# block decompositions

def _check_blocks(kind):
    actual, expected = block_decompose(kind)
    for pos, (got, want) in zip(("TL", "TR", "BL", "BR"), zip(actual, expected)):
        bad = _cmp(got, want)
        if bad:
            return f"{pos} block: {bad}"
    return None


@_register("blocks.i", "recursive structure of F^t_sk(v)",
           "v=1..V s=1..v k=1..v t=0..min(s,k)")
def _chk_blocks_i(t, s, k, v):
    return _check_blocks(F(t, s, k, v))


@_register("blocks.ii", "recursive structure of F_sk(v)", "v=1..V s=1..v k=1..v")
def _chk_blocks_ii(s, k, v):
    return _check_blocks(F(None, s, k, v))


@_register("blocks.iii", "recursive structure of U^{t,l}_sk(v)",
           "v=1..V s=1..v k=1..v t=0..min(s,k) l=0..t")
def _chk_blocks_iii(t, l, s, k, v):
    return _check_blocks(Utl(t, l, s, k, v))


@_register("blocks.iv", "recursive structure of U^l_sk(v)",
           "v=1..V s=1..v k=1..v l=0..min(s,k)")
def _chk_blocks_iv(l, s, k, v):
    return _check_blocks(U(l, s, k, v))


@_register("blocks.v", "recursive structure of N^t_sk(v)",
           "v=1..V s=1..v k=1..v t=0..min(s,k)")
def _chk_blocks_v(t, s, k, v):
    return _check_blocks(N(t, s, k, v))


@_register("blocks.vi", "recursive structure of A^t_sk(v)",
           "v=1..V s=1..v k=1..v t=0..min(s,k)")
def _chk_blocks_vi(t, s, k, v):
    return _check_blocks(A(t, s, k, v))


# ---------------------------------------------------------------------------
# scheme relations

@_register("sec7.remark", "(U^t_sk)^T = U^t_ks and sum_l U^{tl}_sk = J",
           "v=1..V s=0..v k=0..v t=0..min(s,k)")
def _chk_sec7_remark(t, s, k, v):
    bad = _cmp(build(U(t, s, k, v)).transpose(), build(U(t, k, s, v)))
    if bad:
        return "transpose: " + bad
    total = ExactMatrix.lincomb(((1, build(Utl(t, l, s, k, v))) for l in range(t + 1)),
                                 binomial(v, s), binomial(v, k))
    bad = _cmp(total, ExactMatrix.ones(binomial(v, s), binomial(v, k)))
    return ("row sum: " + bad) if bad else None


@_register("eq31", "U^{>=l}_sk = sum_i (-1)^(i-l) C(i-1,l-1) A^i_sk (l >= 1)",
           "v=1..V s=0..v k=0..v l=1..s", grouped="l")
def _chk_eq31(l, s, k, v):
    ins = range(s + 1)
    return _expansions(_stacked(build(Uge(x, s, k, v)) for x in l),
                       [build(A(i, s, k, v)) for i in ins],
                       [[(-1) ** (i - x) * binomial(i - 1, x - 1) if i >= x else 0 for i in ins]
                        for x in l])


@_register("prop11", "r and p intersection numbers of J(v,k)",
           "v=1..V k=0..v i=0..k j=0..k", grouped="i j")
def _chk_prop11(i, j, k, v):
    points, ls = list(zip(i, j)), range(k + 1)
    parts = []
    for kind, numbers, what in ((A, intersection_r, "A-basis (r numbers): "),
                                (U, intersection_p, "U-basis (p numbers): ")):
        basis = [build(kind(l, k, k, v)) for l in ls]
        lhs = _products({x: basis[x] for x in dict.fromkeys(i)},
                        {y: basis[y] for y in dict.fromkeys(j)}, points)
        table = [[numbers(v, k, x, y, l) for l in ls] for x, y in points]
        parts.append([what + w if w else None for w in _expansions(lhs, basis, table)])
    return [a or u for a, u in zip(*parts)]


# ---------------------------------------------------------------------------
# runner

def run_identity(name: str, **params) -> CheckResult:
    """Run one registered identity at one parameter tuple."""
    if name not in REGISTRY:
        raise KeyError(f"unknown identity {name!r}")
    return REGISTRY[name].run(**params)


@dataclass
class SuiteReport:
    v_max: int
    pattern: str
    elapsed: float = 0.0
    cases: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)  # per identity
    failures: list[CheckResult] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_cases(self) -> int:
        return sum(self.cases.values())

    def to_text(self) -> str:
        lines = [f"identity suite: v <= {self.v_max}, filter {self.pattern!r}"]
        for name in sorted(self.cases):
            nfail = sum(1 for f in self.failures if f.name == name)
            status = "ok" if nfail == 0 else f"{nfail} FAILED"
            line = f"  {name:<12} {self.cases[name]:>6} cases  {status}"
            if name in self.notes:
                line += f"  [{self.notes[name]}]"
            lines.append(line)
        for f in self.failures[:20]:
            lines.append(f"  FAIL {f.name} {f.params}: {f.detail}")
        lines.append(f"total: {self.total_cases} cases, "
                     f"{len(self.failures)} failures, {self.elapsed:.1f}s")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "v_max": self.v_max, "pattern": self.pattern, "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
            "cases": dict(sorted(self.cases.items())),
            "seconds": {name: round(self.seconds[name], 4) for name in sorted(self.seconds)},
            "notes": self.notes,
            "failures": [{"name": f.name, "params": f.params, "detail": f.detail}
                         for f in self.failures],
        }


def run_suite(v_max: int = 8, pattern: str = "all",
              progress: Callable[[str, int], None] | None = None) -> SuiteReport:
    """Run every matching identity over its full parameter grid with v <= v_max."""
    if v_max < 2:
        raise ValueError("v_max must be >= 2")
    pat = "*" if pattern in ("all", "") else pattern
    names = [n for n in sorted(REGISTRY) if fnmatch(n, pat)]
    if not names:
        raise KeyError(f"no identities match {pattern!r}")
    report = SuiteReport(v_max, pattern)
    start = time.monotonic()
    for name in names:
        check = REGISTRY[name]
        count = 0
        began = time.monotonic()
        for result in check.results(v_max):
            count += 1
            if not result.ok:
                report.failures.append(result)
        report.seconds[name] = time.monotonic() - began
        report.cases[name] = count
        if check.note:
            report.notes[name] = check.note
        if progress is not None:
            progress(name, count)
    report.elapsed = time.monotonic() - start
    return report
