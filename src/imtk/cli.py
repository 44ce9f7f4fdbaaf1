"""Command-line front-end: build/export matrices, run the identity suite,
compute and verify spectra and ranks, emit Johnson-scheme tables.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or parameter
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fnmatch import fnmatch
from fractions import Fraction

from .build import KINDS, MatrixKind, build
from .exactalg import ExactMatrix, Poly, random_prime
from .scheme import (conversion_matrix, intersection_p, intersection_r,
                     scheme_basis, verify_scheme_axioms)
from .spectra import (SpectrumSpec, _quotient_rank, rank_formula, sampled_eval_points,
                      spectrum_of, verify_spectrum)
from .verify import REGISTRY, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# matrix documents

def encode_entry(x):
    """int -> "n", Fraction -> "p/q", Poly -> list of coefficient strings."""
    if isinstance(x, Poly):
        return [str(c) for c in x.coeffs]
    return str(x)


def decode_entry(obj):
    if isinstance(obj, list):
        return Poly([Fraction(c) for c in obj])
    return _scalar_from_str(obj)


def _scalar_from_str(s: str):
    f = Fraction(s)
    return int(f) if f.denominator == 1 else f


def _entry_type(m: ExactMatrix) -> str:
    if m.max_degree():
        return "polynomial"
    return "integer" if m.den == 1 else "rational"


_PARAM_FIELDS = ("v", "s", "k", "t", "l", "i")


def matrix_document(kind: MatrixKind, m: ExactMatrix) -> dict:
    params = {f: getattr(kind, f) for f in _PARAM_FIELDS if getattr(kind, f) is not None}
    return {
        "kind": kind.tag,
        "params": params,
        "rows": m.nrows,
        "cols": m.ncols,
        "subset_order": "lex",
        "entry_type": _entry_type(m),
        "entries": [[encode_entry(x) for x in row] for row in m.data],
    }


def parse_matrix_document(doc: dict) -> tuple[MatrixKind, ExactMatrix]:
    kind = MatrixKind(doc["kind"], **doc["params"])
    data = [[decode_entry(x) for x in row] for row in doc["entries"]]
    m = ExactMatrix(data, kind.row_family, kind.col_family)
    if m.shape != (doc["rows"], doc["cols"]):
        raise ValueError("document dimensions do not match entries")
    return kind, m


def matrix_csv(m: ExactMatrix) -> str:
    if _entry_type(m) == "polynomial":
        raise UsageError("csv output is only available for scalar matrices")
    return "\n".join(",".join(str(x) for x in row) for row in m.data) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing

def _add_kind_args(p: argparse.ArgumentParser):
    p.add_argument("--kind", required=True, choices=list(KINDS))
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--s", type=int, default=None,
                   help="row subset size (defaults to --k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--i", type=int, default=None)


def kind_from_args(args, *, force_square: bool = False) -> MatrixKind:
    s = args.k if args.s is None else args.s
    if force_square and s != args.k:
        raise UsageError("this command needs a square matrix (--s equal to --k)")
    try:
        return MatrixKind(args.kind, v=args.v, s=s, k=args.k,
                          t=args.t, l=args.l, i=args.i)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_build(args, rng) -> int:
    kind = kind_from_args(args)
    m = build(kind)
    if args.format == "csv":
        text = matrix_csv(m)
    else:
        text = json.dumps(matrix_document(kind, m), indent=2) + "\n"
    _write_out(text, args.out)
    return EXIT_OK


def cmd_verify(args, rng) -> int:
    pattern = args.identity
    if pattern not in ("all", "*") and not any(
            fnmatch(name, pattern) for name in REGISTRY):
        print(f"error: unknown identity {pattern!r}; known: "
              + ", ".join(sorted(REGISTRY)), file=sys.stderr)
        return EXIT_USAGE
    if args.v_max < 2:
        raise UsageError("--v-max must be >= 2")
    report = run_suite(args.v_max, pattern,
                       progress=(_progress if args.progress else None))
    print(json.dumps(report.to_dict(), indent=1) if args.json else report.to_text())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _progress(name: str, cases: int) -> None:
    print(f"  ... {name}: {cases} cases", file=sys.stderr)


def _print_spectrum(spec: SpectrumSpec) -> None:
    print(f"order {spec.order}")
    print(" j   eigenvalue   multiplicity")
    for j, (val, mult) in enumerate(spec.pairs):
        print(f" {j:<3} {_fmt_value(val):<12} {mult}")
    if spec.zero_tail:
        print(f" tail 0            {spec.zero_tail}")
    if spec.is_scalar():
        merged = " ".join(f"{_fmt_value(v)}^{m}" for v, m in spec.distinct())
        print(f"distinct: {merged}")


def _fmt_value(val) -> str:
    if isinstance(val, Poly):
        return repr(val)[5:-1]  # strip the Poly(...) wrapper
    return str(val)


def cmd_spectrum(args, rng) -> int:
    kind = kind_from_args(args, force_square=True)
    try:
        spec = spectrum_of(kind)
    except ValueError as e:
        raise UsageError(str(e)) from None
    print(f"spectrum of {kind.describe()}")
    _print_spectrum(spec)
    if args.check == "none":
        return EXIT_OK
    m = build(kind)
    ok = True
    if spec.is_scalar():
        report = verify_spectrum(m, spec, mode=args.check, label=kind.describe())
        _print_report(report)
        ok = report.ok
    else:
        for z0 in sampled_eval_points():
            report = verify_spectrum(m.eval_at(z0), spec.eval_at(z0), mode=args.check,
                                     label=f"{kind.describe()} at z={z0}")
            _print_report(report)
            ok = ok and report.ok
    print("verified" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _print_report(report) -> None:
    print(f"check[{report.matrix}] mode={report.mode} primes={list(report.primes)}")
    for c in report.checks:
        print(f"  {'ok ' if c.ok else 'FAIL'} {c.name}: {c.detail}")


def cmd_rank(args, rng) -> int:
    kind = kind_from_args(args)
    formula_rank = computed_rank = None
    if args.method in ("formula", "both"):
        try:
            formula_rank = rank_formula(kind)
        except ValueError as e:
            if args.method == "formula":
                raise UsageError(str(e)) from None
            print(f"note: no rank formula ({e})")
    if args.method in ("modp", "both"):
        m = build(kind)
        if not m.all_int():
            raise UsageError("mod-p rank needs an integer matrix kind")
        quotient = _quotient_rank(m)
        if quotient is None:
            print("rank[modp] is refused: M is not g(theta), so no quotient proves its rank")
            return EXIT_VERIFY_FAIL
        # the quotient's rank over Q is the rank mod every prime that does
        # not divide its unit: the first such prime proves it
        used = [random_prime(rng)]
        while quotient.mod(used[-1]) is None:
            used.append(random_prime(rng))
        computed_rank = quotient.rank
        print("primes: " + ", ".join(map(str, used)))
        print(f"rank[modp] is proved by the quotient of J({kind.v},{kind.s})")
    if args.method == "formula":
        print(f"rank[formula] = {formula_rank}")
        return EXIT_OK
    if args.method == "modp" or formula_rank is None:  # nothing to compare with
        print(f"rank[modp] = {computed_rank}")
        return EXIT_OK
    match = formula_rank == computed_rank
    print(f"rank[formula] = {formula_rank}")
    print(f"rank[modp]    = {computed_rank}")
    print("match" if match else "MISMATCH")
    return EXIT_OK if match else EXIT_VERIFY_FAIL


def cmd_johnson(args, rng) -> int:
    v, k = args.v, args.k
    if not 0 <= k <= v:
        raise UsageError("need 0 <= k <= v")
    if args.emit == "axioms":
        report = verify_scheme_axioms(v, k)
        print(f"J({v},{k}) axioms: {'pass' if report.ok else 'FAIL'} "
              f"({report.products_checked} products checked)")
        for f in report.failures:
            print(f"  FAIL: {f}")
        return EXIT_OK if report.ok else EXIT_VERIFY_FAIL
    if args.emit == "p-numbers":
        print(f"intersection numbers of J({v},{k}) (intersection-size indexing)")
        for i in range(k + 1):
            for j in range(k + 1):
                for l in range(k + 1):
                    r = intersection_r(v, k, i, j, l)
                    p = intersection_p(v, k, i, j, l)
                    print(f"r[{i},{j},{l}] = {r:<8} p[{i},{j},{l}] = {p}")
        return EXIT_OK
    # bases
    tags = ("X", "A", "Uge")
    for tag in tags:
        basis = scheme_basis(v, k, tag)
        names = ", ".join(_basis_member_name(tag, i, k) for i in range(k + 1))
        print(f"{tag} basis of J({v},{k}): {names}")
    for src in tags:
        for dst in tags:
            if src == dst:
                continue
            coef = conversion_matrix(v, k, src, dst)
            print(f"conversion {src} -> {dst}: {coef}")
    return EXIT_OK


def _basis_member_name(tag: str, i: int, k: int) -> str:
    if tag == "X":
        return f"X_{i} = U^{k - i}"
    if tag == "A":
        return f"A^{i}"
    return f"U^>={i}"


# ---------------------------------------------------------------------------
# parser / entry point

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="imtk",
        description="Exact intersection-matrix toolkit: builders, identity "
                    "suite, spectra, ranks, Johnson scheme tables.")
    top.add_argument("--seed", type=int, default=None,
                     help="seed for the primes of a mod-p rank")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a matrix and write it out")
    _add_kind_args(p)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--identity", default="all",
                   help="identity name or glob (default all)")
    p.add_argument("--v-max", type=int, default=8, dest="v_max")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON, with the seconds per identity")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="closed-form spectrum with verification")
    _add_kind_args(p)
    p.add_argument("--check", choices=["none", "modp", "exact"], default="none")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("rank", help="rank by closed formula and/or mod-p")
    _add_kind_args(p)
    p.add_argument("--method", choices=["modp", "formula", "both"], default="both")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("johnson", help="Johnson scheme tables and axiom checks")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit", choices=["axioms", "p-numbers", "bases"],
                   required=True)
    p.set_defaults(func=cmd_johnson)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    rng = random.Random(args.seed)
    try:
        return args.func(args, rng)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
