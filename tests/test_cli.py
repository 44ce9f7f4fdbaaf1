import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from imtk.build import F, MatrixKind, N, U, Utl, W, X, Y, build
from imtk.cli import _build_parser, main, matrix_csv, matrix_document, parse_matrix_document
from imtk.exactalg import ExactMatrix, rank_modp
from imtk.spectra import sampled_eval_points, spectrum_of, verify_spectrum

from oracles import complement_kinds, square_kinds

SRC = str(Path(__file__).resolve().parent.parent / "src")
# the CLI runs in a clean environment, but with the caller's BLAS thread count
BLAS_ENV = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",) if k in os.environ}


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "imtk.cli", *args],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", **BLAS_ENV},
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


# ---------------------------------------------------------------------------
# documents

def test_document_round_trip_every_kind():
    from imtk.build import A, Uge, Wbar
    kinds = []
    for v in range(1, 7):
        s, k = min(2, v), min(2, v)
        kinds += [W(1, k, v), Wbar(s, k, v), N(1, s, k, v), A(1, s, k, v),
                  U(1, s, k, v), Uge(1, s, k, v), Utl(1, 0, s, k, v),
                  F(None, s, min(3, v), v)]
        if v >= 3:
            kinds += [X(2, 1, 2, v), Y(2, 2, 2, 1, v)]
    for kind in kinds:
        m = build(kind)
        doc = matrix_document(kind, m)
        kind2, m2 = parse_matrix_document(json.loads(json.dumps(doc)))
        assert kind2 == kind
        assert m2 == m


def test_csv_rejects_polynomials():
    from imtk.cli import UsageError
    m = build(F(None, 1, 1, 3))
    with pytest.raises(UsageError):
        matrix_csv(m)
    assert matrix_csv(build(W(1, 2, 3))) == "1,1,0\n1,0,1\n0,1,1\n"
    # rational scalar matrices are fine in csv
    assert "/" in matrix_csv(build(Y(2, 2, 3, 0, 5)))


# ---------------------------------------------------------------------------
# subcommands end to end

def test_build_w_golden():
    proc = run_cli("build", "--kind", "W", "--s", "1", "--k", "2", "--v", "3",
                   check=True)
    doc = json.loads(proc.stdout)
    assert doc["rows"] == doc["cols"] == 3
    assert doc["entries"] == [["1", "1", "0"], ["1", "0", "1"], ["0", "1", "1"]]
    assert doc["subset_order"] == "lex"
    assert doc["entry_type"] == "integer"


def test_build_f_polynomial_degrees():
    proc = run_cli("build", "--kind", "F", "--t", "2", "--s", "2", "--k", "3",
                   "--v", "6", check=True)
    doc = json.loads(proc.stdout)
    assert doc["entry_type"] == "polynomial"
    assert doc["rows"] == 15 and doc["cols"] == 20
    assert max(len(e) for row in doc["entries"] for e in row) <= 3  # degree <= 2


def test_build_csv_polynomial_exits_2():
    proc = run_cli("build", "--kind", "F", "--t", "1", "--s", "1", "--k", "2",
                   "--v", "4", "--format", "csv")
    assert proc.returncode == 2


def test_build_invalid_params_exits_2():
    proc = run_cli("build", "--kind", "W", "--s", "5", "--k", "2", "--v", "3")
    assert proc.returncode == 2
    proc = run_cli("build", "--kind", "N", "--s", "2", "--k", "2", "--v", "5")
    assert proc.returncode == 2  # missing --t


def test_build_negative_unused_parameter_exits_2():
    # W uses none of t, l and i, and still refuses a negative one
    proc = run_cli("build", "--kind", "W", "--s", "1", "--k", "2", "--v", "4", "--t", "-1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: t, l and i must be >= 0\n"


def test_build_io_error_exits_3():
    proc = run_cli("build", "--kind", "W", "--s", "1", "--k", "2", "--v", "3",
                   "--out", "/nonexistent-dir/out.json")
    assert proc.returncode == 3


def test_build_out_file(tmp_path):
    out = tmp_path / "w.json"
    assert main(["build", "--kind", "W", "--s", "1", "--k", "2", "--v", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rows"] == 3


def test_verify_single_identity_and_exit_codes():
    proc = run_cli("verify", "--identity", "eq1", "--v-max", "4", check=True)
    assert "eq1" in proc.stdout and "0 failures" in proc.stdout
    proc = run_cli("verify", "--identity", "nosuch")
    assert proc.returncode == 2


def test_verify_v_max_below_2_exits_2():
    for v_max in ("1", "-3"):
        proc = run_cli("verify", "--v-max", v_max)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "--v-max" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
    proc = run_cli("verify", "--identity", "eq1", "--v-max", "2", check=True)
    assert "0 failures" in proc.stdout


def test_verify_json_reports_cases_seconds_and_ok(monkeypatch, capsys):
    recorded = json.loads((Path(__file__).resolve().parent / "data" / "domains.json").read_text())
    proc = run_cli("verify", "--identity", "eq1*", "--v-max", "4", "--json", check=True)
    doc = json.loads(proc.stdout)
    assert set(doc) == {"v_max", "pattern", "ok", "elapsed_seconds", "cases", "seconds",
                        "notes", "failures"}
    names = sorted(n for n in recorded if n.startswith("eq1"))
    assert doc["ok"] is True and doc["failures"] == [] and doc["v_max"] == 4
    assert doc["cases"] == {n: recorded[n]["4"]["cases"] for n in names}
    assert sorted(doc["seconds"]) == names
    assert all(isinstance(x, float) and x >= 0 for x in doc["seconds"].values())
    # a wrong closed form: exit 1, ok false, and the failures in the document
    from imtk import verify
    monkeypatch.setattr(verify, "_eq20_coef", lambda *args: 0)
    assert main(["verify", "--identity", "eq20", "--v-max", "3", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["cases"] == {"eq20": recorded["eq20"]["3"]["cases"]}
    assert doc["failures"] and all(f["name"] == "eq20" for f in doc["failures"])


def test_verify_eq30_records_variant_note():
    proc = run_cli("verify", "--identity", "eq30", "--v-max", "4", check=True)
    assert "(k-t)" in proc.stdout


def test_spectrum_small_with_float_values():
    proc = run_cli("--seed", "5", "spectrum", "--kind", "U", "--l", "1",
                   "--k", "2", "--v", "5", "--check", "modp", check=True)
    assert "6^1 1^4 -2^5" in proc.stdout
    assert "verified" in proc.stdout


def test_spectrum_a0():
    proc = run_cli("spectrum", "--kind", "A", "--i", "0", "--k", "2", "--v", "5",
                   check=True)
    assert "10^1 0^9" in proc.stdout


def test_spectrum_polynomial_kind_checks_at_samples():
    proc = run_cli("--seed", "5", "spectrum", "--kind", "F", "--t", "1",
                   "--k", "2", "--v", "5", "--check", "modp", check=True)
    assert "at z=" in proc.stdout and "verified" in proc.stdout


def test_each_sampled_point_of_a_polynomial_kind_replays_on_its_own(capsys):
    # point i draws from random.Random(seed_i), seed_i the i-th 64 bits of
    # the main stream: its primes follow from --seed and i alone, however
    # many values the points before it drew
    kind = F(2, 3, 3, 7)
    assert main(["--seed", "5", "spectrum", "--kind", "F", "--t", "2", "--k", "3", "--v", "7",
                 "--check", "modp"]) == 0
    checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check[")]
    main_stream = random.Random(5)
    seeds = [main_stream.getrandbits(64) for _ in sampled_eval_points()]
    m, spec = build(kind), spectrum_of(kind)
    for line, z0, seed in zip(checks, sampled_eval_points(), seeds, strict=True):
        rep = verify_spectrum(m.eval_at(z0), spec.eval_at(z0), rng=random.Random(seed))
        assert rep.ok and line.endswith(f"at z={z0}] mode=modp primes={list(rep.primes)}")


def test_spectrum_outside_hypotheses_exits_2():
    proc = run_cli("spectrum", "--kind", "N", "--t", "2", "--k", "3", "--v", "5")
    assert proc.returncode == 2


def test_spectrum_exact_check_above_order_300_verifies():
    # N^2_(4,4)(11) has order 330 and is g(theta) over J(11,4): the check is
    # proved on its 5 x 5 quotient, with no prime, so the check line lists
    # none and the annihilation line names the quotient proof
    proc = run_cli("--seed", "1", "spectrum", "--kind", "N", "--t", "2", "--k", "4",
                   "--v", "11", "--check", "exact")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.endswith("verified\n")
    lines = proc.stdout.splitlines()
    assert "check[N^2[4,4](11)] mode=exact primes=[]" in lines
    assert ("  ok  annihilation: M = g(theta) over J(11,4), and P(B) e_4 = 0 for its "
            "5 x 5 quotient B: P(M) = 0, proved with no prime") in lines


def test_golden_spectra_leave_numpy_random_unimported():
    # both golden N spectra are proved on their quotients: no probe vector is
    # drawn, so numpy.random (about 6 MB of resident memory) is never imported
    code = ("import sys\n"
            "from imtk.cli import main\n"
            "for args in ('--t 6 --k 7 --v 14', '--t 5 --k 6 --v 13'):\n"
            "    assert main(['--seed', '1', 'spectrum', '--kind', 'N', *args.split(),\n"
            "                 '--check', 'modp']) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", **BLAS_ENV})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_rank_both_small():
    proc = run_cli("--seed", "5", "rank", "--kind", "U", "--l", "2", "--s", "2",
                   "--k", "3", "--v", "8", "--method", "both", check=True)
    assert "match" in proc.stdout


def test_rank_both_without_a_formula_reports_the_modp_rank():
    # Wbar has no closed-form rank: nothing is compared, so nothing mismatches
    proc = run_cli("--seed", "1", "rank", "--kind", "Wbar", "--s", "2", "--k", "2",
                   "--v", "5")
    assert proc.returncode == 0
    assert "note: no rank formula" in proc.stdout
    assert "rank[modp] = 10" in proc.stdout
    assert "MISMATCH" not in proc.stdout and "rank[formula]" not in proc.stdout


def test_rank_formula_of_a_zero_power_of_a_is_0():
    # A^9_(2,2)(5) has entries C(theta, 9) with theta <= 2: the zero matrix
    proc = run_cli("--seed", "1", "rank", "--kind", "A", "--i", "9", "--s", "2", "--k", "2",
                   "--v", "5", "--method", "both", check=True)
    lines = proc.stdout.splitlines()
    assert lines[1:] == ["rank[modp] is proved by the quotient of J(5,2)",
                         "rank[formula] = 0", "rank[modp]    = 0", "match"], proc.stdout


@pytest.mark.parametrize("args", [
    # C(theta, 4), [theta = 4] and [theta >= 4] vanish at every theta <= 3;
    # U^(t,l) has a factor C(theta, l) and is zero for l > t
    ["--kind", "A", "--i", "4"], ["--kind", "U", "--l", "4"], ["--kind", "Uge", "--l", "4"],
    ["--kind", "Utl", "--t", "3", "--l", "4"], ["--kind", "Utl", "--t", "5", "--l", "4"]],
    ids=["A4", "U4", "Uge4", "Utl34", "Utl54"])
def test_a_zero_kind_has_the_zero_spectrum_and_rank_0(capsys, args):
    assert main(["--seed", "1", "spectrum", *args, "--k", "3", "--v", "7",
                 "--check", "exact"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "distinct: 0^35" in out and out[-1] == "verified"
    assert main(["--seed", "1", "rank", *args, "--k", "3", "--v", "7",
                 "--method", "both"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "rank[modp] is proved by the quotient of J(7,3)",
        "rank[formula] = 0", "rank[modp]    = 0", "match"]


def test_a_zero_non_square_u_has_rank_0(capsys):
    # U^3_(2,3)(7): |S & K| <= 2 < 3 for every 2-subset S and 3-subset K.
    # It is not square, so it has no quotient: its rank is a one-sided bound
    assert main(["--seed", "1", "rank", "--kind", "U", "--l", "3", "--s", "2", "--k", "3",
                 "--v", "7", "--method", "both"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "rank[modp] is a lower bound: a rank mod p is at most the rank over Q",
        "rank[formula] = 0", "rank[modp]    = 0", "match"]


@pytest.mark.parametrize("t", [4, 5])
def test_n_above_k_has_the_spectrum_and_rank_of_plus_or_minus_n_k(capsys, t):
    # N^t has entries C(theta - 1, t): for t >= k only theta = 0 gives a
    # nonzero one, (-1)^t, so N^t = (-1)^(t-k) N^k, the disjointness matrix
    # up to sign
    assert main(["--seed", "1", "rank", "--kind", "N", "--t", str(t), "--k", "3", "--v", "7",
                 "--method", "both"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("primes: ") and out[1:] == [
        "rank[modp] is proved by the quotient of J(7,3)",
        "rank[formula] = 35", "rank[modp]    = 35", "match"]
    assert main(["--seed", "1", "spectrum", "--kind", "N", "--t", str(t), "--k", "3",
                 "--v", "7", "--check", "exact"]) == 0
    out = capsys.readouterr().out.splitlines()
    sign = (-1) ** t
    assert f"distinct: {4 * sign}^1 {-3 * sign}^6 {2 * sign}^14 {-sign}^14" in out
    assert out[-1] == "verified"


@pytest.fixture
def ranked_primes(monkeypatch):
    """The primes that `imtk rank` ranks mod, in order."""
    primes = []

    def counted(mm, p):
        primes.append(p)
        return rank_modp(mm, p)

    monkeypatch.setattr("imtk.cli.rank_modp", counted)
    return primes


# the two primes `imtk --seed 5 rank` draws, printed by every rank before a
# full rank stopped taking the second
SEED5_PRIMES = (1584283, 1667641)
# what the line after the primes says of each rank below
RANK_PROOFS = {
    "--kind W --s 2 --k 3 --v 7": f"proved by full rank mod {SEED5_PRIMES[0]}",
    "--kind N --t 1 --s 2 --k 2 --v 5": "proved by the quotient of J(5,2)",
    "--kind U --l 3 --k 6 --v 13": "proved by the quotient of J(13,6)",
    "--kind A --i 3 --k 6 --v 13": "proved by the quotient of J(13,6)",
    "--kind U --l 1 --s 2 --k 3 --v 6": "a lower bound: a rank mod p is at most the rank over Q",
}


@pytest.mark.parametrize("args, rank, eliminations", [
    # W_23(7), 21 x 35 of rank 21: the first prime proves the rank
    (["--kind", "W", "--s", "2", "--k", "3", "--v", "7"], 21, 1),
    # N^1_(2,2)(5), 10 x 10 of rank 5: the quotient over J(5,2) proves it
    # mod the first prime, which does not divide its unit, with no elimination
    (["--kind", "N", "--t", "1", "--s", "2", "--k", "2", "--v", "5"], 5, 0),
    # the dense U^3 (full rank) and A^3 over J(13,6) of the rank-dense benchmark
    (["--kind", "U", "--l", "3", "--k", "6", "--v", "13"], 1716, 0),
    (["--kind", "A", "--i", "3", "--k", "6", "--v", "13"], 286, 0),
    # U^1_(2,3)(6), 15 x 20 of rank 10, is not square, so it has no quotient
    (["--kind", "U", "--l", "1", "--s", "2", "--k", "3", "--v", "6"], 10, 2),
])
def test_rank_takes_the_second_prime_only_below_full_rank(capsys, ranked_primes, args,
                                                          rank, eliminations):
    # a second prime only below a proved rank: full rank, or the quotient's
    assert main(["--seed", "5", "rank", *args, "--method", "both"]) == 0
    assert ranked_primes == list(SEED5_PRIMES[:eliminations])
    used = SEED5_PRIMES[:max(eliminations, 1)]
    assert capsys.readouterr().out.splitlines() == [
        "primes: " + ", ".join(map(str, used)), f"rank[modp] is {RANK_PROOFS[' '.join(args)]}",
        f"rank[formula] = {rank}", f"rank[modp]    = {rank}", "match"]


@pytest.mark.parametrize("args, primes, rank", [
    # N^1_(2,2)(5) has unit q(0) = -6 and still rank 5 mod 2
    (["--kind", "N", "--t", "1", "--k", "2", "--v", "5"], (2, SEED5_PRIMES[1]), 5),
    # N^1_(3,3)(7), unit q(0) = -10: rank 6 mod 2, below the quotient's 7
    (["--kind", "N", "--t", "1", "--k", "3", "--v", "7"], (2, SEED5_PRIMES[1]), 7),
    # U^1_(3,3)(7), invertible, unit pi(0) = 162: rank 13 mod 3
    (["--kind", "U", "--l", "1", "--k", "3", "--v", "7"], (3, SEED5_PRIMES[1]), 35),
    # 162 = 2 3^4: both drawn primes divide it, so a third is drawn
    (["--kind", "U", "--l", "1", "--k", "3", "--v", "7"], (2, 3, 5), 35),
])
def test_rank_skips_a_prime_dividing_the_quotients_unit(capsys, monkeypatch, ranked_primes,
                                                       args, primes, rank):
    # mod a p that divides the unit the quotient proves nothing, so the next
    # prime is taken, and still nothing is eliminated
    forced = iter(primes)
    monkeypatch.setattr("imtk.cli.random_prime", lambda rng: next(forced))
    assert main(["rank", *args, "--method", "both"]) == 0
    assert ranked_primes == []
    k, v = args[-3], args[-1]
    assert capsys.readouterr().out.splitlines() == [
        "primes: " + ", ".join(map(str, primes)),
        f"rank[modp] is proved by the quotient of J({v},{k})",
        f"rank[formula] = {rank}", f"rank[modp]    = {rank}", "match"]


def test_imtk_rank_of_every_square_shaped_kind_takes_the_quotient(capsys, monkeypatch):
    # s = k or s + k = v: the quotient over J(v, s) proves every rank, so an
    # elimination would raise
    def refused(mm, p):
        raise AssertionError("eliminated")

    monkeypatch.setattr("imtk.cli.rank_modp", refused)
    parser, ranked = _build_parser(), 0  # main's parser, made once for 4032 runs
    for kind in (*square_kinds(9), *complement_kinds(9)):
        if not build(kind).all_int():
            continue
        args = parser.parse_args(["rank", f"--kind={kind.tag}", "--method=modp", *(
            f"--{f}={getattr(kind, f)}" for f in ("v", "s", "k", "t", "l", "i")
            if getattr(kind, f) is not None)])
        assert args.func(args, random.Random(1)) == 0, kind.describe()
        out = capsys.readouterr().out.splitlines()
        assert out[1] == f"rank[modp] is proved by the quotient of J({kind.v},{kind.s})", \
            kind.describe()
        ranked += 1
    assert ranked == 2352 + 1680


def test_rank_of_a_matrix_off_the_class_pattern_takes_the_second_prime(
        capsys, monkeypatch, ranked_primes):
    # N^1_(3,3)(7) with one symmetric pair of entries moved off its class
    # value: it has no quotient, so its rank mod p is only a lower bound
    kind = N(1, 3, 3, 7)
    m = build(kind)
    arr = m.as_int_array().astype("int64")
    arr[1, 2] = arr[2, 1] = arr[1, 2] + 1
    off = ExactMatrix(arr, m.row_family, m.col_family)
    monkeypatch.setattr("imtk.cli.build", lambda k: off if k == kind else build(k))
    assert main(["--seed", "5", "rank", "--kind", "N", "--t", "1", "--k", "3", "--v", "7",
                 "--method", "modp"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert ranked_primes == list(SEED5_PRIMES) and out[:2] == [
        "primes: " + ", ".join(map(str, SEED5_PRIMES)),
        "rank[modp] is a lower bound: a rank mod p is at most the rank over Q"]


def test_imtk_rank_of_a_complement_shaped_kind_makes_no_dense_copy(monkeypatch, capsys,
                                                                   ranked_primes):
    kind = U(1, 5, 7, 12)  # 792 x 792, columns the complements' size
    m = build(kind)
    n = m.nrows
    m.mag  # computed before tracing
    tracemalloc.start()
    try:
        rc = main(["--seed", "1", "rank", "--kind", "U", "--l", "1", "--s", "5", "--k", "7",
                   "--v", "12", "--method", "modp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and ranked_primes == []
    assert capsys.readouterr().out.splitlines()[1:] == [
        "rank[modp] is proved by the quotient of J(12,5)", "rank[modp] = 792"]
    # one float64 copy of M, the working copy that an elimination starts
    # from, is n * n * 8 bytes.  The quotient reverses M's columns as a view
    # and compares it with g(theta) over J(12,5) region by region, at the
    # regions' small thetas, so the whole run, the build of M's int8 stack
    # (0.125 of a copy) included, peaks at about 0.34
    assert peak < n * n * 8, peak / (n * n * 8)


def test_rank_formula_outside_hypotheses_exits_2():
    proc = run_cli("rank", "--kind", "N", "--t", "2", "--k", "3", "--v", "5",
                   "--method", "formula")
    assert proc.returncode == 2


def test_johnson_axioms_and_tables():
    proc = run_cli("johnson", "--v", "5", "--k", "2", "--emit", "axioms",
                   check=True)
    assert "pass" in proc.stdout
    proc = run_cli("johnson", "--v", "5", "--k", "2", "--emit", "p-numbers",
                   check=True)
    assert "p[1,1,2] = 6" in proc.stdout
    proc = run_cli("johnson", "--v", "4", "--k", "2", "--emit", "bases",
                   check=True)
    assert "X basis" in proc.stdout and "conversion X -> A" in proc.stdout


def test_seed_makes_runs_reproducible():
    args = ("--seed", "42", "spectrum", "--kind", "N", "--t", "1", "--k", "2",
            "--v", "5", "--check", "modp")
    a, b = run_cli(*args, check=True), run_cli(*args, check=True)
    assert a.stdout == b.stdout
