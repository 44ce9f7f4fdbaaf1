import json
import subprocess
import sys
from pathlib import Path

import pytest

from imtk.build import F, MatrixKind, N, U, Utl, W, X, Y, build
from imtk.cli import (main, matrix_csv, matrix_document, parse_matrix_document)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "imtk.cli", *args],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
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


def test_spectrum_outside_hypotheses_exits_2():
    proc = run_cli("spectrum", "--kind", "N", "--t", "2", "--k", "3", "--v", "5")
    assert proc.returncode == 2


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


def test_threads_env_fallback():
    proc = subprocess.run(
        [sys.executable, "-m", "imtk.cli", "--seed", "4", "spectrum", "--kind",
         "N", "--t", "1", "--k", "2", "--v", "5", "--check", "modp"],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "IMTK_THREADS": "2"},
    )
    assert proc.returncode == 0 and "verified" in proc.stdout
