"""Golden fixtures: matrix documents, CSV output and comparison witnesses.

The files under tests/data were written by the list-of-entries matrix code
that preceded the coefficient-stack representation; every test here asserts
that the current code reproduces them byte for byte.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from imtk.build import F, U, W, Y, build
from imtk.cli import main
from imtk.exactalg import ExactMatrix, Poly
from imtk.verify import _cmp

DATA = Path(__file__).resolve().parent / "data"

# one small member of each of the ten kinds: integer, rational (Y) and
# polynomial (F, X) documents
BUILD_ARGS = {
    "W": ["--s", "1", "--k", "2", "--v", "4"],
    "Wbar": ["--s", "1", "--k", "2", "--v", "4"],
    "U": ["--l", "1", "--s", "2", "--k", "2", "--v", "4"],
    "Uge": ["--l", "1", "--s", "2", "--k", "3", "--v", "5"],
    "A": ["--i", "1", "--s", "2", "--k", "3", "--v", "5"],
    "N": ["--t", "1", "--s", "2", "--k", "2", "--v", "4"],
    "F": ["--t", "2", "--s", "2", "--k", "3", "--v", "5"],
    "Utl": ["--t", "2", "--l", "1", "--s", "2", "--k", "3", "--v", "5"],
    "X": ["--s", "2", "--t", "1", "--k", "2", "--v", "4"],
    "Y": ["--s", "2", "--t", "2", "--k", "3", "--l", "1", "--v", "5"],
}


def _build_output(tmp_path, kind, fmt):
    out = tmp_path / f"{kind}.{fmt}"
    assert main(["build", "--kind", kind, *BUILD_ARGS[kind],
                 "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("kind", sorted(BUILD_ARGS))
def test_build_json_matches_golden(tmp_path, kind):
    assert _build_output(tmp_path, kind, "json") == (DATA / f"build_{kind}.json").read_bytes()


def test_rational_csv_matches_golden(tmp_path):
    assert _build_output(tmp_path, "Y", "csv") == (DATA / "build_Y.csv").read_bytes()


def _one_entry(shape, i, j, x):
    return ExactMatrix([[x if (r, c) == (i, j) else 0 for c in range(shape[1])]
                        for r in range(shape[0])])


def witness_cases():
    """Name -> (lhs, rhs) pairs whose _cmp witnesses are recorded."""
    w, y, f = build(W(1, 2, 4)), build(Y(2, 2, 3, 1, 5)), build(F(2, 2, 3, 5))
    z = Poly((0, 1))
    return {
        "int": (w, w + _one_entry(w.shape, 1, 2, 3)),
        "int_first_of_two": (w + _one_entry(w.shape, 3, 0, -7),
                             w + _one_entry(w.shape, 2, 5, 1)),
        "rational": (y, y + _one_entry(y.shape, 2, 4, Fraction(1, 3))),
        "rational_vs_int": (y, y.scale(6)),
        "poly": (f, f + _one_entry(f.shape, 0, 1, z ** 2 - Fraction(1, 2))),
        "poly_vs_scalar": (f, f.coeff_matrix(0)),
        "scalar_vs_poly": (build(U(1, 2, 2, 4)), build(U(1, 2, 2, 4)).scale(z + 1)),
        "shape": (w, build(W(1, 2, 5))),
        "equal": (f, build(F(2, 2, 3, 5))),
    }


def test_cmp_witnesses_match_golden():
    want = json.loads((DATA / "cmp_witnesses.json").read_text(encoding="utf-8"))
    got = {name: _cmp(lhs, rhs) for name, (lhs, rhs) in witness_cases().items()}
    assert got == want
