import hashlib
import json
from pathlib import Path

import pytest

from imtk import verify as verify_module
from imtk.build import A, U, build
from imtk.verify import REGISTRY, _grid, run_identity, run_suite


def test_registry_is_complete():
    # one entry per catalogued identity; test_domains_match_the_recorded_grids
    # checks the names against those recorded in tests/data/domains.json
    assert len(REGISTRY) == 54


def test_registry_entries_have_descriptions_and_domains():
    for name, check in REGISTRY.items():
        assert check.description
        params = next(iter(check.domain(3)))
        assert isinstance(params, dict)


def test_domains_match_the_recorded_grids():
    # tests/data/domains.json was recorded from the hand-written generators
    # that the declarative domain specs replaced: for every identity and v_max
    # the case count and sha256(repr(list(domain(v_max)))), which pins the
    # points, their order and the key order of each parameter dict
    recorded = json.loads(
        (Path(__file__).resolve().parent / "data" / "domains.json").read_text())
    assert set(recorded) == set(REGISTRY)
    for name, by_v in recorded.items():
        assert set(by_v) == {str(v) for v in range(2, 9)}, name
        for v_max, want in by_v.items():
            cases = list(REGISTRY[name].domain(int(v_max)))
            got = {"cases": len(cases),
                   "sha256": hashlib.sha256(repr(cases).encode()).hexdigest()}
            assert got == want, (name, v_max)


def test_grid_names_every_parameter_and_applies_where():
    with pytest.raises(ValueError):
        _grid("v=1..V k=0..v", ["s", "k", "v"])
    assert list(_grid("v=1..V k=0..v", ["k", "v"], where="k != 1")(2)) == [
        {"k": 0, "v": 1}, {"k": 0, "v": 2}, {"k": 2, "v": 2}]


def test_run_identity_examples():
    assert run_identity("eq1", i=0, s=1, k=2, v=3).ok
    assert run_identity("eq26", s=2, t=2, k=3, v=6).ok
    assert run_identity("blocks.i", t=1, s=2, k=2, v=5).ok


def test_run_identity_unknown_name():
    with pytest.raises(KeyError):
        run_identity("nosuch", v=3)


def test_failure_carries_witness():
    # eq1 with a wrong coefficient is not an identity; force a failing compare
    from imtk.build import W, build
    from imtk.verify import _cmp
    lhs = build(W(1, 2, 4))
    rhs = build(W(1, 2, 4)).scale(2)
    witness = _cmp(lhs, rhs)
    assert witness is not None and "entry (0," in witness


def test_run_suite_requires_valid_args():
    with pytest.raises(ValueError):
        run_suite(1, "all")
    with pytest.raises(KeyError):
        run_suite(4, "zzz*")


def test_run_suite_eq_family_at_v4():
    report = run_suite(4, "eq*")
    assert report.ok
    assert report.total_cases >= 200
    assert set(report.cases) == {n for n in REGISTRY if n.startswith("eq")}


def test_run_suite_all_at_v6():
    report = run_suite(6, "all")
    assert report.ok, report.to_text()
    assert set(report.cases) == set(REGISTRY)
    assert "eq30" in report.notes


def test_run_suite_blocks_at_v8():
    report = run_suite(8, "blocks.*")
    assert report.ok
    assert set(report.cases) == {f"blocks.{p}" for p in
                                 ("i", "ii", "iii", "iv", "v", "vi")}


def test_report_text_and_dict():
    report = run_suite(3, "lemma6.*")
    text = report.to_text()
    assert "lemma6.i" in text and "0 failures" in text
    d = report.to_dict()
    assert d["ok"] and d["v_max"] == 3


# ---------------------------------------------------------------------------
# grouped checks: one call per run of points that differ on the inner axes

GROUPED = sorted(name for name, check in REGISTRY.items() if check.grouped)


def test_eq19_eq20_and_thm2_i_are_grouped_on_their_inner_axes():
    assert REGISTRY["eq19"].grouped == REGISTRY["eq20"].grouped == ("i", "j")
    assert REGISTRY["thm2.i"].grouped == ("l",)


@pytest.mark.parametrize("name", GROUPED)
def test_grouped_suite_agrees_with_one_point_groups(name):
    # run_suite checks a whole inner grid at a time, run_identity one point:
    # the same results, point by point, in the domain's order
    check = REGISTRY[name]
    points = list(check.domain(5))
    grouped = list(check.results(5))
    assert [r.params for r in grouped] == points
    alone = [run_identity(name, **p) for p in points]
    assert [(r.params, r.ok, r.detail) for r in grouped] == \
        [(r.params, r.ok, r.detail) for r in alone]
    assert all(r.ok for r in grouped)
    report = run_suite(5, name)
    assert report.ok and report.cases == {name: len(points)}


def _per_point_expansion(kind, coef, a, b, c, i, j, v):
    """The ungrouped check: one product, one lincomb and _cmp per point."""
    from imtk.exactalg import ExactMatrix
    from imtk.verify import _cmp
    lhs = build(kind(i, a, b, v)) @ build(kind(j, b, c, v))
    rhs = ExactMatrix.lincomb(((coef(i, j, n, a, b, c, v), build(kind(n, a, c, v)))
                               for n in range(min(a, c) + 1)), lhs.nrows, lhs.ncols)
    return _cmp(lhs, rhs)


@pytest.mark.parametrize("name,coef_name,kind", [("eq19", "_eq19_coef", A), ("eq20", "_eq20_coef", U)])
def test_a_mutated_coefficient_gives_the_per_point_witnesses(monkeypatch, name, coef_name, kind):
    right = getattr(verify_module, coef_name)

    def mutated(i, j, n, a, b, c, v):
        return right(i, j, n, a, b, c, v) + (i == 1 and j == 1 and n == 1)

    monkeypatch.setattr(verify_module, coef_name, mutated)
    report = run_suite(4, name)
    want = [(name, p, w) for p in REGISTRY[name].domain(4)
            if (w := _per_point_expansion(kind, mutated, **p))]
    assert want and report.cases[name] == len(list(REGISTRY[name].domain(4)))
    assert [(f.name, f.params, f.detail) for f in report.failures] == want
    assert [(f.name, f.params, f.detail) for f in report.failures] == [
        (name, p, r.detail) for p in REGISTRY[name].domain(4)
        if not (r := run_identity(name, **p)).ok]
    assert all(f.detail.startswith("entry (") for f in report.failures)


def test_report_records_seconds_per_identity_and_text_leaves_them_out():
    report = run_suite(3, "eq1*")
    assert sorted(report.seconds) == sorted(report.cases)
    assert all(s >= 0 for s in report.seconds.values())
    d = report.to_dict()
    assert d["seconds"] == {n: round(report.seconds[n], 4) for n in sorted(report.cases)}
    assert "seconds" not in report.to_text() and len(report.to_text().splitlines()) == \
        len(report.cases) + 2
