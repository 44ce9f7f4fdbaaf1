"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, bindings, covered, self_times, span_totals  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(name, start, end, parent):
    return [name, start, end, parent, "r"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),     # overlaps a: [1, 5] counted once
        _span("c", 8.0, 12.0, 0),    # clipped to the parent's end: [8, 10]
        _span("a", 1.5, 2.5, 1),     # grandchild: covered by its parent only
    ]
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 10.0)]) == 6.0
    assert covered([(3.0, 3.0), (4.0, 2.0)]) == 0.0
    assert self_times(spans) == [4.0, 1.0, 3.0, 4.0, 1.0]


def test_inclusive_time_counts_nested_same_name_once():
    spans = [
        _span("p", 0.0, 4.0, -1),
        _span("p", 1.0, 2.0, 0),
        _span("q", 5.0, 6.0, -1),
        _span("p", 5.5, 5.75, 2),
    ]
    calls, inclusive, own = span_totals(spans)
    assert calls == {"p": 3, "q": 1}
    assert inclusive == {"p": 4.25, "q": 1.0}
    assert own == {"p": 4.25, "q": 0.75}


def test_tracer_wraps_every_binding_and_restores_them():
    import imtk.cli
    import imtk.verify
    from imtk.exactalg import ExactMatrix
    before = bindings()
    original_build, original_init = imtk.verify.build, ExactMatrix.__init__
    with Tracer("t") as tracer:
        for mod in (imtk.cli, imtk.verify, imtk.spectra, imtk.scheme, imtk):
            assert mod.build is not original_build
            assert mod.build is imtk.verify.build
        assert ExactMatrix.__init__ is not original_init
        report = imtk.verify.run_suite(3, "eq1")
    assert report.ok
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0] for s in tracer.spans}
    assert {"verify.run_suite", "build.build", "exactalg.construct"} <= names
    assert all(-1 <= s[3] < i and s[1] <= s[2] for i, s in enumerate(tracer.spans))


def test_gate_counts_wrong_outputs():
    argv = workloads.make_inputs("rank-dense", 3)
    good = [(0, "rank[formula] = 1716\nrank[modp]    = 1716\nmatch\n"),
            (0, "rank[formula] = 286\nrank[modp]    = 286\nmatch\n")]
    assert workloads.check("rank-dense", argv, good).failed == 0
    bad = [good[0], (1, "rank[formula] = 286\nrank[modp]    = 285\nMISMATCH\n")]
    assert workloads.check("rank-dense", argv, bad).failed == 1

    cases = dict(workloads.SPEC["registry"]["cases"]["3"])
    report = SimpleNamespace(cases=cases, failures=[], ok=True,
                             total_cases=sum(cases.values()))
    assert workloads.check("registry", 3, (0.0, report, [])).failed == 0
    report.cases = dict(cases, eq20=cases["eq20"] - 1)
    assert workloads.check("registry", 3, (0.0, report, [])).failed == 1


def test_smoke_run_emits_the_declared_metrics():
    plain = run.measure("registry", 1, 0.1, False, v_max=3, root=ROOT)
    traced = run.measure("registry", 1, 0.1, True, v_max=3, root=ROOT)
    for got, declared in ((plain, BENCH["end_to_end"]), (traced, BENCH["per_layer"])):
        res = got["result"]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [m["name"] for m in declared]
        assert all(res["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    untraced = traced["reps"][0]
    wall_bound = next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == "wall_s")
    total = sum(untraced["identity_s"].values())
    assert abs(total - untraced["wall_s"]) <= wall_bound * untraced["wall_s"]
    assert traced["result"]["metrics"]["exactalg.mat_mul.int.calls"]["value"] > 0


def test_every_layer_metric_names_what_it_moves():
    rules = workloads.SPEC["moves"]
    names = {w["name"] for w in BENCH["workloads"]}
    for metric in BENCH["per_layer"]:
        hits = [r for r in rules if fnmatch.fnmatchcase(metric["name"], r["metrics"])]
        assert len(hits) == 1, metric["name"]
        assert set(hits[0]["workloads"]) <= names


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
