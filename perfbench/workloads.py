"""The benchmark's workloads: inputs made from a seed, the timed calls into
imtk's public entry points, and the correctness gate on what they return.

- registry: ``imtk.verify.run_suite`` over the whole identity registry at
  v <= 6.  Many tiny exact products, linear combinations and compares; never
  reaches the mod-p kernel.  The grid is fixed, so the seed has no effect.
- certify-golden: ``imtk spectrum --check modp`` on the two golden N cases of
  orders 3432 and 1716, plus the rank check of the second.  Large, very
  sparse integer matrices: theta builds at scale, annihilation probes and
  the sparse rank path, no Poly or Fraction arithmetic.
- rank-dense: ``imtk rank --method both`` on U^3 and A^3 over J(13,6), 41%
  and 62% nonzero.  The same rank_modp on dense input, full rank (1716) and
  low rank (286).

The expected case counts and golden lines live in spec.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text(encoding="utf-8"))
NAMES = ("registry", "certify-golden", "rank-dense")
REGISTRY_V_MAX = SPEC["registry"]["v_max"]


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    identity_s: dict[str, float] = field(default_factory=dict)


def make_inputs(workload: str, seed: int, v_max: int = REGISTRY_V_MAX):
    """What the timed call receives: the suite bound, or one argv per CLI call."""
    if workload == "registry":
        return v_max
    return [["--seed", str(seed), *case["argv"]] for case in SPEC["cli"][workload]]


def run(workload: str, inputs, begin=lambda i: None):
    """The timed part: call imtk and return its raw outputs.

    ``begin(i)`` is called before the i-th request, so a tracer can give the
    spans of each request their own run id.
    """
    if workload == "registry":
        from imtk import verify
        marks = []
        begin(0)
        start = time.perf_counter()
        report = verify.run_suite(inputs, "all",
                                  progress=lambda name, n: marks.append(
                                      (name, time.perf_counter())))
        return start, report, marks
    from imtk import cli
    outs = []
    for i, argv in enumerate(inputs):
        begin(i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        outs.append((code, buf.getvalue()))
    return outs


def check(workload: str, inputs, raw) -> Outcome:
    """Compare the raw outputs with the recorded counts and golden lines."""
    if workload == "registry":
        return _check_registry(inputs, *raw)
    out = Outcome(attempted=len(inputs), failed=0)
    for case, argv, (code, text) in zip(SPEC["cli"][workload], inputs, raw):
        lines = [line.strip() for line in text.splitlines()]
        missing = [g for g in case["golden"]
                   if not any(line.startswith(g) for line in lines)]
        if code != 0 or missing:
            out.failed += 1
            out.problems.append(f"{' '.join(argv)}: exit {code}, missing {missing}")
    return out


def _check_registry(v_max, start, report, marks) -> Outcome:
    want = SPEC["registry"]["cases"][str(v_max)]
    out = Outcome(attempted=max(1, report.total_cases), failed=len(report.failures))
    out.problems += [f"{f.name} {f.params}: {f.detail}" for f in report.failures[:20]]
    for name in sorted(set(want) | set(report.cases)):
        if report.cases.get(name) != want.get(name):
            out.failed += 1
            out.problems.append(f"{name}: {report.cases.get(name)} cases, "
                                f"recorded {want.get(name)}")
    if not report.ok and not out.failed:
        out.failed, out.problems = 1, ["report.ok is false"]
    prev = start
    for name, t in marks:
        out.identity_s[name] = t - prev
        prev = t
    return out
