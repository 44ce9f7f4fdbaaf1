"""imtk benchmark: time to a certified result, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload registry --seed 1 --seconds 40 --trace 0

Every repetition is a fresh interpreter (perfbench/child.py), because a CLI
user pays the imports and a cold theta cache on every call.  With --trace 0
the run repeats the workload for about --seconds seconds and reports the
median wall_s, setup_s and peak_rss_mb of the repetitions.  With --trace 1
it runs the workload once untraced and once under the tracer, and reports
the per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The child runs single-threaded: IMTK_THREADS is removed and the BLAS thread
variables are set to 1.  It writes bytecode caches next to the checkout's
sources, so set-up time is that of an installed package, not of compiling.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import BLAS_THREAD_VARS  # noqa: E402
from workloads import NAMES, REGISTRY_V_MAX, SPEC  # noqa: E402

SETUPS_PER_REP = 3    # set-up-only interpreters before each untraced repetition
RUN_LIMIT_S = 170.0   # every run must end within 180 s
SPANS_DIR = ".perfbench"


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts child interpreters for one workload and collects their results."""

    def __init__(self, root: Path, workload: str, seed: int, v_max: int):
        self.root = root
        self.args = ["--workload", workload, "--seed", str(seed), "--v-max", str(v_max)]
        self.env = dict(os.environ)
        # bytecode caches go next to the sources, as an installed package has them
        for var in ("IMTK_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            self.env.pop(var, None)
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.deadline = clock() + RUN_LIMIT_S

    def spawn(self, mode: str, *extra: str) -> dict | None:
        """One child; None when it crashed or ran past the run's deadline."""
        start = clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *self.args, "--mode", mode, *extra],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            print(f"child ({mode}) passed the {RUN_LIMIT_S:.0f} s limit", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"child ({mode}) exited {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - start
        result["elapsed_s"] = clock() - start
        return result


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_frac", ".frac", ".reuse")):
        return "ratio"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            v_max: int = REGISTRY_V_MAX, root: Path | None = None) -> dict:
    """Run one measurement; returns the result object and the run's details.

    Raises RuntimeError when not a single repetition completed.
    """
    root = root or Path.cwd()
    runner = Runner(root, workload, seed, v_max)
    began = clock()
    warm = runner.spawn("setup")  # also writes the bytecode caches
    if warm is None:
        raise RuntimeError("the set-up interpreter failed")
    if trace:
        (root / SPANS_DIR).mkdir(exist_ok=True)
        spans = root / SPANS_DIR / f"spans-{workload}.tsv"
        reps = [runner.spawn("run"), runner.spawn("trace", "--spans", str(spans))]
        setups = []
    else:
        # set-up samples are spread over the window, between the repetitions
        setups, reps = [], []
        while True:
            cycle = clock()
            setups += [runner.spawn("setup") for _ in range(SETUPS_PER_REP)]
            reps.append(runner.spawn("run"))
            if reps[-1] is None:
                break
            # start another cycle only if it should end inside the window
            if 2 * clock() - cycle - began > seconds:
                break
    done = [r for r in reps if r is not None]
    if not done:
        raise RuntimeError("no repetition of the workload completed")
    attempted = sum(r["attempted"] for r in done) + (len(reps) - len(done))
    failed = sum(r["failed"] for r in done) + (len(reps) - len(done))
    good = [r for r in done if r["failed"] == 0] or done
    setup_samples = [r["setup_s"] for r in setups + done if r is not None]

    if trace:
        untraced, traced = reps
        if untraced is None or traced is None:
            raise RuntimeError("the untraced or the traced repetition failed")
        values = {f"verify.{name}.s": untraced["identity_s"].get(name, 0.0)
                  for name in SPEC["registry"]["cases"][str(REGISTRY_V_MAX)]}
        values.update(traced["layers"])
        values["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in good),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
        },
        "machine": warm["machine"],
        "reps": reps,
        "setup_samples": setup_samples,
    }


def summary(workload: str, seed: int, run: dict) -> list[str]:
    res, reps = run["result"], [r for r in run["reps"] if r is not None]
    lines = [f"workload {workload}, seed {seed}",
             "machine " + json.dumps(run["machine"], sort_keys=True)]
    walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
    lines.append(f"repetitions {len(run['reps'])}: wall_s {walls}")
    setups = " ".join(f"{s:.3f}" for s in run["setup_samples"])
    lines.append(f"setup samples {len(run['setup_samples'])}: {setups}")
    for r in reps:
        for problem in r["problems"]:
            lines.append(f"FAILED {problem}")
    if reps and reps[0]["identity_s"]:
        total = sum(reps[0]["identity_s"].values())
        lines.append(f"per-identity times sum to {total:.3f} s of wall_s "
                     f"{reps[0]['wall_s']:.3f} s")
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"failed_frac {res['failed']}/{res['attempted']} = "
                 f"{res['failed'] / res['attempted']:.6g}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "imtk" / "__init__.py").is_file():
        print(f"no imtk sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), root=root)
    except RuntimeError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for line in summary(args.workload, args.seed, run):
        print(line)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
