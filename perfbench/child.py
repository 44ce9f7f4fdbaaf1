"""One fresh interpreter running one workload once, as a CLI user would.

Run by run.py with the checkout's ``src`` on PYTHONPATH.  Prints one JSON
line with the moment set-up ended (CLOCK_MONOTONIC, so run.py can subtract
its own spawn time), the timed wall time, the correctness outcome and the
peak resident memory.  ``--mode setup`` stops after set-up and reports the
machine instead; ``--mode trace`` runs the workload under the tracer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--v-max", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--spans", default=None, help="where --mode trace writes its spans")
    args = ap.parse_args(argv)

    import imtk.cli  # noqa: F401  (imports the whole package)
    src = Path.cwd() / "src"
    if Path(sys.modules["imtk"].__file__).resolve().parent != (src / "imtk").resolve():
        print(f"imtk imported from {sys.modules['imtk'].__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed, args.v_max)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if args.mode == "setup":
        result["machine"] = machine()
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer().install()

    def begin(i):
        if tracer is not None:
            tracer.run_id = f"{args.workload}/{args.seed}/{i}"

    try:
        start = time.perf_counter()
        raw = workloads.run(args.workload, inputs, begin)
        result["wall_s"] = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    outcome = workloads.check(args.workload, inputs, raw)
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems, identity_s=outcome.identity_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        from tracer import layer_metrics, write_spans
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            write_spans(tracer.spans, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
