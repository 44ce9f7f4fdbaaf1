"""Outside-in span tracing of imtk's layers, installed from the benchmark.

A Tracer replaces selected public functions and methods of imtk's modules
with wrappers that record one span per call: (name, start, end, parent, run
id).  A function is replaced in every imtk module that binds it by name
(``build`` is bound in ``cli``, ``verify``, ``spectra``, ``scheme`` and the
package itself), so a call is traced whichever module makes it.  Methods are
replaced on their class.  ``restore`` puts every original back, so a process
that traced once can go on to measure the unmodified program.

The span stack is one per tracer, so tracing assumes the workload runs in a
single thread; the benchmark's workloads do.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

# rank_modp inputs at or below this share of nonzero entries count as sparse.
# The golden N matrices are <= 0.5% nonzero, the dense U^3 / A^3 >= 41%.
SPARSE_DENSITY = 0.1

# (module, attribute or Class.method, span name); a name of None means the
# span name is chosen per call by Tracer._label_<attribute>.
TARGETS = (
    ("imtk.build", "build", "build.build"),
    ("imtk.build", "theta_matrix", None),
    ("imtk.build", "block_decompose", "build.block_decompose"),
    ("imtk.combinat", "psi", "combinat.psi_xi"),
    ("imtk.combinat", "xi", "combinat.psi_xi"),
    ("imtk.exactalg", "mat_mul", None),
    ("imtk.exactalg", "ExactMatrix.__init__", "exactalg.construct"),
    ("imtk.exactalg", "ExactMatrix.__add__", "exactalg.lincomb"),
    ("imtk.exactalg", "ExactMatrix.__sub__", "exactalg.lincomb"),
    ("imtk.exactalg", "ExactMatrix.__neg__", "exactalg.lincomb"),
    ("imtk.exactalg", "ExactMatrix.scale", "exactalg.lincomb"),
    ("imtk.exactalg", "ExactMatrix.__eq__", "exactalg.eq"),
    ("imtk.exactalg", "ExactMatrix.as_int_array", "exactalg.as_int_array"),
    ("imtk.exactalg", "ModMatrix.__init__", "exactalg.modmatrix"),
    ("imtk.exactalg", "rank_modp", None),
    ("imtk.exactalg", "random_prime", "exactalg.random_prime"),
    ("imtk.spectra", "verify_spectrum", "spectra.verify_spectrum"),
    ("imtk.spectra", "spectrum_of", "spectra.spectrum_of"),
    ("imtk.opcalc", "op_apply", "opcalc.op_apply"),
    ("imtk.opcalc", "op_compose", "opcalc.compose"),
    ("imtk.scheme", "intersection_p", "scheme.intersection"),
    ("imtk.scheme", "intersection_r", "scheme.intersection"),
    ("imtk.verify", "run_suite", "verify.run_suite"),
    ("imtk.cli", "main", "cli.main"),
)


def _imtk_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "imtk" or name.startswith("imtk."))]


def bindings():
    """Snapshot of every name bound in imtk's modules and traced classes.

    Two snapshots hold the same objects exactly when no binding was replaced,
    which is how the tests check that ``restore`` left the program unmodified.
    """
    snap = {}
    for mod in _imtk_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("imtk"):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, name, attr)] = member
    return snap


def _entries(m):
    return (x for row in m.data for x in row)


class Tracer:
    """Records spans and counters for the calls into imtk's layers."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        # each span: [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.theta_keys: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------
    def install(self, targets=TARGETS) -> "Tracer":
        """Wrap every target wherever imtk binds it; returns self."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _imtk_modules()
        for mod_name, attr, span_name in targets:
            owner = importlib.import_module(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            label = None if span_name else getattr(self, "_label_" + meth)
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, span_name, label))
                continue
            original = getattr(owner, meth)
            wrapper = self._wrap(original, span_name, label)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        """Put back every original binding, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, span_name, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # classifying the operands happens before the span starts
            name = span_name or label(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    # -- per-call classification ----------------------------------------------
    def _label_theta_matrix(self, v, a, b):
        self.theta_keys.add((v, a, b))
        return "build.theta_matrix"

    def _label_mat_mul(self, a, b):
        from imtk.exactalg import Poly
        pa = [x for x in _entries(a) if isinstance(x, Poly)]
        pb = [x for x in _entries(b) if isinstance(x, Poly)]
        if pa or pb:
            kind = "poly"
        elif any(isinstance(x, Fraction) for m in (a, b) for x in _entries(m)):
            kind = "rational"
        else:
            kind = "int"
        if not any(_entries(a)) or not any(_entries(b)):
            self.counters["exactalg.mat_mul.zero_operand.calls"] += 1
        pairs = (max((p.degree for p in pa), default=0) + 1) * \
            (max((p.degree for p in pb), default=0) + 1)
        self.counters["exactalg.mat_mul.madds"] += a.nrows * a.ncols * b.ncols * pairs
        return "exactalg.mat_mul." + kind

    def _label_rank_modp(self, m, p):
        arr = getattr(m, "array", None)
        if arr is None:
            arr = m._int_cache
        if arr is not None:
            nonzero, size = int(np.count_nonzero(arr)), arr.size
        else:
            nonzero = sum(1 for x in _entries(m) if x)
            size = m.nrows * m.ncols
        sparse = nonzero <= SPARSE_DENSITY * max(size, 1)
        return "exactalg.rank_modp." + ("sparse" if sparse else "dense")


# ---------------------------------------------------------------------------
# span arithmetic

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = [end - start for _, start, end, _, _ in spans]
    for i, kids in children.items():
        start, end = spans[i][1], spans[i][2]
        out[i] -= covered((max(start, spans[c][1]), min(end, spans[c][2]))
                          for c in kids)
    return out


def span_totals(spans):
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself again (p_distance -> intersection_p) is not counted
    twice.  A parent span always precedes its children in the list.
    """
    calls, inclusive, own = Counter(), defaultdict(float), defaultdict(float)
    paths, interned = [], {}  # names on the way from the root, per span
    for i, ((name, start, end, parent, _), self_s) in enumerate(
            zip(spans, self_times(spans))):
        calls[name] += 1
        own[name] += self_s
        above = paths[parent] if parent >= 0 else frozenset()
        if name not in above:
            inclusive[name] += end - start
        key = (above, name)
        if key not in interned:
            interned[key] = above | {name}
        paths.append(interned[key])
    return calls, inclusive, own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced workload run."""
    calls, inc, own = span_totals(tracer.spans)
    c = tracer.counters
    products = sum(calls["exactalg.mat_mul." + k] for k in ("int", "rational", "poly"))
    theta_calls = calls["build.theta_matrix"]
    out = {
        "build.build.calls": calls["build.build"],
        "build.build.s": inc["build.build"],
        "build.theta_matrix.s": inc["build.theta_matrix"],
        "build.theta.reuse": (1 - len(tracer.theta_keys) / theta_calls) if theta_calls else 0.0,
        "build.block_decompose.s": inc["build.block_decompose"],
        "combinat.psi_xi.s": inc["combinat.psi_xi"],
    }
    for kind in ("int", "rational", "poly"):
        out[f"exactalg.mat_mul.{kind}.calls"] = calls["exactalg.mat_mul." + kind]
        out[f"exactalg.mat_mul.{kind}.s"] = inc["exactalg.mat_mul." + kind]
    zero = c["exactalg.mat_mul.zero_operand.calls"]
    out["exactalg.mat_mul.zero_operand.calls"] = zero
    out["exactalg.mat_mul.zero_operand.frac"] = zero / products if products else 0.0
    out["exactalg.mat_mul.madds"] = c["exactalg.mat_mul.madds"]
    for short in ("construct", "lincomb", "eq"):
        out[f"exactalg.{short}.calls"] = calls["exactalg." + short]
        out[f"exactalg.{short}.s"] = inc["exactalg." + short]
    for kind in ("sparse", "dense"):
        out[f"exactalg.rank_modp.{kind}.calls"] = calls["exactalg.rank_modp." + kind]
        out[f"exactalg.rank_modp.{kind}.s"] = inc["exactalg.rank_modp." + kind]
    out["exactalg.as_int_array.s"] = inc["exactalg.as_int_array"]
    out["exactalg.modmatrix.s"] = inc["exactalg.modmatrix"]
    out["exactalg.random_prime.calls"] = calls["exactalg.random_prime"]
    out["spectra.verify_spectrum.s"] = inc["spectra.verify_spectrum"]
    out["spectra.probes.self_s"] = own["spectra.verify_spectrum"]
    out["spectra.spectrum_of.s"] = inc["spectra.spectrum_of"]
    out["opcalc.op_apply.calls"] = calls["opcalc.op_apply"]
    out["opcalc.op_apply.s"] = inc["opcalc.op_apply"]
    out["opcalc.compose.s"] = inc["opcalc.compose"]
    out["scheme.intersection.s"] = inc["scheme.intersection"]
    out["cli.main.s"] = inc["cli.main"]
    out["cli.self_s"] = own["cli.main"]
    return out


def write_spans(spans, path) -> None:
    """One tab-separated line per span: index, name, start, end, parent, run id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart\tend\tparent\trun\n")
        for i, (name, start, end, parent, run) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run}\n")
