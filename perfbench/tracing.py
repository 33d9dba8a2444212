"""Spans around slopekit's public functions, recorded from the benchmark's
own code.

``Tracer.install`` replaces each traced function by a wrapper in every
slopekit module namespace (or class) where it is looked up.  A wrapper
records a span only while an op is active: its name, start, end, parent span
and op id, plus one integer observed from the call (pool size, repeat flag,
...).  Spans live in flat arrays and are written out once, at the end of the
run.  A span's self time is its duration minus the durations of its child
spans; children of one span never overlap, because the run is single
threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import workloads

# (module, function or Class.method) in the order of the per-layer metrics.
TRACED = (
    ("exactval", "factor_positive_int"),
    ("exactval", "LogRational.sign"),
    ("exactval", "LogRational.bounds"),
    ("linalg", "rref"),
    ("linalg", "kernel"),
    ("linalg", "intersect_row_spaces"),
    ("linalg", "sum_row_spaces"),
    ("linalg", "hnf"),
    ("linalg", "det_bareiss"),
    ("linalg", "rank"),
    ("lattice", "Sublattice.saturation"),
    ("lattice", "Sublattice.det"),
    ("lattice", "EuclideanLattice.degree"),
    ("enumeration", "lll_reduce"),
    ("enumeration", "enumerate_short_vectors"),
    ("enumeration", "densest_sublattice"),
    ("enumeration", "minimum_sq"),
    ("enumeration", "mu_max"),
    ("multifilt", "mu_max_mf"),
    ("multifilt", "slope_of_subspace"),
    ("multifilt", "tensor_mf"),
    ("multifilt", "nu_witness"),
    ("hermitian", "a2_twist_checks"),
    ("hermitian", "q7_checks"),
    ("hermitian", "qp_checks"),
)
MODULES = ("exactval", "linalg", "lattice", "enumeration", "multifilt", "hermitian")

# Ratios and counts observed at the span boundaries: (metric, unit).
COUNTERS = (
    ("exactval.LogRational.sign.precision_steps", "ratio"),
    ("enumeration.lll_reduce.repeat_ratio", "ratio"),
    ("enumeration.enumerate_short_vectors.vectors", "count"),
    ("enumeration.densest_sublattice.improved_ratio", "ratio"),
    ("multifilt.mu_max_mf.certified_ratio", "ratio"),
    ("multifilt.mu_max_mf.candidates", "ratio"),
)
OP_METRICS = (
    ("op.traced_ms", "ms"),
    ("op.unspanned_ms", "ms"),
    ("op.unspanned_share", "ratio"),
    ("trace_overhead_ratio", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    out = []
    for mod, fn in TRACED:
        out.append((f"{mod}.{fn}.calls", "count"))
        out.append((f"{mod}.{fn}.self_ms", "ms"))
    out += [(f"{mod}.self_share", "ratio") for mod in MODULES]
    return out + list(COUNTERS) + list(OP_METRICS)


class Tracer:
    def __init__(self):
        self.names: list[str] = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")  # observed integer, -1 when none
        self.stack: list[int] = []
        self.op_id = -1  # spans are recorded only while an op is active
        self.op_wall: dict[int, float] = {}  # op id -> wall seconds
        self._op_start = 0.0
        self._lll_seen: set = set()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self.op_wall[self.op_id] = time.perf_counter() - self._op_start
        self.op_id = -1

    # -- installation

    def install(self, sk) -> None:
        observers = {
            "enumeration.lll_reduce": self._lll_repeat,
            "enumeration.enumerate_short_vectors": lambda args, kw, out: len(out.vectors),
            "enumeration.densest_sublattice": _densest_improved,
            "multifilt.mu_max_mf": lambda args, kw, out: int(out.certified),
        }
        for nid, (mod_name, path) in enumerate(TRACED):
            mod = getattr(sk, mod_name)
            observe = observers.get(self.names[nid])
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(nid, cls.__dict__[meth], observe))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(nid, orig, observe)
            for name, module in list(sys.modules.items()):
                if name == "slopekit" or name.startswith("slopekit."):
                    for attr, val in list(vars(module).items()):
                        if val is orig:
                            setattr(module, attr, wrapper)

    def _wrap(self, nid: int, fn, observe):
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if self.op_id < 0:
                return fn(*args, **kw)
            idx = len(self.name)
            self.name.append(nid)
            self.op.append(self.op_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.value.append(-1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf())
            try:
                out = fn(*args, **kw)
            finally:
                self.end[idx] = perf()
                self.stack.pop()
            if observe is not None:
                self.value[idx] = observe(args, kw, out)
            return out

        return wrapper

    def _lll_repeat(self, args, kw, out) -> int:
        key = (args[0].gram, args[1] if len(args) > 1 else kw.get("delta"))
        seen = key in self._lll_seen
        self._lll_seen.add(key)
        return int(seen)

    # -- results

    def metrics(self, op_ids) -> dict[str, float]:
        """Per-layer metrics over the spans of the given (completed) ops."""
        keep = set(op_ids)
        op_wall_s = sum(self.op_wall[i] for i in keep)
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_s = [0.0] * len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_s[p] += dur[i]
        root_s = 0.0
        sign_id = self.names.index("exactval.LogRational.sign")
        bounds_id = self.names.index("exactval.LogRational.bounds")
        mf_id = self.names.index("multifilt.mu_max_mf")
        slope_id = self.names.index("multifilt.slope_of_subspace")
        observed = {nid: [0, 0] for nid in range(n_names)}  # sum of values, calls observed
        bounds_in_sign = 0
        slopes_in_mf = 0
        for i, nid in enumerate(self.name):
            if self.op[i] not in keep:
                continue
            calls[nid] += 1
            self_s[nid] += dur[i] - child_s[i]
            p = self.parent[i]
            if p < 0:
                root_s += dur[i]
            elif nid == bounds_id and self.name[p] == sign_id:
                bounds_in_sign += 1
            elif nid == slope_id and self.name[p] == mf_id:
                slopes_in_mf += 1
            if self.value[i] >= 0:
                observed[nid][0] += self.value[i]
                observed[nid][1] += 1

        def ratio(a, b):
            return a / b if b else 0.0

        def observed_ratio(name):
            total, n = observed[self.names.index(name)]
            return ratio(total, n)

        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_ms"] = self_s[nid] * 1e3
        for mod in MODULES:
            mod_s = sum(s for s, nm in zip(self_s, self.names) if nm.startswith(mod + "."))
            out[f"{mod}.self_share"] = ratio(mod_s, op_wall_s)
        out["exactval.LogRational.sign.precision_steps"] = ratio(bounds_in_sign, calls[sign_id])
        out["enumeration.lll_reduce.repeat_ratio"] = observed_ratio("enumeration.lll_reduce")
        out["enumeration.enumerate_short_vectors.vectors"] = observed[
            self.names.index("enumeration.enumerate_short_vectors")
        ][0]
        out["enumeration.densest_sublattice.improved_ratio"] = observed_ratio(
            "enumeration.densest_sublattice"
        )
        out["multifilt.mu_max_mf.certified_ratio"] = observed_ratio("multifilt.mu_max_mf")
        out["multifilt.mu_max_mf.candidates"] = ratio(slopes_in_mf, calls[mf_id])
        out["op.traced_ms"] = op_wall_s * 1e3
        out["op.unspanned_ms"] = (op_wall_s - root_s) * 1e3
        out["op.unspanned_share"] = ratio(op_wall_s - root_s, op_wall_s)
        return out

    def write(self, path: Path) -> None:
        """Spans as columns in native byte order after a one-line JSON header."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "byteorder": sys.byteorder,
            "columns": [["name", "i"], ["op", "i"], ["parent", "i"], ["start", "d"],
                        ["end", "d"], ["value", "q"]],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.name, self.op, self.parent, self.start, self.end, self.value):
                col.tofile(fh)


def _densest_improved(args, kw, out) -> int:
    """1 when the returned sublattice's determinant is below the budget."""
    if out is None:
        return 0
    budget = args[2] if len(args) > 2 else kw["det_budget"]
    sub_gram = workloads.induced_gram(out.basis, out.ambient.gram)
    return int(workloads.det(sub_gram) < budget)
