"""Per-layer tracing installed from outside carnot.

``Tracer.install`` replaces public functions and methods of carnot's modules
with wrappers.  A spanned wrapper records name, start, end and parent span in
flat arrays, so a traced run allocates no per-call objects the garbage
collector has to track; a counted wrapper only bumps a counter (scalar
arithmetic runs about a million times per Cartan pass, too often to span).
Spans stay in memory until ``write`` dumps them when the run ends.

Span names are ``<layer>.<what>``; the metric ``<layer>.<what>_s`` is the
time covered by the outermost spans of that name, so recursion or a
function nested in another of the same name is not counted twice.  A span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from statistics import median

SPANNED = {
    # module or "module:Class" -> {attribute: span name}
    "linalg": {"nullspace": "linalg.nullspace",
               "pseudoinverse": "linalg.pseudoinverse",
               "gram_schmidt": "linalg.gram_schmidt", "rank": "linalg.rank"},
    "liealg": {"cartan_group": "liealg.build",
               "free_nilpotent": "liealg.build"},
    "liealg:StratifiedLieAlgebra": {"from_json": "liealg.build"},
    "_expr": {"parse": "expr.parse"},
    "env:EnvElement": {"__mul__": "env.mul",
                       "formal_adjoint": "env.formal_adjoint"},
    "coords": {"coordinate_apply": "coords.apply"},
    "coords:CoordinateRealization": {"apply": "coords.apply",
                                     "apply_word": "coords.apply"},
    "exterior:OperatorForm": {"d_full": "exterior.d_full"},
    "exterior:CovectorMap": {"apply_opform": "exterior.apply_opform"},
    "rumin:RuminComplex": {
        "E0": "rumin.E0", "d0_pinv_map": "rumin.d0_pinv_map",
        "pi_E": "rumin.pi_E", "dc_matrix": "rumin.dc_matrix",
        "deltac_matrix": "rumin.deltac_matrix",
        "star_matrix": "rumin.star_matrix",
        "symbolic_basis_form": "rumin.opform_builder",
        "opform_from_rows": "rumin.opform_builder"},
    "rumin:OperatorMatrix": {"__matmul__": "rumin.opmatrix_matmul"},
    "estimates": {"theorem_table": "estimates.theorem_table",
                  "tensor_findings": "estimates.tensor_findings"},
    "verify": {"run_verify": "verify.run_verify"},
    "cli": {"main": "cli.main"},
}

COUNTED = {
    "scalars:Scalar": {"__mul__": "scalars.mul_calls",
                       "__rmul__": "scalars.mul_calls",
                       "__add__": "scalars.add_calls",
                       "__radd__": "scalars.add_calls",
                       "inverse": "scalars.inverse_calls"},
    "exterior:Form": {"__add__": "exterior.form_add_calls"},
    "exterior:OperatorForm": {"__add__": "exterior.opform_add_calls"},
}

# spans whose call count is a metric of its own
CALL_COUNTS = {"env.mul": "env.mul_calls",
               "rumin.opmatrix_matmul": "rumin.opmatrix_matmul_calls"}


def _resolve(carnot, key):
    """The module or class a SPANNED/COUNTED key names."""
    mod_name, _, cls_name = key.partition(":")
    mod = sys.modules[f"{carnot.__name__}.{mod_name}"]
    return getattr(mod, cls_name) if cls_name else mod


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.check_s: Counter = Counter()
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_t0 = 0.0
        self._undo: list = []
        # objects built by the current operation, harvested when it ends
        self._algebras: list = []
        self._laplacian_keys: set = set()
        self._complexes: list = []
        self.op_stats: list = []
        self.passes: list = []
        self._pass = None

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name, fn):
        nid = self._name_id(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, carnot, owner, attr, make):
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
            else raw
        new = make(fn)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(new)
        targets = [owner]
        if inspect.ismodule(owner):
            # `from .liealg import cartan_group` copies the reference
            targets += [m for name, m in list(sys.modules.items())
                        if name.startswith(carnot.__name__ + ".")
                        and m is not owner and getattr(m, attr, None) is raw]
        for target in targets:
            self._undo.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, new)

    def install(self, carnot):
        """Wrap carnot's public functions; ``carnot`` is the imported package."""
        for key, table in SPANNED.items():
            owner = _resolve(carnot, key)
            for attr, name in table.items():
                self._patch(carnot, owner, attr,
                            lambda fn, name=name: self.spanned(name, fn))
        for key, table in COUNTED.items():
            owner = _resolve(carnot, key)
            for attr, name in table.items():
                self._patch(carnot, owner, attr,
                            lambda fn, name=name: self.counted(name, fn))
        self._install_special(carnot)
        gc.callbacks.append(self._on_gc)

    def _install_special(self, carnot):
        linalg = sys.modules[carnot.__name__ + ".linalg"]
        liealg = sys.modules[carnot.__name__ + ".liealg"]
        laplacians = sys.modules[carnot.__name__ + ".laplacians"]
        verify = sys.modules[carnot.__name__ + ".verify"]
        counts = self.counts

        def mat_mul(fn):
            timed = self.spanned("linalg.mat_mul", fn)

            def wrapper(field, a, b):
                if a and b:
                    col_nz = [sum(1 for row in a if row[t])
                              for t in range(len(b))]
                    row_nz = [sum(1 for x in row if x) for row in b]
                    counts["linalg.mat_mul_products"] += \
                        len(a) * len(b) * len(b[0])
                    counts["linalg.mat_mul_useful"] += sum(
                        c * r for c, r in zip(col_nz, row_nz))
                return timed(field, a, b)
            return wrapper
        self._patch(carnot, linalg, "mat_mul", mat_mul)

        def laplacian(fn):
            timed = {fam: self.spanned(f"laplacians.{fam}", fn)
                     for fam in laplacians.FAMILIES}

            def wrapper(cx, family, h):
                self._complexes.append(cx)
                self._laplacian_keys.add((id(cx), family, h))
                counts["laplacians.laplacian_calls"] += 1
                return timed.get(family, fn)(cx, family, h)
            return wrapper
        self._patch(carnot, laplacians, "laplacian", laplacian)

        algebras = self._algebras

        def register(fn):
            def wrapper(obj, *args, **kwargs):
                fn(obj, *args, **kwargs)
                algebras.append(obj)
            return wrapper
        self._patch(carnot, liealg.StratifiedLieAlgebra, "__init__", register)

        # each check is timed from the previous gate check, or from the
        # entry of verify_group / verify_cartan, to its own Report.add
        tracer = self

        class TimedReport(verify.Report):
            def __init__(self):
                super().__init__()
                self.mark = time.perf_counter()

            def add(self, name, ok, **details):
                now = time.perf_counter()
                tracer.check_s[name] += now - self.mark
                self.mark = now
                return super().add(name, ok, **details)

        def restart(fn, name):
            timed = self.spanned(name, fn)

            def wrapper(cx, report, *args, **kwargs):
                if isinstance(report, TimedReport):
                    report.mark = time.perf_counter()
                return timed(cx, report, *args, **kwargs)
            return wrapper
        self._patch(carnot, verify, "Report", lambda cls: TimedReport)
        for fname in ("verify_group", "verify_cartan"):
            self._patch(carnot, verify, fname,
                        lambda fn, n=fname: restart(fn, f"verify.{n}"))

    def uninstall(self):
        while self._undo:
            target, attr, raw = self._undo.pop()
            setattr(target, attr, raw)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    @contextlib.contextmanager
    def gc_paused(self):
        """Leave collections the benchmark itself asks for out of gc_s."""
        gc.callbacks.remove(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_gen2 += info["generation"] == 2

    # -- per operation and per pass -----------------------------------------

    def end_operation(self):
        """Read cache sizes and towers of what the operation built."""
        fields = {id(a.field): a.field for a in self._algebras}
        self.op_stats.append({
            "env.nf_cache_entries": sum(len(a._nf_cache)
                                        for a in self._algebras),
            "env.prod_cache_entries": sum(len(a._prod_cache)
                                          for a in self._algebras),
            "scalars.radicands": max((len(f.radicands)
                                      for f in fields.values()), default=0),
            "laplacians.laplacian_distinct": len(self._laplacian_keys),
        })
        self._algebras.clear()
        self._complexes.clear()
        self._laplacian_keys.clear()

    def begin_pass(self):
        self._pass = (len(self.start), Counter(self.counts),
                      Counter(self.check_s), self.gc_s, self.gc_gen2,
                      time.perf_counter())
        self.op_stats = []

    def end_pass(self, extra: dict):
        first, counts0, checks0, gc0, gen2_0, t0 = self._pass
        t1 = time.perf_counter()
        self.passes.append((first, len(self.start), t0, t1))
        counts = Counter(self.counts)
        counts.subtract(counts0)
        checks = Counter(self.check_s)
        checks.subtract(checks0)
        useful = counts.pop("linalg.mat_mul_useful", 0)
        products = counts["linalg.mat_mul_products"]
        out = {**extra, **counts,
               "linalg.mat_mul_useful_share":
                   useful / products if products else 0.0}
        for name, secs in self._outer_times(first, len(self.start)).items():
            out[name + "_s"] = secs
        for name, key in CALL_COUNTS.items():
            nid = self._ids.get(name)
            out[key] = sum(1 for i in range(first, len(self.start))
                           if self.span_name[i] == nid)
        for name, secs in checks.items():
            out[f"verify.check.{name}_s"] = secs
        out["laplacians.laplacian_distinct"] = sum(
            s["laplacians.laplacian_distinct"] for s in self.op_stats)
        for key in ("env.nf_cache_entries", "env.prod_cache_entries",
                    "scalars.radicands"):
            out[key] = max((s[key] for s in self.op_stats), default=0)
        out["runtime.gc_s"] = self.gc_s - gc0
        out["runtime.gc_gen2_collections"] = self.gc_gen2 - gen2_0
        out["pass_s"] = t1 - t0
        return out

    def _outer_times(self, first, last):
        """Time of the outermost spans of each name, in spans[first:last]."""
        out: Counter = Counter()
        for i in range(first, last):
            nid = self.span_name[i]
            p, nested = self.parent[i], False
            while p >= first:
                if self.span_name[p] == nid:
                    nested = True
                    break
                p = self.parent[p]
            if not nested:
                out[self.names[nid]] += self.end[i] - self.start[i]
        return out

    def self_times(self):
        """Self time summed per layer, over every recorded span."""
        child = array("d", bytes(8 * len(self.start)))
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i in range(len(self.start)):
            layer = self.names[self.span_name[i]].split(".")[0]
            out[layer] += self.end[i] - self.start[i] - child[i]
        return dict(out)

    def write(self, path, header: dict):
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump({
                **header,
                "self_s_by_layer": self.self_times(),
                "passes": [{"first_span": a, "end_span": b,
                            "start": s - t0, "end": e - t0}
                           for a, b, s, e in self.passes],
                "names": self.names,
                "spans": {
                    "name": list(self.span_name),
                    "parent": list(self.parent),
                    "start_us": [round((x - t0) * 1e6) for x in self.start],
                    "end_us": [round((x - t0) * 1e6) for x in self.end],
                },
            }, fh, separators=(",", ":"))


def median_metrics(passes: list) -> dict:
    """Median of each metric over the traced passes (counts repeat exactly)."""
    keys = {k for p in passes for k in p}
    return {k: median(p.get(k, 0) for p in passes) for k in sorted(keys)}
