"""Traced mode: per-layer spans and counters, installed from outside the package.

The tracer replaces public functions of `schurkernels` with wrappers at run
time (in every package module that holds a reference to them) and restores
the originals afterwards.  Nothing under `src/` is edited and no cache is
cleared.  Every wrapped call records a span (name, start, end, parent) in an
in-memory array; calls, total time and self time (duration minus the time
covered by child spans) are aggregated as the spans close.  QRat arithmetic
is counted, not spanned: it runs millions of times, and its time stays in
the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from fractions import Fraction

# (module, attribute) of each spanned public function, grouped by layer.
# det_exact is split per scalar field and verify.run_suite per suite name.
SPANNED = [
    ("cli", "parse_number"), ("cli", "build_spec"), ("cli", "serialize"),
    ("kernels", "khat_schur"), ("kernels", "khat_double"), ("kernels", "khat_cd"),
    ("kernels", "k2_chebyshev"), ("kernels", "expansion_table"),
    ("kernels", "KernelExpansion.evaluate"),
    ("ensembles", "moment"), ("ensembles", "schur_average"),
    ("ensembles", "schur_avg_oracle"), ("ensembles", "pair_average"),
    ("ensembles", "ortho_system"),
    ("symfun", "schur_eval"), ("symfun", "qdim"),
    ("scalars", "det_exact"), ("scalars", "gamma_real"),
    ("scalars", "qgamma_real"), ("scalars", "mat_inverse_exact"),
    ("partitions", "enumerate_bounded"),
    ("verify", "run_suite"),
]
DET_FIELDS = ("rational", "qrat", "hpreal", "poly")
QRAT_OPS = {"add": ("__add__", "__radd__"), "mul": ("__mul__", "__rmul__"),
            "truediv": ("__truediv__", "__rtruediv__")}
LAYERS = ("dispatch", "cli", "kernels", "ensembles", "symfun", "scalars",
          "partitions", "verify")


class Tracer:
    """Span recorder and counter set for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # flattened records: name id, start ns, end ns, parent index (-1: root)
        self.spans = array("q")
        self._stack: list[list[int]] = []     # [span index, child ns]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts = {op: 0 for op in QRAT_OPS}
        self.maxes = {"qrat_terms": 0, "fraction_bits": 0}
        self.det_max_n = {f: 0 for f in DET_FIELDS}
        self.table_calls = 0
        self.table_keys: set = set()
        self._patches: list = []
        self._moment_info0 = None

    # -- spans ---------------------------------------------------------------

    def run_span(self, name: str, fn, args=(), kwargs=None):
        """Call fn inside a span called `name`; re-raises what fn raises."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0, 0]
        stack = self._stack
        idx = len(self.spans) // 4
        self.spans.extend((nid, 0, 0, stack[-1][0] if stack else -1))
        frame = [idx, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            self.spans[4 * idx + 1] = start
            self.spans[4 * idx + 2] = end
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def _observe(self, v):
        """Size counters from a returned scalar."""
        if isinstance(v, Fraction):
            self._bits(v)
        elif isinstance(v, self._qrat):
            self._terms(v)
            for c in v.num:
                self._bits(c)
            for c in v.den:
                self._bits(c)

    def _bits(self, f: Fraction):
        b = max(f.numerator.bit_length(), f.denominator.bit_length())
        if b > self.maxes["fraction_bits"]:
            self.maxes["fraction_bits"] = b

    def _terms(self, q):
        t = len(q.num) + len(q.den)
        if t > self.maxes["qrat_terms"]:
            self.maxes["qrat_terms"] = t

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = tracer.run_span(name, fn, args, kwargs)
            tracer._observe(result)
            return result
        return wrapped

    def _det(self, fn):
        from schurkernels.scalars import Poly, QRat
        import mpmath
        tracer = self

        def field(matrix):
            for row in matrix:
                for x in row:
                    if isinstance(x, QRat):
                        return "qrat"
                    if isinstance(x, mpmath.mpf):
                        return "hpreal"
                    if isinstance(x, Poly):
                        return "poly"
            return "rational"

        @functools.wraps(fn)
        def wrapped(matrix):
            f = field(matrix)
            if len(matrix) > tracer.det_max_n[f]:
                tracer.det_max_n[f] = len(matrix)
            result = tracer.run_span(f"scalars.det_exact.{f}", fn, (matrix,))
            tracer._observe(result)
            return result
        return wrapped

    def _expansion_table(self, fn):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.table_calls += 1
            tracer.table_keys.add(tuple(bound.arguments.values()))
            return tracer.run_span("kernels.expansion_table", fn, args, kwargs)
        return wrapped

    def _run_suite(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(name, *args, **kwargs):
            return tracer.run_span(f"verify.{name}", fn, (name,) + args, kwargs)
        return wrapped

    def _qrat_counter(self, op: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapped(a, b):
            r = fn(a, b)
            counts[op] += 1
            if r is not NotImplemented:
                tracer._terms(r)
            return r
        return wrapped

    # -- install / restore ---------------------------------------------------

    def install(self):
        """Wrap the public functions in every package module that holds them."""
        import schurkernels.cli  # noqa: F401  (loads every layer)
        from schurkernels import ensembles, scalars
        self._qrat = scalars.QRat
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "schurkernels" or n.startswith("schurkernels.")]
        for mod_name, attr in SPANNED:
            mod = sys.modules[f"schurkernels.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._spanned(f"{mod_name}.{attr}",
                                                   cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            if attr == "det_exact":
                wrapped = self._det(orig)
            elif attr == "expansion_table":
                wrapped = self._expansion_table(orig)
            elif attr == "run_suite":
                wrapped = self._run_suite(orig)
            else:
                wrapped = self._spanned(f"{mod_name}.{attr}", orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        for op, dunders in QRAT_OPS.items():
            for d in dunders:
                self._set(scalars.QRat, d,
                          self._qrat_counter(op, scalars.QRat.__dict__[d]))
        self._moment_info0 = ensembles._moment_cached.cache_info()

    def _set(self, obj, key, value):
        self._patches.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def restore(self):
        from schurkernels import ensembles
        info = ensembles._moment_cached.cache_info()
        i0 = self._moment_info0
        self.moment_hits = info.hits - i0.hits
        self.moment_lookups = self.moment_hits + info.misses - i0.misses
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, suites, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Every per-layer metric, with its value and unit."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def stat(name):
            return self.stats.get(name, [0, 0, 0])

        for mod, attr in SPANNED:
            if attr == "det_exact":
                for f in DET_FIELDS:
                    c, tot, slf = stat(f"scalars.det_exact.{f}")
                    put(f"scalars.det_exact.{f}.calls", c, "count")
                    put(f"scalars.det_exact.{f}.total_s", tot / 1e9, "s")
                    put(f"scalars.det_exact.{f}.self_s", slf / 1e9, "s")
                    put(f"scalars.det_exact.{f}.max_n", self.det_max_n[f], "count")
            elif attr == "run_suite":
                for s in suites:
                    put(f"verify.{s}.s", stat(f"verify.{s}")[1] / 1e9, "s")
            else:
                c, tot, slf = stat(f"{mod}.{attr}")
                put(f"{mod}.{attr}.calls", c, "count")
                put(f"{mod}.{attr}.total_s", tot / 1e9, "s")
                put(f"{mod}.{attr}.self_s", slf / 1e9, "s")
        keys = len(self.table_keys)
        put("kernels.expansion_table.repeat_ratio",
            self.table_calls / keys if keys else 0.0, "ratio")
        put("ensembles.moment.cache_hit_ratio",
            self.moment_hits / self.moment_lookups if self.moment_lookups else 0.0,
            "ratio")
        for op in QRAT_OPS:
            put(f"scalars.QRat.{op}.calls", self.counts[op], "count")
        put("scalars.qrat.max_terms", self.maxes["qrat_terms"], "count")
        put("scalars.fraction.max_bits", self.maxes["fraction_bits"], "bits")
        layer_ns = dict.fromkeys(LAYERS, 0)
        for name, (_, _, slf) in self.stats.items():
            layer = name.split(".")[0]
            layer_ns["dispatch" if layer == "op" else layer] += slf
        for layer in LAYERS:
            put(f"layer.{layer}.self_s", layer_ns[layer] / 1e9, "s")
        put("trace.wall_s", traced_wall_s, "s")
        put("trace.untraced_wall_s", untraced_wall_s, "s")
        put("trace.overhead_s", traced_wall_s - untraced_wall_s, "s")
        put("trace.accounted_share",
            sum(layer_ns.values()) / 1e9 / traced_wall_s if traced_wall_s else 0.0,
            "ratio")
        put("trace.spans", len(self.spans) // 4, "count")
        return out

    def write(self, path):
        """Write the span records: a JSON header line, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns", "parent"]})
                     + "\n")
            s = self.spans
            for i in range(0, len(s), 4):
                fh.write(f"{s[i]} {s[i + 1]} {s[i + 2]} {s[i + 3]}\n")
