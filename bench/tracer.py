"""Outside-in tracer for the ppa modules.

Installing a ``Tracer`` wraps, from outside the package, the public functions
of every ppa module, a few public methods, and the arithmetic and calculus
methods of ``PolyExpr``.  Every name a module bound with ``from .x import y``
is rebound to the wrapper too (``runner`` calls ``check_jacobi`` through its
own namespace, so patching ``ppa.structures`` alone would miss it).

Calls into module-level functions become spans with a parent link.  Calls
into ``poly`` are far too many to keep one span each (tens of thousands of
constructions and multiplications per catalog sweep), so they are aggregated
into a call count and a self time per method.  Self time is a call's duration minus
the time of the calls it made into wrapped code, so the self times of all
layers add up to the duration of the outermost span.

Only the traced run imports this module; the untraced run measures the
program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time

perf = time.perf_counter

LAYERS = ("poly", "exterior", "structures", "duality", "geometry", "dynamics",
          "dsl", "runner", "catalog", "cli")

# PolyExpr and MonomialMap methods traced as aggregates: attribute -> counter.
POLY_METHODS = {
    "__init__": "init", "__add__": "add", "__radd__": "add", "__sub__": "sub",
    "__rsub__": "sub", "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__pow__": "pow", "__eq__": "eq", "diff": "diff",
    "eval_exact": "eval_exact", "eval_float": "eval_float",
    "with_vars": "with_vars", "subs_var": "subs_var", "render": "render",
    "is_polynomial_grade": "is_polynomial_grade", "coefficient": "coefficient",
    "leading": "leading",
}
MAP_METHODS = {"__init__": "map_init", "inverse": "map_inverse",
               "forward_exprs": "map_forward_exprs",
               "jacobian_det_monomial": "map_jacobian_det"}
# Public methods traced as spans: (module, class, method).
SPAN_METHODS = [("dsl", "ModelSpec", "build_structure"),
                ("runner", "CheckReport", "to_json"),
                ("structures", "PoissonStructure", "as_bivector"),
                ("dynamics", "PolyVectorField", "apply_to"),
                ("dynamics", "PolyVectorField", "compiled"),
                ("catalog", "CatalogEntry", "build")]
# Bit-mask helpers called once per term pair inside wedge: left unwrapped,
# their time counts as the caller's own.
UNWRAPPED = {("exterior", "mask_of"), ("exterior", "indices_of"),
             ("exterior", "merge_sign"), ("exterior", "shuffle_signature"),
             ("poly", "monomial_key")}


class Tracer:
    def __init__(self):
        # A frame is [start, time spent in wrapped callees, span id,
        # poly.mul count at entry].  The bottom frame collects whatever runs
        # outside any span.
        self.stack = [[0.0, 0.0, None, 0]]
        self.spans = []          # (id, parent id, name, start, end, self)
        self.agg = {}            # name -> [calls, self seconds]
        self.counters = {"poly.mul.term_pairs": 0, "poly.max_terms": 0,
                         "poly.max_coeff_bits": 0, "dsl.parse_model.bytes": 0,
                         "dynamics.csv_bytes": 0}
        self.mul_inside = {}     # span name -> poly.mul calls made inside it
        self.mul_calls = 0
        self.next_id = 0

    # ---- recording ----

    def _enter(self):
        frame = [perf(), 0.0, None, self.mul_calls]
        self.stack.append(frame)
        return frame

    def _enter_span(self):
        self.next_id += 1
        frame = [perf(), 0.0, self.next_id, self.mul_calls]
        self.stack.append(frame)
        return frame

    def _exit_aggregate(self, frame, rec):
        self.stack.pop()
        dur = perf() - frame[0]
        rec[0] += 1
        rec[1] += dur - frame[1]
        self.stack[-1][1] += dur

    def _exit_span(self, frame, name):
        self.stack.pop()
        end = perf()
        dur = end - frame[0]
        parent = self._parent_span()
        self.spans.append((frame[2], parent, name, frame[0], end, dur - frame[1]))
        self.mul_inside[name] = self.mul_inside.get(name, 0) + self.mul_calls - frame[3]
        self.stack[-1][1] += dur

    def _parent_span(self):
        for f in reversed(self.stack):
            if f[2] is not None:
                return f[2]
        return None

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around a request."""
        frame = self._enter_span()
        try:
            yield
        finally:
            self._exit_span(frame, name)

    def _bookkeeping(self, start):
        """Charge the tracer's own per-call statistics to the trace layer, not
        to the caller whose self time would otherwise absorb it."""
        dur = perf() - start
        rec = self.agg.setdefault("trace.bookkeeping", [0, 0.0])
        rec[0] += 1
        rec[1] += dur
        self.stack[-1][1] += dur

    # ---- wrappers ----

    def aggregate(self, fn, name):
        rec = self.agg.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit_aggregate(frame, rec)
        return wrapper

    def spanned(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t = perf()
                before(args, kwargs)
                self._bookkeeping(t)
            frame = self._enter_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit_span(frame, name)
            if after is not None:
                t = perf()
                after(args, kwargs, result)
                self._bookkeeping(t)
            return result
        return wrapper

    def _mul(self, fn, poly_type):
        rec = self.agg.setdefault("poly.mul", [0, 0.0])
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(a, b):
            frame = self._enter()
            self.mul_calls += 1
            try:
                out = fn(a, b)
            finally:
                self._exit_aggregate(frame, rec)
            t = perf()
            if isinstance(b, poly_type):
                counters["poly.mul.term_pairs"] += len(a.terms) * len(b.terms)
            if isinstance(out, poly_type) and out.terms:
                if len(out.terms) > counters["poly.max_terms"]:
                    counters["poly.max_terms"] = len(out.terms)
                bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                           for c in out.terms.values())
                if bits > counters["poly.max_coeff_bits"]:
                    counters["poly.max_coeff_bits"] = bits
            self._bookkeeping(t)
            return out
        return wrapper

    def _compiled(self, fn):
        """Wrap the float closure that PolyVectorField.compiled returns, so
        each field evaluation counts as a dynamics.field_eval call."""
        span = self.spanned(fn, "dynamics.PolyVectorField.compiled")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.aggregate(span(*args, **kwargs), "dynamics.field_eval")
        return wrapper

    # ---- installation ----

    def install(self):
        import importlib
        import ppa
        from ppa.poly import MonomialMap, PolyExpr
        mods = {name: importlib.import_module(f"ppa.{name}") for name in LAYERS}
        counters = self.counters

        def parse_bytes(args, kwargs):
            text = args[0] if args else kwargs["text"]
            counters["dsl.parse_model.bytes"] += len(text.encode())

        def csv_bytes(args, kwargs, result):
            path = args[3] if len(args) > 3 else kwargs["path"]
            counters["dynamics.csv_bytes"] += os.path.getsize(path)

        hooks = {"dsl.parse_model": {"before": parse_bytes},
                 "dynamics.write_trajectory_csv": {"after": csv_bytes}}

        replaced = {}            # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (layer, attr) in UNWRAPPED):
                    continue
                name = f"{layer}.{attr}"
                if layer == "poly":
                    new = self.aggregate(obj, name)
                else:
                    new = self.spanned(obj, name, **hooks.get(name, {}))
                replaced[id(obj)] = new
                setattr(mod, attr, new)
        # rebind every `from .x import y` copy, and the package's re-exports
        for mod in list(mods.values()) + [ppa]:
            for attr, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None and obj is not new:
                    setattr(mod, attr, new)

        for cls, table in ((PolyExpr, POLY_METHODS), (MonomialMap, MAP_METHODS)):
            for attr, short in table.items():
                fn = cls.__dict__[attr]
                if short == "mul":
                    new = self._mul(fn, PolyExpr)
                else:
                    new = self.aggregate(fn, f"poly.{short}")
                setattr(cls, attr, new)
        for layer, cls_name, attr in SPAN_METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[attr]
            if (layer, attr) == ("dynamics", "compiled"):
                new = self._compiled(fn)
            else:
                new = self.spanned(fn, f"{layer}.{cls_name}.{attr}")
            setattr(cls, attr, new)

    # ---- results ----

    def by_name(self):
        """name -> [calls, self seconds], spans and aggregates together."""
        out = {name: list(rec) for name, rec in self.agg.items()}
        for s in self.spans:
            rec = out.setdefault(s[2], [0, 0.0])
            rec[0] += 1
            rec[1] += s[5]
        return out
