"""Layer tracing from outside the program.

Tracer.install() wraps dpv's public functions at each layer boundary.  A name
is patched in every dpv module namespace that binds it (scheme and catalogue
import by name, scheme binds groebner.reduce as normal_form), and methods are
patched on their class.  uninstall() puts every original back.

Coarse calls (model build, checks, Buchberger runs, parsing, lattice
arithmetic) each record a span: name, start, end, parent span and op id.
Kernel calls (reduce, s_polynomial, Polynomial and Coefficient arithmetic,
pp_mul, pp_gcd) are too frequent for one span each: they are counted and
timed per enclosing span instead.  Every wrapped call, span or kernel, is a
frame on one stack, so a layer's self time is its frames' time minus the time
of the wrapped calls made inside them.  Unwrapped helpers (orders, private
functions) count toward the layer of the wrapped call that runs them, and time
outside every wrapped call counts as the harness's own.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb

from dpv import catalogue, groebner, lattice, parsing, ring, scheme
from dpv.groebner import Inconclusive
from dpv.poly import Polynomial
from dpv.ring import Coefficient

LAYERS = ("catalogue", "scheme", "groebner", "poly", "ring", "parsing", "lattice")

SPANS = (
    (catalogue, ("verify_all", "verify_example", "load_example", "_run_extras",
                 "verdict_tuple")),
    (scheme, ("build_model", "blow_up", "ambient_check", "check_regular",
              "is_geometrically_normal", "geometric_integrality", "subschemes_disjoint",
              "pth_root_closure", "jacobian_minors")),
    (groebner, ("buchberger", "saturate", "radical_membership", "dimension", "is_unit_ideal",
                "projective_is_empty", "vector_space_dimension")),
    (parsing, ("parse_model", "parse_poly")),
    (lattice, ("k2_weighted_ci", "blowup_k2", "cover_lattice", "hypersurface_lattice",
               "product")),
)

KERNELS = (
    (groebner, ("reduce", "s_polynomial")),
    (Polynomial, ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__", "diff",
                  "substitute", "dehomogenize", "pth_root", "__str__")),
    (Coefficient, ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inverse",
                   "diff", "pth_root")),
    (ring, ("pp_mul", "pp_gcd")),
)

RECORDS = catalogue.RECORD_ORDER

# per-name counters: calls, outermost calls, outermost inclusive s, self s, depth
CALLS, OUTER_CALLS, OUTER_S, SELF_S, DEPTH = range(5)


def _layer(owner) -> str:
    module = owner.__module__ if isinstance(owner, type) else owner.__name__
    return module.rsplit(".", 1)[-1]


def _dpv_namespaces():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "dpv" or name.startswith("dpv.")):
            yield module
    yield Polynomial
    yield Coefficient


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.op = None
        # span rows: name, start, end, parent span, op id
        self.spans = [["pass", 0.0, None, None, None]]
        self.kernels = {0: {}}
        self.root = [0.0, "pass", 0]  # frame: child s, name, span
        self.stack = [self.root]
        self.stats: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        self.extra = {
            "buchberger": {"grevlex": 0.0, "lex": 0.0, "elim": 0.0, "unit": 0},
            "minors": {"kept": 0, "tried": 0},
            "reduce": {"zero": 0, "normal_form_s": 0.0},
            "inconclusive": 0,
            "records": dict.fromkeys(RECORDS, 0.0),
        }
        self.patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        hooks = {
            "groebner.buchberger": self._on_buchberger,
            "scheme.jacobian_minors": self._on_minors,
            "groebner.reduce": self._on_reduce,
            "catalogue.verify_example": self._on_record,
        }
        enter_hooks = {"catalogue.verify_example": self._enter_record}
        for group, is_span in ((SPANS, True), (KERNELS, False)):
            for owner, names in group:
                layer = _layer(owner)
                prefix = layer if not isinstance(owner, type) else f"{layer}.{owner.__name__}"
                for attr in names:
                    orig = vars(owner)[attr]
                    name = f"{prefix}.{attr}"
                    self.layer_of[name] = layer
                    wrapper = self._wrap(orig, name, is_span, hooks.get(name), enter_hooks.get(name))
                    self._rebind(orig, wrapper)

    def _rebind(self, orig, wrapper):
        for ns in _dpv_namespaces():
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapper)
                    self.patched.append((ns, key, orig))

    def uninstall(self):
        while self.patched:
            ns, key, orig = self.patched.pop()
            setattr(ns, key, orig)

    def set_op(self, op_id):
        self.op = op_id

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, fn, name, is_span, hook, enter_hook):
        st = self.stats[name] = [0, 0, 0.0, 0.0, 0]
        stack, spans, kernels, clock, tracer = self.stack, self.spans, self.kernels, self.clock, self

        def traced(*args, **kwargs):
            parent = stack[-1]
            if enter_hook is not None:
                enter_hook(args, kwargs)
            if is_span:
                span = len(spans)
                spans.append([name, clock() - tracer.t0, None, parent[2], tracer.op])
            else:
                span = parent[2]
            frame = [0.0, name, span]
            stack.append(frame)
            st[DEPTH] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Inconclusive as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.extra["inconclusive"] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                parent[0] += dt
                st[CALLS] += 1
                st[SELF_S] += dt - frame[0]
                st[DEPTH] -= 1
                if st[DEPTH] == 0:
                    st[OUTER_CALLS] += 1
                    st[OUTER_S] += dt
                if is_span:
                    spans[span][2] = t1 - tracer.t0
                else:
                    agg = kernels.setdefault(span, {}).setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
                if hook is not None:
                    hook(args, kwargs, result, dt, parent)

        traced._bench_traced = True
        return traced

    # -- hooks --------------------------------------------------------------------

    def _on_buchberger(self, args, kwargs, result, dt, parent):
        order = args[1] if len(args) > 1 else kwargs.get("order")
        kind = order.kind if order is not None else "grevlex"
        b = self.extra["buchberger"]
        b[kind] += dt
        if result is not None and len(result) == 1 and result[0].is_constant() and not result[0].is_zero():
            b["unit"] += 1

    def _on_minors(self, args, kwargs, result, dt, parent):
        if result is None:
            return
        polys, ring_ctx, size = args[0], args[1], args[2]
        with_params = args[3] if len(args) > 3 else kwargs["include_params"]
        cols = ring_ctx.ngeom + (ring_ctx.nparams if with_params else 0)
        m = self.extra["minors"]
        m["kept"] += len(result)
        m["tried"] += comb(len(polys), size) * comb(cols, size)

    def _on_reduce(self, args, kwargs, result, dt, parent):
        r = self.extra["reduce"]
        r["zero"] += result is not None and result.is_zero()
        if parent is self.root:
            r["normal_form_s"] += dt

    def _enter_record(self, args, kwargs):
        self.op = args[0] if args else kwargs["record_id"]

    def _on_record(self, args, kwargs, result, dt, parent):
        if self.stats["catalogue.verify_example"][DEPTH] == 0:
            self.extra["records"][args[0] if args else kwargs["record_id"]] += dt

    # -- results ------------------------------------------------------------------

    def metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of the traced pass that took pass_s seconds."""
        st = self.stats
        ex = self.extra

        def outer_s(name):
            return st[name][OUTER_S]

        def frac(a, b):
            return a / b if b else 0.0

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, row in st.items():
            layer_self[self.layer_of[name]] += row[SELF_S]
        bb_calls = st["groebner.buchberger"][CALLS]
        red_calls = st["groebner.reduce"][CALLS]
        out = {
            "scheme.jacobian_minors.s": outer_s("scheme.jacobian_minors"),
            "scheme.jacobian_minors.calls": st["scheme.jacobian_minors"][CALLS],
            "scheme.jacobian_minors.kept_frac": frac(ex["minors"]["kept"], ex["minors"]["tried"]),
        }
        for fn in ("build_model", "blow_up", "ambient_check", "check_regular",
                   "is_geometrically_normal", "geometric_integrality", "subschemes_disjoint",
                   "pth_root_closure"):
            out[f"scheme.{fn}.s"] = outer_s(f"scheme.{fn}")
        for record, s in ex["records"].items():
            out[f"catalogue.record.{record}.s"] = s
        out["catalogue.load_example.s"] = outer_s("catalogue.load_example")
        out["catalogue.extras.s"] = outer_s("catalogue._run_extras")
        out["groebner.buchberger.calls"] = bb_calls
        out["groebner.buchberger.unit_frac"] = frac(ex["buchberger"]["unit"], bb_calls)
        for kind in ("grevlex", "lex", "elim"):
            out[f"groebner.buchberger.{kind}.s"] = ex["buchberger"][kind]
        for fn in ("saturate", "radical_membership", "dimension"):
            out[f"groebner.{fn}.s"] = outer_s(f"groebner.{fn}")
        out["groebner.reduce.calls"] = red_calls
        out["groebner.reduce.s"] = outer_s("groebner.reduce")
        out["groebner.reduce.zero_frac"] = frac(ex["reduce"]["zero"], red_calls)
        out["groebner.s_polynomial.calls"] = st["groebner.s_polynomial"][CALLS]
        out["groebner.normal_form.s"] = ex["reduce"]["normal_form_s"]
        out["groebner.inconclusive"] = ex["inconclusive"]
        out["ring.pp_gcd.calls"] = st["ring.pp_gcd"][OUTER_CALLS]
        out["ring.pp_gcd.s"] = outer_s("ring.pp_gcd")
        out["ring.pp_mul.calls"] = st["ring.pp_mul"][CALLS]
        out["poly.mul.calls"] = st["poly.Polynomial.__mul__"][CALLS]
        out["poly.mul.s"] = outer_s("poly.Polynomial.__mul__")
        out["parsing.s"] = self._top_span_s("parsing")
        out["lattice.s"] = self._top_span_s("lattice")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.pass_s"] = pass_s
        out["trace.harness_s"] = pass_s - self.root[0]
        return out

    def _top_span_s(self, layer: str) -> float:
        """Time in spans of one layer that were not opened by that layer."""
        total = 0.0
        for name, start, end, parent, _ in self.spans[1:]:
            if self.layer_of[name] == layer and self.layer_of.get(self.spans[parent][0]) != layer:
                total += end - start
        return total

    def write_spans(self, path: str):
        """Write the spans, one JSON object a line, with the kernel calls
        aggregated under the span that made them."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op, "kernels": self.kernels.get(i, {})}
                fh.write(json.dumps(row) + "\n")
