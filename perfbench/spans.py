"""Spans around the public functions of each padiclf layer (traced run only).

Every wrapped call opens a span: name, start, end, parent span and the
id of the CLI call it belongs to.  Self time is a span's duration minus
the time its child spans cover, and a layer's self time is the sum over
its spans.  Per-name totals are kept for every span; the span records
themselves are kept in memory for the spans that are not hot leaves
(the p-adic arithmetic and the measure values run millions of times a
run) and written out when the run ends.

Modules bind names with `from .x import y`, so a wrapper replaces the
function at every binding site: each padiclf module attribute that is
the original, and each default argument that holds it.  Methods are
replaced on their class.  Nothing is patched until install() and
uninstall() restores every site.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from workloads import totient

# (module, attribute, span name, keep span records)
TARGETS = [
    ("cli", "main", "cli.main", True),
    ("lfunction", "riemann_sum", "lfunction.riemann_sum", True),
    ("lfunction", "p_adic_L", "lfunction.p_adic_L", True),
    ("lfunction", "special_value_closed_form", "lfunction.closed_form", True),
    ("lfunction", "verify_interpolation", "lfunction.verify", True),
    ("dirichlet", "DirichletCharacter.__init__", "dirichlet.construct", True),
    ("dirichlet", "DirichletCharacter.change_level", "dirichlet.change_level", True),
    ("dirichlet", "DirichletCharacter.__mul__", "dirichlet.mul", True),
    ("dirichlet", "DirichletCharacter.associated_primitive",
     "dirichlet.associated_primitive", True),
    ("dirichlet", "DirichletCharacter.conductor", "dirichlet.conductor", True),
    ("dirichlet", "DirichletCharacter.order", "dirichlet.order", True),
    ("dirichlet", "load_table_character", "dirichlet.load_table", True),
    ("dirichlet", "parse_character_spec", "dirichlet.parse_spec", True),
    ("dirichlet", "char_power", "dirichlet.char_power", True),
    ("dirichlet", "teichmuller_int", "dirichlet.teichmuller", False),
    ("modarith", "units_of", "modarith.units_of", False),
    ("modarith", "divisors", "modarith.divisors", False),
    ("genbernoulli", "chi_omega_minus_k", "genbernoulli.chi_omega_minus_k", True),
    ("genbernoulli", "general_bernoulli_coeffs", "genbernoulli.coeffs", True),
    ("genbernoulli", "general_bernoulli", "genbernoulli.general_bernoulli", True),
    ("genbernoulli", "general_bernoulli_exact", "genbernoulli.exact", True),
    ("bernoulli", "bernoulli_poly_eval", "bernoulli.poly_eval", False),
    ("measure", "bernoulli_distribution", "measure.distribution", False),
    ("measure", "distribution_refine_sum", "measure.refine_sum", False),
    ("measure", "measure_apply", "measure.apply", False),
    ("measure", "norm_bound_check", "measure.norm_check", False),
    ("padic", "PadicNum.__add__", "padic.add", False),
    ("padic", "PadicNum.__mul__", "padic.mul", False),
    ("padic", "PadicNum.from_rational", "padic.from_rational", False),
    ("padic", "PadicNum.inverse", "padic.inverse", False),
    ("suite", "random_cylinder", "suite.random_cylinder", False),
]

PACKAGE = "padiclf"
# spans listed by name on the traced run's summary line
TOP_SPANS = 6

LAYERS = ("cli", "lfunction", "dirichlet", "modarith", "genbernoulli",
          "bernoulli", "measure", "padic", "suite")

_phi = functools.lru_cache(maxsize=None)(totient)


def _unit_terms(params, j: int) -> int:
    """Units mod d*p^j summed by one Riemann sum: phi(d) (p-1) p^(j-1)."""
    return _phi(params.d) * (params.p - 1) * params.p ** (j - 1)


# Work counts from a call's arguments and result, keyed by span name
def _count_riemann(args, kwargs, result):
    return {"unit_terms": _unit_terms(args[0], args[2])}


def _count_p_adic_L(args, kwargs, result):
    params = args[0]
    start = max(params.j_min, params.m)
    return {"levels": result.level_used - start + 1,
            "final_terms": _unit_terms(params, result.level_used)}


def _count_construct(args, kwargs, result):
    level = args[2] if len(args) > 2 else kwargs["level"]
    return {"units": _phi(level)}


def _count_units_of(args, kwargs, result):
    return {"scanned": args[0]}


def _count_coeffs(args, kwargs, result):
    F = args[2] if len(args) > 2 else kwargs.get("F")
    if F is None:
        # the sum runs over the conductor; the call has just computed it
        chi = args[0]
        F = inspect.unwrap(type(chi).conductor)(chi)
    return {"terms": F}


def _count_apply(args, kwargs, result):
    f = args[1]
    return {"terms": f.d * f.p**f.level}


COUNTERS = {
    "lfunction.riemann_sum": _count_riemann,
    "lfunction.p_adic_L": _count_p_adic_L,
    "dirichlet.construct": _count_construct,
    "modarith.units_of": _count_units_of,
    "genbernoulli.coeffs": _count_coeffs,
    "measure.apply": _count_apply,
}


class Tracer:
    """Span collector for one run; wrappers are built once and patched in
    and out around each traced call."""

    def __init__(self):
        self.stack: list = []
        self.records: list = []
        self.call_id = 0
        self._next_span = 0
        # name -> [calls, inclusive ns, self ns, active depth]
        self.stats = defaultdict(lambda: [0, 0, 0, 0])
        self.counts = defaultdict(lambda: defaultdict(int))
        self._patches = self._plan()

    # ------------------------------------------------------------ patching

    def _plan(self):
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        patches = []
        for mod, attr, name, keep in TARGETS:
            module = mods[f"{PACKAGE}.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(name, orig.__func__, keep))
                else:
                    new = self._wrap(name, orig, keep)
                patches.append((cls, meth, orig, new))
                continue
            orig = getattr(module, attr)
            new = self._wrap(name, orig, keep)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        patches.append((m, key, orig, new))
                    elif callable(val) and getattr(val, "__defaults__", None) \
                            and any(d is orig for d in val.__defaults__):
                        defaults = val.__defaults__
                        patches.append((val, "__defaults__", defaults,
                                        tuple(new if d is orig else d for d in defaults)))
        return patches

    def install(self) -> None:
        for obj, attr, _, new in self._patches:
            setattr(obj, attr, new)

    def uninstall(self) -> None:
        for obj, attr, orig, _ in reversed(self._patches):
            setattr(obj, attr, orig)

    def _wrap(self, name, fn, keep):
        stat = self.stats[name]
        counts = self.counts[name]
        counter = COUNTERS.get(name)
        stack = self.stack
        records = self.records
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep:
                tracer._next_span += 1
                span = tracer._next_span
            else:
                span = parent[1] if parent else None
            frame = [0, span]
            stack.append(frame)
            stat[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[3] -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                stat[0] += 1
                stat[2] += dur - frame[0]
                if stat[3] == 0:
                    stat[1] += dur
                if keep:
                    records.append((span, parent[1] if parent else None,
                                    tracer.call_id, name, t0, t1))
            if counter is not None:
                for k, v in counter(args, kwargs, result).items():
                    counts[k] += v
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ------------------------------------------------------------- results

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span, parent, call, name, t0, t1 in self.records:
                fh.write(json.dumps({"span": span, "parent": parent, "call": call,
                                     "name": name, "start_ns": t0, "end_ns": t1}))
                fh.write("\n")

    def span_self_frac(self) -> dict:
        """The TOP_SPANS spans with the largest share of all self time."""
        total = self.stats["cli.main"][1]
        ranked = sorted(self.stats.items(), key=lambda kv: -kv[1][2])[:TOP_SPANS]
        return {name: round(v[2] / total, 4) for name, v in ranked if total}

    def layer_self_ns(self) -> dict:
        out = dict.fromkeys(LAYERS, 0)
        for name, (_, _, self_ns, _) in self.stats.items():
            out[name.split(".")[0]] += self_ns
        return out

    def metrics(self, untraced_s: float, traced_s: float) -> dict:
        st, ct = self.stats, self.counts

        def calls(name):
            return st[name][0], "count"

        def secs(name):
            return st[name][1] / 1e9, "s"

        def count(name, key):
            return ct[name][key], "count"

        terms = ct["lfunction.riemann_sum"]["unit_terms"]
        total_ns = st["cli.main"][1]
        layer = self.layer_self_ns()
        main_calls = st["cli.main"][0]
        m = {
            "lfunction.riemann_sum.calls": calls("lfunction.riemann_sum"),
            # self time: an evaluation's first sum also builds chi*omega^-1
            # lazily, which the dirichlet spans inside it account for
            "lfunction.riemann_sum.s": (st["lfunction.riemann_sum"][2] / 1e9, "s"),
            "lfunction.riemann_sum.unit_terms": (terms, "count"),
            "lfunction.riemann_sum.ns_per_term":
                (st["lfunction.riemann_sum"][2] / terms if terms else 0.0, "ns"),
            "lfunction.p_adic_L.levels": count("lfunction.p_adic_L", "levels"),
            "lfunction.final_level_term_frac":
                (ct["lfunction.p_adic_L"]["final_terms"] / terms if terms else 0.0, "frac"),
            "lfunction.closed_form.s": secs("lfunction.closed_form"),
            "dirichlet.construct.calls": calls("dirichlet.construct"),
            "dirichlet.construct.s": secs("dirichlet.construct"),
            "dirichlet.construct.units": count("dirichlet.construct", "units"),
            "dirichlet.change_level.s": secs("dirichlet.change_level"),
            "dirichlet.mul.s": secs("dirichlet.mul"),
            "dirichlet.associated_primitive.s": secs("dirichlet.associated_primitive"),
            "dirichlet.conductor.s": secs("dirichlet.conductor"),
            "dirichlet.load_table.s": secs("dirichlet.load_table"),
            "dirichlet.teichmuller.calls": calls("dirichlet.teichmuller"),
            "modarith.units_of.calls": calls("modarith.units_of"),
            "modarith.units_of.s": secs("modarith.units_of"),
            "modarith.units_of.scanned": count("modarith.units_of", "scanned"),
            "genbernoulli.chi_omega_minus_k.s": secs("genbernoulli.chi_omega_minus_k"),
            "genbernoulli.coeffs.s": secs("genbernoulli.coeffs"),
            "genbernoulli.coeffs.terms": count("genbernoulli.coeffs", "terms"),
            "bernoulli.poly_eval.calls": calls("bernoulli.poly_eval"),
            "bernoulli.poly_eval.s": secs("bernoulli.poly_eval"),
            "measure.distribution.calls": calls("measure.distribution"),
            "measure.distribution.s": secs("measure.distribution"),
            "measure.refine_sum.s": secs("measure.refine_sum"),
            "measure.apply.s": secs("measure.apply"),
            "measure.apply.terms": count("measure.apply", "terms"),
            "measure.norm_check.s": secs("measure.norm_check"),
            "padic.add.calls": calls("padic.add"),
            "padic.mul.calls": calls("padic.mul"),
            "padic.from_rational.calls": calls("padic.from_rational"),
            "padic.inverse.calls": calls("padic.inverse"),
            "padic.s": (layer["padic"] / 1e9, "s"),
            "suite.random_cylinder.s": secs("suite.random_cylinder"),
            "cli.main.calls": (main_calls, "count"),
            "cli.main.self_ms": (st["cli.main"][2] / 1e6 / main_calls if main_calls else 0.0,
                                 "ms"),
        }
        for name in LAYERS:
            m[f"{name}.self_frac"] = (layer[name] / total_ns if total_ns else 0.0, "frac")
        m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
        return m
