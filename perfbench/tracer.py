"""Layer tracing from outside the program.

The tracer replaces public functions of the ``liaison`` layers by wrappers.
A span wrapper records one span per call: its name, start, end, parent
span and operation id, plus counts read from its arguments or its return
value.  A count wrapper only counts calls; it is used for the kernel
functions that run hundreds of thousands of times per operation.

``from .groebner import buchberger`` binds a second name to the same
function object, so every module of the package is searched for names
bound to the original and each one is patched.

Spans stay in memory; ``layer_metrics`` aggregates them and ``spans_json``
renders them for writing out when the run ends.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, module, class or None, attribute, count hook or None).
# The hook gets (args, result) and returns {count name: amount}.
SPANS = (
    ("rings.poly_mul", "rings", "Polynomial", "__mul__", None),
    ("groebner.buchberger", "groebner", None, "buchberger",
     lambda a, out: {"gens_in": sum(1 for g in a[0] if g),
                     "gens_out": len(out)}),
    ("groebner.normal_form", "groebner", None, "normal_form", None),
    ("modp.rref", "modp", None, "rref", None),
    ("modp.nullspace", "modp", None, "nullspace", None),
    ("modp.charpoly", "modp", None, "charpoly",
     lambda a, out: {"dim": len(a[0])}),
    ("ideals.intersect", "ideals", "Ideal", "intersect", None),
    ("ideals.quotient", "ideals", "Ideal", "quotient", None),
    ("ideals.saturate", "ideals", "Ideal", "saturate", None),
    ("ideals.cm_test", "ideals", "Ideal", "cm_test",
     lambda a, out: {"attempts": len(out[1]["attempts"])}),
    ("ideals.is_reduced_zero_dim", "ideals", "Ideal", "is_reduced_zero_dim",
     None),
    ("links.lemma_key_link", "links", None, "lemma_key_link", None),
    ("links.proper_ci_intersection_link", "links", None,
     "proper_ci_intersection_link", None),
    ("links.link_involution_check", "links", None, "link_involution_check",
     None),
    ("links.is_geometric_link", "links", None, "is_geometric_link", None),
    ("links.gorenstein_sum", "links", None, "gorenstein_sum", None),
    ("lifting.verify_lifting", "lifting", None, "verify_lifting", None),
    ("lifting.lift_ideal", "lifting", None, "lift_ideal", None),
    ("fatpoints.theorem32_double_step", "fatpoints", None,
     "theorem32_double_step", lambda a, out: _crossings(out)),
    ("fatpoints.single_fatpoint_link_step", "fatpoints", None,
     "single_fatpoint_link_step", None),
    ("fatpoints.grid_curves", "fatpoints", None, "grid_curves", None),
    ("fatpoints.sweep_crossings", "fatpoints", None, "_sweep_crossings",
     None),
    ("cli.main", "cli", None, "main", None),
)

# kernel functions: (metric prefix, module, class or None, attribute)
COUNTS = (
    ("rings.mono_mul", "rings", None, "mono_mul"),
    ("rings.mono_divides", "rings", None, "mono_divides"),
    ("rings.order_key", "rings", "MonomialOrder", "key"),
)

# Every per-layer metric of a traced run, with its unit.
LAYER_METRICS = (
    ("rings.mono_mul.calls", "count"),
    ("rings.mono_divides.calls", "count"),
    ("rings.order_key.calls", "count"),
    ("rings.poly_mul.calls", "count"),
    ("rings.poly_mul.self_s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.s", "s"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.buchberger.gens_in", "count"),
    ("groebner.buchberger.gens_out", "count"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.s", "s"),
    ("modp.rref.calls", "count"),
    ("modp.rref.s", "s"),
    ("modp.nullspace.calls", "count"),
    ("modp.nullspace.s", "s"),
    ("modp.charpoly.calls", "count"),
    ("modp.charpoly.s", "s"),
    ("modp.charpoly.dim", "count"),
    ("ideals.intersect.calls", "count"),
    ("ideals.intersect.s", "s"),
    ("ideals.intersect.self_s", "s"),
    ("ideals.quotient.calls", "count"),
    ("ideals.quotient.s", "s"),
    ("ideals.saturate.calls", "count"),
    ("ideals.saturate.s", "s"),
    ("ideals.saturate.rounds", "count"),
    ("ideals.groebner_basis.calls", "count"),
    ("ideals.groebner_basis.hit_ratio", "1"),
    ("ideals.cm_test.s", "s"),
    ("ideals.cm_test.attempts", "count"),
    ("ideals.is_reduced_zero_dim.s", "s"),
    ("links.lemma_key_link.calls", "count"),
    ("links.lemma_key_link.s", "s"),
    ("links.proper_ci_intersection_link.calls", "count"),
    ("links.proper_ci_intersection_link.s", "s"),
    ("links.link_involution_check.s", "s"),
    ("links.is_geometric_link.s", "s"),
    ("links.gorenstein_sum.s", "s"),
    ("lifting.verify_lifting.calls", "count"),
    ("lifting.verify_lifting.s", "s"),
    ("lifting.lift_ideal.s", "s"),
    ("fatpoints.theorem32_double_step.calls", "count"),
    ("fatpoints.theorem32_double_step.s", "s"),
    ("fatpoints.single_fatpoint_link_step.s", "s"),
    ("fatpoints.grid_curves.calls", "count"),
    ("fatpoints.sweep_crossings.s", "s"),
    ("fatpoints.crossing_pairs", "count"),
    ("fatpoints.crossing_hit_ratio", "1"),
    ("cli.main.s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_ratio", "1"),
)

# span record fields
NAME, START, END, PARENT, OP, CHILD_S, OUTER, COUNTS_ = range(8)


def _crossings(report):
    """Line pairs swept and crossings found, read from a double-step report."""
    pairs = hits = 0
    for step in report.steps:
        if step.kind == "basic-double-link":
            pairs += step.data["deg_Y"] * step.data["deg_W"]
        elif step.kind == "gorenstein-link":
            hits += step.data["tau"] + step.data["concurrent"]
    return {"crossing_pairs": pairs, "crossing_hits": hits}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.depth = {}
        self.op = None
        self.patched = []

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   0.0, outer, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                depth[name] -= 1
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD_S] += rec[END] - rec[START]
            if hook is not None:
                rec[COUNTS_] = hook(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _gb_counter(self, fn):
        """Ideal.groebner_basis: calls, and calls answered from the cache."""
        counts = self.counts
        counts["ideals.groebner_basis.calls"] = 0
        counts["ideals.groebner_basis.hits"] = 0

        def wrapper(ideal):
            counts["ideals.groebner_basis.calls"] += 1
            if ideal._gb is not None:
                counts["ideals.groebner_basis.hits"] += 1
            return fn(ideal)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Patch every binding of the traced functions in the package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and n.startswith("liaison.")]
        for name, mod, cls, attr, hook in SPANS:
            self._patch(modules, name, mod, cls, attr,
                        lambda fn, n=name, h=hook: self._span(n, fn, h))
        for name, mod, cls, attr in COUNTS:
            self._patch(modules, name, mod, cls, attr,
                        lambda fn, n=name: self._counter(n, fn))
        self._patch(modules, "ideals.groebner_basis", "ideals", "Ideal",
                    "groebner_basis", self._gb_counter)

    def _patch(self, modules, name, mod, cls, attr, make):
        owner = sys.modules["liaison." + mod]
        if cls is not None:
            owner = getattr(owner, cls)
        fn = owner.__dict__.get(attr)
        if fn is None:
            return  # the function is gone at this commit
        wrapper = make(fn)
        if cls is not None:
            setattr(owner, attr, wrapper)
            self.patched.append((owner, attr, fn, name))
            return
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, wrapper)
                    self.patched.append((m, key, fn, name))

    def uninstall(self):
        for owner, attr, fn, _ in reversed(self.patched):
            setattr(owner, attr, fn)
        self.patched = []

    # -- results ---------------------------------------------------------

    def layer_metrics(self):
        """{metric name: value} for every name in LAYER_METRICS."""
        agg = {}

        def add(key, amount):
            agg[key] = agg.get(key, 0) + amount

        for rec in self.spans:
            name = rec[NAME]
            dur = rec[END] - rec[START]
            add(name + ".calls", 1)
            if rec[OUTER]:
                add(name + ".s", dur)
            add(name + ".self_s", dur - rec[CHILD_S])
            if rec[COUNTS_]:
                for key, amount in rec[COUNTS_].items():
                    add(name + "." + key, amount)
            if (name == "ideals.quotient" and rec[PARENT] >= 0
                    and self.spans[rec[PARENT]][NAME] == "ideals.saturate"):
                add("ideals.saturate.rounds", 1)
        for key, amount in self.counts.items():
            add(key, amount)
        double = "fatpoints.theorem32_double_step."
        agg["fatpoints.crossing_pairs"] = agg.get(double + "crossing_pairs", 0)
        agg["fatpoints.crossing_hit_ratio"] = _ratio(
            agg.get(double + "crossing_hits", 0),
            agg["fatpoints.crossing_pairs"])
        agg["ideals.groebner_basis.hit_ratio"] = _ratio(
            agg.get("ideals.groebner_basis.hits", 0),
            agg.get("ideals.groebner_basis.calls", 0))
        return {name: agg.get(name, 0) for name, _ in LAYER_METRICS
                if name != "trace.overhead_ratio"}

    def spans_json(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op", "counts"],
            "spans": [[r[NAME], round(r[START] - t0, 7), round(r[END] - t0, 7),
                       r[PARENT], r[OP], r[COUNTS_]] for r in self.spans],
        }


def _ratio(num, den):
    return num / den if den else 0.0
