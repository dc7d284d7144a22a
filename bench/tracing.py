"""Spans around the package's public functions, recorded from outside.

``Instrumentation`` swaps each traced function, wherever a package module
bound it, for a wrapper that records a span (name, start, end, parent, op
id) and, for some layers, a work counter read from the arguments or the
return value.  It is installed only around traced ops, so untraced ops run
the unmodified code.  Spans stay in memory and are written out at the end.

Span names are ``<module>.<function>``; a layer is the module part.  Facet
enumeration is lazy (it runs on the first ``NewtonPolytope.facets`` access),
so the ``polytope.facets`` span wraps that property as well as
``build_polytope``; with the polytope cache cleared before every op, the
enumeration is charged to ``polytope.facets`` whichever layer touches the
polytope first.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import weakref
from collections import defaultdict

from staircase.ideals import pure_power_degrees

FACETS = "polytope.facets"
OP_ROOT = "cli.main"
CHECK_ROOT = "check"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self._stack: list[int] = []
        self.op_id = -1
        self.counting = True
        self.counters: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [total, events]

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: int) -> None:
        if self.counting:
            c = self.counters[name]
            c[0] += value
            c[1] += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.spans}, fh)


def facet_candidates(m: int, n: int) -> int:
    """Candidate normals of the dual scheme: sum over k of C(m, k) * C(n, n - k)."""
    return sum(math.comb(m, k) * math.comb(n, n - k) for k in range(1, n + 1))


def _after_colength(t: Tracer, args, result) -> None:
    t.count("ideals.colength_cells", math.prod(pure_power_degrees(args[0])))


def _after_closure(t: Tracer, args, result) -> None:
    gens = args[0].gens
    t.count("ideals.closure_cells", math.prod(max(g[i] for g in gens) + 1 for i in range(len(gens[0]))))
    t.count("ideals.closure_gens", len(result.gens))


def _after_initial_ideal(t: Tracer, args, result) -> None:
    t.count("groebner.basis_gens", len(result.gens))


def _after_certify(t: Tracer, args, result) -> None:
    t.count("macaulay.certify_N", result.N)
    t.count("macaulay.rank", result.rank)


def _after_mu_bound(t: Tracer, args, result) -> None:
    t.count("degeneration.trials_certified", sum(1 for _, mu in result if mu is not None))
    t.count("degeneration.trials", len(result))


# (module, function, span name, counter hook)
TARGETS = (
    ("staircase.ideal_io", "parse_ideal_file", "ideal_io.parse", None),
    ("staircase.reports", "zero_dim_report_dict", "reports.render", None),
    ("staircase.reports", "codim2_report_dict", "reports.render", None),
    ("staircase.reports", "make_document", "reports.render", None),
    ("staircase.reports", "render_json", "reports.render", None),
    ("staircase.polytope", "build_polytope", FACETS, None),
    ("staircase.polytope", "compute_mu", "polytope.mu", None),
    ("staircase.polytope", "covolume", "polytope.covolume", None),
    ("staircase.ideals", "colength", "ideals.colength", _after_colength),
    ("staircase.ideals", "integral_closure", "ideals.closure", _after_closure),
    ("staircase.ideals", "is_power_of_maximal", "ideals.power_of_maximal", None),
    ("staircase.invariants", "verify_zero_dim", "invariants.verify_zero_dim", None),
    ("staircase.invariants", "verify_codim2", "invariants.verify_codim2", None),
    ("staircase.groebner", "initial_ideal", "groebner.initial_ideal", _after_initial_ideal),
    ("staircase.macaulay", "certify_truncation", "macaulay.certify", _after_certify),
    ("staircase.macaulay", "initial_ideal_pivots", "macaulay.initial_pivots", None),
    ("staircase.degeneration", "tangent_cone_initial", "degeneration.tangent_cone", None),
    ("staircase.degeneration", "check_length_preservation", "degeneration.length_check", None),
    ("staircase.degeneration", "mu_upper_bound_details", "degeneration.mu_bound", _after_mu_bound),
)


def _wrap(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _traced_facets(tracer: Tracer, prop: property) -> property:
    enumerated = weakref.WeakSet()

    def fget(P):
        idx = tracer.open(FACETS)
        try:
            facets = prop.fget(P)
        finally:
            tracer.close(idx)
        if P not in enumerated:
            enumerated.add(P)
            tracer.count("polytope.facets_candidates", facet_candidates(len(P.points), P.n))
            tracer.count("polytope.facets_kept", len(facets))
        return facets

    return property(fget, doc=prop.__doc__)


class Instrumentation:
    """Installs and removes the tracing wrappers; a target the package no
    longer has is skipped, and its metrics read 0."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        modules = [m for name, m in sys.modules.items() if name == "staircase" or name.startswith("staircase.")]
        self._bindings = []  # (namespace, attribute, original, wrapper)
        for module_name, attr, span, after in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, span, original, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._bindings.append((m, key, original, wrapper))
        cls = getattr(sys.modules.get("staircase.polytope"), "NewtonPolytope", None)
        prop = vars(cls).get("facets") if cls is not None else None
        if isinstance(prop, property):
            self._bindings.append((cls, "facets", prop, _traced_facets(tracer, prop)))

    def install(self) -> None:
        for ns, key, _, wrapper in self._bindings:
            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original, _ in self._bindings:
            setattr(ns, key, original)

    def run(self, root: str, op_id: int, fn):
        """Call fn() traced, under a root span named root."""
        self.tracer.op_id = op_id
        self.install()
        idx = self.tracer.open(root)
        try:
            return fn()
        finally:
            self.tracer.close(idx)
            self.uninstall()


LAYERS = ("cli", "ideal_io", "reports", "polytope", "ideals", "invariants", "groebner", "macaulay", "degeneration")

# Each span name gives one time metric, "<span>_s".
TIMED = tuple(dict.fromkeys(span for _, _, span, _ in TARGETS))

# No CLI command calls the truncated initial-ideal oracle; it is timed on
# the correctness check of the degeneration workload instead.
CHECK_TIMED = {"macaulay.initial_pivots"}

COUNTS = (  # reported as means per call
    "polytope.facets_candidates",
    "polytope.facets_kept",
    "ideals.colength_cells",
    "ideals.closure_cells",
    "ideals.closure_gens",
    "groebner.basis_gens",
    "macaulay.certify_N",
    "macaulay.rank",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Profile:
    """Self time, per-name time and layer shares computed from the spans."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        count = len(spans)
        duration = [s[2] - s[1] for s in spans]
        child_time = [0] * count
        facet_cover = [0] * count  # time of the outermost facet spans below each span
        for i in range(count - 1, -1, -1):  # children always follow their parent
            name, parent = spans[i][0], spans[i][3]
            if name == FACETS:
                facet_cover[i] = duration[i]
            if parent >= 0:
                child_time[parent] += duration[i]
                facet_cover[parent] += facet_cover[i]
        root = [0] * count
        for i in range(count):
            parent = spans[i][3]
            root[i] = i if parent < 0 else root[parent]
        self.op_time = 0
        self.self_by_layer: dict[str, int] = defaultdict(int)
        self.self_by_name: dict[str, int] = defaultdict(int)
        self.time_by_name: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))  # by root name
        for i in range(count):
            name, parent = spans[i][0], spans[i][3]
            kind = spans[root[i]][0]
            if kind == OP_ROOT:
                own = duration[i] - child_time[i]
                self.self_by_layer[name.split(".")[0]] += own
                self.self_by_name[name] += own
                if parent < 0:
                    self.op_time += duration[i]
            if not self._nested_in_same(spans, i):
                excluded = 0 if name == FACETS else facet_cover[i]
                self.time_by_name[kind][name] += duration[i] - excluded

    @staticmethod
    def _nested_in_same(spans, i) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def metrics(self, tracer: Tracer, op_ideals: int, checked_ideals: int) -> dict[str, float]:
        """Per-layer metrics.  A time is seconds per ideal: the span's duration
        minus the facet enumeration inside it, summed over the traced ops.
        Counts are means per call; shares are self time over op time."""
        out = {}
        for name in TIMED:
            if name in CHECK_TIMED:
                out[f"{name}_s"] = _ratio(self.time_by_name[CHECK_ROOT][name] / 1e9, checked_ideals)
            else:
                out[f"{name}_s"] = _ratio(self.time_by_name[OP_ROOT][name] / 1e9, op_ideals)
        counters = tracer.counters
        for name in COUNTS:
            out[name] = _ratio(*counters.get(name, (0, 0)))

        def total(name):
            return counters.get(name, (0, 0))[0]

        out["polytope.facets_yield"] = _ratio(total("polytope.facets_kept"), total("polytope.facets_candidates"))
        out["degeneration.trials_certified_ratio"] = _ratio(total("degeneration.trials_certified"), total("degeneration.trials"))
        for layer in LAYERS:
            out[f"{layer}.share"] = _ratio(self.self_by_layer.get(layer, 0), self.op_time)
        return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s/ideal"
    if metric.endswith(("share", "_ratio", "_yield")):
        return "ratio"
    return "count/call"
