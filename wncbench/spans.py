"""Per-layer tracing of `wnc`, installed from outside the package.

`Tracer.install` wraps every public function of the eight layer modules and
rebinds each name under which the package or its modules hold that
function, so calls between modules and inside a module go through the
wrapper. A wrapper records a span (name, start, end, parent) and keeps it in
memory; `Tracer.summary` derives calls, inclusive and self times from the
spans when the operation ends. Generator functions are left unwrapped: their
work runs interleaved with the caller and is counted as the caller's.

`count_ring_ops` is the separate counting pass: it wraps each ring's `add`
and `mul` after construction, so counting never runs inside a timed span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("ringexpr", "rings", "classify", "graph", "invariants", "coloring",
          "theorems", "cli")

# Builders whose result graphs are counted into `graph.edges`.
_EDGE_COUNTED = ("graph.build_wnc_graph", "graph.build_nc_graph")


class Tracer:
    """Spans of one operation, kept in memory until `summary`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end or None, parent index]
        self.stack: list[int] = []
        self.edges = 0
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        count_edges = name in _EDGE_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if count_edges:
                self.edges += sum(r.bit_count() for r in result.adjacency) // 2
            return result

        return traced

    def install(self):
        """Wrap the public functions of every layer and rebind their names."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wnc.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        holders = [m for name, m in list(sys.modules.items())
                   if name == "wnc" or name.startswith("wnc.")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._undo.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()

    def summary(self) -> dict:
        """Calls and inclusive time per function, self time per layer.

        Spans still open (the operation was stopped at its deadline) end
        now. A function's inclusive time counts only its outermost spans,
        so recursion is not counted twice; self time is a span's duration
        minus the durations of its direct children.
        """
        now = self.clock()
        spans = [(name, start, now if end is None else end, parent)
                 for name, start, end, parent in self.spans]
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        root_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            took = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name.split(".", 1)[0]] += took - child_s[i]
            if parent < 0:
                root_s += took
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                incl[name] = incl.get(name, 0.0) + took
        return {"calls": calls, "incl": incl, "self": self_s, "root_s": root_s,
                "edges": self.edges}


def count_ring_ops(counts: dict):
    """Count every `add` and `mul` on rings built from now on into `counts`."""
    from wnc.rings import FiniteRing

    construct = FiniteRing.__init__
    counts.setdefault("add", 0)
    counts.setdefault("mul", 0)

    def counting_init(ring, *args, **kwargs):
        construct(ring, *args, **kwargs)
        add, mul = ring.add, ring.mul

        def counted_add(a, b):
            counts["add"] += 1
            return add(a, b)

        def counted_mul(a, b):
            counts["mul"] += 1
            return mul(a, b)

        ring.add, ring.mul = counted_add, counted_mul

    FiniteRing.__init__ = counting_init
    return lambda: setattr(FiniteRing, "__init__", construct)


# Per-layer metrics: name, unit, source in the summed summaries, and the
# end-to-end metric each should move, on which workload.
#   ("incl", f...)  inclusive seconds of the named functions
#   ("calls", f...) number of spans of the named functions
#   ("self", layer) self seconds of every span of the layer
#   ("ops", op)     ring operations counted in the counting pass
LAYER_METRICS = [
    ("ringexpr.parse_s", "s", ("incl", "ringexpr.parse_ring_expr"),
     "ok_ratio on probes"),
    ("rings.build_s", "s", ("incl", "rings.build_ring"),
     "pass_s on sparse and dense"),
    ("rings.build_calls", "count", ("calls", "rings.build_ring"),
     "pass_s on sparse and dense"),
    ("rings.quotient_s", "s", ("incl", "rings.nilradical_quotient"),
     "pass_s on sparse"),
    ("rings.quotient_calls", "count", ("calls", "rings.nilradical_quotient"),
     "pass_s on sparse"),
    ("rings.add_calls", "count", ("ops", "add"), "pass_s on sparse"),
    ("rings.mul_calls", "count", ("ops", "mul"), "pass_s on sparse"),
    ("classify.nilpotents_s", "s", ("incl", "classify.nilpotents"),
     "pass_s on sparse"),
    ("classify.nilpotents_calls", "count", ("calls", "classify.nilpotents"),
     "pass_s on sparse"),
    ("classify.idempotents_s", "s", ("incl", "classify.idempotents"),
     "pass_s on sparse"),
    ("classify.wnc_set_s", "s", ("incl", "classify.weakly_nil_clean_set"),
     "pass_s on sparse"),
    ("classify.wnc_set_calls", "count",
     ("calls", "classify.weakly_nil_clean_set"), "pass_s on sparse"),
    ("graph.build_s", "s",
     ("incl", "graph.build_wnc_graph", "graph.build_nc_graph"),
     "pass_s and peak_rss_mb on dense"),
    ("graph.build_calls", "count",
     ("calls", "graph.build_wnc_graph", "graph.build_nc_graph"),
     "pass_s and peak_rss_mb on dense"),
    ("graph.edges", "count", ("edges",), "pass_s and peak_rss_mb on dense"),
    ("invariants.components_s", "s", ("incl", "invariants.components"),
     "pass_s on sparse"),
    ("invariants.components_calls", "count", ("calls", "invariants.components"),
     "pass_s on sparse"),
    ("invariants.diameter_s", "s", ("incl", "invariants.diameter"),
     "pass_s on sparse"),
    ("invariants.girth_s", "s", ("incl", "invariants.girth"), "pass_s on dense"),
    ("invariants.bipartite_s", "s", ("incl", "invariants.is_bipartite"),
     "pass_s on dense"),
    ("invariants.clique_s", "s", ("incl", "invariants.max_clique"),
     "pass_s on dense, ok_ratio on probes"),
    ("invariants.kcliques_s", "s", ("incl", "invariants.enumerate_k_cliques"),
     "ok_ratio on probes"),
    ("coloring.sum_s", "s", ("incl", "coloring.sum_edge_coloring"),
     "pass_s and peak_rss_mb on dense"),
    ("coloring.verify_s", "s", ("incl", "coloring.verify_proper_edge_coloring"),
     "pass_s and peak_rss_mb on dense"),
    ("coloring.verify_calls", "count",
     ("calls", "coloring.verify_proper_edge_coloring"),
     "pass_s and peak_rss_mb on dense"),
    ("coloring.chi_s", "s", ("incl", "coloring.chromatic_index_exact"),
     "pass_s and peak_rss_mb on dense"),
] + [(f"{layer}.self_s", "s", ("self", layer), moves)
     for layer, moves in (
         ("ringexpr", "ok_ratio on probes"),
         ("rings", "pass_s on sparse"),
         ("classify", "pass_s on sparse"),
         ("graph", "pass_s on dense"),
         ("invariants", "pass_s on sparse and dense"),
         ("coloring", "pass_s on dense"),
         ("theorems", "rings_per_s on census"),
         ("cli", "rings_per_s on census"))]


def layer_values(summaries: list[dict], ops: dict) -> dict[str, float]:
    """Sum per-operation summaries into the LAYER_METRICS values."""
    total = {"calls": {}, "incl": {}, "self": {}, "edges": 0}
    for s in summaries:
        for part in ("calls", "incl", "self"):
            for key, value in s[part].items():
                total[part][key] = total[part].get(key, 0) + value
        total["edges"] += s["edges"]
    values = {}
    for name, _unit, (kind, *keys), _moves in LAYER_METRICS:
        if kind == "edges":
            values[name] = total["edges"]
        elif kind == "ops":
            values[name] = ops.get(keys[0], 0)
        else:
            values[name] = sum(total[kind].get(k, 0) for k in keys)
    return values
