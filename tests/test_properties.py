"""Property-based invariants over randomly drawn rings."""

from hypothesis import given, settings, strategies as st

import wnc
from wnc.bitsets import bit_list, mask_of

from corpus import realize
from oracles import (naive_decompositions, sum_edge_coloring,
                     verify_proper_edge_coloring)

COMPOSITE_EXPRS = ["GF(4)", "GF(8)", "GF(9)", "GF(25)", "GF(27)", "GF(49)",
                   "Z3 x Z3", "Z2 x Z2", "Z4 x Z9", "Z3 x Z5", "M2(Z2)",
                   "Z12/nil", "Z8/nil", "(Z4 x Z9)/nil", "M2(Z3)"]

ring_exprs = st.one_of(
    st.integers(min_value=2, max_value=60).map(lambda n: f"Z{n}"),
    st.sampled_from(COMPOSITE_EXPRS),
)


@settings(max_examples=60, deadline=None)
@given(expr=ring_exprs)
def test_class_containments(expr):
    ring, cls, _ = realize(expr)
    assert cls.nc & ~cls.wnc == 0
    assert cls.idem & ~cls.nc == 0
    assert cls.nil & ~cls.nc == 0
    for x in (ring.zero, ring.one, ring.neg(ring.one)):
        assert cls.wnc >> x & 1
    for e in bit_list(cls.idem):
        assert cls.wnc >> ring.neg(e) & 1


@settings(max_examples=60, deadline=None)
@given(expr=ring_exprs)
def test_witnesses_replay(expr):
    ring, cls, _ = realize(expr)
    found = naive_decompositions(ring)
    for x, ws in found.items():
        for n, e, sign in ws:
            assert ring.add(n, e if sign > 0 else ring.neg(e)) == x
    assert mask_of(found) == cls.wnc


@settings(max_examples=40, deadline=None)
@given(expr=ring_exprs)
def test_graph_shape_and_degree_formula(expr):
    ring, cls, graph = realize(expr)
    wnc_size = cls.wnc.bit_count()
    for v in range(graph.vertex_count):
        row = graph.adjacency[v]
        assert not row >> v & 1
        expected = wnc_size - 1 if cls.wnc >> ring.add(v, v) & 1 else wnc_size
        assert row.bit_count() == expected
        for u in bit_list(row):
            assert graph.adjacency[u] >> v & 1


@settings(max_examples=40, deadline=None)
@given(expr=ring_exprs)
def test_sum_coloring_proper_and_bounded(expr):
    ring, cls, graph = realize(expr)
    coloring = sum_edge_coloring(ring, graph)
    assert verify_proper_edge_coloring(graph, coloring)
    colors = set(coloring.values())
    assert len(colors) <= cls.wnc.bit_count()
    assert all(cls.wnc >> c & 1 for c in colors)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=3, max_value=60))
def test_zn_graphs_are_connected_with_girth_three(n):
    _, _, graph = realize(f"Z{n}")
    assert len(wnc.components(graph)) == 1
    assert wnc.girth(graph) == 3


@settings(max_examples=30, deadline=None)
@given(expr=ring_exprs)
def test_completeness_iff_wnc_ring(expr):
    ring, cls, graph = realize(expr)
    n = ring.size
    complete = wnc.edge_count(graph) == n * (n - 1) // 2
    assert complete == (cls.wnc == (1 << n) - 1)
