"""Sum coloring, properness verification, exact chromatic index."""

import builtins
import copy
import dataclasses
import itertools
import operator
import types

import pytest

import wnc
from wnc import coloring
from wnc.bitsets import bit_list, mask_of
from wnc.graph import upper_neighbors

from corpus import ACCEPTANCE_CORPUS, realize
from oracles import (check_sum_coloring, chromatic_index_with_hints,
                     round_robin_coloring, sum_edge_coloring,
                     verify_proper_edge_coloring)

PETERSEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                  (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]


def petersen():
    return wnc.make_graph(PETERSEN_EDGES, 10)


def test_sum_coloring_examples():
    ring, cls, graph = realize("Z10")
    coloring = sum_edge_coloring(ring, graph)
    assert set(coloring.values()) <= set(bit_list(cls.wnc))

    ring2, _, g2 = realize("Z2")
    assert sum_edge_coloring(ring2, g2) == {(0, 1): 1}

    ring3, _, g3 = realize("Z3")
    assert sum_edge_coloring(ring3, g3) == {(0, 1): 1, (0, 2): 2, (1, 2): 0}


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_sum_coloring_is_proper_with_colors_in_wnc(expr):
    ring, cls, graph = realize(expr)
    coloring = sum_edge_coloring(ring, graph)
    assert verify_proper_edge_coloring(graph, coloring)
    colors = set(coloring.values())
    assert all(cls.wnc >> c & 1 for c in colors)
    assert len(colors) <= cls.wnc.bit_count()


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + ("Z12/nil", "Z2 x Z7"))
def test_check_sum_coloring_matches_the_dict_reference(expr):
    ring, _, graph = realize(expr)
    coloring = sum_edge_coloring(ring, graph)
    assert check_sum_coloring(graph) == (
        verify_proper_edge_coloring(graph, coloring),
        mask_of(coloring.values()))


@pytest.mark.parametrize("add", [lambda a, b: 0, lambda a, b: a * b % 6],
                         ids=["constant", "product"])
def test_check_sum_coloring_flags_a_non_cancellative_add(add):
    # a stub "ring" whose add is not cancellative: edges at a shared vertex
    # can get the same color, which only a computed check notices
    _, _, graph = realize("Z6")
    stub = types.SimpleNamespace(size=graph.vertex_count, add=add, radices=None)
    coloring = sum_edge_coloring(stub, graph)
    assert not verify_proper_edge_coloring(graph, coloring)
    assert check_sum_coloring(dataclasses.replace(graph, ring=stub)) == (
        False, mask_of(coloring.values()))


SUM_EXPRS = ACCEPTANCE_CORPUS + ("Z12/nil", "Z2 x Z2 x Z2", "Z4 x Z9",
                                 "M2(Z2 x Z2)", "M2(GF(4))", "(Z4 x Z9)/nil x Z3")


@pytest.mark.parametrize("mode", ["adds", "shipped", "rows"])
@pytest.mark.parametrize("expr", SUM_EXPRS)
def test_sum_sets_are_the_images_under_add(expr, mode, monkeypatch):
    # adds: the layout removed, so every row makes one add per neighbor;
    # shipped: the pass as shipped, certified wherever the rows were
    # translated; rows: every ring with a layout translates its rows and
    # has them certified
    ring, cls, graph = realize(expr)
    if mode == "adds":
        ring = copy.copy(ring)
        ring.radices = None
        graph = dataclasses.replace(graph, ring=ring)
    elif mode == "rows":
        monkeypatch.setattr(wnc.graph, "ADDS_PER_DIGIT", 0)
        graph = wnc.build_wnc_graph(ring, cls)
    translated = wnc.graph.rows_translated(ring, cls.wnc)
    if mode != "shipped":
        assert translated == (mode == "rows" and ring.radices is not None)
    assert coloring.certify_rows(graph) == translated
    for x, degree, sums in coloring.sum_sets(graph):
        row = graph.adjacency[x]
        assert degree == row.bit_count()
        assert sums == mask_of(ring.add(x, y) for y in bit_list(row))


@pytest.mark.parametrize("expr", ["Z12", "Z16 x Z3", "M2(Z3)", "Z2 x Z2 x Z2"])
def test_certified_rows_make_at_most_n_digits_plus_two_adds(expr):
    # the certificate reads one addition row per digit and makes two adds
    # per vertex; the report has read ring.doubles before the pass
    ring, _, graph = realize(expr)
    ring.doubles
    calls = []
    counted = copy.copy(ring)
    counted.add = lambda a, b: calls.append((a, b)) or ring.add(a, b)
    counted_graph = dataclasses.replace(graph, ring=counted)
    assert list(coloring.sum_sets(counted_graph)) == list(coloring.sum_sets(graph))
    assert coloring.certify_rows(graph)
    assert 0 < len(calls) <= ring.size * (len(ring.radices) + 2)


@pytest.mark.parametrize("bad_row", [
    lambda n, x: [x] * n,  # not a permutation
    lambda n, x: list(range(1, n)) + [0],  # not its own inverse
    lambda n, x: [n + 5] * n,  # ids off the carrier
    lambda n, x: None,
], ids=["constant", "rotation", "off-carrier", "none"])
@pytest.mark.parametrize("expr", ["Z12", "Z2 x Z2 x Z2", "M2(Z2)"])
def test_a_refused_add_row_falls_back_to_add(expr, bad_row):
    # add on the generators' rows, the rows check (b) reads, is no
    # permutation, or not the move that translate makes: the certificate
    # refuses it (the rotation is Z12's true row of 1, which passes), and
    # the rows are summed with one add per neighbor, so the sums are the
    # images under that add, or its error when it gives no id at all
    ring, _, graph = realize(expr)
    n = ring.size
    gens = set(itertools.accumulate((1, *ring.radices[:-1]), operator.mul))
    twin = copy.copy(ring)
    twin.add = lambda a, b: bad_row(n, a)[b] if a in gens else ring.add(a, b)
    twin_graph = dataclasses.replace(graph, ring=twin)
    true_rows = all(bad_row(n, g) == [ring.add(g, y) for y in range(n)]
                    for g in gens)
    assert coloring.certify_rows(twin_graph) == true_rows
    if bad_row(n, 1) is None:
        with pytest.raises(TypeError):
            list(coloring.sum_sets(twin_graph))
        return
    assert list(coloring.sum_sets(twin_graph)) == [
        (x, row.bit_count(), mask_of(twin.add(x, y) for y in bit_list(row)))
        for x, row in enumerate(graph.adjacency)]


def test_check_sum_coloring_refuses_a_graph_without_a_ring():
    _, _, graph = realize("Z6")
    with pytest.raises(ValueError):
        check_sum_coloring(dataclasses.replace(graph, ring=None))


@pytest.mark.parametrize("m", range(2, 65))
def test_round_robin_colors_k_m_optimally(m):
    complete = wnc.make_graph(itertools.combinations(range(m), 2), m)
    coloring = round_robin_coloring(list(range(m)))
    assert verify_proper_edge_coloring(complete, coloring)
    assert len(set(coloring.values())) == (m - 1 if m % 2 == 0 else m)


def test_verify_rejects_bad_colorings():
    _, _, g3 = realize("Z3")
    assert not verify_proper_edge_coloring(g3, {(0, 1): 7, (0, 2): 7, (1, 2): 7})
    with pytest.raises(ValueError):
        verify_proper_edge_coloring(g3, {(0, 1): 0})  # partial
    with pytest.raises(ValueError):
        verify_proper_edge_coloring(g3, {(0, 1): 0, (0, 2): 1, (1, 2): 2,
                                             (0, 9): 3})  # not an edge


def test_verify_accepts_empty_graph():
    empty = wnc.make_graph([], 3)
    assert verify_proper_edge_coloring(empty, {})


def test_chromatic_index_examples():
    assert wnc.chromatic_index_exact(realize("Z2")[2]) == 1  # K_2
    assert wnc.chromatic_index_exact(realize("Z3")[2]) == 3  # K_3: class 2
    assert wnc.chromatic_index_exact(realize("Z10")[2]) == 6  # = max degree
    g10, g3 = realize("Z10")[2], realize("Z3")[2]
    assert wnc.chromatic_index_exact(g10) == wnc.max_degree(g10) == 6  # class 1
    assert wnc.chromatic_index_exact(g3) == wnc.max_degree(g3) + 1  # class 2


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_chromatic_index_within_vizing_bounds(expr):
    ring, cls, graph = realize(expr)
    hints = (sum_edge_coloring(ring, graph),)
    chi = chromatic_index_with_hints(graph, hints)
    delta = wnc.max_degree(graph)
    assert chi is not wnc.UNKNOWN
    assert delta <= chi <= delta + 1
    assert chi <= cls.wnc.bit_count()


def test_complete_graph_chromatic_indices():
    # even complete: n - 1 colors; odd complete: n colors
    assert wnc.chromatic_index_exact(realize("Z32")[2]) == 31
    assert wnc.chromatic_index_exact(realize("Z36")[2]) == 35
    assert wnc.chromatic_index_exact(realize("Z27")[2]) == 27
    # class 2: chi' = Delta + 1
    for expr in ("Z27", "Z9"):
        graph = realize(expr)[2]
        assert wnc.chromatic_index_exact(graph) == wnc.max_degree(graph) + 1


def test_petersen_is_class_two():
    graph = petersen()
    assert wnc.max_degree(graph) == 3
    assert wnc.chromatic_index_exact(graph) == 4  # Delta + 1: class 2


def no_nodes():
    return wnc.Budget("chromatic-index", 0)


def test_budget_exhaustion_returns_unknown():
    graph = petersen()
    assert wnc.chromatic_index_exact(graph, budget=no_nodes()) is wnc.UNKNOWN


def test_proper_hint_short_circuits_search():
    ring, _, graph = realize("Z10")
    hint = sum_edge_coloring(ring, graph)
    assert chromatic_index_with_hints(graph, (hint,), budget=no_nodes()) == 6


def test_malformed_hints_are_ignored():
    ring, _, graph = realize("Z10")
    partial = {(0, 1): 0}
    improper = {e: 0 for e in wnc.edges(graph)}
    good = sum_edge_coloring(ring, graph)
    assert chromatic_index_with_hints(graph, (partial, improper, good)) == 6


def test_chromatic_index_empty_graph():
    assert wnc.chromatic_index_exact(wnc.make_graph([], 4)) == 0


def test_complete_components_and_counting_bound_need_no_search():
    # K_3 next to K_4: delta = 3 and K_3 needs 3 colors, so class 1; with
    # budget 0 any search would have answered UNKNOWN
    k3_k4 = wnc.make_graph([(0, 1), (1, 2), (0, 2)]
                           + list(itertools.combinations(range(3, 7), 2)), 7)
    assert wnc.chromatic_index_exact(k3_k4, budget=no_nodes()) == 3
    # K_5 minus one edge: 9 edges > delta * floor(5/2) = 8, refuted
    # without a search
    k5e = wnc.make_graph([e for e in itertools.combinations(range(5), 2)
                          if e != (0, 1)], 5)
    assert wnc.chromatic_index_exact(k5e, budget=no_nodes()) == 5


def test_search_handles_disconnected_mixed_components():
    # triangle (needs 3) next to a path (needs 2): chi' = 3 = Delta + 1
    graph = wnc.make_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)], 6)
    assert wnc.max_degree(graph) == 2
    assert wnc.chromatic_index_exact(graph) == 3


def without_zero_one(expr):
    """The ring's graph without the edge {0, 1}: its sum coloring then uses
    more than Delta colors, which leaves chi' to the search."""
    ring, _, graph = realize(expr)
    rows = list(graph.adjacency)
    rows[ring.zero] &= ~(1 << ring.one)
    rows[ring.one] &= ~(1 << ring.zero)
    return dataclasses.replace(graph, adjacency=rows)


@pytest.mark.parametrize("name,chi", [("Petersen", 4), ("Z12", 11),
                                      ("Z3 x Z3", 7)])
def test_mrv_steps_pick_the_edges_the_sorted_scan_picked(name, chi, monkeypatch):
    # each step takes the least (colors left, edge id); the former rule,
    # the first edge by colors left in a sorted scan, picks the same edge
    # at every step, so the search visits the same sequence of edges
    graph = petersen() if name == "Petersen" else without_zero_one(name)
    chosen = []

    def spy(edges, key):
        edges = list(edges)
        edge = builtins.min(edges, key=key)
        assert edge == builtins.min(sorted(edges), key=lambda e: key(e)[0])
        chosen.append(edge)
        return edge

    monkeypatch.setattr(coloring, "min", spy, raising=False)
    assert wnc.chromatic_index_exact(graph) == chi
    assert len(chosen) > 1


def test_a_component_larger_than_the_budget_builds_no_edge_index(monkeypatch):
    graph = without_zero_one("Z4 x Z9")  # K36 minus an edge
    ecount = wnc.edge_count(graph)
    indexed = []

    def spy(graph, vertices):
        indexed.append(vertices)
        return upper_neighbors(graph, vertices)

    monkeypatch.setattr(coloring, "upper_neighbors", spy)
    budget = wnc.Budget("chromatic-index", ecount - 1)
    assert wnc.chromatic_index_exact(graph, budget) is wnc.UNKNOWN
    assert (budget.used, budget.exhausted, indexed) == (0, True, [])
    # with one node per edge the index is built, and the first MRV scan
    # is refused
    budget = wnc.Budget("chromatic-index", ecount)
    assert wnc.chromatic_index_exact(graph, budget) is wnc.UNKNOWN
    assert budget.used == ecount and indexed == [list(range(36))]


def test_each_mrv_step_is_charged_the_edges_it_scans(monkeypatch):
    # Petersen: 15 edges, 3 of them colored by the symmetry at vertex 0,
    # so the first step scans the other 12
    scans = []

    def spy(edges, key):
        edges = list(edges)
        scans.append(len(edges))
        return builtins.min(edges, key=key)

    monkeypatch.setattr(coloring, "min", spy, raising=False)
    budget = wnc.Budget("chromatic-index", 15 + 12 - 1)
    assert wnc.chromatic_index_exact(petersen(), budget) is wnc.UNKNOWN
    assert (budget.used, scans) == (15, [])
    budget = wnc.Budget("chromatic-index", 15 + 12)
    assert wnc.chromatic_index_exact(petersen(), budget) is wnc.UNKNOWN
    assert (budget.used, scans) == (15 + 12, [12])
