"""Sum coloring, properness verification, exact chromatic index."""

import copy
import functools
import itertools
import operator
import types

import pytest
from hypothesis import given, settings, strategies as st

import wnc
from wnc.bitsets import bit_list, mask_of
from wnc.cli import main

from corpus import ACCEPTANCE_CORPUS, realize
from oracles import (chromatic_index_with_hints, edge_colorable, rebuilt,
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
    # the graph's one sum pass against one add per edge: proper, the colors
    # used, and the colors at every x together with 2x
    ring, _, graph = realize(expr)
    coloring = sum_edge_coloring(ring, graph)
    at = [{ring.add(x, x)} for x in range(ring.size)]
    for (u, v), c in coloring.items():
        at[u].add(c)
        at[v].add(c)
    assert graph.sum_coloring == (
        verify_proper_edge_coloring(graph, coloring),
        mask_of(coloring.values()), mask_of(set.intersection(*at)))


@pytest.mark.parametrize("add", [lambda a, b: 0, lambda a, b: a * b % 6],
                         ids=["constant", "product"])
def test_check_sum_coloring_flags_a_non_cancellative_add(add):
    # a stub "ring" whose add is not cancellative: edges at a shared vertex
    # can get the same color, which only a computed check notices
    _, _, graph = realize("Z6")
    stub = types.SimpleNamespace(size=graph.vertex_count, add=add,
                                 radices=None, doubles=[0] * 6)
    coloring = sum_edge_coloring(stub, graph)
    assert not verify_proper_edge_coloring(graph, coloring)
    assert rebuilt(graph, ring=stub).sum_coloring[:2] == (
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
        graph = rebuilt(graph, ring=ring)
    elif mode == "rows":
        monkeypatch.setattr(wnc.graph, "ADDS_PER_DIGIT", 0)
        graph = wnc.build_wnc_graph(ring, cls)
    translated = wnc.graph.rows_translated(ring, cls.wnc)
    if mode != "shipped":
        assert translated == (mode == "rows" and ring.radices is not None)
    assert wnc.graph.certify_rows(graph) == translated
    for x, degree, sums in wnc.graph.sum_sets(graph):
        row = graph.adjacency[x]
        assert degree == row.bit_count()
        assert sums == mask_of(ring.add(x, y) for y in bit_list(row))


@pytest.mark.parametrize("expr", ["Z12", "Z16 x Z3", "M2(Z3)", "Z2 x Z2 x Z2"])
def test_certified_rows_make_at_most_n_digits_adds(expr):
    # the certificate reads one addition row per digit and (c) reads its
    # steps off their inverses, and the sum coloring of certified rows
    # makes no add; the report has read ring.doubles before the pass
    ring, _, graph = realize(expr)
    ring.doubles
    calls = []
    counted = copy.copy(ring)
    counted.add = lambda a, b: calls.append((a, b)) or ring.add(a, b)
    counted_graph = rebuilt(graph, ring=counted)
    assert counted_graph.sum_coloring == graph.sum_coloring
    assert wnc.graph.certify_rows(graph)
    assert 0 < len(calls) <= ring.size * len(ring.radices)


def _folded_sum_sets(graph):
    """(proper, colors, covered) folded from the per-neighbor pass."""
    doubles, passes = graph.ring.doubles, list(wnc.graph.sum_sets(graph))
    return (all(sums.bit_count() == degree for _, degree, sums in passes),
            functools.reduce(operator.or_, (sums for _, _, sums in passes), 0),
            functools.reduce(operator.and_, (
                sums | 1 << doubles[x] for x, _, sums in passes), -1))


@pytest.mark.parametrize("expr", dict.fromkeys(
    SUM_EXPRS + tuple(f"Z{k}" for k in range(2, 152))
    + ("M2(GF(4)) x Z3", "M2(GF(4)) x Z6")))
def test_the_certified_sum_coloring_is_the_per_neighbor_fold(expr):
    # on certified rows the sum coloring is read off S and the doubles,
    # with no addition; the characteristic-2 rings, where every 2x is 0,
    # drop 0 from the colors and add it to the covered set
    ring, cls, graph = realize(expr)
    for g in (graph, wnc.build_nc_graph(ring, cls)):
        if g.certified:
            assert g.sum_coloring == _folded_sum_sets(g)


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
    twin_graph = rebuilt(graph, ring=twin)
    true_rows = all(bad_row(n, g) == [ring.add(g, y) for y in range(n)]
                    for g in gens)
    assert wnc.graph.certify_rows(twin_graph) == true_rows
    if bad_row(n, 1) is None:
        with pytest.raises(TypeError):
            list(wnc.graph.sum_sets(twin_graph))
        return
    assert list(wnc.graph.sum_sets(twin_graph)) == [
        (x, row.bit_count(), mask_of(twin.add(x, y) for y in bit_list(row)))
        for x, row in enumerate(graph.adjacency)]


def test_check_sum_coloring_refuses_a_graph_without_a_ring():
    _, _, graph = realize("Z6")
    with pytest.raises(ValueError):
        rebuilt(graph, ring=None).sum_coloring


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
    # 3-regular with 15 edges on 10 vertices, so the counting bound refutes
    # nothing and there is no ring to color from: the answer is unknown,
    # never 3, and the exhaustive search shows that 4 colors are needed
    graph = petersen()
    assert wnc.max_degree(graph) == 3
    assert not edge_colorable(graph, 3) and edge_colorable(graph, 4)
    assert wnc.chromatic_index_exact(graph) is wnc.UNKNOWN


def test_a_component_no_rule_decides_is_unknown():
    # K36 minus an edge from Z4 x Z9: its sum coloring uses more than
    # Delta colors, and its rows are not certified
    graph = without_zero_one("Z4 x Z9")
    assert not graph.certified
    assert wnc.chromatic_index_exact(graph) is wnc.UNKNOWN
    # the sum graph over Z3 x Z2 x Z2 of three cosets of K = {0, 4, 8}:
    # every 2x lies in K, but |K| is odd, so no 1-factorization colors the
    # cosets with |K| - 1 colors, and the sum coloring needs |S| = 9 > 8
    ring = wnc.build_ring(wnc.parse_ring_expr("Z3 x Z2 x Z2"))
    graph = wnc.graph._build(ring, mask_of(k + p for k in (0, 4, 8)
                                           for p in (0, 1, 2)))
    assert graph.period == ([0, 4, 8], True)
    assert wnc.max_degree(graph) == 8
    assert wnc.chromatic_index_exact(graph) is wnc.UNKNOWN
    # the sum graph over Z8 of {0, 1, 2, 4, 5, 6}: K = {0, 4} is even, but
    # 2 and 6 are doubles outside it
    ring = wnc.build_ring(wnc.parse_ring_expr("Z8"))
    graph = wnc.graph._build(ring, mask_of((0, 1, 2, 4, 5, 6)))
    assert graph.period == ([0, 4], False)
    assert wnc.chromatic_index_exact(graph) is wnc.UNKNOWN
    # Z10 under a constant add: one color, but not a proper coloring
    _, _, graph = realize("Z10")
    stub = types.SimpleNamespace(size=10, add=lambda a, b: 0, radices=None,
                                 doubles=[0] * 10)
    assert wnc.chromatic_index_exact(graph) == 6
    assert wnc.chromatic_index_exact(
        rebuilt(graph, ring=stub)) is wnc.UNKNOWN


# the sum coloring as an improper one, so that steps 2 and 3 decide
REFUSED = property(lambda graph: (False, 0, 0))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 7), data=st.data())
def test_decided_chromatic_indices_of_random_graphs_are_exact(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
    graph = wnc.make_graph([e for e, k in zip(pairs, keep) if k], n)
    chi = wnc.chromatic_index_exact(graph)
    if chi is not wnc.UNKNOWN:
        assert chi == next(k for k in itertools.count()
                           if edge_colorable(graph, k))


@pytest.mark.parametrize("expr", ["Z4", "Z6", "Z8", "Z2 x Z4", "Z2 x Z2 x Z2"])
@pytest.mark.parametrize("sums", [True, False], ids=["sums", "period-only"])
def test_decided_chromatic_indices_of_sum_graphs_are_exact(expr, sums,
                                                           monkeypatch):
    # the sum graph of every clean set of a small ring, certified or not,
    # with and without the sum coloring; "period-only" leaves the sum
    # graphs that the bounds do not settle to the period construction
    if not sums:
        monkeypatch.setattr(wnc.WncGraph, "sum_coloring", REFUSED)
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    decided = set()
    for clean in range(1 << ring.size):
        graph = wnc.graph._build(ring, clean)
        chi = wnc.chromatic_index_exact(graph)
        if chi is not wnc.UNKNOWN:
            delta = wnc.max_degree(graph)
            assert chi == (delta if edge_colorable(graph, delta)
                           else delta + 1), clean
            decided.add(graph.certified)
    assert decided == {True, False}


def test_proper_hint_short_circuits_search():
    ring, _, graph = realize("Z10")
    hint = sum_edge_coloring(ring, graph)
    assert chromatic_index_with_hints(graph, (hint,)) == 6


def test_malformed_hints_are_ignored():
    ring, _, graph = realize("Z10")
    partial = {(0, 1): 0}
    improper = {e: 0 for e in wnc.edges(graph)}
    good = sum_edge_coloring(ring, graph)
    assert chromatic_index_with_hints(graph, (partial, improper, good)) == 6


def test_chromatic_index_empty_graph():
    assert wnc.chromatic_index_exact(wnc.make_graph([], 4)) == 0


def test_complete_components_and_counting_bound_need_no_search():
    # K_3 next to K_4: delta = 3 and K_3 needs 3 colors, so class 1
    k3_k4 = wnc.make_graph([(0, 1), (1, 2), (0, 2)]
                           + list(itertools.combinations(range(3, 7), 2)), 7)
    assert wnc.chromatic_index_exact(k3_k4) == 3
    # K_5 minus one edge: 9 edges > delta * floor(5/2) = 8, refuted
    k5e = wnc.make_graph([e for e in itertools.combinations(range(5), 2)
                          if e != (0, 1)], 5)
    assert wnc.chromatic_index_exact(k5e) == 5


def test_search_handles_disconnected_mixed_components():
    # triangle (needs 3) next to a path (needs 2): chi' = 3 = Delta + 1
    graph = wnc.make_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)], 6)
    assert wnc.max_degree(graph) == 2
    assert wnc.chromatic_index_exact(graph) == 3


def without_zero_one(expr):
    """The ring's graph without the edge {0, 1}: its sum coloring then uses
    more than Delta colors."""
    ring, _, graph = realize(expr)
    rows = list(graph.adjacency)
    rows[ring.zero] &= ~(1 << ring.one)
    rows[ring.one] &= ~(1 << ring.zero)
    return rebuilt(graph, adjacency=rows)


def shifted_generator_row(expr):
    """The ring's graph under an add that is off by h, 2h = 0, on the row
    of its last digit unit g: add(g, y) = g + y + h, and true elsewhere."""
    ring, _, graph = realize(expr)
    h = next(v for v in range(1, ring.size) if ring.add(v, v) == ring.zero)
    g = list(itertools.accumulate((1, *ring.radices[:-1]), operator.mul))[-1]
    ring.doubles  # read from the true add, and kept by the copy
    shifted = copy.copy(ring)
    shifted.add = lambda a, b: ring.add(ring.add(a, h) if a == g else a, b)
    return rebuilt(graph, ring=shifted)


@pytest.mark.parametrize("tamper", [without_zero_one, shifted_generator_row])
@pytest.mark.parametrize("expr", ["Z4 x Z9", "Z12", "M2(Z2)"])
def test_covered_is_the_per_vertex_subgraph_test(expr, tamper):
    # a set lies in the meet of the sets sums(x) and {2x} iff it lies in
    # sums(x) after 2x is taken out, at every x: on uncertified rows too,
    # for NC, WNC and each single element
    graph, cls = tamper(expr), realize(expr)[1]
    assert not graph.certified
    doubles = graph.ring.doubles
    passes = list(wnc.graph.sum_sets(graph))
    covered = graph.sum_coloring[2]
    for clean in [cls.nc, cls.wnc, *(1 << c for c in range(graph.vertex_count))]:
        assert (clean & ~covered == 0) == all(
            clean & ~(1 << doubles[x]) & ~sums == 0 for x, _, sums in passes)
    assert passes != list(wnc.graph.sum_sets(realize(expr)[2]))  # tampered


# certified rings whose period K of the clean set S holds every 2x and
# has even order: the hypotheses of the period construction
PERIOD_EXPRS = ("Z4", "Z12", "M2(Z2)", "Z2 x Z4", "Z4 x Z6", "M2(GF(4)) x Z3")


def period_coloring(ring, graph, k):
    """The coloring the period construction promises: a round robin on
    each coset of K and x + y on every other edge."""
    out = {}
    for x in range(ring.size):
        coset = sorted(ring.add(x, t) for t in k)
        if coset[0] == x:  # each coset once, from its least member
            out.update({e: ("coset", c)
                        for e, c in round_robin_coloring(coset).items()})
    for u, v in wnc.edges(graph):
        if (u, v) not in out:
            out[u, v] = ring.add(u, v)
    return out


@pytest.mark.parametrize("expr", PERIOD_EXPRS)
def test_the_period_construction_uses_delta_colors(expr, monkeypatch):
    ring, _, graph = realize(expr)
    k, doubled = graph.period
    assert graph.certified and doubled and graph.clean_set & 1
    assert len(k) % 2 == 0
    colors = period_coloring(ring, graph, k)
    sums = {c for c in colors.values() if isinstance(c, int)}
    assert not sums & set(k)  # the sums of the other edges lie outside K
    assert verify_proper_edge_coloring(graph, colors)
    delta = wnc.max_degree(graph)
    assert len(set(colors.values())) == delta
    # with the sum coloring refused, the bounds or the construction decide
    monkeypatch.setattr(wnc.WncGraph, "sum_coloring", REFUSED)
    assert wnc.chromatic_index_exact(graph) == delta


def test_a_cleared_coset_edge_is_not_colored_from_the_period():
    # 0 and the next member of K share a coset: without that edge the rows
    # fail the certificate, so the period construction does not apply
    _, _, graph = realize("M2(GF(4)) x Z3")
    k, _ = graph.period
    assert wnc.chromatic_index_exact(graph) == wnc.max_degree(graph) == 287
    rows = list(graph.adjacency)
    rows[k[0]] &= ~(1 << k[1])
    rows[k[1]] &= ~(1 << k[0])
    cut = rebuilt(graph, adjacency=rows)
    assert not cut.certified and cut.period is None
    assert wnc.max_degree(cut) == 287
    assert wnc.chromatic_index_exact(cut) is wnc.UNKNOWN


BLOW_UPS = {f"M2(GF(4)) x Z{k}": 96 * k - 1 for k in (3, 4, 6, 9, 12, 16)}


def test_no_report_leaves_the_chromatic_index_unknown(capsys):
    # every Z_n of `batch --zn 2..399`, the acceptance corpus and the
    # M2(GF(4)) x Z_k blow-ups, whose chi' the period construction gives
    assert main(["batch", "--zn", "2..399"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 399 and lines[0].endswith(",vizing_class")
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"1", "2"}
    for expr in ACCEPTANCE_CORPUS:
        report = wnc.compute_report(*realize(expr)[1:])
        assert report.chromatic_index is not wnc.UNKNOWN, expr
    for expr, delta in BLOW_UPS.items():
        ring = wnc.build_ring(wnc.parse_ring_expr(expr))
        cls = wnc.weakly_nil_clean_set(ring)
        report = wnc.compute_report(cls, wnc.build_wnc_graph(ring, cls))
        assert (report.max_degree, report.chromatic_index,
                report.vizing_class) == (delta, delta, 1), expr
        verdict = next(v for v in report.theorem_verdicts
                       if v.theorem == "class-1")
        assert verdict.status == "AGREE", expr
