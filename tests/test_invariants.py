"""Exact invariants: components, distances, girth, bipartite/star tests,
cliques, and the Z_2p neighborhood clauses."""

import itertools
import random
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

import wnc
from wnc import invariants

from corpus import ACCEPTANCE_CORPUS, SMALL_CORPUS, realize
from oracles import (bfs_diameter, bfs_distances, bipartite_by_double_cover,
                     exists_clique_of_size, floyd_diameter, floyd_distances,
                     girth_by_edge_removal, greedy_coloring, has_square,
                     has_triangle, is_clique, max_clique_size, rebuilt,
                     relabel_by_characters, triangle_counts,
                     triangle_counts_by_rows)


def _component_sizes(graph):
    return sorted(c.bit_count() for c in wnc.components(graph))


def test_component_examples():
    assert _component_sizes(realize("GF(25)")[2]) == [5, 10, 10]
    assert _component_sizes(realize("Z10")[2]) == [10]
    assert _component_sizes(realize("GF(9)")[2]) == [3, 6]


def test_components_partition_the_carrier():
    for expr in ("GF(25)", "GF(27)", "Z30"):
        _, _, graph = realize(expr)
        comps = wnc.components(graph)
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == (1 << graph.vertex_count) - 1


def test_diameter_examples():
    assert wnc.diameter(realize("Z5")[2]) == 2
    assert wnc.diameter(realize("Z7")[2]) == 3
    assert wnc.diameter(realize("Z12")[2]) == 1
    assert wnc.diameter(realize("GF(25)")[2]) is wnc.INFINITE
    assert wnc.diameter(realize("Z3 x Z3")[2]) == 2  # within the {2,3} range


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_diameter_agrees_with_floyd(expr):
    _, _, graph = realize(expr)
    assert graph.vertex_count <= 64
    expected = floyd_diameter(graph)
    got = wnc.diameter(graph)
    if expected is None:
        assert got is wnc.INFINITE
    else:
        assert got == expected


def _both_graphs(ring, cls, graph):
    """The weakly nil clean graph and the nil clean graph, each named."""
    return (("weakly nil clean", graph),
            ("nil clean", wnc.build_nc_graph(ring, cls)))


# char-2 fields, a product with one, a ring whose 2R is not all of R, the
# noncommutative rings, and a quotient
DIAMETER_EXPRS = ACCEPTANCE_CORPUS + (
    "GF(8)", "GF(16)", "GF(32)", "GF(64)", "Z2 x GF(4)", "Z4 x Z9",
    "M2(Z3)", "Z12/nil")


@pytest.mark.parametrize("expr", DIAMETER_EXPRS)
def test_diameter_agrees_with_per_vertex_bfs(expr):
    ring, cls, graph = realize(expr)
    for kind, g in _both_graphs(ring, cls, graph):
        expected = bfs_diameter(g)
        got = wnc.diameter(g)
        if expected is None:
            assert got is wnc.INFINITE, kind
        else:
            assert got == expected, kind


def test_bfs_distances_match_floyd_rowwise():
    for expr in ("Z10", "GF(9)", "Z3 x Z3", "M2(Z2)"):
        _, _, graph = realize(expr)
        fd = floyd_distances(graph)
        for src in range(graph.vertex_count):
            bfs = bfs_distances(graph, src)
            for v in range(graph.vertex_count):
                expected = fd[src][v]
                assert bfs[v] == (-1 if expected == float("inf") else expected)


def test_infinite_iff_disconnected():
    for expr in ACCEPTANCE_CORPUS:
        _, _, graph = realize(expr)
        disconnected = len(wnc.components(graph)) > 1
        assert (wnc.diameter(graph) is wnc.INFINITE) == disconnected


def _girth_or_none(graph):
    g = wnc.girth(graph)
    return None if g is wnc.INFINITE else g


def test_girth_examples():
    _, _, g10 = realize("Z10")
    assert wnc.girth(g10) == 3
    assert wnc.girth(realize("GF(4)")[2]) is wnc.INFINITE
    assert wnc.girth(realize("Z2")[2]) is wnc.INFINITE  # K_2 is acyclic


@pytest.mark.parametrize("expr", DIAMETER_EXPRS)
def test_girth_witness_and_minimality(expr):
    # the edge-removal oracle's u-v path plus uv is a shortest cycle; the
    # triangle and square searches rule out the shortest lengths directly
    ring, cls, graph = realize(expr)
    for kind, g in _both_graphs(ring, cls, graph):
        got = _girth_or_none(g)
        assert got == girth_by_edge_removal(g), kind
        if got is None or got > 3:
            assert not has_triangle(g), kind
        if got is None or got > 4:
            assert not has_square(g), kind


def test_girth_on_synthetic_cycles():
    for n in range(3, 40):
        ring_cycle = wnc.make_graph([(i, (i + 1) % n) for i in range(n)], n)
        assert wnc.girth(ring_cycle) == n == girth_by_edge_removal(ring_cycle)
        assert wnc.is_bipartite(ring_cycle) == (n % 2 == 0)
    path = wnc.make_graph([(0, 1), (1, 2), (2, 3)], 4)
    assert wnc.girth(path) is wnc.INFINITE
    assert girth_by_edge_removal(path) is None


def test_bipartite_examples():
    assert wnc.is_bipartite(realize("Z10")[2]) is False
    assert wnc.is_bipartite(realize("GF(4)")[2]) is True
    assert wnc.is_bipartite(realize("Z2")[2]) is True
    assert wnc.is_bipartite(wnc.make_graph([], 0)) is True


@pytest.mark.parametrize("expr", DIAMETER_EXPRS)
def test_bipartite_agrees_with_double_cover(expr):
    ring, cls, graph = realize(expr)
    for kind, g in _both_graphs(ring, cls, graph):
        assert wnc.is_bipartite(g) == bipartite_by_double_cover(g), kind


@st.composite
def sparse_graphs(draw):
    """A cycle through the first k of n <= 16 vertices, none when k < 3,
    plus up to four more edges: girths from 3 to 16, and infinity."""
    n = draw(st.integers(min_value=1, max_value=16))
    k = draw(st.integers(min_value=0, max_value=n))
    cycle = [(i, (i + 1) % k) for i in range(k)] if k >= 3 else []
    pairs = list(itertools.combinations(range(n), 2))
    extra = (draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
             if pairs else [])
    return wnc.make_graph(cycle + extra, n)


@settings(max_examples=300, deadline=None)
@given(graph=sparse_graphs())
def test_girth_and_bipartiteness_of_random_graphs(graph):
    g = _girth_or_none(graph)
    event(f"girth {g}")
    assert g == girth_by_edge_removal(graph)
    assert wnc.is_bipartite(graph) == bipartite_by_double_cover(graph)


def _spy_on_bfs(monkeypatch):
    """Record (source, frontiers read) for each BFS started in invariants."""
    started = []
    kernel = invariants._bfs_levels

    def spy(adj, source, bound):
        levels = []
        started.append((source, levels))
        for level in kernel(adj, source, bound):
            levels.append(level)
            yield level

    monkeypatch.setattr(invariants, "_bfs_levels", spy)
    return started


def test_girth_and_bipartiteness_start_only_the_bfses_they_need(monkeypatch):
    started = _spy_on_bfs(monkeypatch)
    # GF(256) pairs x with x + 1: every vertex has degree 1, so no cycle
    # can pass through any of them
    assert wnc.girth(realize("GF(256)")[2]) is wnc.INFINITE
    assert started == []
    # Z991: root 0 sees the triangle {0, 1, -1} inside its level 1
    graph = realize("Z991")[2]
    assert wnc.girth(graph) == 3
    assert [(source, len(levels)) for source, levels in started] == [(0, 2)]
    started.clear()
    # is_bipartite reads the walk of `components_and_bipartite`: one BFS,
    # whose level 1 holds the triangle, and which then runs on through all
    # 496 levels of the component to list it
    assert wnc.is_bipartite(graph) is False
    assert [(source, len(levels)) for source, levels in started] == [(0, 496)]


def test_star_recognition():
    assert not wnc.is_star(realize("Z10")[2])
    assert wnc.is_star(realize("Z2")[2])  # K_2 = K_{1,1}
    assert wnc.is_star(wnc.make_graph([(0, 1), (0, 2)], 3))  # path = K_{1,2}
    assert not wnc.is_star(wnc.make_graph([(0, 1), (1, 2), (2, 0)], 3))  # K_3
    assert not wnc.is_star(wnc.make_graph([(0, 1), (1, 2), (2, 3)], 4))
    assert wnc.is_star(wnc.make_graph([(3, 0), (3, 1), (3, 2)], 4))
    assert wnc.is_star(wnc.make_graph([], 1))  # K_1 = K_{1,0}
    assert not wnc.is_star(wnc.make_graph([], 0))
    assert not wnc.is_star(wnc.make_graph([(0, 1)], 3))  # K_2 plus a vertex


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_clique_number_zp_is_three(p):
    _, _, graph = realize(f"Z{p}")
    clique, omega = wnc.max_clique(graph)
    assert omega == 3 and is_clique(graph, clique)


@pytest.mark.parametrize("q", [9, 25, 27, 49])
def test_clique_number_odd_char_fields_is_three(q):
    _, _, graph = realize(f"GF({q})")
    _, omega = wnc.max_clique(graph)
    assert omega == 3


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_clique_number_z2p_is_four(p):
    _, _, graph = realize(f"Z{2 * p}")
    clique, omega = wnc.max_clique(graph)
    assert omega == 4 and is_clique(graph, clique)


@pytest.mark.parametrize("expr", SMALL_CORPUS)
def test_clique_number_against_exhaustive_subsets(expr):
    _, _, graph = realize(expr)
    clique, omega = wnc.max_clique(graph)
    assert is_clique(graph, clique) and len(clique) == omega
    assert not exists_clique_of_size(graph, omega + 1)


def test_max_clique_returns_lexicographically_least():
    _, _, graph = realize("Z10")
    clique, omega = wnc.max_clique(graph)
    assert omega == 4
    all_max = [c for c in itertools.combinations(range(10), 4)
               if is_clique(graph, c)]
    assert clique == min(all_max)


# Z2, GF(4), M2(Z2), GF(8), GF(16), Z2 x GF(4) and M2(GF(4)) have
# characteristic 2, so the graph is vertex-transitive and the search runs
# on the neighborhood of the class of 0; the rest search the whole twin
# quotient, which is the graph itself for M2(Z3)
CLIQUE_SPLIT_EXPRS = ACCEPTANCE_CORPUS + (
    "GF(8)", "GF(16)", "Z2 x GF(4)", "Z2 x Z10", "Z2 x Z2 x Z5", "Z6 x Z10",
    "Z120", "M2(Z3)", "M2(GF(4))", "Z12/nil")
# rings whose greedy clique is short of omega and whose period is large:
# 5 classes of 200 vertices for Z1000, 81 of 16 for M2(Z6), 9 of 81 for
# Z27 x Z27, and a product over a quotient
QUOTIENT_EXPRS = ("Z1000", "M2(Z6)", "Z27 x Z27", "Z100", "(Z4 x Z9)/nil x Z3")


@pytest.mark.parametrize("expr", CLIQUE_SPLIT_EXPRS + QUOTIENT_EXPRS)
def test_coset_split_matches_the_plain_search(expr):
    # the plain search on M2(GF(4)) takes 74,505 nodes, beyond the default
    # clique budget, so the reference runs unbudgeted. The witnesses are
    # maximum cliques of each search's own order, and need not be the same
    ring, cls, graph = realize(expr)
    for kind, g in _both_graphs(ring, cls, graph):
        synthetic = rebuilt(g, ring=None)
        _, omega = wnc.max_clique(synthetic, wnc.Budget("clique", 10**9))
        clique, found = wnc.max_clique(g)
        assert found == omega == len(clique), kind
        assert list(clique) == sorted(clique) and is_clique(g, clique), kind


def _period(ring, clean):
    """K = {k : S + k = S}, from the ring's addition."""
    members = set(wnc.bitsets.iter_bits(clean))
    return [k for k in range(ring.size)
            if all(ring.add(s, k) in members for s in members)]


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + QUOTIENT_EXPRS[:4])
def test_twin_classes_are_cliques_or_independent_sets(expr):
    # each class of equal T_v is a coset of the period K, the class of 0,
    # and a clique or an independent set whose rows agree off the class
    ring, cls, graph = realize(expr)
    for kind, g in _both_graphs(ring, cls, graph):
        adj, n = g.adjacency, g.vertex_count
        classes = g.twin_classes
        assert sorted(v for c in classes for v in c) == list(range(n)), kind
        period = _period(ring, g.clean_set)
        assert classes[0] == period, kind
        for c in classes:
            mask = wnc.bitsets.mask_of(c)
            assert mask == wnc.bitsets.mask_of(ring.add(c[0], k) for k in period)
            edges = sum(adj[u] >> v & 1 for u, v in itertools.combinations(c, 2))
            assert edges in (0, len(c) * (len(c) - 1) // 2), (kind, c)
            assert all((adj[u] ^ adj[c[0]]) & ~mask == 0 for u in c), (kind, c)


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + ("M2(GF(4)) x Z3",))
def test_period_is_read_off_certified_rows_only(expr):
    # K from the ring's addition, and whether every x + x lies in it
    ring, cls, graph = realize(expr)
    found = graph.period
    if not graph.certified:
        assert found is None
        return
    period = _period(ring, cls.wnc)
    doubled = all(ring.add(x, x) in period for x in range(ring.size))
    assert found == (period, doubled)


def test_the_vertex_transitive_shortcut_needs_certified_rows():
    # K8, the graph of Z2 x Z2 x Z2, without the edges {0, 1}, {0, 2} and
    # {0, 3}: every 2x is 0 and lies in the class of 0, but the rows are no
    # sum graph, so translations are not automorphisms; omega is 7, the
    # vertices 1 to 7
    _, cls, graph = realize("Z2 x Z2 x Z2")
    rows = list(graph.adjacency)
    for v in (1, 2, 3):
        rows[0] &= ~(1 << v)
        rows[v] &= ~1
    cut = rebuilt(graph, adjacency=rows)
    assert not cut.certified and cut.period is None
    assert max_clique_size(cut) == 7
    assert wnc.max_clique(cut) == ((1, 2, 3, 4, 5, 6, 7), 7)
    assert wnc.compute_report(cls, cut).clique_number == 7


BLOW_UPS = ("M2(GF(4)) x Z3", "M2(GF(4)) x Z6", "M2(GF(4)) x Z9",
            "M2(GF(4)) x Z12")


@pytest.mark.parametrize("expr,omega", zip(BLOW_UPS, (48, 96, 144, 192)))
def test_blow_ups_are_m_times_the_clique_number_of_the_quotient(expr, omega):
    # every class is a clique of m vertices, so omega is m omega(H), with
    # omega(H) from the plain search on H's rows
    ring, _, graph = realize(expr)
    adj = graph.adjacency
    classes = graph.twin_classes
    m = len(classes[0])
    assert len(classes) == 128 and {len(c) for c in classes} == {m}
    assert all(adj[c[0]] >> c[1] & 1 for c in classes)
    reps = [c[0] for c in classes]
    quotient = wnc.make_graph([(i, j) for i, j in itertools.combinations(
        range(len(reps)), 2) if adj[reps[i]] >> reps[j] & 1], len(reps))
    _, omega_h = wnc.max_clique(quotient, wnc.Budget("clique", 10**9))
    clique, found = wnc.max_clique(graph)
    assert found == m * omega_h == omega == len(clique)
    assert is_clique(graph, clique)


@pytest.mark.parametrize("expr", CLIQUE_SPLIT_EXPRS)
def test_kernel_colors_the_frames_of_the_full_coloring(expr, monkeypatch):
    # the search colors the same candidate sets, in the same order, when
    # every frame lists its whole greedy coloring
    ring, cls, graph = realize(expr)
    kernel = invariants._greedy_color_order
    for kind, g in _both_graphs(ring, cls, graph):
        runs = []
        for full in (False, True):
            frames = []

            def color(rest, cand, kmin=0, weight=None, frames=frames, full=full):
                frames.append(cand)
                if not full:
                    return kernel(rest, cand, kmin, weight)
                # the graph the kernel colors, which a second search has
                # relabeled, read off its complement table
                n = len(rest) - 1
                adj = [((1 << n) - 1) & ~(rest[v + 1] | 1 << v) for v in range(n)]
                order, colors = greedy_coloring(adj, cand)
                if weight is not None:  # a class bounds with its heaviest
                    top = {}
                    for v, c in zip(order, colors):
                        top[c] = max(top.get(c, 0), weight[v])
                    bounds = list(itertools.accumulate(top[c] for c in sorted(top)))
                    colors = [bounds[c - 1] for c in colors]
                return order, colors, colors[-1]

            monkeypatch.setattr(invariants, "_greedy_color_order", color)
            budget = wnc.Budget("clique", wnc.CLIQUE_NODES)
            runs.append((wnc.max_clique(g, budget), budget.used, frames))
        assert runs[0] == runs[1], kind


@st.composite
def _coloring_cases(draw):
    n = draw(st.integers(0, 64))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.floats(0, 1))
    graph = wnc.make_graph([e for e in itertools.combinations(range(n), 2)
                            if rng.random() < density], n)
    cand = draw(st.integers(0, (1 << n) - 1))
    return graph.adjacency, cand, draw(st.integers(-2, n + 1))


@settings(max_examples=300, deadline=None)
@given(case=_coloring_cases())
def test_coloring_kernel_lists_the_oracle_classes_above_kmin(case):
    adj, cand, kmin = case
    order, colors = greedy_coloring(adj, cand)
    rest = invariants._complement_table(adj)
    kept = [(v, c) for v, c in zip(order, colors) if c > kmin]
    count = colors[-1] if colors else 0
    assert invariants._greedy_color_order(rest, cand, kmin) == (
        [v for v, _ in kept], [c for _, c in kept], count)
    assert invariants._greedy_color_order(rest, cand) == (order, colors, count)


@pytest.mark.parametrize("expr", ["GF(16)", "GF(32)", "GF(64)", "Z2 x GF(8)",
                                  "Z2 x Z2 x Z2 x Z2 x Z2"])
def test_characteristic_two_split_on_sum_graphs_of_any_set(expr):
    # translation by any element is an automorphism of the sum graph of any
    # S in characteristic 2, WNC(R) or not; random sets of 2 to n/2 elements
    # include graphs whose greedy clique from vertex 0 is short of omega
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    n = ring.size
    rng = random.Random(expr)
    for _ in range(40):
        clean = wnc.bitsets.mask_of(rng.sample(range(n), rng.randrange(2, n // 2)))
        graph = wnc.graph._build(ring, clean)
        synthetic = rebuilt(graph, ring=None)
        (split, omega), (whole, want) = (wnc.max_clique(graph),
                                         wnc.max_clique(synthetic))
        assert omega == want, clean
        for clique in (split, whole):
            assert len(clique) == omega and is_clique(graph, clique), clean


@pytest.mark.parametrize("expr", CLIQUE_SPLIT_EXPRS + (
    "M2(Z5)", "Z1000", "(Z4 x Z9)/nil x Z3"))
def test_triangle_counts_read_off_the_sum_structure(expr):
    ring, cls, graph = realize(expr)
    for kind, g in _both_graphs(ring, cls, graph):
        counts = invariants._triangle_counts(g)
        assert counts == triangle_counts_by_rows(g), kind
        if g.vertex_count <= 64:
            assert counts == triangle_counts(g), kind


@pytest.mark.parametrize("expr", ["GF(64)", "Z3 x Z25", "Z4 x Z9", "M2(Z3)"])
def test_triangle_counts_of_sum_graphs_of_any_set(expr):
    # characteristic 2, an odd ring where x -> 2x is a bijection, and two
    # rings where it is not, with random sets of 1 to n/2 elements
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    n = ring.size
    rng = random.Random(expr)
    for _ in range(20):
        clean = wnc.bitsets.mask_of(rng.sample(range(n), rng.randrange(1, n // 2)))
        graph = wnc.graph._build(ring, clean)
        counts = invariants._triangle_counts(graph)
        assert counts == triangle_counts_by_rows(graph), clean
        assert counts == triangle_counts(graph), clean


@pytest.mark.parametrize("expr", (
    "Z1000", "M2(Z6)", "Z27 x Z27", "Z16 x Z48", "M2(GF(4))",
    *(f"Z{n}" for n in range(2, 152))))
def test_only_rings_with_generators_count_triangles(expr, monkeypatch):
    # the census rings Z2..Z151 and the products of Z_n list no generators
    # and are searched in id order; M2(Z6) counts once, for the search in
    # triangle-count order, and M2(GF(4)) not at all, as its graph is
    # vertex-transitive
    counted = []
    count = invariants._triangle_counts

    def counting(graph):
        counted.append(graph)
        return count(graph)

    monkeypatch.setattr(invariants, "_triangle_counts", counting)
    ring, _, graph = realize(expr)
    clique, omega = wnc.max_clique(graph)
    assert omega == len(clique) and is_clique(graph, clique)
    assert len(counted) == (expr == "M2(Z6)")
    assert bool(ring.generators) == expr.startswith("M2")


# the rings of the corpus and of test_symmetry's SYMMETRIC_EXPRS that list
# generators, whose clique search relabels its rows into triangle order
RELABEL_EXPRS = ("M2(Z2)", "M2(Z3)", "M2(GF(4))", "M3(Z2)", "M2(GF(4)) x Z3",
                 "M2(Z5)", "M2(Z6)", "M2(Z5) x Z3")


@pytest.mark.parametrize("expr", RELABEL_EXPRS)
def test_relabel_by_strided_slices_is_the_character_gather(expr):
    # the full triangle order, H's heads in that order (the least member of
    # a clique class, the greatest of an independent one, as max_clique
    # picks them) and the first half of it: each a strict subset unless H
    # is G
    _, _, graph = realize(expr)
    adj, triangles = graph.adjacency, invariants._triangle_counts(graph)
    order = sorted(range(len(adj)), key=lambda v: (-triangles[v], v))
    heads = {c[0] if adj[c[0]] >> c[-1] & 1 else c[-1]
             for c in graph.twin_classes}
    for sub in (order, [v for v in order if v in heads], order[:len(order) // 2]):
        assert invariants._relabel(adj, sub) == relabel_by_characters(adj, sub)


def test_relabel_of_a_random_graph_and_of_an_empty_order():
    rng = random.Random("relabel")
    n = 300
    graph = wnc.make_graph([(u, v) for u, v in itertools.combinations(range(n), 2)
                            if rng.random() < 0.5], n)
    adj = graph.adjacency
    for size in (n, n // 3, 1):
        order = rng.sample(range(n), size)
        assert invariants._relabel(adj, order) == relabel_by_characters(adj, order)
    assert invariants._relabel(adj, []) == []


def test_a_stopped_clique_search_is_never_reported_exact():
    # M2(Z3) needs 38 nodes: one for the root coloring of the graph, whose
    # bound is k = 32, and 37 in triangle-count order. Every smaller budget
    # stops inside that search, budgets of k and k + 1 nodes among them:
    # omega is then unknown, and the clique found and the bound left
    # bracket it
    _, _, graph = realize("M2(Z3)")
    n = graph.vertex_count
    rest = invariants._complement_table(graph.adjacency)
    k = invariants._greedy_color_order(rest, (1 << n) - 1)[2]
    assert k == 32
    for nodes in range(1, 39):
        budget = wnc.Budget("clique", nodes)
        clique, omega = wnc.max_clique(graph, budget)
        assert is_clique(graph, clique)
        if nodes < 38:
            assert omega is wnc.UNKNOWN and budget.exhausted, nodes
            assert len(clique) <= 31 <= budget.bound <= k, nodes
        else:
            assert omega == len(clique) == 31


def test_max_clique_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("max_clique changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    # a clique of 1,100 vertices, deeper than the default recursion limit,
    # behind vertex 0 whose greedy clique {0, 1} is a poor seed
    big = range(3, 1103)
    graph = wnc.make_graph([(0, 1), (0, 2)] + list(itertools.combinations(big, 2)),
                           1103)
    assert wnc.max_clique(graph) == (tuple(big), 1100)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return wnc.make_graph(chosen, n)


@settings(max_examples=200, deadline=None)
@given(graph=small_graphs())
def test_max_clique_is_a_maximum_clique(graph):
    cliques = [c for k in range(1, graph.vertex_count + 1)
               for c in itertools.combinations(range(graph.vertex_count), k)
               if is_clique(graph, c)]
    omega = max(map(len, cliques))
    clique, found = wnc.max_clique(graph)
    assert found == omega
    assert len(clique) == omega and is_clique(graph, clique)


def test_four_clique_census_z10():
    _, _, graph = realize("Z10")
    assert wnc.enumerate_k_cliques(graph, 4) == [
        (0, 1, 4, 5), (0, 1, 5, 9), (0, 4, 5, 6), (0, 5, 6, 9), (2, 3, 7, 8)]
    assert wnc.enumerate_k_cliques(graph, 5) == []


def test_enumerate_k_cliques_edge_cases():
    _, _, graph = realize("Z10")
    assert wnc.enumerate_k_cliques(graph, 1) == [(v,) for v in range(10)]
    with pytest.raises(ValueError):
        wnc.enumerate_k_cliques(graph, 0)
    assert wnc.enumerate_k_cliques(graph, 2) == list(wnc.edges(graph))


@pytest.mark.parametrize("k", [0, -1])
def test_clique_count_bound_refuses_k_below_1(k):
    _, _, graph = realize("Z10")
    for count in (wnc.enumerate_k_cliques, wnc.clique_count_bound):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            count(graph, k)


@pytest.mark.parametrize("expr,count", [("Z14", 5), ("Z22", 5), ("Z26", 5)])
def test_four_clique_census_other_z2p(expr, count):
    _, _, graph = realize(expr)
    cliques = wnc.enumerate_k_cliques(graph, 4)
    assert len(cliques) == count
    for c in cliques:
        assert is_clique(graph, c)


def test_neighborhood_lemma_sweeps():
    for expr in ("Z10", "Z14"):
        _, _, graph = realize(expr)
        verdicts = wnc.neighborhood_disjointness_check(graph)
        assert all(ok for _, _, _, ok in verdicts), expr
    # Z_14 has substantive pairs; the (13, 2) pair realizes a + b = 1 at a = -1
    _, _, g14 = realize("Z14")
    verdicts = wnc.neighborhood_disjointness_check(g14)
    assert (2, 13, 2, True) in verdicts
    assert any(clause == 1 for clause, *_ in verdicts)
    assert any(clause == 3 for clause, *_ in verdicts)


def test_neighborhood_lemma_rejects_wrong_shape():
    for expr in ("Z12", "Z9", "GF(25)", "Z6"):
        _, _, graph = realize(expr)
        with pytest.raises(ValueError):
            wnc.neighborhood_disjointness_check(graph)
