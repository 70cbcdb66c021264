"""Graph construction: edge law, degrees, neighborhoods, subgraph and
lifting facts."""

import collections
import functools
import os
import pathlib
import subprocess
import sys

import pytest

import wnc
from wnc import graph as graph_module
from wnc.bitsets import bit_list

from corpus import ACCEPTANCE_CORPUS, SMALL_CORPUS, realize
from oracles import naive_edge_set, naive_wnc_members, sum_graph_rows


def test_z10_matches_figure():
    ring, cls, graph = realize("Z10")
    assert graph.vertex_count == 10
    assert bit_list(wnc.neighborhood(graph, 0)) == [1, 4, 5, 6, 9]
    assert graph.ring is ring and graph.clean_set == cls.wnc


def test_gf25_graph_is_disconnected():
    _, _, graph = realize("GF(25)")
    assert len(wnc.components(graph)) == 3


def test_z2_graph_is_single_edge():
    _, _, graph = realize("Z2")
    assert list(wnc.edges(graph)) == [(0, 1)]


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_graph_is_symmetric_and_loop_free(expr):
    _, _, graph = realize(expr)
    for v in range(graph.vertex_count):
        assert not graph.adjacency[v] >> v & 1
        for u in bit_list(graph.adjacency[v]):
            assert graph.adjacency[u] >> v & 1


@pytest.mark.parametrize("expr", SMALL_CORPUS)
def test_edge_law_against_double_loop_oracle(expr):
    ring, cls, graph = realize(expr)
    expected = naive_edge_set(ring, naive_wnc_members(ring))
    assert set(wnc.edges(graph)) == expected


# char-2 fields, nested products on either side, matrix rings over a
# product and a field, and a quotient, which has no digit layout
ROW_EXPRS = ACCEPTANCE_CORPUS + (
    "GF(8)", "GF(16)", "GF(64)", "Z2 x GF(4)", "GF(4) x Z3",
    "(Z2 x Z3) x Z4", "Z4 x (Z2 x Z3)", "M2(Z2 x Z2)", "M2(GF(4))",
    "Z12/nil")


@pytest.mark.parametrize("adds_per_digit", [0, 2, 10**9],
                         ids=["translate", "default", "add"])
@pytest.mark.parametrize("expr", ROW_EXPRS)
def test_rows_match_the_addition_oracle(expr, adds_per_digit, monkeypatch):
    # 0 sends every ring with a layout and |S| > 1 through `translate`,
    # 10**9 none
    monkeypatch.setattr(wnc.graph, "ADDS_PER_DIGIT", adds_per_digit)
    ring, cls, _ = realize(expr)
    assert wnc.build_wnc_graph(ring, cls).adjacency == sum_graph_rows(ring, cls.wnc)
    assert wnc.build_nc_graph(ring, cls).adjacency == sum_graph_rows(ring, cls.nc)


def test_nc_graph_z4_complete():
    ring, cls, _ = realize("Z4")
    nc_graph = wnc.build_nc_graph(ring, cls)
    assert wnc.edge_count(nc_graph) == 6  # K_4


def test_nc_graph_z3_edges():
    ring, cls, _ = realize("Z3")
    nc_graph = wnc.build_nc_graph(ring, cls)
    assert set(wnc.edges(nc_graph)) == {(0, 1), (1, 2)}


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_nc_graph_is_subgraph(expr):
    ring, cls, graph = realize(expr)
    nc_graph = wnc.build_nc_graph(ring, cls)
    for nc_row, wnc_row in zip(nc_graph.adjacency, graph.adjacency):
        assert nc_row & ~wnc_row == 0


def test_degree_examples():
    _, cls, graph = realize("Z10")
    assert graph.adjacency[0].bit_count() == 5  # 2*0 in WNC: |WNC| - 1
    assert graph.adjacency[1].bit_count() == 6  # 2*1 not in WNC: |WNC|
    _, _, k2 = realize("Z2")
    assert k2.adjacency[0].bit_count() == 1


def test_the_degree_readers_read_the_graph_s_degrees():
    # each reader takes deg(v) from the one list `WncGraph.degrees`, so a
    # graph whose list is doubled shows it in every reading
    ring, cls, graph = realize("Z10")
    assert graph.degrees == [row.bit_count() for row in graph.adjacency]
    doubled = wnc.build_wnc_graph(ring, cls)
    doubled.degrees = [2 * d for d in graph.degrees]
    assert wnc.max_degree(doubled) == 2 * wnc.max_degree(graph) == 12
    assert wnc.edge_count(doubled) == 2 * wnc.edge_count(graph)
    assert wnc.clique_count_bound(doubled, 2) == wnc.edge_count(doubled)
    assert [d for _, d, _ in graph_module.sum_sets(doubled)] == doubled.degrees
    verdicts = {v.theorem: v.status
                for v in wnc.compute_report(cls, doubled).theorem_verdicts}
    assert verdicts["degree-lemma"] == "DISAGREE"
    star = wnc.make_graph([(0, 1), (0, 2)], 3)
    assert wnc.is_star(star)
    star.degrees = [1, 1, 1]
    assert not wnc.is_star(star)


def test_neighborhood_range_check():
    _, _, graph = realize("Z10")
    with pytest.raises(ValueError):
        wnc.neighborhood(graph, 10)
    with pytest.raises(ValueError):
        wnc.neighborhood(graph, -1)


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_degree_lemma_all_vertices(expr):
    ring, cls, graph = realize(expr)
    wnc_size = cls.wnc.bit_count()
    for x in range(ring.size):
        expected = wnc_size - 1 if cls.wnc >> ring.add(x, x) & 1 else wnc_size
        assert graph.adjacency[x].bit_count() == expected


def test_neighborhood_excludes_self():
    for expr in ("Z10", "GF(9)", "M2(Z2)"):
        _, _, graph = realize(expr)
        for v in range(graph.vertex_count):
            assert not wnc.neighborhood(graph, v) >> v & 1


def test_z14_disjoint_neighborhoods_example():
    _, _, graph = realize("Z14")
    assert wnc.neighborhood(graph, 2) & wnc.neighborhood(graph, 12) == 0


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_complete_iff_weakly_nil_clean(expr):
    ring, cls, graph = realize(expr)
    n = ring.size
    complete = wnc.edge_count(graph) == n * (n - 1) // 2
    assert complete == (cls.wnc == (1 << n) - 1)


@pytest.mark.parametrize("expr", ["Z8", "Z12", "Z18", "Z4 x Z9"])
def test_quotient_lifting_exhaustive(expr):
    ring, cls, graph = realize(expr)
    quotient, projection = wnc.nilradical_quotient(ring)
    q_cls = wnc.weakly_nil_clean_set(quotient)
    q_graph = wnc.build_wnc_graph(quotient, q_cls)
    cosets = {}
    for x, q in enumerate(projection):
        cosets.setdefault(q, []).append(x)
    for qx in range(quotient.size):
        for qy in bit_list(q_graph.adjacency[qx]):
            for a in cosets[qx]:
                for b in cosets[qy]:
                    if a != b:
                        assert graph.adjacency[a] >> b & 1, \
                            f"{expr}: lifted pair ({a},{b}) not adjacent"


def test_make_graph_rejects_loops():
    with pytest.raises(ValueError):
        wnc.make_graph([(0, 0)], 2)


def test_build_graph_rejects_mismatched_classification():
    ring, cls, _ = realize("Z10")
    other = wnc.make_zn(12)
    with pytest.raises(ValueError):
        wnc.build_wnc_graph(other, cls)


@pytest.mark.parametrize("build", [wnc.build_wnc_graph, wnc.build_nc_graph])
def test_both_graph_constructors_refuse_a_classification_of_another_size(build):
    _, cls, _ = realize("Z10")
    with pytest.raises(ValueError,
                       match="^classification does not match the ring$"):
        build(wnc.make_zn(12), cls)


def test_degree_mismatch_disagrees_under_python_O():
    # `python -O` strips asserts, so the degree-lemma verdict must not rest
    # on one; rebuild a ring-built graph with one row corrupted and ask for
    # the verdicts
    script = (
        "import wnc\n"
        "from oracles import rebuilt\n"
        "ring = wnc.make_zn(10)\n"
        "cls = wnc.weakly_nil_clean_set(ring)\n"
        "graph = wnc.build_wnc_graph(ring, cls)\n"
        "rows = list(graph.adjacency)\n"
        "rows[3] &= ~(rows[3] & -rows[3])\n"
        "graph = rebuilt(graph, adjacency=rows)\n"
        "for v in wnc.compute_report(cls, graph).theorem_verdicts:\n"
        "    if v.theorem == 'degree-lemma':\n"
        "        print(v.status)\n"
    )
    src = str(pathlib.Path(wnc.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(pathlib.Path(__file__).resolve().parent)])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "DISAGREE\n"


def _edges_by_bit_walk(graph):
    return [(u, v) for u in range(graph.vertex_count)
            for v in bit_list(graph.adjacency[u]) if v > u]


@pytest.mark.parametrize("graph", [
    wnc.make_graph([], 1), wnc.make_graph([], 5),
    wnc.make_graph([(0, 4)], 5), wnc.make_graph([(3, 4), (1, 2)], 6),
    wnc.make_graph([(u, v) for u in range(70) for v in range(u + 1, 70)
                    if (u * v) % 7 < 3], 70)],
    ids=["K1", "empty", "one-edge", "isolated", "dense"])
def test_edges_list_upper_neighbors_in_order(graph):
    assert list(wnc.edges(graph)) == _edges_by_bit_walk(graph)


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + ("Z12/nil", "Z16 x Z36"))
def test_edges_of_ring_graphs(expr):
    _, _, graph = realize(expr)
    assert list(wnc.edges(graph)) == _edges_by_bit_walk(graph)


FACTS = ("twin_classes", "generators_keep_clean", "sum_coloring",
         "components", "translates", "degrees")


@pytest.mark.parametrize("expr", ["M2(Z5)", "M2(GF(4)) x Z3", "Z16 x Z48"])
def test_a_report_derives_each_fact_of_the_sum_graph_once(expr, monkeypatch):
    # M2(Z5) is searched in triangle-count order, once per orbit, and
    # M2(GF(4)) x Z3 on the neighborhood of the class of 0, with its chi'
    # from the period construction; Z16 x Z48 is K768, whose sum coloring
    # takes one color too many, so chi' comes from its one component: the
    # clique search, the triangle counts, the verdicts and the chromatic
    # index read the twin classes, the generators' check of S, the sum
    # pass, the component walk, the T_v of every vertex and the degrees
    # from the graph, each computed on first read
    calls = collections.defaultdict(list)
    for name in FACTS:
        compute = getattr(wnc.WncGraph, name).func

        def counted(graph, name=name, compute=compute):
            calls[name].append(graph)  # held, so no id is reused
            return compute(graph)

        fact = functools.cached_property(counted)
        fact.__set_name__(wnc.WncGraph, name)
        monkeypatch.setattr(wnc.WncGraph, name, fact)
    decided = []
    real = wnc.theorems.chromatic_index_exact
    monkeypatch.setattr(wnc.theorems, "chromatic_index_exact",
                        lambda graph: decided.append(graph) or real(graph))
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    cls = wnc.weakly_nil_clean_set(ring)
    graph = wnc.build_wnc_graph(ring, cls)
    report = wnc.compute_report(cls, graph)
    assert report.clique_number == len(report.clique)
    assert report.vizing_class == 1 and report.theorem_verdicts
    assert len(decided) == 1 and decided[0] is graph  # chi' decided once
    # K768's clique is the whole graph, found without the twin quotient
    once = {name: int(expr != "Z16 x Z48" or name in FACTS[2:])
            for name in FACTS}
    assert {name: sum(g is graph for g in calls[name])
            for name in FACTS} == once
    for name in FACTS:
        assert len(calls[name]) == len(set(map(id, calls[name]))), name
