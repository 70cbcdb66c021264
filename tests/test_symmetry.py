"""The ring automorphisms that the classification and the clique search
read (`FiniteRing.generators`), checked here rather than at run time.

Each generator must be an additive and multiplicative bijection fixing 0
and 1, and must map every row of the weakly nil clean and the nil clean
graph onto the row of its image. The check that passes them must refuse
a swap of two vertices that are not twins. The classification tested once
per orbit must equal the element-wise oracles, and the clique number of
the nil clean graphs, which are not closed under negation, must equal a
search that reads no symmetry.
"""

import dataclasses
import random
from operator import itemgetter

import pytest

import wnc
from wnc import invariants
from wnc.bitsets import mask_of

from corpus import ACCEPTANCE_CORPUS, realize
from oracles import max_clique_size, naive_idempotent_list, naive_nilpotent

SYMMETRIC_EXPRS = ("M2(Z3)", "M2(Z5)", "M2(Z6)", "M2(GF(4))", "M3(Z2)",
                   "M2(GF(4)) x Z3")


def _units(ring):
    """The unit of each digit of the additive layout, which generate (R,+)."""
    place, out = 1, []
    for radix in ring.radices:
        out.append(place)
        place *= radix
    return out


def _maps_rows(graph, perm) -> bool:
    """Whether perm maps row v onto row perm[v] for every v: each row's bit
    string is permuted by the inverse of perm and compared."""
    n = graph.vertex_count
    inverse = sorted(range(n), key=perm.__getitem__)
    pick = itemgetter(*(n - 1 - inverse[w] for w in reversed(range(n))))
    adj = graph.adjacency
    return all(int("".join(pick(f"{row:0{n}b}")), 2) == adj[perm[v]]
               for v, row in enumerate(adj))


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + SYMMETRIC_EXPRS)
def test_generators_are_automorphisms_of_both_graphs(expr):
    ring, cls, graph = realize(expr)
    n = ring.size
    if ring.is_commutative:
        assert ring.generators == []
    units = _units(ring)
    for perm in ring.generators:
        assert sorted(perm) == list(range(n))
        assert perm[ring.zero] == ring.zero and perm[ring.one] == ring.one
        # additive and multiplicative on the digit units, so on all of R
        for x in range(n):
            for g in units:
                assert perm[ring.add(x, g)] == ring.add(perm[x], perm[g])
                assert perm[ring.mul(x, g)] == ring.mul(perm[x], perm[g])
        for g in (graph, wnc.build_nc_graph(ring, cls)):
            assert _maps_rows(g, perm)


def test_matrix_rings_list_the_conjugations():
    # I + E_ij for each i != j, and diag(u, 1, ..., 1) for each unit u != 1
    counts = {"M2(Z5)": 2 + 3, "M2(GF(4))": 2 + 2, "M3(Z2)": 6, "M2(Z6)": 2 + 1,
              "M2(GF(4)) x Z3": 4, "Z3 x M2(Z2)": 2, "M2(Z2 x Z2)": 2}
    for expr, count in counts.items():
        ring = wnc.build_ring(wnc.parse_ring_expr(expr))
        assert len(ring.generators) == count, expr
    # M2(Z5) has 30 conjugacy classes, M2(GF(4)) 20; a product's orbits
    # are the products of its factors' orbits
    assert len(realize("M2(Z5)")[0].orbits) == 30
    assert len(realize("M2(GF(4))")[0].orbits) == 20
    for left, right in (("M2(GF(4))", "Z3"), ("Z3", "M2(Z2)"),
                        ("M2(Z2)", "M2(Z2)")):
        ring = wnc.build_ring(wnc.parse_ring_expr(f"{left} x {right}"))
        sizes = [len(wnc.build_ring(wnc.parse_ring_expr(e)).orbits)
                 for e in (left, right)]
        assert len(ring.orbits) == sizes[0] * sizes[1]


@pytest.mark.parametrize("expr", SYMMETRIC_EXPRS)
def test_a_swap_of_two_non_twins_is_refused(expr):
    ring, cls, graph = realize(expr)
    for g in (graph, wnc.build_nc_graph(ring, cls)):
        adj = g.adjacency
        u = 0
        v = next((v for v in range(1, ring.size)
                  if (adj[u] ^ adj[v]) & ~(1 << u | 1 << v)), None)
        if v is None:  # M3(Z2), whose graphs are complete: all are twins
            assert wnc.graph.is_complete(g)
            continue
        swap = list(range(ring.size))
        swap[u], swap[v] = v, u
        assert not _maps_rows(g, swap)
        assert _maps_rows(g, list(range(ring.size)))


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + SYMMETRIC_EXPRS)
def test_orbit_classification_matches_the_element_wise_oracles(expr):
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    assert wnc.idempotents(ring) == mask_of(naive_idempotent_list(ring))
    assert wnc.nilpotents(ring) == mask_of(
        x for x in range(ring.size) if naive_nilpotent(ring, x))
    # each orbit lies in or outside each class
    for orbit in ring.orbits if ring.generators else ():
        for mask in (wnc.idempotents(ring), wnc.nilpotents(ring)):
            assert len({mask >> x & 1 for x in orbit}) == 1


# M2(GF(4)) x Z3 is left out: a search that reads no symmetry takes about
# 1.9 million nodes and 26 s on its nil clean graph. In characteristic 2,
# -x = x, so only the odd and mixed ones lose x -> -x
@pytest.mark.parametrize("expr,omega", [
    ("M2(Z2)", 16), ("M2(Z3)", 14), ("M2(Z5)", 63), ("M2(Z6)", 209),
    ("M2(GF(4))", 16), ("M3(Z2)", 512)])
def test_nil_clean_clique_numbers_match_a_search_without_symmetry(expr, omega):
    ring, cls, _ = realize(expr)
    graph = wnc.build_nc_graph(ring, cls)
    negated = mask_of(map(ring.neg, wnc.bitsets.iter_bits(cls.nc)))
    assert (negated == cls.nc) == (ring.doubles[ring.one] == ring.zero)
    clique, found = wnc.max_clique(graph)
    assert found == omega == len(clique)
    if ring.size <= 16:
        assert max_clique_size(graph) == omega
    else:
        synthetic = dataclasses.replace(graph, ring=None)
        assert wnc.max_clique(synthetic, wnc.Budget("clique", 10**6))[1] == omega


def test_the_orbit_search_is_skipped_where_a_generator_moves_the_clean_set():
    # a clean set that conjugation does not keep: the search reads no
    # orbit and still answers the clique number of the synthetic graph
    ring, _, _ = realize("M2(Z3)")
    clean = mask_of(range(0, ring.size, 3))
    graph = wnc.graph._build(ring, clean)
    assert graph.certified and not graph.generators_keep_clean
    assert invariants._class_orbits(graph, list(range(ring.size))) is None
    synthetic = dataclasses.replace(graph, ring=None)
    assert wnc.max_clique(graph)[1] == wnc.max_clique(synthetic)[1]


@pytest.mark.parametrize("expr", ["M2(Z3)", "Z3 x M2(Z2)"])
def test_unions_of_orbits_without_negation_keep_the_clique_number(expr):
    # clean sets made of whole orbits of the conjugations keep every
    # generator's symmetry but, drawn at random, not x -> -x, which the
    # search must then leave out
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    rng = random.Random(expr)
    lost = 0
    for _ in range(30):
        clean = mask_of(x for orbit in ring.orbits if rng.random() < 0.4
                        for x in orbit)
        graph = wnc.graph._build(ring, clean)
        assert graph.generators_keep_clean
        lost += mask_of(map(ring.neg, wnc.bitsets.iter_bits(clean))) != clean
        synthetic = dataclasses.replace(graph, ring=None)
        clique, omega = wnc.max_clique(graph, wnc.Budget("clique", 10**6))
        assert omega == len(clique) == wnc.max_clique(
            synthetic, wnc.Budget("clique", 10**6))[1]
    assert lost > 20


def test_uncertified_rows_read_no_orbit():
    # M2(Z3)'s graph with the edges at 0 to its first ten neighbors cut:
    # the clean set still has every symmetry, but the rows are no sum
    # graph, so the maps are no automorphisms of them
    ring, _, graph = realize("M2(Z3)")
    rows = list(graph.adjacency)
    for v in list(wnc.bitsets.iter_bits(rows[0]))[:10]:
        rows[0] &= ~(1 << v)
        rows[v] &= ~1
    cut = dataclasses.replace(graph, adjacency=rows)
    assert not cut.certified and cut.generators_keep_clean
    assert invariants._class_orbits(cut, range(ring.size)) is None
    synthetic = dataclasses.replace(cut, ring=None)
    clique, omega = wnc.max_clique(cut)
    assert omega == len(clique) == wnc.max_clique(synthetic)[1]
