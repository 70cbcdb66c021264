"""Acceptance gate: one test per criterion, exact tolerances, one printed
pass line each.

The corpus is {Z_2..Z_36, GF(4), GF(9), GF(25), GF(27), Z_3 x Z_3,
M_2(Z_2)}; criteria that sweep Z_n ranges say so explicitly.
"""

import itertools

import wnc
from wnc.bitsets import bit_list
from wnc.cli import main as cli_main

from corpus import ACCEPTANCE_CORPUS, realize
from oracles import (chromatic_index_with_hints, floyd_diameter, is_clique,
                     naive_edge_set, naive_wnc_members, sum_edge_coloring,
                     verify_proper_edge_coloring)


def _passed(criterion, detail):
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_criterion_01_wnc_gf25_exact_set():
    ring, cls, _ = realize("GF(25)")
    assert bit_list(cls.wnc) == [0, 1, 4]
    assert [ring.name(x) for x in bit_list(cls.wnc)] == ["0", "1", "4"]
    _passed("C1 WNC(GF(25)) = {0,1,4}", "exact set equality")


def test_criterion_02_z10_graph_matches_figure():
    ring, cls, graph = realize("Z10")
    assert graph.vertex_count == 10
    assert bit_list(wnc.neighborhood(graph, 0)) == [1, 4, 5, 6, 9]
    wnc_size = cls.wnc.bit_count()
    for x in range(10):
        predicted = wnc_size - 1 if cls.wnc >> ring.add(x, x) & 1 else wnc_size
        assert graph.adjacency[x].bit_count() == predicted
    _passed("C2 G_WN(Z_10) matches the figure",
            "N(0) = {1,4,5,6,9}; all degrees equal the lemma prediction")


def test_criterion_03_connectedness():
    for n in range(2, 101):
        _, _, graph = realize(f"Z{n}")
        assert len(wnc.components(graph)) == 1, f"Z_{n} disconnected"
    _, _, m2 = realize("M2(Z2)")
    assert len(wnc.components(m2)) == 1
    _passed("C3 connectedness", "Z_2..Z_100 and M_2(Z_2) each one component")


def test_criterion_04_girth(capsys):
    for n in range(3, 101):
        _, _, graph = realize(f"Z{n}")
        assert wnc.girth(graph) == 3, f"Z_{n} girth != 3"
    for expr in ("GF(4)", "GF(8)"):
        ring = wnc.build_ring(wnc.parse_ring_expr(expr))
        cls = wnc.weakly_nil_clean_set(ring)
        graph = wnc.build_wnc_graph(ring, cls)
        assert wnc.girth(graph) is wnc.INFINITE
        code = cli_main(["verify", expr])
        out = capsys.readouterr().out
        assert code == 2
        girth_row = next(l for l in out.splitlines() if l.startswith("girth"))
        assert "DISAGREE" in girth_row
    _passed("C4 girth", "Z_3..Z_100 girth 3; GF(4)/GF(8) infinite girth "
            "reported DISAGREE with exit 2")


def test_criterion_05_clique_numbers():
    for p in (3, 5, 7, 11, 13):
        assert wnc.max_clique(realize(f"Z{p}")[2])[1] == 3
    for q in (9, 25, 27, 49):
        assert wnc.max_clique(realize(f"GF({q})")[2])[1] == 3
    for p in (5, 7, 11, 13):
        assert wnc.max_clique(realize(f"Z{2 * p}")[2])[1] == 4
    _passed("C5 clique numbers",
            "omega = 3 on Z_p and odd-char fields, 4 on Z_2p")


def test_criterion_06_four_clique_census():
    for p in (5, 7, 11, 13):
        n = 2 * p
        _, _, graph = realize(f"Z{n}")
        expected = sorted(tuple(sorted(s)) for s in [
            {0, 1, n - 1, p},
            {0, 1, p, p - 1},
            {0, n - 1, p, p + 1},
            {0, p, p - 1, p + 1},
            {(p - 1) // 2, (p + 1) // 2, (3 * p - 1) // 2, (3 * p + 1) // 2},
        ])
        assert wnc.enumerate_k_cliques(graph, 4) == expected, f"Z_{n}"
        assert wnc.enumerate_k_cliques(graph, 5) == []
    _passed("C6 four-clique census",
            "exactly the five predicted 4-cliques and no 5-clique, p in {5,7,11,13}")


def test_criterion_07_neighborhood_lemma():
    for expr in ("Z10", "Z14"):
        _, _, graph = realize(expr)
        verdicts = wnc.neighborhood_disjointness_check(graph)
        for clause, a, b, disjoint in verdicts:
            assert disjoint, f"{expr}: clause {clause} fails at ({a},{b})"
    _passed("C7 neighborhood lemma",
            "all three clauses hold over the stated exclusion sets on Z_10 and Z_14")


def test_criterion_08_diameters():
    for n in (2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 36):
        assert wnc.diameter(realize(f"Z{n}")[2]) == 1, f"Z_{n}"
    for p in (5, 7, 11, 13, 17):
        assert wnc.diameter(realize(f"Z{p}")[2]) == (p - 1) // 2
    for p in (5, 7, 11, 13):
        assert wnc.diameter(realize(f"Z{2 * p}")[2]) == (p - 1) // 2
    assert wnc.diameter(realize("GF(9)")[2]) is wnc.INFINITE
    assert wnc.diameter(realize("GF(25)")[2]) is wnc.INFINITE
    assert wnc.diameter(realize("Z3 x Z3")[2]) in (2, 3)
    _passed("C8 diameters", "2^k3^l, Z_p, Z_2p, infinite fields, product range")


def test_criterion_09_complete_iff_weakly_nil_clean():
    for expr in ACCEPTANCE_CORPUS:
        ring, cls, graph = realize(expr)
        n = ring.size
        complete = wnc.edge_count(graph) == n * (n - 1) // 2
        wnc_ring = cls.wnc == (1 << n) - 1
        assert complete == wnc_ring, expr
    _passed("C9 completeness <=> weakly nil clean",
            f"checked on all {len(ACCEPTANCE_CORPUS)} corpus rings")


def test_criterion_10_quotient_lifting():
    for expr in ("Z8", "Z12", "Z18", "Z4 x Z9"):
        ring, cls, graph = realize(expr)
        quotient, projection = wnc.nilradical_quotient(ring)
        q_cls = wnc.weakly_nil_clean_set(quotient)
        q_graph = wnc.build_wnc_graph(quotient, q_cls)
        cosets = {}
        for x, q in enumerate(projection):
            cosets.setdefault(q, []).append(x)
        for qx in range(quotient.size):
            for qy in bit_list(q_graph.adjacency[qx]):
                for a, b in itertools.product(cosets[qx], cosets[qy]):
                    if a != b:
                        assert graph.adjacency[a] >> b & 1, (expr, a, b)
    _passed("C10 quotient lifting",
            "exhaustive over Z_8, Z_12, Z_18, Z_4 x Z_9")


def test_criterion_11_edge_coloring():
    for expr in ACCEPTANCE_CORPUS:
        ring, cls, graph = realize(expr)
        coloring = sum_edge_coloring(ring, graph)
        assert verify_proper_edge_coloring(graph, coloring), expr
        assert len(set(coloring.values())) <= cls.wnc.bit_count(), expr
        chi = chromatic_index_with_hints(graph, (coloring,))
        delta = wnc.max_degree(graph)
        assert chi is not wnc.UNKNOWN, expr
        assert delta <= chi <= delta + 1, expr
    _, _, g10 = realize("Z10")
    assert wnc.chromatic_index_exact(g10) == 6 == wnc.max_degree(g10)  # class 1
    _, cls3, g3 = realize("Z3")
    assert wnc.chromatic_index_exact(g3) == 3 == wnc.max_degree(g3) + 1
    class1_verdict = next(v for v in wnc.compute_report(cls3, g3).theorem_verdicts
                          if v.theorem == "class-1")
    assert class1_verdict.status == "DISAGREE"
    _passed("C11 edge coloring",
            "sum coloring proper within |WNC| colors; exact chi' inside "
            "Vizing bounds; Z_10 class 1, Z_3 reported class-1 disagreement")


def test_criterion_12_oracle_equivalence():
    small = [e for e in ACCEPTANCE_CORPUS
             if wnc.build_ring(wnc.parse_ring_expr(e)).size <= 24]
    for expr in small:
        ring, cls, graph = realize(expr)
        # wnc set: per-element membership search
        assert bit_list(cls.wnc) == naive_wnc_members(ring), expr
        # edges: double loop re-testing membership
        assert set(wnc.edges(graph)) == naive_edge_set(
            ring, naive_wnc_members(ring)), expr
        # max clique: witness is a clique, no larger clique in any subset
        clique, omega = wnc.max_clique(graph)
        assert is_clique(graph, clique) and len(clique) == omega, expr
        assert not any(is_clique(graph, c) for c in
                       itertools.combinations(range(ring.size), omega + 1)), expr
        # diameter: Floyd-style all-pairs
        expected = floyd_diameter(graph)
        got = wnc.diameter(graph)
        assert got == expected or (expected is None and got is wnc.INFINITE), expr
    _passed("C12 oracle equivalence",
            f"edges, WNC sets, cliques, diameters on {len(small)} rings <= 24")


def test_criterion_13_batch_determinism(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli_main(["batch", "--zn", "2..50", "--out", str(first)]) == 0
    assert cli_main(["batch", "--zn", "2..50", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) == 1 + 49
    _passed("C13 determinism", "two Z_2..Z_50 batch runs byte-identical")
