"""Search budgets: the clique search and the 4-clique census stop after a
fixed number of nodes and answer `unknown`, the chromatic index answers
`unknown` without a search where no rule decides it, and size-cap
refusals come before any factoring.

Every check here counts calls or nodes; none reads a clock.
"""

import contextlib
import io
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import wnc
from wnc import invariants, theorems
from wnc.cli import main

from corpus import ACCEPTANCE_CORPUS, realize
from oracles import count_k_cliques, is_clique, max_clique_size, rebuilt


def _run(*argv):
    """(exit code, stdout, stderr) of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _report(*argv):
    code, out, _ = _run("report", *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    doc.pop("wall_time_seconds")
    return doc


def _refuse(*_args, **_kwargs):
    raise AssertionError("called where it must not be")


# ---------------------------------------------------------------------------
# The four inputs that used to hang


@pytest.fixture(scope="module")
def m2_z5():
    return _report("M2(Z5)")


def test_m2_z5_clique_number_is_decided(m2_z5):
    # M2(Z5) lists generators, so one search in triangle-count order,
    # branching once per orbit of its conjugations and x -> -x, proves
    # omega well inside the clique budget. The period of WNC(M2(Z5)) is 0
    # alone, so the twin quotient is the graph
    _, _, graph = realize("M2(Z5)")
    assert m2_z5["clique_number"] == 67
    assert "clique_search" not in m2_z5
    budget = wnc.Budget("clique", wnc.CLIQUE_NODES)
    clique, omega = wnc.max_clique(graph, budget)
    assert omega == len(clique) == 67 and list(clique) == sorted(clique)
    assert is_clique(graph, clique)
    assert budget.used == 185 and not budget.exhausted
    # no clique verdict applies to M2(Z5), and nothing disagrees
    assert all(v["status"] != "DISAGREE" for v in m2_z5["theorem_verdicts"])


def test_m2_z5_clique_search_stops_with_bounds(monkeypatch):
    monkeypatch.setattr(theorems, "CLIQUE_NODES", 100)
    ring, _, graph = realize("M2(Z5)")
    doc = _report("M2(Z5)")
    assert doc["clique_number"] == "unknown"
    found = doc["clique_search"]
    assert set(found) == {"lower", "witness", "upper", "search", "nodes"}
    assert found["search"] == "clique"
    assert found["nodes"] == 100
    assert found["lower"] <= 67 <= found["upper"]
    ids = [ring.names().index(name) for name in found["witness"]]
    assert len(ids) == found["lower"] and ids == sorted(ids)
    assert is_clique(graph, ids)
    assert all(v["status"] != "DISAGREE" for v in doc["theorem_verdicts"])


@pytest.mark.parametrize("expr,omega,nodes", [
    ("Z1000", 400, 5), ("M2(GF(4))", 16, 62), ("M2(GF(4)) x Z3", 48, 62)])
def test_twin_quotients_decide_omega_in_few_nodes(expr, omega, nodes):
    # one node for the graph's own root coloring, then the search on the
    # twin quotient: 5 classes for Z1000, and 128 for M2(GF(4)) and
    # M2(GF(4)) x Z3, where a search of the graph itself takes 400, 3,794
    # on the neighborhood of 0, and more than 15,000 nodes. On the last
    # two, the search on the neighborhood of the class of 0 branches once
    # per orbit of the conjugations: 62 nodes where once per class took 644
    _, _, graph = realize(expr)
    budget = wnc.Budget("clique", wnc.CLIQUE_NODES)
    clique, found = wnc.max_clique(graph, budget)
    assert found == omega == len(clique) and is_clique(graph, clique)
    assert budget.used == nodes and not budget.exhausted


def test_the_id_order_search_branches_from_the_root_frame(monkeypatch):
    # every class of Z15's graph is one vertex and Z15 lists no generators,
    # so the search runs on G's own vertices in id order and branches from
    # the root frame that G's first greedy coloring left: 5 nodes, with
    # one root colored. Recoloring that root would take 6 here and 500 in
    # all over the graphs of the `census` rings Z2..Z151, where 10 take
    # this path
    roots = []
    root = invariants._clique_root

    def counted(*args, **kwargs):
        roots.append(args[2])
        return root(*args, **kwargs)

    monkeypatch.setattr(invariants, "_clique_root", counted)
    used = {}
    for n in range(2, 152):
        _, _, graph = realize(f"Z{n}")
        budget = wnc.Budget("clique", wnc.CLIQUE_NODES)
        del roots[:]
        clique, omega = wnc.max_clique(graph, budget)
        assert omega == len(clique) and is_clique(graph, clique)
        assert not budget.exhausted
        used[n] = budget.used
        if n == 15:
            assert roots == [(1 << 15) - 1]
    assert used[15] == 5 and sum(used.values()) == 490


def test_m2_gf4_x_z3_clique_number_is_decided():
    doc = _report("M2(GF(4)) x Z3")
    assert doc["clique_number"] == 48 and "clique_search" not in doc
    assert all(v["status"] != "DISAGREE" for v in doc["theorem_verdicts"])


def test_m2_gf8_clique_number_is_decided():
    # M2(GF(8)), at the size cap, has 2,048 twin classes of 2; once per
    # class the search ran out of its 15,000 nodes, once per orbit of the
    # conjugations it takes 327
    doc = _report("M2(GF(8))")
    assert doc["clique_number"] == 32 and "clique_search" not in doc
    _, _, graph = realize("M2(GF(8))")
    budget = wnc.Budget("clique", wnc.CLIQUE_NODES)
    clique, omega = wnc.max_clique(graph, budget)
    assert omega == len(clique) == 32 and is_clique(graph, clique)
    assert budget.used == 327 and not budget.exhausted


def test_no_report_leaves_the_clique_number_unknown():
    # every Z_n of `batch --zn 2..399`, searched in id order, the acceptance
    # corpus, and matrix rings and a product with one, searched in
    # triangle-count order or on the neighborhood of 0
    code, out, _ = _run("batch", "--zn", "2..399")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 399
    column = lines[0].split(",").index("clique_number")
    assert all(line.split(",")[column].isdigit() for line in lines[1:])
    for expr in ACCEPTANCE_CORPUS + ("M2(Z3)", "M2(Z5)", "M2(Z6)", "M2(GF(4))",
                                     "M2(GF(4)) x Z3"):
        doc = _report(expr)
        assert isinstance(doc["clique_number"], int), expr
        assert "clique_search" not in doc, expr


def _count_colorings(monkeypatch):
    colorings = []
    color = invariants._greedy_color_order

    def counted(rest, cand, *args):
        colorings.append(cand)
        return color(rest, cand, *args)

    monkeypatch.setattr(invariants, "_greedy_color_order", counted)
    return colorings


def test_m2_z5_colors_one_frame_per_node(monkeypatch):
    _, _, graph = realize("M2(Z5)")
    colorings = _count_colorings(monkeypatch)
    budget = wnc.Budget("clique", 100)
    clique, omega = wnc.max_clique(graph, budget)
    assert omega is wnc.UNKNOWN and budget.exhausted
    # one coloring per node spent and no witness reconstruction after it
    assert len(colorings) == budget.used == 100
    assert is_clique(graph, clique)


@pytest.mark.parametrize("nodes", [150, 200, wnc.CLIQUE_NODES])
def test_m2_z5_orbit_search_colors_one_frame_per_node(nodes, monkeypatch):
    # 150 nodes stop inside the search that branches once per orbit, and
    # 200 and the default budget decide omega in 185
    _, _, graph = realize("M2(Z5)")
    colorings = _count_colorings(monkeypatch)
    budget = wnc.Budget("clique", nodes)
    clique, omega = wnc.max_clique(graph, budget)
    assert (omega is wnc.UNKNOWN) == budget.exhausted == (nodes < 185)
    assert len(colorings) == budget.used == min(nodes, 185)
    assert is_clique(graph, clique)
    if budget.exhausted:
        assert len(clique) <= 67 <= budget.bound


def test_complement_table_is_built_once_per_search(monkeypatch):
    # M2(Z3)'s greedy clique has 9 vertices and omega is 31. Its period is
    # 0 alone, so the quotient is the graph. After the root coloring on the
    # graph's own table, M2(Z3) lists generators, so one search runs in
    # triangle-count order, on a table of its own, once per orbit of the
    # conjugations and x -> -x: node 2 colors the whole graph, the search
    # through the first orbit's vertex, floored at 9 - 1 = 8, starts after
    # it and proves omega, and the last node colors what is left of the
    # graph, which cannot beat it
    _, _, graph = realize("M2(Z3)")
    tables, searches, bounds, colorings = [], [], [], []
    build, search = invariants._complement_table, invariants._clique_root
    color = invariants._greedy_color_order
    budget = wnc.Budget("clique", wnc.CLIQUE_NODES)

    def built(adj):
        tables.append(build(adj))
        return tables[-1]

    def searched(adj, rest, cand, floor, budget, *args, **kwargs):
        searches.append((rest, budget.used, floor))
        result = search(adj, rest, cand, floor, budget, *args, **kwargs)
        bounds.append(budget.bound)
        return result

    def colored(rest, cand, *args):
        colorings.append((rest, cand, budget.used))
        return color(rest, cand, *args)

    monkeypatch.setattr(invariants, "_complement_table", built)
    monkeypatch.setattr(invariants, "_clique_root", searched)
    monkeypatch.setattr(invariants, "_greedy_color_order", colored)
    clique, omega = wnc.max_clique(graph, budget)
    assert (len(clique), omega, budget.used) == (31, 31, 38)
    assert len(searches) == len(tables) == 2
    assert [rest for rest, _, _ in searches] == tables
    # the root coloring spends the first node on the first table, and the
    # orbit search the other 37 on the second
    assert [used for _, _, used in colorings] == list(range(1, 39))
    assert [rest is tables[1] for rest, _, _ in colorings] == [False] + [True] * 37
    assert [(used, floor) for _, used, floor in searches] == [(0, 0), (2, 8)]
    assert bounds == [32, 32]
    whole = (1 << graph.vertex_count) - 1
    assert colorings[0][1] == colorings[1][1] == whole
    assert colorings[-1][1] != whole


def test_every_report_search_runs_under_a_policy_budget(monkeypatch):
    # every exact search on the report path runs under one of the two
    # node budgets; Z1000, M2(Z3) and Z150 have greedy cliques short of
    # omega, so their clique searches branch
    nodes = []
    init = wnc.Budget.__init__

    def spied(self, search, count):
        nodes.append((search, count))
        init(self, search, count)

    monkeypatch.setattr(wnc.Budget, "__init__", spied)
    for expr in ACCEPTANCE_CORPUS + ("Z1000", "M2(Z3)", "Z150"):
        theorems.compute_report(*realize(expr)[1:]).four_cliques
    policy = {wnc.CLIQUE_NODES, wnc.CENSUS_NODES}
    assert nodes and all(count in policy for _, count in nodes), nodes


@pytest.mark.parametrize("n", [512, 256])
def test_complete_census_is_counted_not_listed(n, monkeypatch):
    monkeypatch.setattr(invariants, "enumerate_k_cliques", _refuse)
    monkeypatch.setattr(theorems, "enumerate_k_cliques", _refuse)
    doc = _report(f"Z{n}", "--four-cliques")
    assert doc.pop("four_cliques") == {
        "count_at_most": math.comb(n, 4), "search": "four-cliques", "nodes": 0}
    monkeypatch.undo()
    # without the census key the report is the plain one
    assert doc == _report(f"Z{n}")


def test_huge_field_order_is_refused_before_factoring(monkeypatch):
    for module in (wnc.rings, wnc.ringexpr):
        monkeypatch.setattr(module, "factor_prime_power", _refuse)
    monkeypatch.setattr(wnc.rings, "is_prime", _refuse)
    code, out, err = _run("report", "GF(1000000000000000000000007)", "--json")
    assert (code, out) == (1, "")
    assert err == ("error: GF(1000000000000000000000007) exceeds the size "
                   "cap 4096\n")


@pytest.mark.parametrize("expr,message", [
    ("GF(8192)", "GF(8192) exceeds the size cap 4096"),
    ("GF(4913)", "GF(4913) exceeds the size cap 4096"),
    ("GF(10000)", "GF(10000) exceeds the size cap 4096"),
])
def test_field_refusals_name_the_order(expr, message):
    assert _run("report", expr, "--json") == (1, "", f"error: {message}\n")


def test_make_gf_checks_the_cap_before_primality(monkeypatch):
    monkeypatch.setattr(wnc.rings, "is_prime", _refuse)
    for p, k, order in ((2, 13, "8192"), (10**27 + 7, 1, str(10**27 + 7)),
                        (3, 10**9, "3^1000000000")):
        with pytest.raises(wnc.InvalidSpecError) as refusal:
            wnc.make_gf(p, k)
        assert str(refusal.value) == f"GF({order}) exceeds the size cap 4096"


def _over_cap(text, log_size):
    return len(text) <= 40 and log_size > math.log(4096)


_orders = st.integers(min_value=4097, max_value=10**39)
_big_atoms = st.one_of(
    _orders.map(lambda n: (f"Z{n}", math.log(n))),
    _orders.map(lambda q: (f"GF({q})", math.log(q))),
    st.tuples(st.integers(1, 10**5), st.integers(2, 4096)).map(
        lambda kn: (f"M{kn[0]}(Z{kn[1]})", kn[0] ** 2 * math.log(kn[1]))),
    st.tuples(st.integers(1, 9), st.sampled_from([4, 8, 9, 25])).map(
        lambda kq: (f"M{kq[0]}(GF({kq[1]}))", kq[0] ** 2 * math.log(kq[1]))),
)


@st.composite
def _over_cap_exprs(draw):
    text, log_size = draw(_big_atoms)
    for _ in range(draw(st.integers(0, 2))):
        small = draw(st.integers(2, 4096))
        wrap = draw(st.sampled_from(["left", "right", "paren"]))
        if wrap == "left":
            text, log_size = f"Z{small} x {text}", log_size + math.log(small)
        elif wrap == "right":
            text, log_size = f"{text} x Z{small}", log_size + math.log(small)
        else:
            text = f"({text})"
    return text, log_size


@settings(max_examples=150, deadline=None)
@given(case=_over_cap_exprs())
def test_every_expression_over_the_cap_is_refused_in_one_line(case):
    text, log_size = case
    if not _over_cap(text, log_size):
        return
    code, out, err = _run("report", text, "--json")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# digits that str.isdigit accepts and int() refuses, expressions that nest
# deeper than the parser, build_ring or format_spec can recurse, and
# integers too long for int() or for printing Mk's k^2 cells
@pytest.mark.parametrize("text,message", [
    ("Z\u00b2", "unexpected character '\u00b2' (at position 1)"),
    ("GF(\u00b2)", "unexpected character '\u00b2' (at position 3)"),
    ("M\u00b2(Z2)", "unexpected character '\u00b2' (at position 1)"),
    ("Z1\u00b2", "unexpected character '\u00b2' (at position 2)"),
    ("(" * 330 + "Z2" + ")" * 330,
     "expression nests more than 100 levels (at position 100)"),
    ("Z2" + "/nil" * 1000,
     "expression nests more than 100 levels (at position 402)"),
    (" x ".join(["Z2"] * 1500),
     "expression nests more than 100 levels (at position 503)"),
    ("M1(" * 400 + "Z2" + ")" * 400,
     "expression nests more than 100 levels (at position 300)"),
    (" x ".join(["Z2"] * 13), "product of sizes 4096 x 2 exceeds the size cap 4096"),
    ("Z" + "9" * 5000, "integer longer than 100 digits (at position 1)"),
    ("M" + "9" * 2200 + "(Z2)", "integer longer than 100 digits (at position 1)"),
], ids=["Z-superscript", "GF-superscript", "M-superscript", "Z1-superscript",
        "330-parens", "1000-nil", "1500-factors", "400-M1", "13-factors",
        "5000-digit-Z", "2200-digit-M"])
def test_non_decimal_digits_and_deep_nesting_are_refused_in_one_line(text, message):
    assert _run("report", text, "--json") == (1, "", f"error: {message}\n")


def test_decimal_digits_of_any_script_parse_and_100_levels_are_allowed():
    assert wnc.parse_ring_expr("Z\u0663") == wnc.Zn(3)  # Arabic-Indic three
    for text in ("(" * 100 + "Z2" + ")" * 100, "Z2" + "/nil" * 100,
                 "M1(" * 100 + "Z2" + ")" * 100):
        assert _report(text)["carrier_size"] == 2


# ---------------------------------------------------------------------------
# The budgeted searches against unbudgeted ones and oracles


BUDGET_EXPRS = ACCEPTANCE_CORPUS + ("M2(GF(4))", "Z1000", "M2(Z3)", "Z150")


@pytest.mark.parametrize("expr", BUDGET_EXPRS)
def test_default_budget_equals_the_plain_search(expr):
    _, _, graph = realize(expr)
    budget = wnc.Budget("clique", wnc.CLIQUE_NODES)
    result = wnc.max_clique(graph, budget)
    assert not budget.exhausted
    assert result == wnc.max_clique(graph, wnc.Budget("clique", 10**9))
    assert result == wnc.max_clique(graph)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return wnc.make_graph([e for e, k in zip(pairs, keep) if k], n)


def _blow_up_examples(test):
    """The graph of Z3 x Z6, whose 9 twin classes are 2-cliques, and the
    sum graph of {1, 4, 7, 10} over Z2 x Z6, whose 3 classes of 4 are
    cliques: budgets that stop the weighted search on their quotients,
    with the graph's greedy clique or the quotient's as the witness."""
    ring = wnc.build_ring(wnc.parse_ring_expr("Z2 x Z6"))
    sums = wnc.graph._build(ring, wnc.bitsets.mask_of((1, 4, 7, 10)))
    for graph, nodes in ((realize("Z3 x Z6")[2], (1, 2, 5)), (sums, (2,))):
        for count in nodes:
            test = example(graph=graph, nodes=count)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(graph=_small_graphs(), nodes=st.integers(0, 6))
@_blow_up_examples
def test_tiny_budgets_bracket_the_clique_number(graph, nodes):
    omega = max_clique_size(graph)
    budget = wnc.Budget("clique", nodes)
    clique, found = wnc.max_clique(graph, budget)
    assert budget.used <= nodes
    assert is_clique(graph, clique)
    if found is wnc.UNKNOWN:
        assert budget.exhausted
        assert len(clique) <= omega <= budget.bound
    else:
        assert not budget.exhausted
        assert found == len(clique) == omega


@pytest.mark.parametrize("expr", ["M2(GF(4))", "GF(16)", "Z2 x GF(4)",
                                  "M2(Z3)", "Z1000", "Z150"])
@pytest.mark.parametrize("nodes", [0, 1, 5, 50])
def test_tiny_budgets_on_ring_graphs(expr, nodes):
    _, _, graph = realize(expr)
    _, omega = wnc.max_clique(graph)
    budget = wnc.Budget("clique", nodes)
    clique, found = wnc.max_clique(graph, budget)
    assert is_clique(graph, clique)
    if found is wnc.UNKNOWN:
        assert len(clique) <= omega <= budget.bound
    else:
        assert found == omega


@pytest.mark.parametrize("expr", ["GF(16)", "GF(32)", "Z2 x GF(8)",
                                  "Z2 x Z2 x Z2 x Z2 x Z2"])
def test_tiny_budgets_on_characteristic_two_sum_graphs(expr):
    # in characteristic 2 the search runs on N(0) alone, so its bound needs
    # one more for vertex 0; random sets give tight root colorings
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    rng = random.Random(expr)
    for _ in range(40):
        clean = wnc.bitsets.mask_of(rng.sample(range(ring.size),
                                               rng.randrange(2, ring.size // 2)))
        graph = wnc.graph._build(ring, clean)
        _, omega = wnc.max_clique(graph)
        for nodes in range(4):
            budget = wnc.Budget("clique", nodes)
            clique, found = wnc.max_clique(graph, budget)
            assert is_clique(graph, clique)
            if found is wnc.UNKNOWN:
                assert len(clique) <= omega <= budget.bound, clean
            else:
                assert found == omega


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + ("Z12/nil", "Z4 x Z9"))
def test_census_bound_covers_the_count(expr):
    _, _, graph = realize(expr)
    for k in (3, 4):
        assert wnc.clique_count_bound(graph, k) >= len(
            wnc.enumerate_k_cliques(graph, k))


@pytest.mark.parametrize("m", range(0, 41))
def test_census_bound_is_exact_on_complete_graphs(m):
    complete = wnc.make_graph(itertools.combinations(range(m), 2), m)
    assert wnc.clique_count_bound(complete, 4) == math.comb(m, 4)
    # a complete component next to an edge and a path
    extra = [(m, m + 1), (m + 2, m + 3), (m + 3, m + 4)]
    mixed = wnc.make_graph(list(itertools.combinations(range(m), 2)) + extra,
                           m + 5)
    assert wnc.clique_count_bound(mixed, 4) == math.comb(m, 4)


@settings(max_examples=100, deadline=None)
@given(graph=_small_graphs(), k=st.integers(1, 5))
def test_census_bound_covers_random_graphs(graph, k):
    assert wnc.clique_count_bound(graph, k) >= count_k_cliques(graph, k)


# ---------------------------------------------------------------------------
# Unknown answers in the report, the verdicts, verify and batch


def test_unknown_clique_number_is_never_a_disagreement(monkeypatch):
    monkeypatch.setattr(theorems, "CLIQUE_NODES", 0)
    for expr, theorem in (("Z7", "clique-zp"), ("GF(9)", "clique-field"),
                          ("Z10", "clique-z2p")):
        _, cls, graph = realize(expr)
        report = wnc.compute_report(cls, graph)
        assert report.clique_number is wnc.UNKNOWN
        assert set(report.stopped) == {"clique"}
        verdict = next(v for v in report.theorem_verdicts if v.theorem == theorem)
        assert (verdict.status, verdict.computed) == ("UNKNOWN", "unknown (budget)")
        assert all(v.status != "DISAGREE" for v in report.theorem_verdicts)


def test_unknown_census_is_one_json_value(monkeypatch):
    # Z10 has five 4-cliques; the census is refused when its count bound
    # exceeds the nodes it has, however few cliques there are
    bound = wnc.clique_count_bound(realize("Z10")[2], 4)
    assert bound == 35
    monkeypatch.setattr(theorems, "CENSUS_NODES", bound - 1)
    doc = _report("Z10", "--four-cliques")
    assert doc["four_cliques"] == {"count_at_most": bound,
                                   "search": "four-cliques", "nodes": 0}
    verdict = next(v for v in doc["theorem_verdicts"]
                   if v["theorem"] == "four-cliques")
    assert verdict["status"] == "UNKNOWN"
    code, out, _ = _run("report", "Z10", "--four-cliques")
    assert code == 0 and "four_cliques: unknown\n" in out
    assert "four-cliques search stopped after 0 nodes; count_at_most 35" in out


def test_text_verify_and_batch_print_unknown(monkeypatch):
    monkeypatch.setattr(theorems, "CLIQUE_NODES", 0)
    code, out, _ = _run("report", "Z7")
    assert code == 0
    assert "clique_number: unknown\n" in out
    # the greedy clique is maximum, but with no node to color the
    # candidates nothing proves it
    assert ("clique search stopped after 0 nodes; lower 3, upper 7, "
            "witness {0,1,6}") in out
    code, out, _ = _run("verify", "Z7", "--theorems", "clique-zp")
    assert code == 0
    assert out.splitlines()[-1].split() == ["clique-zp", "3", "UNKNOWN",
                                           "unknown", "(budget)"]
    code, out, _ = _run("batch", "--zn", "7..8")
    assert code == 0
    # Z8 is complete, so its greedy clique is maximum without a search
    assert [row.split(",")[5] for row in out.splitlines()] == [
        "clique_number", "unknown", "8"]


def test_batch_builds_no_quotient_census_or_verdict(monkeypatch):
    # the CSV prints four report fields, none of which needs them
    for name in ("nilradical_quotient", "enumerate_k_cliques", "_verdicts"):
        monkeypatch.setattr(theorems, name, _refuse)
    code, out, _ = _run("batch", "--zn", "2..40")
    assert code == 0 and len(out.splitlines()) == 40


def test_exhausted_budgets_leave_no_keys_otherwise():
    doc = _report("Z10", "--four-cliques")
    assert not {"clique_search", "chromatic_index_search"} & set(doc)
    assert isinstance(doc["four_cliques"], list)


def test_an_undecided_chromatic_index_names_no_search(monkeypatch):
    # Z4 x Z9 without the edge {0, 1}, K36 minus an edge: its sum coloring
    # uses more than Delta colors and its rows are not certified, so no
    # rule decides chi', and no search is made
    build = wnc.cli.build_wnc_graph

    def without_edge(ring, cls):
        graph = build(ring, cls)
        rows = list(graph.adjacency)
        rows[0] &= ~(1 << 1)
        rows[1] &= ~1
        return rebuilt(graph, adjacency=rows)

    monkeypatch.setattr(wnc.cli, "build_wnc_graph", without_edge)
    doc = _report("Z4 x Z9")
    assert (doc["chromatic_index"], doc["vizing_class"]) == ("unknown", "unknown")
    assert not {"clique_search", "chromatic_index_search"} & set(doc)
    verdict = next(v for v in doc["theorem_verdicts"] if v["theorem"] == "class-1")
    assert (verdict["status"], verdict["computed"]) == ("UNKNOWN", "unknown (no rule)")
    code, out, _ = _run("report", "Z4 x Z9")
    assert code == 0
    assert "chromatic_index: unknown" in out and "stopped" not in out


_WALL_TIME = re.compile(r', "wall_time_seconds": [0-9.e-]+')


def test_m2_gf4_x_z3_chromatic_index_is_decided():
    # two 287-regular components of 384 vertices whose sum coloring uses
    # 288 colors; the period K of the clean set has 6 elements and holds
    # every 2x, so the period construction colors the graph with 287
    outs = []
    for _ in range(2):
        code, out, _ = _run("report", "M2(GF(4)) x Z3", "--json")
        assert code == 0
        outs.append(_WALL_TIME.sub("", out))
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert (doc["max_degree"], doc["sum_coloring_colors"]) == (287, 288)
    assert doc["component_sizes"] == [384, 384]
    assert (doc["chromatic_index"], doc["vizing_class"]) == (287, 1)
    assert "chromatic_index_search" not in doc
    verdict = next(v for v in doc["theorem_verdicts"] if v["theorem"] == "class-1")
    assert verdict["status"] == "AGREE"
