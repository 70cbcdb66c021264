"""The verdict engine: statuses, applicability, charted discrepancies."""

import copy

import pytest

import wnc
from wnc import graph as graph_module
from wnc import theorems
from wnc.bitsets import bit_list, mask_of
from wnc.rings import NilQuotient
from wnc.theorems import AGREE, DISAGREE, NOT_APPLICABLE, THEOREM_IDS

from corpus import ACCEPTANCE_CORPUS, realize
from oracles import rebuilt


def suite_for(expr):
    _, cls, graph = realize(expr)
    return _verdict_map(cls, graph)


def test_verdict_order_is_fixed():
    _, cls, graph = realize("Z10")
    verdicts = wnc.compute_report(cls, graph).theorem_verdicts
    assert tuple(v.theorem for v in verdicts) == THEOREM_IDS


def test_z10_all_applicable_agree():
    for v in suite_for("Z10").values():
        assert v.status in (AGREE, NOT_APPLICABLE), (v.theorem, v.computed)


def test_z12_completeness_and_diameter():
    verdicts = suite_for("Z12")
    assert verdicts["completeness"].status == AGREE
    assert verdicts["completeness"].predicted == "complete"
    assert verdicts["diameter-2k3l"].status == AGREE
    assert verdicts["quotient-lifting"].status == AGREE


def test_gf4_charted_disagreements():
    verdicts = suite_for("GF(4)")
    for theorem in ("girth", "not-bipartite", "clique-field"):
        assert verdicts[theorem].status == DISAGREE
        assert verdicts[theorem].known_discrepancy
    assert verdicts["diameter-field"].status == AGREE  # inf as predicted
    assert verdicts["class-1"].status == AGREE  # perfect matching is class 1


def test_z3_class1_disagreement_is_charted():
    verdicts = suite_for("Z3")
    v = verdicts["class-1"]
    assert v.status == DISAGREE and v.known_discrepancy
    assert verdicts["clique-zp"].status == AGREE
    assert verdicts["diameter-zp"].status == AGREE  # (3-1)/2 = 1


def test_z9_and_z27_odd_complete_class2_charted():
    for expr in ("Z9", "Z27"):
        v = suite_for(expr)["class-1"]
        assert v.status == DISAGREE and v.known_discrepancy


def test_z2_small_ring_hypotheses_not_applicable():
    verdicts = suite_for("Z2")
    for theorem in ("girth", "not-bipartite", "not-star"):
        assert verdicts[theorem].status == NOT_APPLICABLE
    assert verdicts["completeness"].status == AGREE
    assert verdicts["class-1"].status == AGREE  # K_2 has chi' = 1 = Delta


def test_connectedness_applicability():
    assert suite_for("Z10")["connectedness"].status == AGREE
    assert suite_for("M2(Z2)")["connectedness"].status == AGREE
    # M_2 over Z_3 is not the M_n(Z_n) shape
    assert suite_for("M2(Z3)")["connectedness"].status == NOT_APPLICABLE
    assert suite_for("GF(25)")["connectedness"].status == NOT_APPLICABLE


def test_noncommutative_skips_quotient_lifting():
    assert suite_for("M2(Z2)")["quotient-lifting"].status == NOT_APPLICABLE


def test_quotient_lifting_reuses_the_nil_mask(monkeypatch):
    calls = []
    real = theorems.nilradical_quotient

    def spy(ring, nil=None):
        calls.append((ring.size, nil))
        return real(ring, nil)

    monkeypatch.setattr(theorems, "nilradical_quotient", spy)
    # reduced rings build no quotient; Z12 gets the nil mask it already has
    for expr in ("Z10", "GF(25)", "Z3 x Z3", "Z12"):
        assert suite_for(expr)["quotient-lifting"].status == AGREE
    assert calls == [(12, realize("Z12")[1].nil)]


def test_product_diameter_hypothesis():
    verdicts = suite_for("Z3 x Z3")
    assert verdicts["diameter-product"].status == AGREE  # diam 2 is in {2, 3}
    # Z_2 is nil clean, so the product hypothesis fails
    assert suite_for("Z2 x Z3")["diameter-product"].status == NOT_APPLICABLE
    assert suite_for("Z10")["diameter-product"].status == NOT_APPLICABLE


# every product the diameter-product verdict was checked on, with the
# verdict it gave when the factors were rebuilt and classified again;
# (Z4 x Z9)/nil x Z3 is the same ring as Z6 x Z3 up to names
PRODUCT_VERDICTS = {
    "Z3 x Z3": (AGREE, "2"),
    "Z6 x Z3": (AGREE, "2"),
    "(Z4 x Z9)/nil x Z3": (AGREE, "2"),
    "Z2 x Z3": (NOT_APPLICABLE, None),
    "Z4 x Z9": (NOT_APPLICABLE, None),
    "GF(9) x Z3": (NOT_APPLICABLE, None),
    "M2(Z2) x Z3": (NOT_APPLICABLE, None),
    "Z12 x Z5": (NOT_APPLICABLE, None),
    "Z2 x M2(Z2)": (NOT_APPLICABLE, None),
    "Z3 x GF(4)": (NOT_APPLICABLE, None),
    "Z2 x Z521": (NOT_APPLICABLE, None),
}


@pytest.mark.parametrize("expr", PRODUCT_VERDICTS)
def test_product_report_classifies_only_the_ring(monkeypatch, expr):
    classified = []
    real = theorems.weakly_nil_clean_set

    def spy(ring):
        classified.append(ring.spec)
        return real(ring)

    monkeypatch.setattr(theorems, "weakly_nil_clean_set", spy)
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    cls = spy(ring)
    graph = wnc.build_wnc_graph(ring, cls)
    verdict = next(v for v in wnc.compute_report(cls, graph).theorem_verdicts
                   if v.theorem == "diameter-product")
    status, computed = PRODUCT_VERDICTS[expr]
    assert verdict.status == status
    if computed is not None:
        assert verdict.computed == computed
    # the factors are read off R's classification; only quotient-lifting in
    # a commutative ring with nilpotents classifies one more ring
    lifts = ring.is_commutative and cls.nil != 1 << ring.zero
    assert classified == [ring.spec] + ([NilQuotient(ring.spec)] if lifts else [])


def _without_edge(graph, x, y):
    rows = list(graph.adjacency)
    assert rows[x] >> y & 1
    rows[x] &= ~(1 << y)
    rows[y] &= ~(1 << x)
    return rebuilt(graph, adjacency=rows)


TAMPERED = ("Z10", "Z12", "GF(9)", "Z3 x Z3")


@pytest.mark.parametrize("expr", TAMPERED)
def test_a_missing_nil_clean_edge_breaks_subgraph_and_degree(expr):
    ring, cls, graph = realize(expr)
    # zero + one is nil clean
    tampered = _without_edge(graph, ring.zero, ring.one)
    verdicts = _verdict_map(cls, tampered)
    assert verdicts["subgraph"].status == DISAGREE
    assert verdicts["degree-lemma"].status == DISAGREE


@pytest.mark.parametrize("expr", TAMPERED)
def test_a_missing_weak_edge_breaks_only_the_degree(expr):
    ring, cls, graph = realize(expr)
    weak_only = cls.wnc & ~cls.nc
    assert weak_only
    s = (weak_only & -weak_only).bit_length() - 1  # zero + s = s
    tampered = _without_edge(graph, ring.zero, s)
    verdicts = _verdict_map(cls, tampered)
    assert verdicts["subgraph"].status == AGREE
    assert verdicts["degree-lemma"].status == DISAGREE


def _verdict_map(cls, graph):
    # a tampered graph or ring may leave chi' unknown; none of these tests
    # reads class 1
    return {v.theorem: v for v in wnc.compute_report(cls, graph).theorem_verdicts}


def _generators(ring):
    """The id of each digit's unit: the moves the row certificate makes."""
    places = [1]
    for radix in ring.radices[:-1]:
        places.append(places[-1] * radix)
    return places


@pytest.mark.parametrize("expr", ["Z10", "Z3 x Z3", "Z2 x Z2 x Z2", "M2(Z2)"])
def test_a_non_injective_addition_breaks_the_sum_coloring(expr):
    # add sends two neighbors y1 < y2 of a generator x to the same sum; the
    # certificate reads x's addition row, which is then no permutation, and
    # the per-neighbor adds see the collision (reduced or noncommutative
    # rings: their reports build no quotient, which the broken add could
    # not define)
    ring, cls, graph = realize(expr)
    x = next(g for g in _generators(ring) if graph.adjacency[g].bit_count() > 1)
    y1, y2 = bit_list(graph.adjacency[x])[:2]
    real = ring.add

    def add(a, b):
        return real(x, y1) if (a, b) in ((x, y2), (y2, x)) else real(a, b)

    broken = copy.copy(ring)
    broken.add = add
    broken_graph = rebuilt(graph, ring=broken)
    assert graph_module.certify_rows(graph)
    assert not graph_module.certify_rows(broken_graph)
    verdicts = _verdict_map(cls, broken_graph)
    assert verdicts["sum-coloring"].status == DISAGREE
    assert verdicts["sum-coloring"].computed.startswith("improper")


@pytest.mark.parametrize("expr", ["Z12", "Z2 x Z2 x Z2", "M2(Z2)", "Z4 x Z9"])
def test_a_shifted_add_row_breaks_the_subgraph_check(expr):
    # add(x, y) is x + y + h with 2h = 0, so every addition row, the
    # generators' included, is a bijection off by h: the certificate
    # refuses it, and the per-neighbor sums are off by h from the doubles,
    # which the copy keeps from the ring
    ring, cls, graph = realize(expr)
    h = next(v for v in range(1, ring.size) if ring.add(v, v) == ring.zero)
    ring.doubles
    shifted = copy.copy(ring)
    shifted.add = lambda a, b: ring.add(ring.add(a, b), h)
    shifted_graph = rebuilt(graph, ring=shifted)
    assert not graph_module.certify_rows(shifted_graph)
    assert _verdict_map(cls, graph)["subgraph"].status == AGREE
    assert _verdict_map(cls, shifted_graph)["subgraph"].status == DISAGREE


ROW_VERDICTS = ("sum-coloring", "subgraph", "degree-lemma")


def _misrouting(ring, g):
    """`rings.translate`, except that a move by g sends bit 1 to g, the
    image of bit 0: still a union of per-bit images, but one is wrong."""
    real = wnc.rings.translate

    def translate(r, mask, shift):
        if shift != g or not mask & 2:
            return real(r, mask, shift)
        return real(r, mask & ~2, shift) | 1 << g

    return translate


@pytest.mark.parametrize("expr,move", [
    ("Z12", "generator"), ("Z4 x Z9", "generator"), ("M2(Z2)", "generator"),
    ("Z12", "two-units"), ("Z4 x Z9", "two-units"), ("Z16 x Z3", "two-units")])
def test_a_misrouted_translate_is_refused(expr, move, monkeypatch):
    # the same wrong translate builds the rows and runs the certificate; a
    # generator's move fails check (b) on the true rows already, while a
    # move by two units of a digit, which the certificate never makes,
    # shows only in the rows it built, where (c) refuses them
    ring, cls, graph = realize(expr)
    g = _generators(ring)[-1] if move == "generator" else 2
    bad = _misrouting(ring, g)
    monkeypatch.setattr(graph_module, "translate", bad)
    built = wnc.build_wnc_graph(ring, cls)
    assert built.adjacency != graph.adjacency
    assert graph_module.certify_rows(graph) == (move == "two-units")
    assert not graph_module.certify_rows(built)
    verdicts = _verdict_map(cls, built)
    assert DISAGREE in {verdicts[t].status for t in ROW_VERDICTS}


@pytest.mark.parametrize("expr", ["Z12", "Z4 x Z9", "M2(Z2)", "Z16 x Z3"])
@pytest.mark.parametrize("v", [0, 1, -1])
def test_one_flipped_row_bit_is_refused(expr, v):
    # row v loses or gains the bit of 2: (a) refuses row 0, (c) any other
    ring, cls, graph = realize(expr)
    rows = list(graph.adjacency)
    rows[v] ^= 1 << 2
    flipped = rebuilt(graph, adjacency=rows)
    assert graph_module.certify_rows(graph)
    assert not graph_module.certify_rows(flipped)
    verdicts = _verdict_map(cls, flipped)
    assert DISAGREE in {verdicts[t].status for t in ROW_VERDICTS}


@pytest.mark.parametrize("expr", ["Z10", "Z14", "Z15"])
def test_a_row_holding_its_own_vertex_is_refused(expr):
    # row v gains bit v where 2v is not in S, and a copy of the ring says
    # 2v is in S, with add unchanged: T_v is S - v all the same, but the
    # row is not (S - v) minus v, so the certificate refuses it, and the
    # per-neighbor sums show the loop's color 2v, which is not in S
    ring, cls, graph = realize(expr)
    v = next(v for v in range(ring.size) if not cls.wnc >> ring.doubles[v] & 1)
    lying = copy.copy(ring)
    lying.doubles = list(ring.doubles)
    lying.doubles[v] = bit_list(cls.wnc)[0]
    rows = list(graph.adjacency)
    rows[v] |= 1 << v
    looped = rebuilt(graph, adjacency=rows, ring=lying)
    assert graph_module.certify_rows(graph)
    assert not graph_module.certify_rows(looped)
    assert looped.sum_coloring[1] == cls.wnc | 1 << ring.doubles[v]


@pytest.mark.parametrize("expr", ["Z12", "Z2 x Z2 x Z2", "M2(Z2)", "Z4 x Z9"])
def test_a_shifted_generator_row_is_refused(expr):
    # add(g, y) is g + y + h with 2h = 0 for one generator g, and add is
    # true on every other row: (b) refuses, and the per-neighbor sums read
    # that add, the shifted row included
    ring, _, graph = realize(expr)
    h = next(v for v in range(1, ring.size) if ring.add(v, v) == ring.zero)
    g = _generators(ring)[-1]
    shifted = copy.copy(ring)
    shifted.add = lambda a, b: ring.add(ring.add(a, h) if a == g else a, b)
    shifted_graph = rebuilt(graph, ring=shifted)
    assert graph_module.certify_rows(graph)
    assert not graph_module.certify_rows(shifted_graph)
    assert list(graph_module.sum_sets(shifted_graph)) == [
        (x, row.bit_count(), mask_of(shifted.add(x, y) for y in bit_list(row)))
        for x, row in enumerate(graph.adjacency)]


@pytest.mark.parametrize("expr", ["Z12", "Z16 x Z12", "Z2 x Z2 x Z2 x Z2",
                                  "M2(Z4)", "M2(GF(4))", "GF(16)"])
def test_the_report_does_not_read_the_layout(expr, monkeypatch):
    # without the layout the pass makes one add per neighbor, and gives
    # the values that the certified rows gave
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    cls = wnc.weakly_nil_clean_set(ring)
    graph = wnc.build_wnc_graph(ring, cls)
    before = _report_values(wnc.compute_report(cls, graph))

    def refuse(*args):
        raise AssertionError("the report read the digit layout")

    monkeypatch.setattr(wnc.rings, "translate", refuse)
    monkeypatch.setattr(graph_module, "translate", refuse)
    monkeypatch.setattr(type(ring), "_wrap_masks", property(refuse))
    ring.radices = None
    fresh = rebuilt(graph)  # none of the facts read above
    assert _report_values(wnc.compute_report(cls, fresh)) == before


def _report_values(report):
    """Every field of the report, the verdicts and the census included,
    and the names of the stopped searches."""
    values = {name: getattr(report, name) for name in (
        "component_sizes", "diameter", "girth", "is_bipartite", "max_degree",
        "clique_number", "clique", "sum_coloring_colors", "chromatic_index",
        "vizing_class", "four_cliques", "theorem_verdicts")}
    return {**values, "stopped": sorted(report.stopped)}


@pytest.mark.parametrize("expr", ["Z12", "Z8", "Z4 x Z9", "Z2 x Z4"])
@pytest.mark.parametrize("both_rows", [True, False], ids=["edge", "one-row"])
def test_a_missing_lifted_edge_breaks_quotient_lifting(expr, both_rows):
    # 0 + 1 = 1 is idempotent in R/Nil(R), so the cosets of 0 and 1 are
    # adjacent there and every pair between them must be an edge of R;
    # one row missing its bit is enough
    ring, cls, graph = realize(expr)
    assert _verdict_map(cls, graph)["quotient-lifting"].status == AGREE
    if both_rows:
        tampered = _without_edge(graph, ring.zero, ring.one)
    else:
        rows = list(graph.adjacency)
        rows[ring.one] &= ~(1 << ring.zero)
        tampered = rebuilt(graph, adjacency=rows)
    verdicts = _verdict_map(cls, tampered)
    assert verdicts["quotient-lifting"].status == DISAGREE


def test_the_report_builds_only_the_quotient_graph(monkeypatch):
    exprs = ("Z10", "GF(25)", "Z3 x Z3", "Z12")
    realized = [realize(e) for e in exprs]  # built before the spy
    built = []
    real = graph_module._build

    def spy(ring, clean):
        built.append(ring.spec)
        return real(ring, clean)

    monkeypatch.setattr(graph_module, "_build", spy)
    for _, cls, graph in realized:
        wnc.compute_report(cls, graph).theorem_verdicts
    # the reduced rings are their own quotient; Z12 lifts from Z12/nil
    assert built == [NilQuotient(realize("Z12")[0].spec)]


def test_four_clique_verdict_lists_the_sets():
    v = suite_for("Z10")["four-cliques"]
    assert v.status == AGREE
    for clique in ("{0,1,4,5}", "{0,1,5,9}", "{0,4,5,6}", "{0,5,6,9}", "{2,3,7,8}"):
        assert clique in v.computed


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_no_uncharted_disagreements_in_corpus(expr):
    # every DISAGREE in the corpus is one of the charted failure modes
    for v in suite_for(expr).values():
        if v.status == DISAGREE:
            assert v.known_discrepancy, (expr, v.theorem, v.computed)


def test_mismatched_inputs_are_rejected():
    ring, cls, graph = realize("Z10")
    _, other_cls, other_graph = realize("Z12")
    with pytest.raises(ValueError):
        wnc.compute_report(other_cls, graph)
    with pytest.raises(ValueError):
        wnc.compute_report(cls, other_graph)
    nc_graph = wnc.build_nc_graph(ring, cls)
    with pytest.raises(ValueError):
        wnc.compute_report(cls, nc_graph)  # wrong clean set


@pytest.mark.parametrize("reader", [
    lambda cls, graph: wnc.compute_report(cls, graph),
    lambda cls, graph: wnc.InvariantReport(cls, graph),
    lambda cls, graph: list(graph_module.sum_sets(graph)),
    lambda cls, graph: graph_module.certify_rows(graph),
    lambda cls, graph: graph.translates,
    lambda cls, graph: wnc.neighborhood_disjointness_check(graph)],
    ids=["compute_report", "InvariantReport", "sum_sets", "certify_rows",
         "translates", "neighborhood_disjointness_check"])
def test_a_graph_without_a_ring_is_refused(reader):
    # each of these reads the ring from the graph; a synthetic graph, or a
    # ring graph with its ring dropped, has none to read
    _, cls, graph = realize("Z10")
    with pytest.raises(ValueError, match="not built from a ring"):
        reader(cls, rebuilt(graph, ring=None))


@pytest.mark.parametrize("expr,v,bit", [
    ("Z4 x Z9", 0, 36), ("Z4 x Z9", 35, 40), ("Z10", 3, 10), ("M2(Z2)", 0, 99)])
def test_a_row_outside_the_carrier_is_refused(expr, v, bit):
    # a bit at or past n names no vertex; the report refuses the row before
    # any invariant reads it
    _, cls, graph = realize(expr)
    rows = list(graph.adjacency)
    rows[v] |= 1 << bit
    with pytest.raises(ValueError, match="outside the carrier"):
        wnc.compute_report(cls, rebuilt(graph, adjacency=rows))


def test_report_bundles_everything():
    ring, cls, graph = realize("Z10")
    report = wnc.compute_report(cls, graph)
    assert report.component_sizes == [10]
    assert report.diameter == 2
    assert report.girth == 3
    assert report.clique_number == 4
    assert report.max_degree == 6
    assert report.chromatic_index == 6
    assert report.vizing_class == 1
    assert report.sum_coloring_colors == 6
    assert report.four_cliques == [
        (0, 1, 4, 5), (0, 1, 5, 9), (0, 4, 5, 6), (0, 5, 6, 9), (2, 3, 7, 8)]
    assert tuple(v.theorem for v in report.theorem_verdicts) == THEOREM_IDS
    assert report.stopped == {}


def test_the_census_runs_on_first_read(monkeypatch):
    ring, cls, graph = realize("Z10")
    censuses = []
    real = theorems.enumerate_k_cliques

    def spy(graph, k):
        censuses.append(k)
        return real(graph, k)

    monkeypatch.setattr(theorems, "enumerate_k_cliques", spy)
    report = wnc.compute_report(cls, graph)
    assert report.vizing_class == 1 and censuses == []
    assert len(report.four_cliques) == 5 and censuses == [4]
    # the four-cliques verdict reads the same census
    assert report.theorem_verdicts[THEOREM_IDS.index("four-cliques")].status == AGREE
    assert censuses == [4]
    report = wnc.compute_report(cls, graph)
    assert report.theorem_verdicts and censuses == [4, 4]
