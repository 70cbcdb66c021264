"""The value classes (ring specs, `Classification`, `TheoremVerdict`,
`WncGraph`) and what importing the package costs.

Every `wnc` command imports the package before it builds a ring, so the
package keeps to modules that are cheap to import: no `dataclasses`, which
pulls in `inspect`, `ast` and `copy` and compiles code per class, and no
`typing`. It reads its command line from a table, with no argparse, which
imports gettext and whose parser imports locale.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import wnc
from wnc.cli import main
from wnc.rings import GF, MatrixRing, NilQuotient, Product, Zn

from corpus import realize

HEAVY = ("dataclasses", "typing", "inspect", "ast")
PARSER = ("argparse", "gettext", "locale")


def test_the_cli_imports_no_dataclasses_typing_inspect_or_ast():
    # -S keeps `site`, and any module a .pth file loads, out of the child;
    # the child reads a command line and runs it, as `wnc` does
    script = ("import sys, wnc.cli\n"
              "assert wnc.cli.main(['report', 'Z10', '--json']) == 0\n"
              f"print(*[m for m in {HEAVY + PARSER!r} if m in sys.modules])\n")
    src = str(pathlib.Path(wnc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report, loaded, end = done.stdout.split("\n")
    assert json.loads(report)["ring"] == "Z10"
    assert (loaded, end) == ("", "")


SPECS = (Zn(2), GF(2, 1), NilQuotient(Zn(2)), Product(Zn(2), Zn(2)),
         MatrixRing(2, Zn(2)))


def test_specs_are_equal_and_hash_alike_by_kind_and_fields():
    assert Zn(n=10) == Zn(10) == wnc.parse_ring_expr("Z10")
    assert hash(Zn(n=10)) == hash(Zn(10))
    nested = wnc.parse_ring_expr("M2(Z3 x GF(4))/nil")
    assert nested == NilQuotient(MatrixRing(2, Product(Zn(3), GF(2, 2))))
    assert hash(nested) == hash(wnc.parse_ring_expr("M2(Z3 x GF(4))/nil"))
    assert Zn(10) != Zn(12) and GF(2, 2) != GF(2, 3)
    # the same numbers under five kinds: no two are equal
    assert [a == b for a in SPECS for b in SPECS] == [
        i == j for i in range(len(SPECS)) for j in range(len(SPECS))]
    assert len(set(SPECS)) == len(SPECS)
    assert {wnc.parse_ring_expr("Z2 x Z2"): 1}[Product(Zn(2), Zn(2))] == 1


@pytest.mark.parametrize("value, field", [
    (Zn(10), "n"), (GF(5, 2), "k"), (Product(Zn(2), Zn(3)), "left"),
    (MatrixRing(2, Zn(2)), "inner"), (NilQuotient(Zn(12)), "inner"),
    (realize("Z10")[1], "wnc"),
    (wnc.TheoremVerdict("girth", "3", "3", "AGREE"), "status")])
def test_fields_are_read_only(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_a_classification_builds_from_keywords():
    _, cls, _ = realize("Z10")
    again = wnc.Classification(size=10, idem=cls.idem, nil=cls.nil,
                               nc=cls.nc, wnc=cls.wnc)
    assert again == cls and hash(again) == hash(cls)
    assert (again.size, again.wnc) == (10, cls.wnc)


def test_a_graph_builds_from_keywords_with_no_clean_set_or_ring():
    graph = wnc.WncGraph(adjacency=[0b10, 0b01])
    assert graph.clean_set is None and graph.ring is None
    assert graph == wnc.make_graph([(0, 1)], 2) != wnc.make_graph([], 2)
    assert graph.vertex_count == 2
    ring, cls, built = realize("Z10")
    same = wnc.WncGraph(adjacency=built.adjacency, clean_set=cls.wnc, ring=ring)
    assert same == built and same != graph
    assert wnc.WncGraph(adjacency=built.adjacency) != built
    assert wnc.WncGraph(built.adjacency, cls.nc, ring) != built
    assert graph.adjacency == (0b10, 0b01)  # a tuple, whatever was given
    with pytest.raises(TypeError):
        hash(graph)
    for field in ("adjacency", "clean_set", "ring"):
        with pytest.raises(AttributeError):  # build a new graph instead
            setattr(graph, field, getattr(wnc.make_graph([], 2), field))
    assert graph == wnc.make_graph([(0, 1)], 2)


def test_a_graph_s_rows_cannot_change_under_its_facts():
    # Z10: after max_degree has cached the degrees, clearing a bit of row 3
    # in place would leave them stale, and the report would mix old and new
    ring, cls, graph = realize("Z10")
    assert wnc.max_degree(graph) == 6
    with pytest.raises(TypeError):
        graph.adjacency[3] &= ~(graph.adjacency[3] & -graph.adjacency[3])
    assert graph.adjacency == wnc.build_wnc_graph(ring, cls).adjacency


def test_a_verdict_defaults_to_no_known_discrepancy():
    verdict = wnc.TheoremVerdict("girth", "3", "3", "AGREE")
    assert verdict.known_discrepancy is False
    assert verdict == wnc.TheoremVerdict(theorem="girth", predicted="3",
                                         computed="3", status="AGREE",
                                         known_discrepancy=False)


def test_the_verdict_dict_keeps_the_keys_the_json_writes(capsys):
    assert main(["report", "GF(4)", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    _, cls, graph = realize("GF(4)")
    report = wnc.compute_report(cls, graph)
    assert doc["theorem_verdicts"] == [v._asdict()
                                       for v in report.theorem_verdicts]
    assert [list(v) for v in doc["theorem_verdicts"]] == [
        ["computed", "known_discrepancy", "predicted", "status", "theorem"]
    ] * len(wnc.THEOREM_IDS)
    assert any(v["known_discrepancy"] for v in doc["theorem_verdicts"])
