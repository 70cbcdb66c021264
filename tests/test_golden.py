"""Byte-for-byte pins on the CLI's canonical outputs.

Each `report --json` output, with its `wall_time_seconds` field cut out of
the raw text, each `export` output and the `batch` CSV are
hashed and compared with the digests in `golden_outputs.json`. A change
that is meant to alter output must re-record them:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import re

import pytest

from wnc.cli import main

from corpus import ACCEPTANCE_CORPUS

GOLDEN = pathlib.Path(__file__).with_name("golden_outputs.json")

REPORT_EXPRS = ACCEPTANCE_CORPUS + (
    "Z12/nil", "(Z4 x Z9)/nil", "Z4 x Z9", "Z2 x Z7",
    # large rings with a small weakly nil clean set
    "GF(256)", "GF(343)", "GF(512)", "GF(729)", "Z1009", "Z1042",
    "Z2 x Z521", "Z4093",
    # dense graphs: the sum-coloring, subgraph and degree passes and the
    # clique search do most of the work
    "Z1000", "Z256", "M2(Z3)", "M2(Z4)", "M2(GF(4))", "Z2 x Z2 x Z2 x Z2",
    "Z16 x Z48", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
    # greedy cliques far short of omega: the clique search branches
    "M2(Z6)", "Z27 x Z27",
    # a product over a quotient, which has no digit layout
    "(Z4 x Z9)/nil x Z3")
# Z_2p with p >= 5 prime: the rings whose reports run the 4-clique census
FOUR_CLIQUE_EXPRS = ("Z10", "Z14", "Z22", "Z26", "Z34")
# export reads the graph's rows alone, so these pin the graph build
# directly: products of cyclic groups (Z4 x Z144 is K576, the largest
# export), a field's base-p digits, matrix cells and a quotient, which has
# no digit layout
EXPORT_EXPRS = ("Z16 x Z36", "Z4 x Z144", "GF(16)", "M2(Z2)", "Z12/nil")
# the DOT and CSV writers list the same edges under element names
NAMED_EXPORT_EXPRS = ("Z16 x Z36", "Z4 x Z144", "Z12/nil")
# budgeted searches: the clique search on M2(Z5), which finishes only in
# triangle-count order (the id order runs past its budget), the census of K512, refused on its count bound,
# M2(GF(4)) x Z3, whose clique number is searched on its twin quotient
# and whose chromatic index the period construction decides, and
# M2(Z5) x Z3, whose clique search stops at its budget of 15,000 nodes
# (omega unknown, between 68 and 87)
BUDGET_COMMANDS = [("report", "M2(Z5)", "--json"), ("report", "M2(Z5)"),
                   ("report", "Z512", "--four-cliques", "--json"),
                   ("report", "M2(GF(4)) x Z3", "--json"),
                   ("report", "M2(Z5) x Z3", "--json")]
# text outputs whose lines follow the order in which the report's values
# are read: the census line, the stopped-search lines after every value,
# and the verdict table
READ_ORDER_COMMANDS = [("report", "Z512", "--four-cliques"),
                       ("report", "Z10", "--four-cliques"),
                       ("report", "M2(GF(4)) x Z3"), ("verify", "Z10")]

COMMANDS = (
    [("report", e, "--json") for e in REPORT_EXPRS]
    + [("report", e, "--json", "--four-cliques") for e in FOUR_CLIQUE_EXPRS]
    + [("export", e, "--format", "json", "--out", "-") for e in EXPORT_EXPRS]
    + [("export", e, "--format", f, "--out", "-")
       for e in NAMED_EXPORT_EXPRS for f in ("csv", "dot")]
    + [("batch", "--zn", "2..60")]
    + BUDGET_COMMANDS
    + READ_ORDER_COMMANDS
)

_WALL_TIME = re.compile(r', "wall_time_seconds": [0-9.e-]+')


def _digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    text = out.getvalue()
    if argv[0] == "report" and "--json" in argv:
        text, cut = _WALL_TIME.subn("", text)
        assert cut == 1
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_golden_digest(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _digest(argv) == golden[" ".join(argv)]


def test_golden_file_covers_exactly_the_commands():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(" ".join(a) for a in COMMANDS)


if __name__ == "__main__":
    digests = {" ".join(argv): _digest(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
