"""The command line surface: report, export, verify, batch."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import types
from itertools import chain, combinations, compress

import pytest
from hypothesis import example, given, settings, strategies as st

import wnc
from wnc import cli
from wnc.cli import main

from corpus import ACCEPTANCE_CORPUS, realize
from oracles import naive_edge_set, naive_wnc_members, reference_parser


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_json_z10(capsys):
    code, out, _ = run(capsys, "report", "Z10", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["wnc_set"] == ["0", "1", "4", "5", "6", "9"]
    assert doc["clique_number"] == 4
    assert doc["girth"] == 3
    assert doc["diameter"] == 2
    assert doc["chromatic_index"] == 6
    assert doc["vizing_class"] == 1
    assert doc["ring"] == "Z10"
    assert out.endswith("\n")
    # canonical key order
    assert list(doc) == sorted(doc)


def test_report_json_gf25(capsys):
    code, out, _ = run(capsys, "report", "GF(25)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["component_sizes"] == [5, 10, 10]
    assert doc["diameter"] == "inf"
    assert doc["is_weakly_nil_clean_ring"] is False
    assert doc["wnc_set"] == ["0", "1", "4"]


def test_report_json_deterministic_modulo_timing(capsys):
    docs = []
    for _ in range(2):
        _, out, _ = run(capsys, "report", "Z30", "--json")
        doc = json.loads(out)
        del doc["wall_time_seconds"]
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_report_four_cliques_flag(capsys):
    code, out, _ = run(capsys, "report", "Z10", "--json", "--four-cliques")
    doc = json.loads(out)
    assert doc["four_cliques"] == [
        ["0", "1", "4", "5"], ["0", "1", "5", "9"], ["0", "4", "5", "6"],
        ["0", "5", "6", "9"], ["2", "3", "7", "8"]]


def test_report_z1_fails_with_message(capsys):
    code, out, err = run(capsys, "report", "Z1")
    assert code == 1
    assert "must be >= 2" in err


def test_report_text_mentions_key_fields(capsys):
    code, out, _ = run(capsys, "report", "Z10")
    assert code == 0
    assert "weakly nil clean set (6): 0, 1, 4, 5, 6, 9" in out
    assert "clique_number: 4" in out


def test_export_dot_z10_matches_derived_edges(capsys, tmp_path):
    path = tmp_path / "z10.dot"
    code, _, _ = run(capsys, "export", "Z10", "--format", "dot", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("graph G {")
    node_lines = [l for l in text.splitlines()
                  if l.endswith('";') and " -- " not in l]
    edge_lines = [l for l in text.splitlines() if " -- " in l]
    assert len(node_lines) == 10
    ring, _, _ = realize("Z10")
    expected = naive_edge_set(ring, naive_wnc_members(ring))
    got = set()
    for line in edge_lines:
        u, v = line.strip().rstrip(";").split(" -- ")
        got.add((int(u.strip('"')), int(v.strip('"'))))
    assert got == expected


def test_export_json_z2_exact_bytes(capsys):
    code, out, _ = run(capsys, "export", "Z2", "--format", "json", "--out", "-")
    assert code == 0
    assert out == '{"vertices":["0","1"],"edges":[[0,1]]}\n'


def test_export_json_reimport_reproduces_adjacency(capsys):
    code, out, _ = run(capsys, "export", "GF(25)", "--format", "json", "--out", "-")
    doc = json.loads(out)
    rebuilt = wnc.make_graph([tuple(e) for e in doc["edges"]], len(doc["vertices"]))
    _, _, graph = realize("GF(25)")
    assert rebuilt.adjacency == graph.adjacency


def test_export_csv_gf25_row_count(capsys):
    code, out, _ = run(capsys, "export", "GF(25)", "--format", "csv", "--out", "-")
    _, _, graph = realize("GF(25)")
    lines = out.strip().splitlines()
    assert lines[0] == "source,target"
    assert len(lines) == 1 + wnc.edge_count(graph)
    assert all(line.count(",") == 1 for line in lines)


def _reference_exports(ring, graph):
    # the writers as one loop per edge
    name = ring.name
    pairs = list(wnc.edges(graph))
    dot = "\n".join(["graph G {"]
                    + [f'  "{name(v)}";' for v in range(graph.vertex_count)]
                    + [f'  "{name(u)}" -- "{name(v)}";' for u, v in pairs]
                    + ["}"]) + "\n"
    doc = {"vertices": [name(v) for v in range(graph.vertex_count)],
           "edges": [[u, v] for u, v in pairs]}
    text = json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n"
    csv = "\n".join(["source,target"]
                    + [f"{name(u)},{name(v)}" for u, v in pairs]) + "\n"
    return {"dot": dot, "json": text, "csv": csv}


def _named(graph):
    names = tuple(f"v{i}" for i in range(graph.vertex_count))
    return types.SimpleNamespace(name=names.__getitem__, names=lambda: names)


EXPORT_EXPRS = ACCEPTANCE_CORPUS + ("Z12/nil",)
EXPORT_GRAPHS = (wnc.make_graph([], 1), wnc.make_graph([], 3),
                 wnc.make_graph([(1, 2)], 4))


@pytest.mark.parametrize(
    "ring,graph",
    [realize(e)[::2] for e in EXPORT_EXPRS] + [(_named(g), g) for g in EXPORT_GRAPHS],
    ids=list(EXPORT_EXPRS) + ["K1", "no-edges", "isolated"])
def test_export_writers_match_one_loop_per_edge(ring, graph):
    expected = _reference_exports(ring, graph)
    assert cli._export_dot(ring, graph) == expected["dot"]
    assert cli._export_json(ring, graph) == expected["json"]
    assert cli._export_csv(ring, graph) == expected["csv"]


@st.composite
def synthetic_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return wnc.make_graph(compress(pairs, kept), n)


@settings(max_examples=200, deadline=None)
@given(graph=synthetic_graphs())
# K1; empty upper rows at the start (0), in the middle (2) and at the end
# (4, 5); a vertex joined to every vertex above it (1)
@example(graph=wnc.make_graph([], 1))
@example(graph=wnc.make_graph([(1, 2), (1, 5), (3, 5)], 6))
@example(graph=wnc.make_graph([(0, 3), (1, 2), (1, 3), (1, 4)], 5))
def test_export_writers_match_one_loop_per_edge_on_random_graphs(graph):
    test_export_writers_match_one_loop_per_edge(_named(graph), graph)


def test_export_matrix_names_stay_csv_safe(capsys):
    code, out, _ = run(capsys, "export", "M2(Z2)", "--format", "csv", "--out", "-")
    lines = out.strip().splitlines()
    assert all(line.count(",") == 1 for line in lines)


def test_export_determinism(capsys, tmp_path):
    for fmt in ("dot", "json", "csv"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        run(capsys, "export", "Z12/nil", "--format", fmt, "--out", str(a))
        run(capsys, "export", "Z12/nil", "--format", fmt, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


def test_export_unwritable_path(capsys, tmp_path):
    code, _, err = run(capsys, "export", "Z2", "--format", "dot",
                       "--out", str(tmp_path / "no" / "such" / "dir.dot"))
    assert code == 1
    assert "cannot write" in err


def test_verify_z10_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "Z10")
    assert code == 0
    assert "DISAGREE" not in out


def test_verify_gf4_disagrees_with_exit_two(capsys):
    code, out, _ = run(capsys, "verify", "GF(4)")
    assert code == 2
    girth_row = next(l for l in out.splitlines() if l.startswith("girth"))
    assert "DISAGREE" in girth_row and "inf" in girth_row


def test_verify_allow_known_downgrades(capsys):
    code, out, _ = run(capsys, "verify", "GF(4)", "--allow-known-discrepancies")
    assert code == 0
    assert "WARN" in out


def test_verify_theorem_filter(capsys):
    code, out, _ = run(capsys, "verify", "Z10", "--theorems", "four-cliques")
    assert code == 0
    assert "{2,3,7,8}" in out
    assert "girth" not in out


def test_verify_unknown_theorem_id(capsys):
    code, _, err = run(capsys, "verify", "Z10", "--theorems", "no-such-theorem")
    assert code == 1
    assert "unknown theorem id" in err


@pytest.mark.parametrize("ids", [",", ""], ids=["comma", "empty"])
def test_verify_empty_theorem_list(capsys, ids):
    assert run(capsys, "verify", "Z10", "--theorems", ids) == (
        1, "", "error: no theorem ids given\n")


def test_batch_census(capsys, tmp_path):
    path = tmp_path / "census.csv"
    code, _, _ = run(capsys, "batch", "--zn", "2..30", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,wnc_size,is_wnc_ring,girth,diameter,clique_number,vizing_class"
    assert len(lines) == 1 + 29
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    diameter_one = {n for n, row in rows.items() if row[4] == "1"}
    assert diameter_one == {2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27}
    for n in (10, 14, 22, 26):
        assert rows[n][5] == "4"


def test_batch_rejects_bad_ranges(capsys):
    code, _, err = run(capsys, "batch", "--zn", "5..3")
    assert code == 1 and "invalid range" in err
    code, _, err = run(capsys, "batch", "--zn", "1..4")
    assert code == 1
    code, _, err = run(capsys, "batch", "--zn", "nope")
    assert code == 1


def test_batch_stdout_default(capsys):
    code, out, _ = run(capsys, "batch", "--zn", "2..4")
    assert code == 0
    assert out.splitlines()[1].startswith("2,")


def test_batch_refuses_a_range_end_over_the_cap(capsys, monkeypatch):
    def build_ring(spec):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(cli, "build_ring", build_ring)
    code, out, err = run(capsys, "batch", "--zn", "2..5000")
    assert (code, out) == (1, "")
    assert err == "error: range end 5000 exceeds the size cap 4096\n"


# one small command line per subcommand
SUBCOMMANDS = {
    "report": ("report", "Z10"),
    "export": ("export", "Z10", "--format", "csv", "--out", "-"),
    # GF(4) has charted disagreements, so the downgrade flag is consulted
    "verify": ("verify", "GF(4)", "--allow-known-discrepancies"),
    "batch": ("batch", "--zn", "2..4"),
}


# the search budgets and the size cap are constants, not options
@pytest.mark.parametrize("argv,flag", [
    pytest.param(argv, flag, id=name + suffix)
    for flag, suffix in (("--color-budget", ""), ("--cap", "-cap"))
    for name, argv in SUBCOMMANDS.items()])
def test_color_budget_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "50"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


class _Reads:
    """A parsed namespace that records every attribute read from it."""

    def __init__(self, namespace):
        self._namespace = namespace
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._namespace, name)


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_every_option_is_read(argv, capsys):
    # an option its subcommand never reads is accepted and then ignored
    options = {usage.split()[0].lstrip("-").replace("-", "_")
               for usage, _, _ in cli.COMMANDS[argv[0]][1]}
    args = _Reads(cli.parse_args(list(argv)))
    assert args.func(args) == 0
    capsys.readouterr()
    assert options - args.read == set()


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_names_every_command_and_option_with_its_help(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag] if command is None else [command, "Z10", flag, "--cap"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: wnc ")
    if command is None:
        for name, (text, _) in cli.COMMANDS.items():
            assert f"  {name}  " in out and text in out
        return
    for usage, text, _ in cli.COMMANDS[command][1]:
        assert usage in out and text in out
    assert out.count("\n") == 5 + len(cli.COMMANDS[command][1])


def test_help_read_up_to_its_usage_line_exits_zero():
    # the help goes out in one write, so a reader that closes the pipe after
    # the first line, as `wnc -h | head -1` does, leaves nothing to fail on,
    # unbuffered too
    env = {**os.environ, "PYTHONUNBUFFERED": "1",
           "PYTHONPATH": str(pathlib.Path(wnc.__file__).resolve().parents[1])}
    child = subprocess.Popen([sys.executable, "-m", "wnc.cli", "verify", "-h"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline().startswith(b"usage: wnc verify [-h]")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (0, b"")


def test_the_command_function_is_looked_up_when_the_line_is_read(monkeypatch):
    # a wrapped or replaced cmd_* (the benchmark's tracer rebinds them) runs
    ran = []
    monkeypatch.setattr(cli, "cmd_batch", lambda args: ran.append(args.zn) or 0)
    assert main(["batch", "--zn", "2..3"]) == 0 and ran == ["2..3"]


def _outcome(parse, argv):
    """The namespace `parse` read from argv, as a dict, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            lines = err.getvalue().splitlines()
            assert exc.code == 0 or lines[0].startswith("usage: wnc") and (
                lines[-1].startswith("wnc") and ": error: " in lines[-1])
            return exc.code


def _same_reading(argv):
    ours = _outcome(cli.parse_args, argv)
    assert ours == _outcome(reference_parser().parse_args, argv), argv
    return ours


@pytest.mark.parametrize("argv", [
    ("report", "Z10", "--cap", "5"), ("verify", "Z10", "--theorems", "--json"),
    ("export", "Z10", "--format", "xml", "--out", "-"),
    ("export", "Z10", "--out", "-"), ("export", "Z10", "--format", "csv"),
    ("batch",), ("batch", "--out", "-"), ("report",), ("report", "Z10", "Z12"),
    ("batch", "Z10", "--zn", "2..4"), ("census", "Z10"), ("rep", "Z10"), (),
    ("--json",), ("--json", "report", "Z10"), ("report", "Z10", "--json=yes"),
    ("export", "Z10", "--format"), ("report", "-Z10"),
    ("report", "Z10", "--j", "--j"), ("export", "--form=dot", "--o=", "Z10"),
    ("export", "Z10", "--out", "-5", "--format", "dot"),
    ("export", "Z10", "--out", "-a b", "--format", "dot"),
    ("batch", "--zn", "2..100", "--out", "-", "--zn=2..4"), ("report", "-"),
    ("report", "Z10", "-h"), ("-h",), ("--he", "report"), ("report", "--cap", "-h"),
    ("export", "Z10", "--format", "xml", "-h"), ("export", "Z10", "-h", "--format", "xml"),
])
def test_the_table_reads_a_line_as_argparse_did(argv):
    _same_reading(argv)


def test_a_double_dash_is_a_usage_error(capsys):
    # argparse read "--" as the end of options; the table reads no such mark
    for argv in (["report", "Z10", "--"], ["report", "--", "Z10"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --\n")


# each command's own options, with the values drawn for them
OPTIONS = {
    "report": {"--json": None, "--four-cliques": None},
    "export": {"--format": ("dot", "json", "csv", "xml", ""),
               "--out": ("-", "out.csv", "", "-5")},
    "verify": {"--theorems": ("girth", "girth,four-cliques", ","),
               "--allow-known-discrepancies": None},
    "batch": {"--zn": ("2..100", "2..4", "nope"), "--out": ("-", "census.csv")},
}
STRAYS = ("--cap", "--color-budget", "--zn", "--json", "-x")
EXPRS = ("Z10", "GF(25)", "M2(Z2)", "Z2 x Z3", "M2(Z2)/nil", "-", "-5", "-a b")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*OPTIONS] * 3 + ["census", "rep", "Z10", "--json"]))
    options = OPTIONS.get(command, {})
    names = [*options, "--help"]
    pieces = []
    if command != "batch" and draw(st.integers(0, 5)) > 0:  # mostly one expression
        pieces.append([draw(st.sampled_from(EXPRS))])
    for name, values in options.items():
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            # in full, or cut to a prefix that no other option, --help included, shares
            spelled = draw(st.sampled_from([name[:k] for k in range(3, len(name) + 1) if [
                n for n in names if n.startswith(name[:k])] == [name]]))
            value = draw(st.sampled_from(values or ("yes",)))
            pieces.append(draw(st.sampled_from(
                [[spelled, value], [f"{spelled}={value}"], [spelled]] if values else
                [[spelled]] * 4 + [[f"{spelled}={value}"]])))
    if draw(st.integers(0, 3)) == 0:  # something out of place
        pieces.append(draw(st.sampled_from([
            [draw(st.sampled_from(STRAYS)), "5"], [draw(st.sampled_from(EXPRS))],
            [draw(st.sampled_from(STRAYS))], ["--theorems", "--json"],
            [draw(st.sampled_from(("-h", "--help", "--h")))]])))
    pieces = draw(st.permutations(pieces))  # options on either side of the expression
    head = [] if command == "Z10" and draw(st.booleans()) else [command]  # no command
    return [*head, *chain.from_iterable(pieces)]


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_the_table_reads_every_drawn_line_as_argparse_did(argv):
    ours = _same_reading(argv)
    if isinstance(ours, dict):  # a line both accept runs the command's own function
        assert ours["func"] is getattr(cli, "cmd_" + ours["command"])


def test_a_closed_stdout_exits_one_without_a_traceback():
    # the 2.3 MB export and the 82 kB report outgrow any pipe buffer, so
    # stdout writes to the pipe after the reader has closed it:
    # block-buffered, and unbuffered, where one write may take only part of
    # the payload
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(wnc.__file__).resolve().parents[1])
    for argv, head in (
            (["export", "Z1000", "--format", "csv", "--out", "-"],
             b"source,target\n"),
            (["report", "Z4096", "--json"], b'{"carrier_')):
        for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
            child = subprocess.Popen(
                [sys.executable, "-m", "wnc.cli", *argv], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, env={**env, **extra})
            assert child.stdout.read(len(head)) == head
            child.stdout.close()
            err = child.stderr.read()
            child.stderr.close()
            assert child.wait(timeout=60) == 1, (argv, extra)
            assert err == b"", (argv, extra)
