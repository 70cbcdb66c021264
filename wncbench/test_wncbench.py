"""Tests of the benchmark itself.

    python3 -m pytest wncbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import gate
import pool
import spans
from run import ROOT, SRC, Runner

sys.path.insert(0, SRC)
import wnc.cli  # noqa: E402

SMALL = [
    ("report", "Z10", "--json"),
    ("report", "Z12", "--json"),
    ("report", "Z14", "--json"),
    ("report", "Z12/nil", "--json"),
    ("report", "GF(25)", "--json"),
    ("report", "M2(Z2)", "--json"),
    ("report", "Z3 x Z3", "--json"),
    ("report", "Z10", "--four-cliques", "--json"),
    ("export", "Z10", "--format", "json", "--out", "-"),
    ("batch", "--zn", "2..30"),
]


def _cli(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert wnc.cli.main(list(argv)) == 0
    return buf.getvalue().encode()


def _canonical(argv, stdout: bytes) -> bytes:
    if "--json" in argv:
        return gate.report_digest(stdout).encode()
    return stdout


@pytest.fixture
def runner():
    with tempfile.TemporaryDirectory(prefix=".wncbench-", dir=ROOT) as workdir:
        yield Runner(workdir, {})


def test_same_seed_same_operations():
    for workload in pool.WORKLOADS:
        for seed in range(20):
            assert pool.draw(workload, seed) == pool.draw(workload, seed)
    code = ("import sys; sys.path.insert(0, %r); import pool; "
            "print([op.key for w in pool.WORKLOADS for op in pool.draw(w, 7)])"
            % os.path.dirname(os.path.abspath(__file__)))
    seen = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=str(h))).stdout
            for h in (1, 2)}
    assert seen == {str([op.key for w in pool.WORKLOADS
                         for op in pool.draw(w, 7)]) + "\n"}


def test_seeds_vary_the_draw():
    for workload in ("dense", "sparse", "census", "probes"):
        draws = {tuple(op.key for op in pool.draw(workload, s)) for s in range(20)}
        assert len(draws) > 1


def test_tracing_leaves_output_byte_identical():
    plain = {argv: _cli(argv) for argv in SMALL}
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = {argv: _cli(argv) for argv in SMALL}
    finally:
        tracer.uninstall()
    for argv in SMALL:
        assert _canonical(argv, traced[argv]) == _canonical(argv, plain[argv]), argv
    assert wnc.cli.main is not None and not hasattr(wnc.cli.main, "__wrapped__")

    names = [s[0] for s in tracer.spans]
    parent_of = {(tracer.spans[i][0], tracer.spans[s[3]][0])
                 for i, s in enumerate(tracer.spans) if s[3] >= 0}
    assert ("classify.nilpotents", "rings.nilradical_quotient") in parent_of
    assert ("invariants.components", "coloring.chromatic_index_exact") in parent_of
    assert ("ringexpr.parse_ring_expr", "cli.cmd_report") in parent_of
    assert {n.split(".")[0] for n in names} == set(spans.LAYERS)


def test_counting_leaves_output_byte_identical():
    plain = {argv: _cli(argv) for argv in SMALL[:4]}
    counts: dict = {}
    undo = spans.count_ring_ops(counts)
    try:
        counted = {argv: _cli(argv) for argv in SMALL[:4]}
    finally:
        undo()
    for argv in SMALL[:4]:
        assert _canonical(argv, counted[argv]) == _canonical(argv, plain[argv])
    assert counts["add"] > 0 and counts["mul"] > 0


def test_summary_self_and_inclusive_times():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def middle(depth):
        return middle(depth - 1) if depth else wrapped_leaf()

    wrapped_leaf = tracer.wrap("classify.leaf", leaf)
    middle = tracer.wrap("rings.middle", middle)
    tracer.wrap("cli.top", lambda: middle(2))()
    # top 0..9; middle 1..8, 2..7, 3..6; leaf 4..5
    s = tracer.summary()
    assert s["calls"] == {"cli.top": 1, "rings.middle": 3, "classify.leaf": 1}
    assert s["incl"] == {"cli.top": 9.0, "rings.middle": 7.0, "classify.leaf": 1.0}
    assert s["self"]["cli"] == 2.0
    assert s["self"]["rings"] == 6.0
    assert s["self"]["classify"] == 1.0
    assert s["root_s"] == 9.0 == sum(s["self"].values())


def test_self_times_plus_untraced_equal_the_traced_pass(runner):
    ops = [pool._report("Z14"), pool._report("Z12/nil"),
           pool.Op(("report", "Z512", "--four-cliques", "--json"), pool.HANG,
                   1, 2.0, 1024 * pool.MB)]
    results = runner.run_pass(ops, "spans")
    assert results[2].trace is not None and results[2].op_s == 2.0
    assert results[2].trace["incl"]["invariants.enumerate_k_cliques"] > 0
    traced_s = sum(r.op_s for r in results)
    summaries = [r.trace for r in results]
    untraced = traced_s - sum(s["root_s"] for s in summaries)
    self_total = sum(v for s in summaries for v in s["self"].values())
    assert self_total + untraced == pytest.approx(traced_s, rel=1e-12, abs=1e-9)
    # an overrun is charged its deadline; its open spans end when the alarm
    # is handled, a little later
    assert abs(untraced) < 0.05 * traced_s


def test_calls_and_ring_op_counts_repeat(runner):
    ops = [pool._report("Z14"), pool._report("M2(Z2)"), pool._report("Z3 x Z5")]
    first, second = (runner.run_pass(ops, "spans") for _ in range(2))
    assert [r.trace["calls"] for r in first] == [r.trace["calls"] for r in second]
    assert [r.trace["edges"] for r in first] == [r.trace["edges"] for r in second]
    counted = [runner.run_pass(ops, "count") for _ in range(2)]
    assert [r.ring_ops for r in counted[0]] == [r.ring_ops for r in counted[1]]
    assert all(r.ring_ops["add"] > 0 for r in counted[0])


def test_limits_stop_a_child(runner):
    slow = pool.Op(("report", "GF(1000000000000000000000007)", "--json"),
                   pool.HANG, 1, 0.5, 1024 * pool.MB)
    outcome, result, _ = runner.execute(slow, "plain")
    assert outcome.status == "overrun" and result["op_s"] == 0.5
    big = pool.Op(("report", "M99999(Z2)", "--json"), pool.HANG, 1, 30.0,
                  256 * pool.MB)
    outcome, _, _ = runner.execute(big, "plain")
    assert outcome.status == "overrun"
    assert gate.check(big, outcome, {}) == ("charted", "known hang overran its limits")


def test_gate():
    op = pool._report("Z10")
    doc = json.loads(_cli(op.argv))
    good = json.dumps(doc).encode()
    expected = {op.key: gate.report_digest(good)}
    ok = gate.Outcome("done", 0, good, b"")
    assert gate.check(op, ok, expected) == ("ok", "")
    doc["wall_time_seconds"] = 99.0
    slower = gate.Outcome("done", 0, json.dumps(doc).encode(), b"")
    assert gate.check(op, slower, expected) == ("ok", "")
    doc["girth"] = 4
    assert gate.check(op, gate.Outcome("done", 0, json.dumps(doc).encode(), b""),
                      expected)[0] == "failed"
    doc["theorem_verdicts"][0].update(status="DISAGREE", known_discrepancy=False)
    assert "uncharted DISAGREE" in gate.check(
        op, gate.Outcome("done", 0, json.dumps(doc).encode(), b""), expected)[1]
    assert gate.check(op, gate.Outcome("done", 2, good, b""), expected)[0] == "failed"
    assert gate.check(op, gate.Outcome("overrun", None, b"", b""), expected)[0] == "failed"

    hang = pool.WORKLOADS["probes"][0][0]
    refused = gate.Outcome("done", 1, b"", b"error: GF(...) exceeds the size cap 4096\n")
    assert gate.check(hang, refused, {}) == ("ok", "")
    crashed = gate.Outcome("done", 1, b"", b"Traceback (most recent call last):\n...\n")
    assert gate.check(hang, crashed, {})[0] == "failed"


def test_expected_digests_cover_every_operation():
    with open(os.path.join(os.path.dirname(__file__), "expected.json")) as fh:
        expected = json.load(fh)
    for op in pool.every_op():
        if op.kind != pool.HANG:
            assert op.key in expected, op.key
    for answer in pool.HANG_ANSWERS.values():
        if "digest_of" in answer:
            assert answer["digest_of"].key in expected


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(prefix=".wncbench-", dir=ROOT) as bare:
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "wncbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "wncbench/run.py", "--workload", "dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
