"""The correctness gate: each operation's output against recorded digests.

A report counts only if its canonical JSON, minus `wall_time_seconds`, is
byte-identical to the recorded one and it has no DISAGREE verdict that is
not flagged `known_discrepancy`. Exports and batch CSVs must match byte for
byte, refusals must print the recorded one-line error and exit 1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import pool


@dataclass
class Outcome:
    status: str          # "done", "overrun" (deadline or memory) or "crash"
    exit_code: int | None
    stdout: bytes
    stderr: bytes


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(stdout: bytes, drop=()) -> str:
    doc = json.loads(stdout)
    for key in ("wall_time_seconds", *drop):
        doc.pop(key, None)
    return sha256(json.dumps(doc, sort_keys=True, ensure_ascii=False).encode())


def digest(op: pool.Op, out: Outcome) -> str:
    """The digest recorded for an operation that finished as expected."""
    if op.kind == pool.REPORT:
        return report_digest(out.stdout)
    if op.kind == pool.REFUSAL:
        return sha256(out.stderr)
    return sha256(out.stdout)


def _uncharted_disagreements(doc) -> list[str]:
    return [v["theorem"] for v in doc.get("theorem_verdicts", ())
            if v["status"] == "DISAGREE" and not v["known_discrepancy"]]


def check(op: pool.Op, out: Outcome, expected: dict) -> tuple[str, str]:
    """("ok" | "charted" | "failed", reason).

    "charted" is an overrun of an input charted as a hang: it is not an
    answer, so it is neither ok nor a defect the benchmark can blame on a
    change. Every other overrun fails.
    """
    if out.status == "overrun":
        if op.kind == pool.HANG:
            return "charted", "known hang overran its limits"
        return "failed", "overran its deadline or memory limit"
    if out.status == "crash":
        return "failed", "child died without a result"
    if op.kind == pool.HANG:
        return _check_hang_answer(op, out, expected)
    want_exit = 1 if op.kind == pool.REFUSAL else 0
    if out.exit_code != want_exit:
        return "failed", f"exit {out.exit_code}, expected {want_exit}"
    if op.kind == pool.REFUSAL and out.stdout:
        return "failed", "a refusal wrote to stdout"
    if op.kind == pool.REPORT:
        try:
            bad = _uncharted_disagreements(json.loads(out.stdout))
        except ValueError:
            return "failed", "report is not JSON"
        if bad:
            return "failed", "uncharted DISAGREE: " + ", ".join(bad)
    if op.key not in expected:
        return "failed", "no recorded digest"
    if digest(op, out) != expected[op.key]:
        return "failed", "output differs from the recorded digest"
    return "ok", ""


def _check_hang_answer(op: pool.Op, out: Outcome, expected: dict):
    """A charted hang that finished: a clear refusal or a correct report."""
    if out.exit_code == 1:
        lines = out.stderr.decode("utf-8", "replace").splitlines()
        if len(lines) == 1 and lines[0].startswith("error: ") and not out.stdout:
            return "ok", ""
        return "failed", "exit 1 without a one-line error message"
    answer = pool.HANG_ANSWERS[op.key]
    if out.exit_code != 0 or not answer:
        return "failed", f"exit {out.exit_code}, expected a one-line refusal" + (
            "" if not answer else " or a report")
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        return "failed", "report is not JSON"
    bad = _uncharted_disagreements(doc)
    if bad:
        return "failed", "uncharted DISAGREE: " + ", ".join(bad)
    if "digest_of" in answer:
        if report_digest(out.stdout, answer["drop"]) != expected.get(answer["digest_of"].key):
            return "failed", "report differs from the recorded digest"
    if "ring" in answer and (doc.get("ring"), doc.get("carrier_size")) != (
            answer["ring"], answer["size"]):
        return "failed", "report is for the wrong ring"
    return "ok", ""
